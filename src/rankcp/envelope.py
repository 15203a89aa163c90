"""High-probability envelopes for the pooled ranks of calibration items.

Write ``R(r)`` for the rank, within all ``n + m`` items, of the calibration
item whose rank among the ``n`` calibration items is ``r``.  The sorted vector
``(R(1), ..., R(n))`` follows a universal distribution: under exchangeability
of tie-free values it only depends on ``n`` and ``m``, never on the data.  An
*envelope* is a pair of integer vectors with

    P( for all r:  lower[r] <= R(r) <= upper[r] )  >=  1 - delta.

Four constructions are provided:

* ``naive``           [r, r + m], holds with probability one.
* ``theoretical``     closed-form band of half-width ``(m+1) * lam`` around
                      ``r + (m+1) r / n``, where
                      ``lam = sqrt(log(C sqrt(tau) / delta) / tau)`` with
                      ``tau = n m / (n + m)`` and ``C = 4 sqrt(2 pi)``.
                      The constant is not tight, so actual coverage is
                      typically far above ``1 - delta``.  (The underlying
                      two-sided concentration argument naturally yields level
                      ``1 - 2 delta``; the band is implemented at the stated
                      nominal ``1 - delta``, which is conservative in
                      practice.)
* ``linear``          same shape with the half-width factor ``c`` calibrated
                      on simulated trajectories: the minimal ``c`` such that
                      at least ``ceil((1 - delta) K)`` of ``K`` simulated
                      trajectories lie fully inside.  The minimizer is exact,
                      an order statistic of per-trajectory deviations.
* ``quantile``        per-rank empirical quantiles of the simulated ranks at
                      levels ``gamma`` and ``1 - gamma``, with ``gamma``
                      maximal on the grid ``{j / K}`` under the same
                      constraint.  Counts of each column's values over its
                      observed range give every order statistic and, for
                      each trajectory, the highest level whose bounds still
                      contain it; ``gamma`` is an order statistic of those
                      exit levels, with no sort and no search over ``j``.

Every simulated trajectory is strictly increasing, and
:class:`SortedRankSample` refuses one that is not.  So at each level the
per-rank order statistics are strictly increasing in the rank too: where
every row has ``R(r) < R(r + 1)``, the ``j``-th smallest (or largest) value
at rank ``r + 1`` lies above the one at rank ``r``.  The quantile bounds are
those order statistics as they are, with no monotonicity repair.

Monte-Carlo calibration costs an extra ``4 sqrt(log(nK) / K)`` of confidence
(:func:`mc_guarantee_slack`), recorded in ``Envelope.mc_meta`` so reports can
state the effective level ``1 - delta - slack``.

:func:`build_envelope` builds any kind by name; the experiment harness and
the CLI build envelopes only through it.  Every ``delta`` is read by
``ranks.as_level``, and :func:`_ceil_count` turns a level into a count (the
fits' ``need`` and ``conformal.select_k``'s ``k``).

The simulation draws raw Philox words, the ones ``Generator.random`` would
turn into uniforms, and ranks each row by one in-place sort of the words
themselves, turned into exact keys: the 11 bits that ``Generator.random``
drops are set on the calibration draws and cleared on the test draws (see
:func:`simulate_sorted_ranks`).  The ranks are those of the uniforms; a test
uniform equal to a calibration uniform ranks below it.

The simulated sample is column-major: the ``K`` ranks at one calibration
rank are adjacent in memory.  The simulation writes each sub-block of rows
into it column by column, and every pass over a sample (validation, fits,
coverage) reads groups of whole columns, each one contiguous slab, so none
allocates anything of the sample's size.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionMismatch, InsufficientSample, InvalidInput, SampleTooLarge
from .ranks import as_count, as_level, as_number, as_ranks
from .streams import CHUNK, as_seed, chunk_stream

THEORETICAL_C = 4.0 * math.sqrt(2.0 * math.pi)

# Trajectory count used by default when simulating envelopes.
DEFAULT_K = 100_000

ENVELOPE_KINDS = ("naive", "theoretical", "linear", "quantile")

# The low 11 bits of a raw word, which Generator.random drops to make the
# uniform (w >> 11) * 2**-53.
_DROPPED_BITS = np.uint64(2**11 - 1)

# Entries of a K x n sample that one step of a column-group pass touches,
# and draws in one sub-block of simulate_sorted_ranks.  At 2**16 a group's
# intp copy and a sub-block's raw words (512 KiB each) stay in a core's
# private cache.  Column groups ran as fast as at 2**18, and the offline
# benchmark's peak RSS was 3 MB lower.  Sub-blocks of 2**16 draws ranked as
# fast as the best constant row count at every benchmark row length, while
# each constant lost 7-27 % at some other length (16 rows at n+m = 400,
# 64 at 4000).
_BLOCK = 2**16

# The kernel's memory report, whose MemAvailable line the pre-flight reads.
_MEMINFO = "/proc/meminfo"
# The cgroup v2 limit and use of this process's memory, in bytes, where the
# cgroup file system is mounted; a limit below the host's memory caps it.
# The use counts page cache, of which the kernel reclaims the inactive_file
# line of the cgroup's memory statistics before it kills.
_CGROUP_MAX = "/sys/fs/cgroup/memory.max"
_CGROUP_CURRENT = "/sys/fs/cgroup/memory.current"
_CGROUP_STAT = "/sys/fs/cgroup/memory.stat"


def _ceil_count(q: float, K: int) -> int:
    """Smallest integer >= q * K, guarded against float fuzz, clipped to [0, K].

    The one count ceiling of a level: the fits' ``ceil((1 - delta) K)`` and
    ``conformal.select_k``'s ``ceil((1 - alpha + delta)(n + 1))``.
    """
    return min(K, max(0, int(math.ceil(q * K - 1e-9))))


@dataclass
class MonteCarloMeta:
    """Provenance of a simulation-calibrated envelope."""

    K: int
    seed: int
    slack: float


def _check_integers(values: np.ndarray, name: str) -> None:
    """Refuse an array of a dtype other than an integer one: a float is not truncated.

    Stricter than ``ranks.as_ranks``, which reads whole floats: a sample keeps
    its own integer dtype, since the fits index count tables with it.
    """
    if values.dtype.kind not in "iu":
        raise InvalidInput(f"{name} must be integers, got {values.dtype}")


@dataclass
class SortedRankSample:
    """K simulated sorted vectors of pooled calibration ranks.

    Each row is a strictly increasing n-subset of ``{1, ..., n+m}``, with
    ``n >= 1`` and ``m >= 0``; a sample holds at least one row.  Any integer
    dtype and any memory layout are accepted.  :func:`simulate_sorted_ranks`
    stores the narrowest unsigned dtype that holds ``n + m``, column-major:
    ``trajectories.T`` is C-contiguous, so the ``K`` ranks at one calibration
    rank are adjacent and every pass over the sample (validation, fits,
    coverage) walks whole columns.  Under numpy's promotion rules an unsigned
    array combined with a Python int stays unsigned and can wrap around, so
    the kernels combine the sample only with int64 or intp arrays (the
    quantile fit's offsets, :func:`_count_inside`'s bounds) or float arrays
    (the linear fit's ``center``), never with a Python scalar.
    """

    n: int
    m: int
    seed: int
    trajectories: np.ndarray

    def __post_init__(self):
        self.n, self.m = as_count(self.n, "n", least=1), as_count(self.m, "m", least=0)
        traj = np.asarray(self.trajectories)
        if traj.ndim != 2 or traj.shape[1] != self.n:
            raise DimensionMismatch(f"trajectories must be (K, n={self.n})")
        if traj.shape[0] < 1:
            raise InsufficientSample("K=0 trajectories; a sample needs K >= 1")
        _check_integers(traj, "trajectory ranks")  # the fits index count tables with them
        cols = traj.T
        pairs = np.full(self.n - 1, traj.shape[0])
        if not all(np.all(cols[c0 + 1:c1 + 1] > cols[c0:c1])
                   for c0, c1 in _column_groups(pairs)):
            raise InvalidInput("trajectories must be strictly increasing")
        # increasing rows take their least value in the first column and
        # their greatest in the last
        as_ranks(cols[[0, -1]], "trajectory ranks", top=self.n + self.m)
        self.trajectories = traj

    @property
    def K(self) -> int:
        return self.trajectories.shape[0]


def _column_groups(sizes: np.ndarray) -> list[tuple[int, int]]:
    """Ranges ``(c0, c1)`` of consecutive columns that a pass takes at once.

    ``sizes[c]`` counts the entries a pass holds for column ``c``.  A new
    group starts with the first column whose running total of sizes crosses a
    multiple of a budget: :data:`_BLOCK` entries, or a 64th of the total if
    that is less, so that a pass's temporaries stay small against a small
    sample too.  A group holds at most the budget plus one column.
    """
    budget = max(1, min(_BLOCK, int(sizes.sum()) // 64))
    starts = np.cumsum(sizes) - sizes
    edges = [0, *(np.flatnonzero(np.diff(starts // budget)) + 1).tolist(), len(sizes)]
    return list(zip(edges[:-1], edges[1:]))


def _available_memory() -> int | None:
    """Bytes that a new allocation can take, or ``None`` if unknown.

    ``MemAvailable`` from :data:`_MEMINFO` where the kernel reports it, which
    leaves out memory that other processes hold; else physical memory.  Where
    the cgroup's :data:`_CGROUP_MAX` holds a number, the result is at most
    that limit less the cgroup's :data:`_CGROUP_CURRENT` use, so that a
    container below the host's memory is not killed first.  The use is net
    of the reclaimable cache (:func:`_cgroup_inactive_file`).
    """
    host = _host_memory()
    try:
        with open(_CGROUP_MAX, encoding="ascii") as fh:
            limit = int(fh.read())  # "max" where there is no limit
        with open(_CGROUP_CURRENT, encoding="ascii") as fh:
            used = int(fh.read())
    except (OSError, ValueError):
        return host
    left = max(0, limit - max(0, used - _cgroup_inactive_file()))
    return left if host is None else min(host, left)


def _cgroup_inactive_file() -> int:
    """Bytes on the ``inactive_file`` line of :data:`_CGROUP_STAT`, else 0."""
    try:
        with open(_CGROUP_STAT, encoding="ascii") as fh:
            return next((int(line.removeprefix("inactive_file ")) for line in fh
                         if line.startswith("inactive_file ")), 0)
    except (OSError, ValueError):
        return 0


def _host_memory() -> int | None:
    """``MemAvailable`` from :data:`_MEMINFO`, else physical memory, else ``None``."""
    try:
        with open(_MEMINFO, encoding="ascii") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024  # reported in kB
    except (OSError, ValueError, IndexError):
        pass
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):  # no sysconf on this platform
        return None


def _allocate_trajectories(K: int, n: int, m: int, rows: int) -> np.ndarray:
    """An empty ``K x n`` sample of ranks in ``[1, n+m]``, or :class:`SampleTooLarge`.

    The sample is column-major: the ``(K, n)`` transpose of a C-contiguous
    ``(n, K)`` buffer, so the ``K`` ranks of each column are adjacent.

    Its dtype is the narrowest unsigned one that holds ``n + m`` (uint8 up to
    255, uint16 up to 65535, uint32 above).  The pre-flight against available
    memory (:func:`_available_memory`) sizes the sample with that dtype's ``itemsize`` and adds the buffers
    of one sub-block of ``rows`` rows of :func:`simulate_sorted_ranks`: per
    drawn item its raw word, which becomes its sort key (8 B), and its tag
    (1 B); per calibration item its int64 sorted position (8 B).
    """
    total = n + m
    dtype = np.min_scalar_type(total)
    per_row = 9 * total + 8 * n
    nbytes = dtype.itemsize * K * n + rows * per_row
    size = f"K={K} trajectories of n={n} ranks need {nbytes / 2**20:,.0f} MiB"
    memory = _available_memory()
    if memory is not None and nbytes > memory:
        available = f"more than the {memory / 2**20:,.0f} MiB of available memory"
        one = dtype.itemsize * n + per_row
        if one > memory:  # no K is small enough
            raise SampleTooLarge(
                f"one trajectory of n+m={total} draws needs {one / 2**20:,.0f} MiB "
                f"to rank, {available}; lower n + m"
            )
        raise SampleTooLarge(f"{size}, {available}; lower K")
    try:
        return np.empty((n, K), dtype=dtype).T
    except MemoryError as exc:
        raise SampleTooLarge(f"{size}, which could not be allocated; lower K") from exc


def simulate_sorted_ranks(n: int, m: int, K: int, seed: int) -> SortedRankSample:
    """Simulate K sorted vectors of pooled calibration ranks.

    Each trajectory draws ``n + m`` uniforms, ranks the first ``n`` among all
    of them, and sorts the result.  Block ``c`` of :data:`CHUNK` trajectories
    draws from its own jumped Philox stream keyed by ``(seed, n, m)``, so each
    trajectory depends only on the seed, the sizes and its index.  A block's
    draws are taken in sub-blocks of ``max(1, _BLOCK // (n + m))`` rows from
    its stream; consecutive draws continue the same sequence, so the values
    do not depend on how many rows are drawn at once.

    The draws are the stream's raw 64-bit words ``w``, the words that
    ``Generator.random`` turns into the uniforms ``(w >> 11) * 2**-53``, so
    the uniforms order like ``w >> 11``.  Each word becomes its own sort key
    in place: the 11 low bits that ``Generator.random`` drops are set on the
    first ``n`` (the calibration draws) and cleared on the others, so keys
    order like the uniforms.  Each row is sorted once, in place, and the low
    bit of each sorted key marks where the calibration draws landed.  The
    ranks are those of an argsort of the uniforms, except that a test item
    whose uniform equals a calibration item's has the smaller key and ranks
    first, so the calibration item's rank counts it.

    The sample is stored column-major, in the narrowest unsigned dtype that
    holds ``n + m`` (see :func:`_allocate_trajectories`); each sub-block's
    int64 positions are written into its columns by an unsafe-casting
    subtraction, which cannot wrap since every rank lies in ``[1, n+m]``.
    Raises :class:`SampleTooLarge` before
    drawing anything if that sample and one sub-block's buffers exceed the
    machine's available memory.
    """
    n, m = as_count(n, "n", least=1), as_count(m, "m", least=0)
    K = as_count(K, "K", least=1)
    total = n + m
    step = min(K, max(1, _BLOCK // total))
    out = _allocate_trajectories(K, n, m, step)
    # Row i of a sub-block starts at flat index i * total; subtracting that
    # (less one) from a flat position leaves the 1-based pooled rank.
    starts = np.arange(step, dtype=np.int64)[:, None] * total - 1
    tagged = np.empty((step, total), dtype=bool)
    for c in range(math.ceil(K / CHUNK)):
        bits = chunk_stream(seed, c, "sorted-ranks", n, m).bit_generator
        end = min(K, (c + 1) * CHUNK)
        for lo in range(c * CHUNK, end, step):
            rows = min(end - lo, step)
            keys = bits.random_raw((rows, total))
            np.bitwise_or(keys[:, :n], _DROPPED_BITS, out=keys[:, :n])
            np.bitwise_and(keys[:, n:], ~_DROPPED_BITS, out=keys[:, n:])
            keys.sort(axis=1)
            np.bitwise_and(keys, 1, out=tagged[:rows], casting="unsafe")
            del keys  # freed before the next sub-block is drawn
            # Sorted positions of the first n draws; the flat scan meets
            # each row's positions in increasing order, so rows arrive sorted.
            # Not bound to a name, they are freed before the next sub-block.
            # Given as (n, rows) transposes, numpy writes the column-major
            # sample column by column; given as (rows, n), it wrote row by
            # row and took 4x as long.
            np.subtract(np.flatnonzero(tagged[:rows]).reshape(rows, n).T, starts[:rows].T,
                        out=out[lo:lo + rows].T, casting="unsafe")
    return SortedRankSample(n=n, m=m, seed=seed, trajectories=out)


@dataclass
class Envelope:
    """Simultaneous bounds on pooled calibration ranks, indexed by calibration rank.

    ``lower[r - 1] <= R(r) <= upper[r - 1]`` for calibration rank
    ``r in 1..n``, holding jointly with probability at least ``1 - delta``
    (minus ``mc_meta.slack`` for simulation-calibrated kinds).  ``param`` is
    the shape parameter: ``lam`` (theoretical), ``c_hat`` (linear),
    ``gamma_hat`` (quantile), ``None`` (naive).  The sizes are read by
    ``ranks.as_count`` and the bounds by ``ranks.as_ranks``, in ``[1, n+m]``,
    so whole floats and numpy scalars are accepted; ``param`` is read by
    ``ranks.as_number`` as finite, ``mc_meta.slack`` as finite and
    nonnegative, and ``mc_meta.seed`` by ``streams.as_seed``.  The sizes,
    ``mc_meta.K``, ``mc_meta.seed``, ``delta``, ``param`` and
    ``mc_meta.slack`` are stored as Python ints and floats (a new
    ``mc_meta``: the caller's is not changed), which JSON can write.
    """

    n: int
    m: int
    delta: float
    kind: str
    lower: np.ndarray
    upper: np.ndarray
    param: float | None = None
    mc_meta: MonteCarloMeta | None = None

    # The kinds fitted on simulated trajectories, which carry ``mc_meta``.
    MC_KINDS = ("linear", "quantile")

    def __post_init__(self):
        self.n, self.m = as_count(self.n, "n", least=1), as_count(self.m, "m", least=0)
        check_envelope_kind(self.kind)
        self.delta = as_level(self.delta, "delta")
        self.param = None if self.param is None else as_number(self.param, "param")
        meta = self.mc_meta
        if meta is not None:
            K = as_count(meta.K, "mc_meta.K", least=1)
            slack = as_number(meta.slack, "mc_meta.slack", nonnegative=True)
            self.mc_meta = replace(meta, K=K, seed=as_seed(meta.seed, "mc_meta.seed"),
                                   slack=slack)
        lower, upper = (as_ranks(bound, "bounds", top=self.n + self.m)
                        for bound in (self.lower, self.upper))
        if lower.shape != (self.n,) or upper.shape != (self.n,):
            raise DimensionMismatch("lower/upper must have length n")
        if np.any(lower > upper):
            raise InvalidInput("lower must not exceed upper")
        if np.any(np.diff(lower) < 0) or np.any(np.diff(upper) < 0):
            raise InvalidInput("bounds must be nondecreasing in the rank")
        if self.kind == "naive":
            r = np.arange(1, self.n + 1)
            if not (np.array_equal(lower, r) and np.array_equal(upper, r + self.m)):
                raise InvalidInput("naive envelope must be [r, r+m]")
        self.lower, self.upper = lower, upper

    def width(self) -> np.ndarray:
        """Span ``upper - lower`` per calibration rank."""
        return self.upper - self.lower

    def bounds_for_ranks(self, calib_ranks) -> tuple[np.ndarray, np.ndarray]:
        """``(lower[r - 1], upper[r - 1])`` for an array of calibration ranks ``r`` in [1, n]."""
        ranks = as_ranks(calib_ranks, "calibration ranks", top=self.n)
        return self.lower[ranks - 1], self.upper[ranks - 1]


def naive_envelope(n: int, m: int) -> Envelope:
    """The always-valid envelope [r, r + m]; delta recorded as 0."""
    n, m = as_count(n, "n", least=1), as_count(m, "m", least=0)
    r = np.arange(1, n + 1, dtype=np.int64)
    return Envelope(n=n, m=m, delta=0.0, kind="naive", lower=r, upper=r + m)


def theoretical_band_halfwidth(n: int, m: int, delta: float) -> float:
    """The closed-form normalized half-width ``lam`` for given sizes and level."""
    delta = as_level(delta, "delta", positive=True)
    n, m = as_count(n, "n", least=1), as_count(m, "m", least=1)
    tau = n * m / (n + m)
    return math.sqrt(math.log(THEORETICAL_C * math.sqrt(tau) / delta) / tau)


def _band_envelope(
    n: int, m: int, delta: float, halfwidth: float, kind: str,
    mc_meta: MonteCarloMeta | None = None,
) -> Envelope:
    """Envelope of form r + (m+1)(r/n +- halfwidth), rounded outward and clipped."""
    r = np.arange(1, n + 1, dtype=float)
    center = r + (m + 1) * r / n
    raw_lo = center - (m + 1) * halfwidth
    raw_hi = center + (m + 1) * halfwidth
    lower = np.clip(np.floor(raw_lo), 1, n + m).astype(np.int64)
    upper = np.clip(np.ceil(raw_hi), 1, n + m).astype(np.int64)
    return Envelope(
        n=n, m=m, delta=delta, kind=kind, lower=lower, upper=upper,
        param=halfwidth, mc_meta=mc_meta,
    )


def theoretical_envelope(n: int, m: int, delta: float) -> Envelope:
    """Closed-form envelope at level ``1 - delta``.

    Width before clipping is ``2 (m+1) lam``, of order ``m / sqrt(tau)``, an
    improvement over the naive width ``m`` by roughly ``sqrt(tau)`` whenever
    ``2 (m+1) lam < m``.
    """
    lam = theoretical_band_halfwidth(n, m, delta)
    return _band_envelope(n, m, delta, lam, "theoretical")


def mc_guarantee_slack(n: int, K: int) -> float:
    """Confidence lost to Monte-Carlo calibration: ``4 sqrt(log(nK) / K)``.

    A fitted envelope that contains a ``(1 - delta)`` fraction of its K
    training trajectories covers fresh data with probability at least
    ``1 - delta - slack``.
    """
    n, K = as_count(n, "n", least=1), as_count(K, "K", least=1)
    return 4.0 * math.sqrt(math.log(n * K) / K)


def _check_fit_level(K: int, delta: float) -> int:
    """Refuse a level ``1 - delta`` that ``K`` trajectories cannot resolve.

    Returns ``need = max(1, ceil((1 - delta) K))``, the trajectories a fit
    must hold.  The fits check their sample with it; :func:`build_envelope`
    checks ``K`` before simulating, so a hopeless request draws nothing.
    """
    delta = as_level(delta, "delta")
    if delta > 0.0 and K < 1.0 / delta:
        raise InsufficientSample(
            f"K={K} trajectories cannot resolve delta={delta}; need K >= 1/delta"
        )
    return max(1, _ceil_count(1.0 - delta, K))


def _mc_meta(sims: SortedRankSample) -> MonteCarloMeta:
    return MonteCarloMeta(
        K=sims.K, seed=sims.seed, slack=mc_guarantee_slack(sims.n, sims.K)
    )


def _count_inside(traj: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> int:
    """Trajectories with every coordinate in ``[lower, upper]``, counted over column groups."""
    cols = traj.T
    inside = np.ones(traj.shape[0], dtype=bool)
    for c0, c1 in _column_groups(np.full(traj.shape[1], traj.shape[0])):
        within = cols[c0:c1] >= lower[c0:c1, None]
        within &= cols[c0:c1] <= upper[c0:c1, None]
        inside &= within.all(axis=0)
    return int(np.count_nonzero(inside))


def fit_linear_envelope(sims: SortedRankSample, delta: float) -> Envelope:
    """Fit the band envelope ``r + (m+1)(r/n +- c_hat)`` on simulated ranks.

    ``c_hat`` is exact: with per-trajectory normalized deviations
    ``d_k = max_r |R_k(r) - (r + (m+1) r / n)| / (m+1)``, a trajectory lies in
    the band of parameter ``c`` iff ``d_k <= c``, so the minimal feasible
    ``c`` is the ``ceil((1-delta) K)``-th smallest deviation.  Bounds are then
    rounded outward and clipped to ``[1, n+m]``, which can only enlarge the
    envelope.
    """
    need = _check_fit_level(sims.K, delta)
    n, m, K = sims.n, sims.m, sims.K
    r = np.arange(1, n + 1, dtype=float)
    center = r + (m + 1) * r / n
    cols = sims.trajectories.T
    deviations = np.zeros(K)
    for c0, c1 in _column_groups(np.full(n, K)):
        far = cols[c0:c1] - center[c0:c1, None]
        np.abs(far, out=far)
        np.maximum(deviations, far.max(axis=0), out=deviations)
    deviations /= m + 1
    c_hat = float(np.partition(deviations, need - 1)[need - 1])
    return _band_envelope(n, m, delta, c_hat, "linear", _mc_meta(sims))


def _column_counts(slab: np.ndarray, offsets: np.ndarray, size: int):
    """Table entries ``slab + offsets[:, None]`` as intp, and their counts over ``size``."""
    values = np.add(slab, offsets[:, None], dtype=np.intp)
    return values, np.bincount(values.ravel(order="K"), minlength=size)


def fit_quantile_envelope(sims: SortedRankSample, delta: float) -> Envelope:
    """Fit per-rank quantile bounds on simulated ranks.

    At grid level ``j`` the bounds at each calibration rank are the
    ``(j+1)``-th smallest and ``(j+1)``-th largest simulated value (the
    empirical quantiles of orders ``j/K`` and ``1 - j/K``, order statistics at
    index ``ceil(qK)`` for the upper side and its mirror for the lower side).
    ``j`` only shrinks the envelope as it grows; ``gamma_hat = j*/K`` for
    the maximal ``j* <= K/2`` with at least ``need = ceil((1-delta) K)``
    trajectories fully inside.

    The fit counts instead of sorting, over groups of whole columns, each one
    contiguous slab of a column-major sample (:func:`_column_groups`).  One
    ``bincount`` over each column's observed range ``[min, max]`` gives
    counts whose cumulative sums ``le`` give every order statistic: the
    ``(j+1)``-th smallest value is the first ``v`` with ``le(v) > j``.  The
    same table gives each trajectory its exit level ``e_k``, the highest
    ``j`` whose bounds contain all its coordinates: the ``(j+1)``-th smallest
    value is ``<= v`` iff ``le(v) >= j + 1`` and the ``(j+1)``-th largest is
    ``>= v`` iff ``ge(v) >= j + 1``, so a value ``v`` allows levels up to
    ``min(le(v), ge(v)) - 1``.  Trajectory ``k`` is inside at level ``j`` iff
    ``j <= e_k``, so ``j*`` is the ``need``-th largest ``e_k``, capped at
    ``K // 2``; level 0 always holds.  Nothing ``K x n`` is allocated.  The
    cumulative counts are kept for the bounds while they take at most a
    quarter of the sample's memory, and otherwise counted again once ``j*``
    is known.

    The bounds need no monotonicity repair: every trajectory of a valid
    sample is strictly increasing, so at any one level the order statistics
    are strictly increasing in the rank (see the module docstring), and
    ``j*`` is maximal for the bounds as returned.
    """
    need = _check_fit_level(sims.K, delta)
    n, m, K = sims.n, sims.m, sims.K
    cols = sims.trajectories.T
    first = cols.min(axis=1).astype(np.int64)
    span = cols.max(axis=1).astype(np.int64) - first + 1
    # One table holds every column's observed range end to end: value v of
    # column c is entry v + base[c], and a group of columns c0:c1 owns
    # entries lo:hi of it.
    end = np.cumsum(span)
    base = end - span - first
    groups = [(c0, c1, int(end[c0] - span[c0]), int(end[c1 - 1]))
              for c0, c1 in _column_groups(K + span)]
    # The cumulative counts, 8 B per entry, are kept while they take at most a
    # quarter of the sample's memory; otherwise they are counted again.
    keep = 32 * int(end[-1]) <= sims.trajectories.nbytes
    kept = np.empty(int(end[-1]), dtype=np.int64) if keep else None

    # min(le, ge) lies in [1, K]: the narrowest dtype that holds K at least
    # halves the gather's output
    level_dtype = np.min_scalar_type(K)
    exit_level = np.full(K, K, dtype=level_dtype)
    for c0, c1, lo, hi in groups:
        values, hist = _column_counts(cols[c0:c1], base[c0:c1] - lo, hi - lo)
        # column i of the group holds le in (i K, (i+1) K]
        le = np.cumsum(hist, out=kept[lo:hi] if keep else None)
        local = le - np.repeat(np.arange(c1 - c0) * K, span[c0:c1])
        hist += K
        hist -= local  # ge, the count of values >= each value
        np.minimum(hist, local, out=hist)
        level = hist.astype(level_dtype)
        np.minimum(exit_level, level.take(values).min(axis=0), out=exit_level)
    best = min(K // 2, int(np.partition(exit_level, K - need)[K - need]) - 1)

    # The (j+1)-th smallest value of column i of a group is the first entry
    # with le > i K + j.
    lower = np.empty(n, dtype=np.int64)
    upper = np.empty(n, dtype=np.int64)
    for c0, c1, lo, hi in groups:
        offsets = base[c0:c1] - lo
        if keep:
            le = kept[lo:hi]
        else:
            le = np.cumsum(_column_counts(cols[c0:c1], offsets, hi - lo)[1])
        at = np.arange(c1 - c0) * K
        lower[c0:c1] = np.searchsorted(le, at + best, "right") - offsets
        upper[c0:c1] = np.searchsorted(le, at + (K - 1 - best), "right") - offsets
    return Envelope(
        n=n, m=m, delta=delta, kind="quantile", lower=lower, upper=upper,
        param=best / K, mc_meta=_mc_meta(sims),
    )


def envelope_coverage(env: Envelope, sims: SortedRankSample) -> float:
    """Fraction of trajectories with every coordinate inside the envelope."""
    if (env.n, env.m) != (sims.n, sims.m):
        raise DimensionMismatch(
            f"envelope is ({env.n}, {env.m}) but sample is ({sims.n}, {sims.m})"
        )
    return _count_inside(sims.trajectories, env.lower, env.upper) / sims.K


def check_envelope_kind(kind: str) -> None:
    """Refuse an envelope kind :func:`build_envelope` cannot construct."""
    if kind not in ENVELOPE_KINDS:
        raise InvalidInput(f"unknown envelope kind {kind!r}; expected one of "
                           f"{', '.join(ENVELOPE_KINDS)}")


def build_envelope(
    kind: str, n: int, m: int, delta: float, K: int, seed: int
) -> Envelope:
    """Construct an envelope of the requested kind at level ``1 - delta``.

    ``delta`` must lie in ``[0, 1)`` for every kind, though the naive envelope
    records 0.  The kinds in ``Envelope.MC_KINDS`` simulate ``K`` trajectories
    from ``seed``, after checking that ``K`` can resolve ``delta``, so a
    hopeless request draws nothing; the other kinds ignore ``K`` and ``seed``.
    """
    delta = as_level(delta, "delta")
    check_envelope_kind(kind)
    if kind == "naive":
        return naive_envelope(n, m)
    if kind == "theoretical":
        return theoretical_envelope(n, m, delta)
    K = as_count(K, "K", least=1)
    _check_fit_level(K, delta)
    sims = simulate_sorted_ranks(n, m, K, seed)
    fit = fit_linear_envelope if kind == "linear" else fit_quantile_envelope
    return fit(sims, delta)
