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
                      constraint.  Column ``r`` of the sample takes values in
                      ``[r, r + m]``, so per-column counts give every order
                      statistic and, for each trajectory, the highest level
                      whose bounds still contain it; ``gamma`` is an order
                      statistic of those exit levels, with no sort and no
                      search over ``j``.

Monte-Carlo calibration costs an extra ``4 sqrt(log(nK) / K)`` of confidence
(:func:`mc_guarantee_slack`), recorded in ``Envelope.mc_meta`` so reports can
state the effective level ``1 - delta - slack``.

:func:`build_envelope` builds any kind by name; the experiment harness and
the CLI build envelopes only through it.

The simulation ranks each row of uniforms by one in-place sort of their bit
patterns, with the calibration draws tagged in the low bit (see
:func:`simulate_sorted_ranks`); a test uniform equal to a calibration uniform
ranks below it.

Every pass over a ``K x n`` sample (simulation, validation, fits, coverage)
runs over blocks of rows, so none allocates anything of the sample's size.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InsufficientSample,
    InvalidDelta,
    InvalidInput,
    SampleTooLarge,
)
from .streams import CHUNK, chunk_stream

THEORETICAL_C = 4.0 * math.sqrt(2.0 * math.pi)

# Trajectory count used by default when simulating envelopes.
DEFAULT_K = 100_000

ENVELOPE_KINDS = ("naive", "theoretical", "linear", "quantile")

# Rows of uniforms that simulate_sorted_ranks draws, sorts and reads back
# at once: small enough for the block's working set to stay in cache.
_SIM_ROWS = 128

# Entries of a K x n sample that one step of a row-blocked pass touches.
_BLOCK = 2**18

# Entries of the count table of one block of columns in the quantile fit: it
# is hit at random by bincount and by the exit-level gather, so it should fit
# in a core's private cache.
_TABLE = 2**15

# The quantile fit's tables of one block of columns hold at most K * n /
# _TABLE_SHARE entries, so its memory stays below the sample's own even when
# m + 1 > K.
_TABLE_SHARE = 16


def _ceil_count(q: float, K: int) -> int:
    """Smallest integer >= q * K, guarded against float fuzz, clipped to [0, K]."""
    return min(K, max(0, int(math.ceil(q * K - 1e-9))))


@dataclass
class MonteCarloMeta:
    """Provenance of a simulation-calibrated envelope."""

    K: int
    seed: int
    slack: float


@dataclass
class SortedRankSample:
    """K simulated sorted vectors of pooled calibration ranks.

    Each row is a strictly increasing n-subset of ``{1, ..., n+m}``.
    """

    n: int
    m: int
    seed: int
    trajectories: np.ndarray

    def __post_init__(self):
        traj = np.asarray(self.trajectories)
        if traj.ndim != 2 or traj.shape[1] != self.n:
            raise DimensionMismatch(f"trajectories must be (K, n={self.n})")
        if traj.dtype.kind not in "iu":  # the fits index count tables with them
            raise InvalidInput(f"trajectory ranks must be integers, got {traj.dtype}")
        if traj.size:
            if traj.min() < 1 or traj.max() > self.n + self.m:
                raise InvalidInput("trajectory ranks must lie in [1, n+m]")
            if self.n > 1 and not all(
                np.all(rows[:, 1:] > rows[:, :-1]) for rows in _row_blocks(traj)
            ):
                raise InvalidInput("trajectories must be strictly increasing")
        self.trajectories = traj

    @property
    def K(self) -> int:
        return self.trajectories.shape[0]


def _row_blocks(traj: np.ndarray):
    """Consecutive row slices of a 2-D array, about :data:`_BLOCK` entries each."""
    step = max(1, _BLOCK // max(1, traj.shape[1]))
    return (traj[lo:lo + step] for lo in range(0, traj.shape[0], step))


def _allocate_trajectories(K: int, n: int) -> np.ndarray:
    """An empty ``K x n`` int32 sample, or :class:`SampleTooLarge` naming its size."""
    size = f"K={K} trajectories of n={n} ranks need {4 * K * n / 2**20:,.0f} MiB"
    try:
        physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):  # no sysconf on this platform
        physical = None
    if physical is not None and 4 * K * n > physical:
        raise SampleTooLarge(
            f"{size}, more than the {physical / 2**20:,.0f} MiB of physical "
            "memory; lower K"
        )
    try:
        return np.empty((K, n), dtype=np.int32)
    except MemoryError as exc:
        raise SampleTooLarge(f"{size}, which could not be allocated; lower K") from exc


def simulate_sorted_ranks(n: int, m: int, K: int, seed: int) -> SortedRankSample:
    """Simulate K sorted vectors of pooled calibration ranks.

    Each trajectory draws ``n + m`` uniforms, ranks the first ``n`` among all
    of them, and sorts the result.  Block ``c`` of :data:`CHUNK` trajectories
    draws from its own jumped Philox stream keyed by ``(seed, n, m)``, so each
    trajectory depends only on the seed, the sizes and its index.  A block's
    uniforms are drawn a few rows at a time from its stream; consecutive
    draws continue the same sequence, so the values do not depend on how
    many rows are drawn at once.

    A row is ranked by one in-place sort of 64-bit keys: the bits of each
    uniform shifted left by one, with the low bit set on the first ``n``.
    Doubles in ``[0, 1)`` are nonnegative, so their bits order like their
    values and the shift leaves the sign bit clear; distinct draws end at least 2
    apart, so the tag cannot reorder them.  The sorted tags mark where the
    calibration uniforms landed.  This reproduces an argsort of the uniforms
    except where a calibration uniform exactly equals a test uniform: the
    test item then ranks first, so the calibration item's rank counts it.

    Raises :class:`SampleTooLarge` before drawing anything if the ``K x n``
    int32 sample alone exceeds the machine's physical memory.
    """
    if n < 1 or m < 0 or K < 1:
        raise InvalidInput("need n >= 1, m >= 0, K >= 1")
    total = n + m
    out = _allocate_trajectories(K, n)
    # Row i of a sub-block starts at flat index i * total; subtracting that
    # (less one) from a flat position leaves the 1-based pooled rank.
    starts = np.arange(_SIM_ROWS, dtype=np.int64)[:, None] * total - 1
    block = min(K, _SIM_ROWS)
    uniforms = np.empty((block, total))
    tagged = np.empty((block, total), dtype=bool)
    for c in range(math.ceil(K / CHUNK)):
        gen = chunk_stream(seed, c, "sorted-ranks", n, m)
        end = min(K, (c + 1) * CHUNK)
        for lo in range(c * CHUNK, end, _SIM_ROWS):
            rows = min(end - lo, _SIM_ROWS)
            gen.random(out=uniforms[:rows])
            # the calibration draws carry a tag in the freed low bit
            keys = uniforms[:rows].view(np.int64)
            keys <<= 1
            keys[:, :n] |= 1
            keys.sort(axis=1)
            np.bitwise_and(keys, 1, out=tagged[:rows], casting="unsafe")
            # Sorted positions of the first n uniforms; the flat scan meets
            # each row's positions in increasing order, so rows arrive sorted.
            flat = np.flatnonzero(tagged[:rows]).reshape(rows, n)
            np.subtract(flat, starts[:rows], out=out[lo:lo + rows], casting="unsafe")
    return SortedRankSample(n=n, m=m, seed=seed, trajectories=out)


@dataclass
class Envelope:
    """Simultaneous bounds on pooled calibration ranks, indexed by calibration rank.

    ``lower[r - 1] <= R(r) <= upper[r - 1]`` for calibration rank
    ``r in 1..n``, holding jointly with probability at least ``1 - delta``
    (minus ``mc_meta.slack`` for simulation-calibrated kinds).  ``param`` is
    the shape parameter: ``lam`` (theoretical), ``c_hat`` (linear),
    ``gamma_hat`` (quantile), ``None`` (naive).
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
        if self.kind not in ENVELOPE_KINDS:
            raise InvalidInput(f"kind must be one of {ENVELOPE_KINDS}")
        if not 0.0 <= self.delta < 1.0:
            raise InvalidDelta(f"delta={self.delta} outside [0, 1)")
        lower = np.asarray(self.lower, dtype=np.int64)
        upper = np.asarray(self.upper, dtype=np.int64)
        if lower.shape != (self.n,) or upper.shape != (self.n,):
            raise DimensionMismatch("lower/upper must have length n")
        total = self.n + self.m
        if lower.min() < 1 or upper.max() > total:
            raise InvalidInput("bounds must lie in [1, n+m]")
        if np.any(lower > upper):
            raise InvalidInput("lower must not exceed upper")
        if self.n > 1 and (
            np.any(np.diff(lower) < 0) or np.any(np.diff(upper) < 0)
        ):
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
        """``(lower[r - 1], upper[r - 1])`` for a vector of calibration ranks ``r``."""
        ranks = np.asarray(calib_ranks, dtype=np.int64)
        if ranks.size and (ranks.min() < 1 or ranks.max() > self.n):
            raise InvalidInput("calibration ranks outside [1, n]")
        return self.lower[ranks - 1], self.upper[ranks - 1]


def naive_envelope(n: int, m: int) -> Envelope:
    """The always-valid envelope [r, r + m]; delta recorded as 0."""
    if n < 1 or m < 0:
        raise InvalidInput("need n >= 1 and m >= 0")
    r = np.arange(1, n + 1, dtype=np.int64)
    return Envelope(n=n, m=m, delta=0.0, kind="naive", lower=r, upper=r + m)


def theoretical_band_halfwidth(n: int, m: int, delta: float) -> float:
    """The closed-form normalized half-width ``lam`` for given sizes and level."""
    if not 0.0 < delta < 1.0:
        raise InvalidDelta(f"delta={delta} outside (0, 1)")
    if n < 1 or m < 1:
        raise InvalidInput("need n >= 1 and m >= 1")
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
        param=float(halfwidth), mc_meta=mc_meta,
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
    if n < 1 or K < 1:
        raise InvalidInput("need n >= 1 and K >= 1")
    return 4.0 * math.sqrt(math.log(n * K) / K)


def _check_fit_level(K: int, delta: float) -> None:
    """Refuse a level ``1 - delta`` that ``K`` trajectories cannot resolve.

    The fits check their sample with it; :func:`build_envelope` checks ``K``
    before simulating, so a hopeless request draws nothing.
    """
    if not 0.0 <= delta < 1.0:
        raise InvalidDelta(f"delta={delta} outside [0, 1)")
    if delta > 0.0 and K < 1.0 / delta:
        raise InsufficientSample(
            f"K={K} trajectories cannot resolve delta={delta}; need K >= 1/delta"
        )


def _mc_meta(sims: SortedRankSample) -> MonteCarloMeta:
    return MonteCarloMeta(
        K=sims.K, seed=sims.seed, slack=mc_guarantee_slack(sims.n, sims.K)
    )


def _count_inside(traj: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> int:
    """Trajectories with every coordinate in ``[lower, upper]``, counted over row blocks."""
    top = max(int(lower.max()), int(upper.max()))
    if np.can_cast(np.min_scalar_type(top), traj.dtype):
        # compare in the sample's own dtype rather than widening every entry
        lower, upper = lower.astype(traj.dtype), upper.astype(traj.dtype)
    count = 0
    for rows in _row_blocks(traj):
        inside = rows >= lower
        inside &= rows <= upper
        count += int(np.count_nonzero(inside.all(axis=1)))
    return count


def fit_linear_envelope(sims: SortedRankSample, delta: float) -> Envelope:
    """Fit the band envelope ``r + (m+1)(r/n +- c_hat)`` on simulated ranks.

    ``c_hat`` is exact: with per-trajectory normalized deviations
    ``d_k = max_r |R_k(r) - (r + (m+1) r / n)| / (m+1)``, a trajectory lies in
    the band of parameter ``c`` iff ``d_k <= c``, so the minimal feasible
    ``c`` is the ``ceil((1-delta) K)``-th smallest deviation.  Bounds are then
    rounded outward and clipped to ``[1, n+m]``, which can only enlarge the
    envelope.
    """
    _check_fit_level(sims.K, delta)
    n, m, K = sims.n, sims.m, sims.K
    r = np.arange(1, n + 1, dtype=float)
    center = r + (m + 1) * r / n
    deviations = np.concatenate([
        np.max(np.abs(rows - center), axis=1) for rows in _row_blocks(sims.trajectories)
    ]) / (m + 1)
    need = max(1, _ceil_count(1.0 - delta, K))
    c_hat = float(np.partition(deviations, need - 1)[need - 1])
    return _band_envelope(n, m, delta, c_hat, "linear", _mc_meta(sims))


def _column_counts(traj: np.ndarray, m: int, c0: int, c1: int):
    """Count tables of columns ``c0:c1`` of a sample, each ``(c1 - c0, m + 1)``.

    Column ``c`` (0-based) holds values ``v`` in ``[c + 1, c + 1 + m]``; entry
    ``t`` of its table row stands for ``v = c + 1 + t``, at flat index
    ``v + shift[c - c0]``.  ``le`` counts the trajectories with a value
    ``<= v`` there, and ``level`` is the highest grid level ``j`` whose
    quantile bounds still contain ``v``: the ``(j+1)``-th smallest value is
    ``<= v`` iff ``le >= j + 1`` and the ``(j+1)``-th largest is ``>= v`` iff
    ``ge >= j + 1``, so ``level = min(le, ge) - 1``.  Returns int32 ``le``,
    flat int32 ``level`` and ``shift``.
    """
    K, width = traj.shape[0], c1 - c0
    shift = np.arange(c0, c1, dtype=np.int64) * m - (c0 * (m + 1) + 1)
    # int64 throughout, like bincount's counts: mixed-dtype arithmetic would
    # allocate casting buffers larger than a small table
    hist = np.zeros(width * (m + 1), dtype=np.int64)
    for rows in _row_blocks(traj[:, c0:c1]):
        hist += np.bincount((rows + shift).ravel(), minlength=hist.size)
    le = np.cumsum(hist.reshape(width, m + 1), axis=1)
    level = hist  # in place: ge = K - le + hist, then min(le, ge) - 1
    level -= le.ravel()
    level += K
    np.minimum(level, le.ravel(), out=level)
    level -= 1
    return le.astype(np.int32), level.astype(np.int32), shift


def fit_quantile_envelope(sims: SortedRankSample, delta: float) -> Envelope:
    """Fit per-rank quantile bounds on simulated ranks.

    At grid level ``j`` the bounds at each calibration rank are the
    ``(j+1)``-th smallest and ``(j+1)``-th largest simulated value (the
    empirical quantiles of orders ``j/K`` and ``1 - j/K``, order statistics at
    index ``ceil(qK)`` for the upper side and its mirror for the lower side).
    ``j`` only shrinks the envelope as it grows; ``gamma_hat = j*/K`` for
    the maximal ``j* <= K/2`` with at least ``need = ceil((1-delta) K)``
    trajectories fully inside.

    The fit counts instead of sorting.  Column ``r`` holds values in
    ``[r, r + m]``, so ``bincount`` fills a per-column table of counts whose
    cumulative sums give every order statistic.  The same table gives each
    trajectory its exit level ``e_k``, the highest ``j`` whose bounds contain
    all its coordinates (see :func:`_column_counts`).  Trajectory ``k`` is
    inside at level ``j`` iff ``j <= e_k``, so ``j*`` is the ``need``-th
    largest ``e_k``, capped at ``K // 2``; level 0 always holds.  The tables
    are built for a few columns at a time over blocks of rows, so nothing
    ``K x n`` is allocated; when ``m + 1 > K / 4`` the cumulative counts are
    not kept but counted again once ``j*`` is known.

    Maximality holds for the raw per-rank bounds.  A final monotonicity
    repair (suffix-min on lower, prefix-max on upper) can only enlarge the
    envelope, so the training constraint is preserved.
    """
    _check_fit_level(sims.K, delta)
    n, m, K = sims.n, sims.m, sims.K
    traj = sims.trajectories
    width = max(1, min(n, min(_TABLE, K * n // _TABLE_SHARE) // (m + 1)))
    blocks = [(c0, min(n, c0 + width)) for c0 in range(0, n, width)]
    # every column's cumulative counts, n (m+1) int32, are kept while they
    # take at most a quarter of the sample's memory
    keep = 4 * (m + 1) <= K
    kept = []

    exit_level = np.full(K, K, dtype=np.int32)
    for c0, c1 in blocks:
        le, level, shift = _column_counts(traj, m, c0, c1)
        step = max(1, _BLOCK // (c1 - c0))
        for lo in range(0, K, step):
            at = level[traj[lo:lo + step, c0:c1] + shift].min(axis=1)
            np.minimum(exit_level[lo:lo + step], at, out=exit_level[lo:lo + step])
        if keep:
            kept.append(le)
    need = max(1, _ceil_count(1.0 - delta, K))
    best = min(K // 2, int(np.partition(exit_level, K - need)[K - need]))

    # The (j+1)-th smallest value of a column is the first v with le > j.
    lower = np.empty(n, dtype=np.int64)
    upper = np.empty(n, dtype=np.int64)
    for i, (c0, c1) in enumerate(blocks):
        le = kept[i] if keep else _column_counts(traj, m, c0, c1)[0]
        first = np.arange(c0 + 1, c1 + 1)
        lower[c0:c1] = first + np.count_nonzero(le <= best, axis=1)
        upper[c0:c1] = first + np.count_nonzero(le <= K - 1 - best, axis=1)

    lower = np.minimum.accumulate(lower[::-1])[::-1]
    upper = np.maximum.accumulate(upper)
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


def build_envelope(
    kind: str, n: int, m: int, delta: float, K: int, seed: int
) -> Envelope:
    """Construct an envelope of the requested kind at level ``1 - delta``.

    ``delta`` must lie in ``[0, 1)`` for every kind, though the naive envelope
    records 0.  The kinds in ``Envelope.MC_KINDS`` simulate ``K`` trajectories
    from ``seed``, after checking that ``K`` can resolve ``delta``, so a
    hopeless request draws nothing; the other kinds ignore ``K`` and ``seed``.
    """
    if not 0.0 <= delta < 1.0:
        raise InvalidDelta(f"delta={delta} outside [0, 1)")
    if kind == "naive":
        return naive_envelope(n, m)
    if kind == "theoretical":
        return theoretical_envelope(n, m, delta)
    if kind not in Envelope.MC_KINDS:
        raise InvalidInput(f"unknown envelope kind {kind!r}")
    if K >= 1:  # K < 1 is left to the simulation's usage error
        _check_fit_level(K, delta)
    sims = simulate_sorted_ranks(n, m, K, seed)
    fit = fit_linear_envelope if kind == "linear" else fit_quantile_envelope
    return fit(sims, delta)
