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
                      constraint (found by bisection; coverage is monotone in
                      ``j``).

Monte-Carlo calibration costs an extra ``4 sqrt(log(nK) / K)`` of confidence
(:func:`mc_guarantee_slack`), recorded in ``Envelope.mc_meta`` so reports can
state the effective level ``1 - delta - slack``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InsufficientSample,
    InvalidDelta,
    InvalidInput,
)
from .streams import CHUNK, chunk_stream, run_chunks

THEORETICAL_C = 4.0 * math.sqrt(2.0 * math.pi)

# Trajectory count used by default when simulating envelopes.
DEFAULT_K = 100_000

ENVELOPE_KINDS = ("naive", "theoretical", "linear", "quantile")


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
        if traj.size:
            if traj.min() < 1 or traj.max() > self.n + self.m:
                raise InvalidInput("trajectory ranks must lie in [1, n+m]")
            if self.n > 1 and not np.all(np.diff(traj, axis=1) > 0):
                raise InvalidInput("trajectories must be strictly increasing")
        self.trajectories = traj

    @property
    def K(self) -> int:
        return self.trajectories.shape[0]


def simulate_sorted_ranks(
    n: int, m: int, K: int, seed: int, workers: int | None = None
) -> SortedRankSample:
    """Simulate K sorted vectors of pooled calibration ranks.

    Each trajectory draws ``n + m`` uniforms, ranks the first ``n`` among all
    of them, and sorts the result.  Blocks of :data:`CHUNK` trajectories use
    independent jumped Philox streams keyed by ``(seed, n, m)``, so the output
    is bit-identical for any ``workers`` count.
    """
    if n < 1 or m < 0 or K < 1:
        raise InvalidInput("need n >= 1, m >= 0, K >= 1")
    total = n + m
    out = np.empty((K, n), dtype=np.int32)

    def fill(c: int) -> None:
        lo = c * CHUNK
        hi = min(K, lo + CHUNK)
        gen = chunk_stream(seed, c, "sorted-ranks", n, m)
        u = gen.random((hi - lo, total))
        order = np.argsort(u, axis=1)
        # Sorted positions of the first n uniforms; nonzero scans rows in
        # increasing column order, so each row arrives already sorted.
        cols = np.nonzero(order < n)[1]
        out[lo:hi] = cols.reshape(hi - lo, n) + 1

    run_chunks(math.ceil(K / CHUNK), fill, workers)
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


def _check_fit_args(sims: SortedRankSample, delta: float) -> None:
    if not 0.0 <= delta < 1.0:
        raise InvalidDelta(f"delta={delta} outside [0, 1)")
    if delta > 0.0 and sims.K < 1.0 / delta:
        raise InsufficientSample(
            f"K={sims.K} trajectories cannot resolve delta={delta}; need K >= 1/delta"
        )


def _mc_meta(sims: SortedRankSample) -> MonteCarloMeta:
    return MonteCarloMeta(
        K=sims.K, seed=sims.seed, slack=mc_guarantee_slack(sims.n, sims.K)
    )


def _count_inside(traj: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> int:
    inside = traj >= lower
    inside &= traj <= upper  # in place: two K x n masks live at once, not three
    return int(np.count_nonzero(inside.all(axis=1)))


def fit_linear_envelope(sims: SortedRankSample, delta: float) -> Envelope:
    """Fit the band envelope ``r + (m+1)(r/n +- c_hat)`` on simulated ranks.

    ``c_hat`` is exact: with per-trajectory normalized deviations
    ``d_k = max_r |R_k(r) - (r + (m+1) r / n)| / (m+1)``, a trajectory lies in
    the band of parameter ``c`` iff ``d_k <= c``, so the minimal feasible
    ``c`` is the ``ceil((1-delta) K)``-th smallest deviation.  Bounds are then
    rounded outward and clipped to ``[1, n+m]``, which can only enlarge the
    envelope.
    """
    _check_fit_args(sims, delta)
    n, m, K = sims.n, sims.m, sims.K
    r = np.arange(1, n + 1, dtype=float)
    center = r + (m + 1) * r / n
    deviations = np.max(np.abs(sims.trajectories - center), axis=1) / (m + 1)
    need = max(1, _ceil_count(1.0 - delta, K))
    c_hat = float(np.partition(deviations, need - 1)[need - 1])
    return _band_envelope(n, m, delta, c_hat, "linear", _mc_meta(sims))


def fit_quantile_envelope(sims: SortedRankSample, delta: float) -> Envelope:
    """Fit per-rank quantile bounds on simulated ranks.

    At grid level ``j`` the bounds at each calibration rank are the
    ``(j+1)``-th smallest and ``(j+1)``-th largest simulated value (the
    empirical quantiles of orders ``j/K`` and ``1 - j/K``, order statistics at
    index ``ceil(qK)`` for the upper side and its mirror for the lower side).
    ``j`` only shrinks the envelope as it grows, so the maximal feasible
    ``j* <= K/2`` with at least ``ceil((1-delta) K)`` trajectories fully
    inside is found by bisection; ``gamma_hat = j*/K``.

    Maximality holds for the raw per-rank bounds.  A final monotonicity
    repair (suffix-min on lower, prefix-max on upper) can only enlarge the
    envelope, so the training constraint is preserved.
    """
    _check_fit_args(sims, delta)
    n, m, K = sims.n, sims.m, sims.K
    traj = sims.trajectories
    ordered = np.sort(traj, axis=0)
    need = max(1, _ceil_count(1.0 - delta, K))

    def feasible(j: int) -> bool:
        return _count_inside(traj, ordered[j], ordered[K - 1 - j]) >= need

    lo_j, hi_j = 0, K // 2
    if feasible(hi_j):
        best = hi_j
    else:
        # invariant: feasible(lo_j) and not feasible(hi_j)
        while hi_j - lo_j > 1:
            mid = (lo_j + hi_j) // 2
            if feasible(mid):
                lo_j = mid
            else:
                hi_j = mid
        best = lo_j

    lower = np.minimum.accumulate(ordered[best][::-1])[::-1]
    upper = np.maximum.accumulate(ordered[K - 1 - best])
    return Envelope(
        n=n, m=m, delta=delta, kind="quantile",
        lower=lower.astype(np.int64), upper=upper.astype(np.int64),
        param=best / K, mc_meta=_mc_meta(sims),
    )


def envelope_coverage(env: Envelope, sims: SortedRankSample) -> float:
    """Fraction of trajectories with every coordinate inside the envelope."""
    if (env.n, env.m) != (sims.n, sims.m):
        raise DimensionMismatch(
            f"envelope is ({env.n}, {env.m}) but sample is ({sims.n}, {sims.m})"
        )
    return _count_inside(sims.trajectories, env.lower, env.upper) / sims.K
