"""Envelope construction: simulation law, fits, coverage, and determinism."""

import math
import tracemalloc

import numpy as np
import pytest

from rankcp import (
    DimensionMismatch,
    Envelope,
    InsufficientSample,
    InvalidDelta,
    SortedRankSample,
    envelope_coverage,
    fit_linear_envelope,
    fit_quantile_envelope,
    mc_guarantee_slack,
    naive_envelope,
    simulate_sorted_ranks,
    theoretical_envelope,
)
from rankcp.envelope import _ceil_count, _count_inside
from rankcp.streams import CHUNK

# frozen by high-precision evaluation of sqrt(log(C sqrt(tau)/delta)/tau)
# with tau = 50*500/550, C = 4 sqrt(2 pi), delta = 0.1
LAMBDA_50_500_01 = 0.378623608353826


def test_simulation_structure():
    sample = simulate_sorted_ranks(7, 13, 500, seed=1)
    traj = sample.trajectories
    assert traj.shape == (500, 7)
    assert traj.min() >= 1 and traj.max() <= 20
    assert np.all(np.diff(traj, axis=1) > 0)


def test_simulation_two_point_symmetry():
    sample = simulate_sorted_ranks(1, 1, 100_000, seed=7)
    freq = float((sample.trajectories[:, 0] == 1).mean())
    assert abs(freq - 0.5) < 0.01


def test_simulation_three_placements_uniform():
    sample = simulate_sorted_ranks(2, 1, 100_000, seed=3)
    outcomes, counts = np.unique(sample.trajectories, axis=0, return_counts=True)
    assert outcomes.tolist() == [[1, 2], [1, 3], [2, 3]]
    assert np.all(np.abs(counts / sample.K - 1 / 3) < 0.01)


def test_simulation_deterministic_and_worker_independent():
    a = simulate_sorted_ranks(10, 20, 5000, seed=42)
    b = simulate_sorted_ranks(10, 20, 5000, seed=42)
    assert np.array_equal(a.trajectories, b.trajectories)
    d = simulate_sorted_ranks(10, 20, 5000, seed=43)
    assert not np.array_equal(a.trajectories, d.trajectories)


def test_simulation_memory_is_one_block():
    # Beyond the K x n output, only one block's working set (about 2.3 times
    # its CHUNK x (n+m) uniforms here) may be live; keeping the previous
    # block's arrays while drawing the next one reads about 3.2.
    n, m, K = 20, 380, 3 * CHUNK
    tracemalloc.start()
    try:
        simulate_sorted_ranks(n, m, K, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    blocks = (peak - K * n * 4) / (CHUNK * (n + m) * 8)
    assert blocks < 2.75, f"{blocks:.2f} blocks live"


def test_naive_envelope():
    env = naive_envelope(3, 2)
    assert env.lower.tolist() == [1, 2, 3]
    assert env.upper.tolist() == [3, 4, 5]
    assert env.delta == 0.0
    assert np.all(env.width() == 2)
    flat = naive_envelope(4, 0)
    assert np.array_equal(flat.lower, flat.upper)


def test_theoretical_halfwidth_matches_formula():
    env = theoretical_envelope(50, 500, 0.1)
    assert env.param == pytest.approx(LAMBDA_50_500_01, rel=1e-12)


def test_theoretical_clips_to_domain():
    env = theoretical_envelope(50, 500, 0.1)  # lambda > 1/n, so rank 1 clips
    assert env.lower[0] == 1
    assert env.upper[-1] == 550


def test_theoretical_interior_width():
    n = m = 3000
    delta = 0.1
    env = theoretical_envelope(n, m, delta)
    lam = env.param
    assert 2 * (m + 1) * lam < m  # the band beats the naive width here
    mid = n // 2
    width = env.width()[mid - 1]
    assert abs(width - 2 * (m + 1) * lam) <= 2  # outward rounding only


def test_theoretical_rejects_bad_delta():
    with pytest.raises(InvalidDelta):
        theoretical_envelope(10, 10, 0.0)
    with pytest.raises(InvalidDelta):
        theoretical_envelope(10, 10, 1.0)


def _center_line_sample(n=5, m=10, K=50):
    r = np.arange(1, n + 1)
    center = r + (m + 1) * r / n
    row = np.clip(np.round(center), 1, n + m).astype(np.int64)
    traj = np.tile(row, (K, 1))
    return SortedRankSample(n=n, m=m, seed=0, trajectories=traj)


def test_linear_fit_center_line():
    sims = _center_line_sample()
    env = fit_linear_envelope(sims, delta=0.1)
    assert env.kind == "linear"
    assert env.param <= 1 / (sims.m + 1) + 1e-12


def test_linear_fit_delta_zero_covers_everything():
    sims = simulate_sorted_ranks(8, 15, 400, seed=5)
    env = fit_linear_envelope(sims, delta=0.0)
    r = np.arange(1, 9)
    center = r + 16 * r / 8
    deviations = np.max(np.abs(sims.trajectories - center), axis=1) / 16
    assert env.param == pytest.approx(deviations.max())
    assert envelope_coverage(env, sims) == 1.0


def test_fit_requires_enough_trajectories():
    sims = simulate_sorted_ranks(5, 5, 50, seed=1)
    with pytest.raises(InsufficientSample):
        fit_linear_envelope(sims, delta=0.01)
    with pytest.raises(InsufficientSample):
        fit_quantile_envelope(sims, delta=0.01)


def test_quantile_fit_gamma_zero_is_min_max():
    sims = simulate_sorted_ranks(6, 10, 100, seed=9)
    env = fit_quantile_envelope(sims, delta=0.01)
    assert env.param == 0.0
    # suffix-min / prefix-max of column min / max equal them (already monotone)
    assert np.array_equal(env.lower, sims.trajectories.min(axis=0))
    assert np.array_equal(env.upper, sims.trajectories.max(axis=0))
    assert envelope_coverage(env, sims) == 1.0


def test_quantile_fit_gamma_is_maximal():
    sims = simulate_sorted_ranks(10, 30, 2000, seed=12)
    delta = 0.1
    env = fit_quantile_envelope(sims, delta)
    K = sims.K
    j_star = round(env.param * K)
    need = _ceil_count(1 - delta, K)
    ordered = np.sort(sims.trajectories, axis=0)
    assert _count_inside(sims.trajectories, ordered[j_star], ordered[K - 1 - j_star]) >= need
    assert j_star < K // 2
    j_next = j_star + 1
    assert (
        _count_inside(sims.trajectories, ordered[j_next], ordered[K - 1 - j_next])
        < need
    )


def test_fitted_envelopes_training_constraint():
    sims = simulate_sorted_ranks(20, 40, 3000, seed=2)
    for delta in (0.05, 0.1, 0.3):
        for fit in (fit_linear_envelope, fit_quantile_envelope):
            env = fit(sims, delta)
            outside = 1.0 - envelope_coverage(env, sims)
            assert outside <= delta + 1e-12


def test_fitted_envelopes_fresh_coverage():
    # linear-envelope example: fresh coverage within [1 - delta - 0.02, 1]
    delta = 0.1
    sims = simulate_sorted_ranks(50, 500, 100_000, seed=21)
    fresh = simulate_sorted_ranks(50, 500, 10_000, seed=22)
    for fit in (fit_linear_envelope, fit_quantile_envelope):
        env = fit(sims, delta)
        cov = envelope_coverage(env, fresh)
        assert 1 - delta - 0.02 <= cov <= 1.0
        slack = env.mc_meta.slack
        se = math.sqrt(delta * (1 - delta) / fresh.K)
        assert cov >= 1 - delta - slack - 3 * se


def test_theoretical_coverage_conservative():
    env = theoretical_envelope(30, 60, 0.2)
    fresh = simulate_sorted_ranks(30, 60, 5000, seed=8)
    assert envelope_coverage(env, fresh) >= 1 - 0.2


def test_slack_values():
    assert mc_guarantee_slack(1, 1) == 0.0
    assert mc_guarantee_slack(50, 100_000) < 0.05
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(1, 1000))
        K = int(rng.integers(1, 10**6))
        assert mc_guarantee_slack(n, K) == pytest.approx(
            4 * math.sqrt(math.log(n * K) / K)
        )
    # decreasing in K past the turning point
    ks = [10**3, 10**4, 10**5, 10**6]
    slacks = [mc_guarantee_slack(50, k) for k in ks]
    assert slacks == sorted(slacks, reverse=True)


def test_envelope_coverage_cases():
    sims = simulate_sorted_ranks(10, 20, 2000, seed=4)
    assert envelope_coverage(naive_envelope(10, 20), sims) == 1.0

    r = np.arange(1, 11)
    center = np.clip(np.round(r + 21 * r / 10), 1, 30).astype(np.int64)
    degenerate = Envelope(
        n=10, m=20, delta=0.5, kind="quantile", lower=center, upper=center
    )
    assert envelope_coverage(degenerate, sims) < 0.01

    with pytest.raises(DimensionMismatch):
        envelope_coverage(naive_envelope(5, 20), sims)


def test_fit_determinism():
    a = fit_quantile_envelope(simulate_sorted_ranks(12, 24, 4000, seed=6), 0.1)
    b = fit_quantile_envelope(simulate_sorted_ranks(12, 24, 4000, seed=6), 0.1)
    assert np.array_equal(a.lower, b.lower)
    assert np.array_equal(a.upper, b.upper)
    assert a.param == b.param


def test_envelope_validation():
    with pytest.raises(Exception):
        Envelope(n=3, m=2, delta=0.1, kind="naive",
                 lower=np.array([1, 2, 3]), upper=np.array([2, 3, 5]))
    with pytest.raises(Exception):
        Envelope(n=3, m=2, delta=0.1, kind="quantile",
                 lower=np.array([2, 1, 3]), upper=np.array([3, 4, 5]))
    with pytest.raises(Exception):
        Envelope(n=3, m=2, delta=0.1, kind="quantile",
                 lower=np.array([1, 2, 3]), upper=np.array([3, 4, 6]))
