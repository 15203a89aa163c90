"""Envelope construction: simulation law, fits, coverage, and determinism."""

import contextlib
import hashlib
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rankcp import (
    DimensionMismatch,
    Envelope,
    InsufficientSample,
    InvalidDelta,
    InvalidInput,
    SampleTooLarge,
    SortedRankSample,
    envelope_coverage,
    fit_linear_envelope,
    fit_quantile_envelope,
    mc_guarantee_slack,
    naive_envelope,
    simulate_sorted_ranks,
    theoretical_envelope,
)
from rankcp import envelope
from rankcp.envelope import _ceil_count, _count_inside
from rankcp.streams import CHUNK, chunk_stream

# frozen by high-precision evaluation of sqrt(log(C sqrt(tau)/delta)/tau)
# with tau = 50*500/550, C = 4 sqrt(2 pi), delta = 0.1
LAMBDA_50_500_01 = 0.378623608353826


def test_simulation_structure():
    sample = simulate_sorted_ranks(7, 13, 500, seed=1)
    traj = sample.trajectories
    assert traj.shape == (500, 7)
    assert traj.T.flags.c_contiguous  # column-major: each column's K ranks adjacent
    assert traj.min() >= 1 and traj.max() <= 20
    # not np.diff: on the unsigned sample a decrease wraps to a positive step
    assert np.all(traj[:, 1:] > traj[:, :-1])


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
    # Beyond the K x n output, at most one block's working set may be live;
    # keeping the previous block's arrays while drawing the next one read
    # about 3.2 of its CHUNK x (n+m) uniforms.  Drawing a few rows at a time
    # keeps it far below that.
    n, m, K = 20, 380, 3 * CHUNK
    tracemalloc.start()
    try:
        sims = simulate_sorted_ranks(n, m, K, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    blocks = (peak - sims.trajectories.nbytes) / (CHUNK * (n + m) * 8)
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


def test_coverage_of_a_narrow_sample_against_wider_bounds():
    # an int8 sample (every rank <= 127) against bounds reaching n+m = 200,
    # which int8 cannot hold: the comparison dtype widens to hold both
    rng = np.random.default_rng(12)
    n, m, K = 100, 100, 400
    wide = np.sort([rng.choice(127, n, replace=False) + 1 for _ in range(K)], axis=1)
    r = np.arange(1, n + 1)
    env = Envelope(n=n, m=m, delta=0.1, kind="quantile", lower=r + 1, upper=r + m)
    assert env.upper.max() > 127
    coverage = envelope_coverage(env, SortedRankSample(n, m, 0, wide.astype(np.int8)))
    assert coverage == envelope_coverage(env, SortedRankSample(n, m, 0, wide))
    inside = np.all((wide >= env.lower) & (wide <= env.upper), axis=1)
    assert 0 < coverage == np.count_nonzero(inside) / K < 1


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
    # n = 0 reached numpy's zero-size reduction error, and m < 0 was accepted
    for n, m, lower, upper in [(0, 1, [], []), (2, -1, [1, 2], [1, 2])]:
        with pytest.raises(InvalidInput, match=f"^need n >= 1 and m >= 0, got n={n}, m={m}$"):
            Envelope(n=n, m=m, delta=0.1, kind="quantile", lower=lower, upper=upper)


# The kernels as they were before row blocks and the counting fit: whole
# CHUNK x (n+m) argsorts read back through a 2-D nonzero, and a fit that
# sorts every column and bisects on the grid level.  The blocked kernels must
# reproduce them exactly.


def _reference_trajectories(n, m, K, seed):
    out = np.empty((K, n), dtype=np.int32)
    for c in range(math.ceil(K / CHUNK)):
        lo, hi = c * CHUNK, min(K, (c + 1) * CHUNK)
        u = chunk_stream(seed, c, "sorted-ranks", n, m).random((hi - lo, n + m))
        out[lo:hi] = np.nonzero(np.argsort(u, axis=1) < n)[1].reshape(hi - lo, n) + 1
    return out


def _reference_inside(traj, lower, upper):
    return int(np.count_nonzero(np.all((traj >= lower) & (traj <= upper), axis=1)))


def _reference_quantile_fit(traj, delta):
    """``(lower, upper, gamma_hat)`` by a column sort and a bisection on the level."""
    K = traj.shape[0]
    ordered = np.sort(traj, axis=0)
    need = max(1, _ceil_count(1.0 - delta, K))

    def feasible(j):
        return _reference_inside(traj, ordered[j], ordered[K - 1 - j]) >= need

    lo_j, hi_j = 0, K // 2
    if feasible(hi_j):
        best = hi_j
    else:
        while hi_j - lo_j > 1:
            mid = (lo_j + hi_j) // 2
            lo_j, hi_j = (mid, hi_j) if feasible(mid) else (lo_j, mid)
        best = lo_j
    lower = np.minimum.accumulate(ordered[best][::-1])[::-1]
    upper = np.maximum.accumulate(ordered[K - 1 - best])
    return lower, upper, best / K


def _reference_linear_param(traj, m, delta):
    n, K = traj.shape[1], traj.shape[0]
    r = np.arange(1, n + 1, dtype=float)
    deviations = np.max(np.abs(traj - (r + (m + 1) * r / n)), axis=1) / (m + 1)
    need = max(1, _ceil_count(1.0 - delta, K))
    return float(np.partition(deviations, need - 1)[need - 1])


# Sub-blocks small enough that tiny samples cross every sub-block boundary,
# several per chunk: 40 // (n + m) rows.  Column groups are not changed by
# it: a group holds at most a 64th of a sample's entries, so below n = 64
# every group is one column.
_TINY_BLOCKS = {"_BLOCK": 40}


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 12),
    m=st.integers(0, 12),
    K=st.one_of(st.integers(1, 300), st.sampled_from([CHUNK + 1, 2 * CHUNK + 129])),
    delta=st.sampled_from([0.0, 0.02, 0.5]),
    seed=st.integers(0, 2**32),
    tiny=st.booleans(),
)
@example(n=4, m=0, K=129, delta=0.5, seed=1, tiny=True)  # m = 0: the K // 2 cap
@example(n=12, m=12, K=CHUNK + 1, delta=0.02, seed=2, tiny=False)
@example(n=1, m=5, K=1, delta=0.0, seed=3, tiny=True)
def test_blocked_kernels_match_whole_sample_references(n, m, K, delta, seed, tiny):
    assume(delta == 0.0 or K >= 1 / delta)
    patch = mock.patch.multiple(envelope, **_TINY_BLOCKS) if tiny else contextlib.nullcontext()
    with patch:
        sims = simulate_sorted_ranks(n, m, K, seed)
        quantile = fit_quantile_envelope(sims, delta)
        linear = fit_linear_envelope(sims, delta)
        covered = round(envelope_coverage(quantile, sims) * K)
    traj = _reference_trajectories(n, m, K, seed)
    assert sims.trajectories.dtype == np.min_scalar_type(n + m)
    assert np.array_equal(sims.trajectories, traj)
    lower, upper, gamma = _reference_quantile_fit(traj, delta)
    assert np.array_equal(quantile.lower, lower)
    assert np.array_equal(quantile.upper, upper)
    assert quantile.param == gamma
    assert linear.param == _reference_linear_param(traj, m, delta)
    assert covered == _reference_inside(traj, lower, upper)


# The quantile fit's column groups against the sort-and-bisect reference.
# Where m + 1 dwarfs K, each column's observed range is wider than its K
# entries, so groups hold one or two columns and the counts are taken again
# for the bounds.  Where K dwarfs m + 1, groups hold several columns; the
# counts are kept at K = 2000 but are too large against a sample of K = 40.
@pytest.mark.parametrize("n, m, K, delta, several, recount", [
    (40, 3000, 60, 0.02, False, True), (7, 5000, 3, 0.0, False, True),
    (300, 20, 2000, 0.02, True, False), (600, 4, 40, 0.1, True, True),
])
def test_quantile_fit_over_column_groups_matches_the_reference(n, m, K, delta, several,
                                                              recount):
    sims = simulate_sorted_ranks(n, m, K, seed=m)
    with mock.patch.object(envelope, "_column_counts", wraps=envelope._column_counts) as counts:
        env = fit_quantile_envelope(sims, delta)
    widths = [call.args[0].shape[0] for call in counts.call_args_list]
    assert (max(widths) > 2) == several
    assert sum(widths) == (2 if recount else 1) * n  # every column counted once or twice
    traj = _reference_trajectories(n, m, K, m)
    lower, upper, gamma = _reference_quantile_fit(traj, delta)
    assert np.array_equal(env.lower, lower)
    assert np.array_equal(env.upper, upper)
    assert env.param == gamma
    assert round(envelope_coverage(env, sims) * K) == _reference_inside(traj, lower, upper)
    assert fit_linear_envelope(sims, delta).param == _reference_linear_param(traj, m, delta)


# Up to n = 200 with K <= 60, column groups hold one column or several.
@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 200),
    m=st.integers(0, 30),
    K=st.integers(1, 60),
    delta=st.sampled_from([0.0, 0.1, 0.5]),
    seed=st.integers(0, 2**32),
    block=st.integers(1, 400),
    spot=st.tuples(st.integers(0, 59), st.integers(0, 199)),
)
def test_fits_coverage_and_validation_do_not_depend_on_the_layout(n, m, K, delta, seed,
                                                                  block, spot):
    assume(delta == 0.0 or K >= 1 / delta)
    traj = simulate_sorted_ranks(n, m, K, seed).trajectories
    copies = [np.ascontiguousarray(traj), np.asfortranarray(traj), traj.astype(np.int64)]
    assert copies[0].flags.c_contiguous and copies[1].flags.f_contiguous
    k, c = spot[0] % K, spot[1] % max(1, n - 1)
    with mock.patch.object(envelope, "_BLOCK", block):
        seen = []
        for copy in copies:
            sims = SortedRankSample(n=n, m=m, seed=seed, trajectories=copy)
            quantile = fit_quantile_envelope(sims, delta)
            linear = fit_linear_envelope(sims, delta)
            seen.append([quantile.lower.tolist(), quantile.upper.tolist(), quantile.param,
                         linear.lower.tolist(), linear.upper.tolist(), linear.param,
                         envelope_coverage(quantile, sims), envelope_coverage(linear, sims)])
            errors = []
            for col, value in [(c + 1, copy[k, c]), (c, n + m + 1)]:
                if col >= n:
                    continue
                broken = copy.copy(order="K")
                broken[k, col] = value
                with pytest.raises(InvalidInput) as err:
                    SortedRankSample(n=n, m=m, seed=seed, trajectories=broken)
                errors.append(str(err.value))
            seen[-1].append(errors)
    assert seen[1] == seen[0] and seen[2] == seen[0]


@pytest.mark.parametrize("entry", [
    lambda sims: fit_quantile_envelope(sims, 0.0),
    lambda sims: fit_linear_envelope(sims, 0.0),
    lambda sims: envelope_coverage(naive_envelope(3, 2), sims),
], ids=["quantile", "linear", "coverage"])
def test_empty_sample_is_refused(entry):
    # the fits raised IndexError and ValueError and the coverage divided by zero
    with pytest.raises(InsufficientSample, match=r"^K=0 trajectories; a sample needs K >= 1$"):
        entry(SortedRankSample(n=3, m=2, seed=0, trajectories=np.empty((0, 3), np.uint8)))


def test_sample_sizes_are_checked():
    # n = 0 reached an IndexError in the quantile fit and a zero-size reduction
    # in the linear fit
    with pytest.raises(InvalidInput, match=r"^need n >= 1 and m >= 0, got n=0, m=1$"):
        SortedRankSample(n=0, m=1, seed=0, trajectories=np.empty((5, 0), np.uint8))
    with pytest.raises(InvalidInput, match=r"^need n >= 1 and m >= 0, got n=1, m=-1$"):
        SortedRankSample(n=1, m=-1, seed=0, trajectories=np.ones((5, 1), np.uint8))


# Rows long enough for numpy's vectorized sort, which the n, m <= 12 cases
# above never reach, a sample that spills into a second chunk, and rows of
# 60000 draws, about half of which hold two draws with one 31-bit prefix.
@pytest.mark.parametrize("n, m, K", [
    (700, 300, 300), (1, 999, 64), (999, 1, 64), (300, 0, 16), (50, 150, CHUNK + 1),
    (30000, 30000, 8),
])
def test_simulation_matches_argsort_reference_at_simd_sizes(n, m, K):
    with mock.patch.object(np, "argsort", wraps=np.argsort) as argsort:
        sims = simulate_sorted_ranks(n, m, K, seed=n + m)
    argsort.assert_not_called()
    assert sims.trajectories.dtype == np.min_scalar_type(n + m)
    assert np.array_equal(sims.trajectories, _reference_trajectories(n, m, K, n + m))


def test_long_row_sample_is_pinned():
    # sha256 of a sample frozen when the simulation ranked every row by a sort
    # of 64-bit keys; about a third of its rows of 40000 draws share a prefix
    traj = simulate_sorted_ranks(20000, 20000, 40, seed=0).trajectories
    assert traj.dtype == np.uint16
    assert hashlib.sha256(traj.tobytes()).hexdigest() == (
        "cfd74965759714485bef2cd360c0d12358f98109680ed3d2f89c675357017e8a")


# sha256 of samples at the benchmark's sizes, frozen while the simulation
# sorted 32-bit prefix keys; each K crosses the CHUNK boundary
@pytest.mark.parametrize("n, m, K, digest", [
    (200, 200, 2 * CHUNK + 4,
     "9a06cc6c4800038fc53f1a7321fa0dcb28d547ea6e14e833edfbc7c5679ad29a"),
    (1000, 1000, CHUNK + 1,
     "004fd5b6fc5314f52b5307b475cc92fc30bd7f3621f2cd1e7eb7a74bc649f903"),
    (2500, 500, CHUNK + 1,
     "5cb708454af2eefa83dd119dccc5d34bb889ee72cb4a4e4f71a1f2059daa96dd"),
    (2000, 2000, CHUNK + 1,
     "61a15dd0ecd2c4f2b9997c468df1587150e716c92ce4d90518d6bcda86b5ddd0"),
])
def test_benchmark_size_samples_are_pinned(n, m, K, digest):
    traj = simulate_sorted_ranks(n, m, K, seed=0).trajectories
    assert hashlib.sha256(traj.tobytes()).hexdigest() == digest


# n + m at the edges of uint8 and uint16: the top rank n + m is the largest
# value the narrow dtype holds, or the first that needs the next one.
@pytest.mark.parametrize("n, m", [(252, 3), (253, 3), (65532, 3), (65533, 3)])
def test_narrow_sample_dtype_edges(n, m):
    K, delta = 40, 0.1
    sims = simulate_sorted_ranks(n, m, K, seed=n)
    traj = sims.trajectories
    assert traj.dtype == np.min_scalar_type(n + m)
    assert np.array_equal(traj, _reference_trajectories(n, m, K, n))
    assert traj.max() == n + m
    wide = SortedRankSample(n=n, m=m, seed=n, trajectories=traj.astype(np.int64))
    for fit in (fit_quantile_envelope, fit_linear_envelope):
        env, ref = fit(sims, delta), fit(wide, delta)
        assert np.array_equal(env.lower, ref.lower)
        assert np.array_equal(env.upper, ref.upper)
        assert env.param == ref.param
        assert envelope_coverage(env, sims) == envelope_coverage(env, wide)


class _GridStream:
    """A stream of raw words whose uniforms lie on the grid {0, 1/4, 2/4, 3/4}.

    It keeps its draws as uniforms.  Word ``(k << 62) | low`` is the uniform
    ``k / 4`` for any ``low`` below ``2**11``, so equal uniforms mostly come
    from different words.  Every third row of a draw is constant, so each of
    its uniforms ties.
    """

    def __init__(self, drawn):
        self.rng = np.random.default_rng(len(drawn))
        self.drawn = drawn
        self.bit_generator = self

    def random_raw(self, size):
        words = self.rng.integers(0, 4, size=size, dtype=np.uint64) << np.uint64(62)
        words[::3] = np.uint64(2) << np.uint64(62)
        words |= self.rng.integers(0, 2**11, size=size, dtype=np.uint64)
        self.drawn.append((words >> np.uint64(11)) * 2.0**-53)
        return words


@pytest.mark.parametrize("n, m, K", [(5, 7, 300), (300, 200, 20), (4, 0, 9), (1, 6, 5)])
def test_simulation_ranks_tied_test_uniforms_first(monkeypatch, n, m, K):
    drawn = []
    monkeypatch.setattr(envelope, "chunk_stream", lambda *tags: _GridStream(drawn))
    traj = simulate_sorted_ranks(n, m, K, seed=0).trajectories
    u = np.concatenate(drawn)
    assert u.shape == (K, n + m)
    calib = np.arange(n + m) < n
    for row, draws in zip(traj, u):
        # a test uniform equal to a calibration uniform ranks below it
        order = np.lexsort((calib, draws))
        assert np.array_equal(row, np.flatnonzero(calib[order]) + 1)
    constant = np.all(u == u[:, :1], axis=1)
    assert constant.any()
    assert np.all(traj[constant] == np.arange(m + 1, m + n + 1))
    if n > 1:
        assert np.all(traj[:, 1:] > traj[:, :-1])


class _ClashingStream:
    """A stream of raw words whose rows hold shared prefixes and tied uniforms.

    It keeps its draws.  In every other row a word is one of two prefixes
    (bits 33-63), one of two middles (bits 11-32) and random low bits (0-10):
    words with one prefix and different middles share a 31-bit prefix key but
    not a uniform, and words equal above bit 11 are one uniform.  The other
    rows are full random words, which almost never share a prefix.
    """

    def __init__(self, drawn):
        self.rng = np.random.default_rng(len(drawn))
        self.drawn = drawn
        self.bit_generator = self
        self.prefixes = self.rng.integers(0, 2**31, size=2, dtype=np.uint64) << np.uint64(33)
        self.middles = self.rng.integers(0, 2**22, size=2, dtype=np.uint64) << np.uint64(11)

    def random_raw(self, size):
        words = self.rng.bit_generator.random_raw(size)
        shape = words[::2].shape
        words[::2] = (self.rng.choice(self.prefixes, shape) | self.rng.choice(self.middles, shape)
                      | self.rng.integers(0, 2**11, size=shape, dtype=np.uint64))
        self.drawn.append(words.copy())
        return words


@pytest.mark.parametrize("n, m, K", [(5, 7, 300), (40, 60, 70), (3, 0, 40), (1, 2, 40)])
def test_simulation_ranks_clashing_prefixes_on_exact_keys(monkeypatch, n, m, K):
    drawn = []
    monkeypatch.setattr(envelope, "chunk_stream", lambda *tags: _ClashingStream(drawn))
    traj = simulate_sorted_ranks(n, m, K, seed=0).trajectories
    words = np.concatenate(drawn)
    assert words.shape == (K, n + m)
    calib = np.arange(n + m) < n
    uniforms = words >> np.uint64(11)
    for row, draws in zip(traj, uniforms):
        # the uniforms' order, with a test draw first where two are equal
        order = np.lexsort((calib, draws))
        assert np.array_equal(row, np.flatnonzero(calib[order]) + 1)
    ordered = np.sort(words, axis=1)
    same_prefix = (ordered[:, 1:] >> np.uint64(33)) == (ordered[:, :-1] >> np.uint64(33))
    same_uniform = (ordered[:, 1:] >> np.uint64(11)) == (ordered[:, :-1] >> np.uint64(11))
    clashing = same_prefix.any(axis=1)
    assert clashing.any() and not clashing.all()
    assert np.any(same_prefix & ~same_uniform)  # a clash the exact keys order
    assert np.any(same_uniform & (ordered[:, 1:] != ordered[:, :-1]))  # a tie of two words


def test_sample_validation_checks_every_column_group_and_the_dtype():
    traj = np.tile(np.arange(1, 131, dtype=np.int32), (9, 1))
    traj[8, 129] = traj[8, 128]  # a repeat in the last row and the last column pair only
    with mock.patch.object(envelope, "_BLOCK", 18):  # two columns of K=9 per group
        with pytest.raises(InvalidInput, match="strictly increasing"):
            SortedRankSample(n=130, m=3, seed=0, trajectories=traj)
    with pytest.raises(InvalidInput, match="must be integers, got float64"):
        SortedRankSample(n=130, m=3, seed=0, trajectories=traj[:8].astype(float))


def _traced_peak(fn, *args):
    """Peak bytes traced while ``fn(*args)`` runs, above what was live before."""
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    result = fn(*args)
    return result, tracemalloc.get_traced_memory()[1] - base


def test_envelope_kernels_allocate_nothing_of_sample_size():
    # numpy imports numpy.random on a process's first draw (about 0.7 MB of
    # module objects); that import is not memory the kernels allocate
    simulate_sorted_ranks(1, 1, 1, 0)
    tracemalloc.start()
    try:
        sims, simulated = _traced_peak(simulate_sorted_ranks, 500, 100, 20_000, 5)
        env, quantile = _traced_peak(fit_quantile_envelope, sims, 0.02)
        _, linear = _traced_peak(fit_linear_envelope, sims, 0.02)
        _, coverage = _traced_peak(envelope_coverage, env, sims)
        # m + 1 > K: the fit's count tables still take less than the sample
        small = simulate_sorted_ranks(200, 3000, 400, 6)
        _, wide = _traced_peak(fit_quantile_envelope, small, 0.02)
    finally:
        tracemalloc.stop()
    nbytes = sims.trajectories.nbytes
    assert simulated < 1.1 * nbytes
    # the sorted copy and two K x n masks of the sort-and-bisect fit took 1.5x
    assert quantile < nbytes / 4
    # the K x n float deviations of the old linear fit took 2x
    assert linear < nbytes / 4
    assert coverage < nbytes / 4
    assert wide < small.trajectories.nbytes


def test_oversized_sample_fails_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(SampleTooLarge, match=r"K=10+ trajectories of n=10 ranks need"):
            simulate_sorted_ranks(10, 10, 10**15, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def _one_mib_of_memory(monkeypatch):
    monkeypatch.setattr(envelope, "_available_memory", lambda: 2**20)


def test_preflight_sizes_the_narrow_sample(monkeypatch):
    # 1 MiB of available memory; n + m = 20 ranks fit in one byte each
    _one_mib_of_memory(monkeypatch)
    n, m = 10, 10
    # one sub-block of 2**16 // (n + m) rows: 9 B per draw, 8 B per
    # calibration position
    draws = envelope._BLOCK // (n + m) * (9 * (n + m) + 8 * n)
    K = (2**20 - draws) // n  # as int32, this sample would not fit beside the sub-block
    assert simulate_sorted_ranks(n, m, K, seed=1).trajectories.nbytes == K * n
    with pytest.raises(SampleTooLarge, match=rf"^K={K + 1} trajectories of n=10 ranks "
                       r"need 1 MiB, more than the 1 MiB of available memory; lower K$"):
        simulate_sorted_ranks(n, m, K + 1, seed=1)


def test_preflight_counts_the_draws_of_a_row(monkeypatch):
    # 1 MiB of available memory; one row takes 9 B per draw, 8 B per
    # calibration position and 4 B per uint32 rank
    _one_mib_of_memory(monkeypatch)
    n = 10
    m = (2**20 - 8 * n - 4 * n) // 9 - n
    assert simulate_sorted_ranks(n, m, 1, seed=1).trajectories.shape == (1, n)
    with pytest.raises(SampleTooLarge, match=rf"^one trajectory of n\+m={n + m + 1} draws "
                       r"needs 1 MiB to rank, more than the 1 MiB of available memory; "
                       r"lower n \+ m$"):
        simulate_sorted_ranks(n, m + 1, 1, seed=1)
    # 1.6 MB of raw words in one row, though the sample is 10 ranks
    with pytest.raises(SampleTooLarge, match=r"^one trajectory of n\+m=200010 draws "
                       r"needs 2 MiB to rank"):
        simulate_sorted_ranks(10, 200_000, 1, seed=1)


def test_available_memory_reads_memavailable_before_physical_memory(monkeypatch, tmp_path):
    # 4 MiB of physical memory, 2 MiB of it available
    pages = {"SC_PHYS_PAGES": 1024, "SC_PAGE_SIZE": 4096}
    monkeypatch.setattr(envelope.os, "sysconf", pages.__getitem__)
    meminfo = tmp_path / "meminfo"
    monkeypatch.setattr(envelope, "_MEMINFO", str(meminfo))
    meminfo.write_text("MemTotal:           4096 kB\nMemFree:             100 kB\n"
                       "MemAvailable:       2048 kB\nBuffers:              10 kB\n")
    assert envelope._available_memory() == 2 * 2**20
    # 3.7 MiB with one sub-block's buffers: fits in physical memory only
    with pytest.raises(SampleTooLarge, match=r"^K=300000 trajectories of n=10 ranks need "
                       r"4 MiB, more than the 2 MiB of available memory; lower K$"):
        simulate_sorted_ranks(10, 10, 300_000, seed=1)
    # a kernel without the field, or no such file: physical memory
    meminfo.write_text("MemTotal:           4096 kB\nMemFree:             100 kB\n")
    assert envelope._available_memory() == 4 * 2**20
    assert simulate_sorted_ranks(10, 10, 300_000, seed=1).K == 300_000
    meminfo.unlink()
    assert envelope._available_memory() == 4 * 2**20
    monkeypatch.delattr(envelope.os, "sysconf")
    assert envelope._available_memory() is None


def _envelope(**overrides):
    fields = dict(n=3, m=2, delta=0.1, kind="quantile", lower=[1, 2, 3], upper=[3, 4, 5])
    return Envelope(**{**fields, **overrides})


# (call, exception type, the parameter its message names)
ENVELOPE_REFUSALS = {
    "SortedRankSample shape": (
        lambda: SortedRankSample(n=3, m=2, seed=0, trajectories=np.ones((4, 2), int)),
        DimensionMismatch, r"trajectories must be \(K, n=3\)"),
    "simulate n": (lambda: simulate_sorted_ranks(0, 5, 10, seed=0), InvalidInput, "n >= 1"),
    "simulate m": (lambda: simulate_sorted_ranks(5, -1, 10, seed=0), InvalidInput, "m >= 0"),
    "simulate K": (lambda: simulate_sorted_ranks(5, 5, 0, seed=0), InvalidInput, "K >= 1"),
    "Envelope kind": (lambda: _envelope(kind="exotic"), InvalidInput, "kind must be one of"),
    "Envelope delta": (lambda: _envelope(delta=1.0), InvalidDelta, r"delta=1.0 outside"),
    "Envelope shape": (lambda: _envelope(upper=[3, 4]), DimensionMismatch,
                       "lower/upper must have length n"),
    "Envelope lower > upper": (lambda: _envelope(lower=[2, 2, 3], upper=[1, 4, 5]),
                               InvalidInput, "lower must not exceed upper"),
    "bounds_for_ranks range": (lambda: _envelope().bounds_for_ranks([1, 4]), InvalidInput,
                               r"calibration ranks outside \[1, n\]"),
    "halfwidth m": (lambda: envelope.theoretical_band_halfwidth(5, 0, 0.1), InvalidInput,
                    "m >= 1"),
    "slack n": (lambda: mc_guarantee_slack(0, 100), InvalidInput, "n >= 1"),
    "slack K": (lambda: mc_guarantee_slack(5, 0), InvalidInput, "K >= 1"),
    "fit level delta": (lambda: fit_linear_envelope(simulate_sorted_ranks(3, 2, 20, seed=0),
                                                    1.5),
                        InvalidDelta, r"delta=1.5 outside"),
}


@pytest.mark.parametrize("case", ENVELOPE_REFUSALS)
def test_envelope_refusals_name_their_parameter(case):
    call, error, names = ENVELOPE_REFUSALS[case]
    with pytest.raises(error, match=names):
        call()
