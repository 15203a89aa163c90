"""Alternative targets: calibration sets, test-only ranks, top-k candidates."""

import numpy as np
import pytest

from rankcp import (
    DimensionMismatch,
    EmptyPredictionSet,
    Envelope,
    InvalidInput,
    RankSets,
    build_envelope,
    calibration_sets,
    fit_quantile_envelope,
    mc_guarantee_slack,
    naive_envelope,
    ranks_within,
    simulate_sorted_ranks,
    test_only_set as to_test_only_set,
    topk_candidates,
)


def test_calibration_sets_naive():
    env = naive_envelope(4, 3)
    sets = calibration_sets(env, [2, 4, 1, 3])
    assert list(zip(sets.lo, sets.hi)) == [(2, 5), (4, 7), (1, 4), (3, 6)]
    assert (sets.items, sets.kind) == (["c1", "c2", "c3", "c4"], "full")


def test_calibration_sets_degenerate_m_zero():
    env = naive_envelope(3, 0)
    sets = calibration_sets(env, [3, 1, 2])
    assert list(zip(sets.lo, sets.hi)) == [(3, 3), (1, 1), (2, 2)]


def test_calibration_sets_dimension_check():
    with pytest.raises(DimensionMismatch):
        calibration_sets(naive_envelope(4, 3), [1, 2, 3])


def test_calibration_sets_simultaneous_coverage():
    n, m, delta = 30, 60, 0.1
    env = fit_quantile_envelope(simulate_sorted_ranks(n, m, 5000, seed=31), delta)
    rng = np.random.default_rng(32)
    hits = 0
    reps = 2000
    for _ in range(reps):
        truth = rng.normal(size=n + m)
        pooled = ranks_within(truth)
        sets = calibration_sets(env, ranks_within(truth[:n]))
        hits += bool(np.all(sets.contains(pooled[:n])))
    freq = hits / reps
    slack = mc_guarantee_slack(n, env.mc_meta.K)
    se = np.sqrt(delta * (1 - delta) / reps)
    assert freq >= 1 - delta - slack - 3 * se


def _full(bounds, kind="full"):
    lo, hi = zip(*bounds)
    return RankSets(items=[f"t{j}" for j in range(len(bounds))], lo=lo, hi=hi, kind=kind)


def _test_only_reference(full, env):
    """Per-item counting form of test_only_set (the scalar reference)."""
    out = []
    for a, b in zip(full.lo.tolist(), full.hi.tolist()):
        n_plus = int(np.count_nonzero(env.upper <= a))
        n_minus = int(np.count_nonzero(env.lower <= b))
        out.append((max(1, a - n_minus), min(env.m, b - n_plus)))
    return out


def test_test_only_set_hand_example():
    env = Envelope(
        n=3, m=4, delta=0.1, kind="quantile",
        lower=np.array([1, 2, 4]), upper=np.array([2, 4, 6]),
    )
    out = to_test_only_set(_full([(2, 5), (5, 7)]), env)
    # t0: N+ = #{upper <= 2} = 1, N- = #{lower <= 5} = 3 -> raw [-1, 4] -> [1, 4]
    # t1: N+ = #{upper <= 5} = 2, N- = #{lower <= 7} = 3 -> raw [2, 5] -> [2, 4]
    assert list(zip(out.lo, out.hi)) == [(1, 4), (2, 4)]
    assert (out.items, out.kind) == (["t0", "t1"], "test_only")


def test_test_only_set_saturation():
    env = naive_envelope(5, 7)
    out = to_test_only_set(_full([(1, 12)]), env)
    assert (out.lo[0], out.hi[0]) == (1, 7)


def test_test_only_set_requires_full_kind():
    env = naive_envelope(3, 4)
    with pytest.raises(InvalidInput):
        to_test_only_set(_full([(1, 2)], kind="test_only"), env)


def test_test_only_set_empty_raises():
    # Every calibration item sits at pooled rank 1 or below it, which no
    # pooled ranking allows; item t1's set [1, 3] then leaves no test-only rank.
    env = Envelope(
        n=3, m=2, delta=0.1, kind="quantile",
        lower=np.array([1, 1, 1]), upper=np.array([1, 1, 1]),
    )
    with pytest.raises(EmptyPredictionSet, match="'t1'"):
        to_test_only_set(_full([(4, 5), (1, 3)]), env)
    # A fitted envelope: the lowest calibration item is surely at rank 1.
    env = build_envelope("quantile", 1000, 1, 0.02, 2000, 3)
    assert env.upper[0] == 1
    with pytest.raises(EmptyPredictionSet, match="'t0'"):
        to_test_only_set(_full([(1, 1)]), env)


@pytest.mark.parametrize("row", [0, 1])
def test_test_only_set_empty_in_a_batch_names_the_item(row):
    # the flat index of the empty set read past the items (a bare IndexError
    # from row 1 on) and the message printed whole rows of the edges
    env = build_envelope("quantile", 1000, 1, 0.02, 2000, 3)
    lo, hi = np.ones((2, 2), dtype=np.int64), np.full((2, 2), 1001)
    hi[row, 1] = 1
    with pytest.raises(EmptyPredictionSet) as err:
        to_test_only_set(RankSets(["t0", "t1"], lo, hi), env)
    assert str(err.value) == ("test-only set of item 't1' is empty: the envelope rules "
                              "out every rank of its full set [1, 1]")


def test_test_only_set_matches_per_item_counts():
    rng = np.random.default_rng(35)
    for _ in range(200):
        total = int(rng.integers(3, 40))
        n = int(rng.integers(1, total))
        m = total - n
        env = fit_quantile_envelope(
            simulate_sorted_ranks(n, m, 200, seed=int(rng.integers(10**6))),
            float(rng.choice([0.05, 0.3, 0.9])),
        )
        lo = rng.integers(1, total + 1, size=30)
        full = _full(list(zip(lo, rng.integers(lo, total + 1))))
        want = _test_only_reference(full, env)
        if all(a <= b for a, b in want):
            out = to_test_only_set(full, env)
            assert list(zip(out.lo.tolist(), out.hi.tolist())) == want
        else:
            with pytest.raises(EmptyPredictionSet):
                to_test_only_set(full, env)


def test_test_only_preserves_coverage_exhaustively():
    # whenever the envelope covers and the full set covers the pooled rank,
    # the derived set covers the rank among test items
    rng = np.random.default_rng(33)
    checked = 0
    for _ in range(400):
        total = int(rng.integers(4, 21))
        n = int(rng.integers(2, total))
        m = total - n
        env = fit_quantile_envelope(
            simulate_sorted_ranks(n, m, 500, seed=int(rng.integers(10**6))), 0.2
        )
        truth = rng.normal(size=total)
        pooled = ranks_within(truth)
        calib_ranks = ranks_within(truth[:n])
        lo, hi = env.bounds_for_ranks(calib_ranks)
        if not np.all((pooled[:n] >= lo) & (pooled[:n] <= hi)):
            continue
        r_ct = pooled[n:]
        full = _full(list(zip(
            np.maximum(1, r_ct - rng.integers(0, 4, size=m)),
            np.minimum(total, r_ct + rng.integers(0, 4, size=m)),
        )))
        derived = to_test_only_set(full, env)
        assert np.all(derived.contains(ranks_within(truth[n:])))
        checked += m
    assert checked > 100


def test_topk_candidates():
    sets = RankSets(items=list("abcd"), lo=[1, 4, 2, 7], hi=[3, 9, 2, 12])
    assert topk_candidates(sets, 3).tolist() == [True, False, True, False]
    assert not topk_candidates(sets, 0).any()
    # saturated sets select everything
    wide = RankSets(items=list("abcd"), lo=[1] * 4, hi=[12] * 4)
    assert topk_candidates(wide, 1).all()
    # disjoint singletons select exactly k_top items
    singles = _full([(i, i) for i in range(1, 9)])
    assert np.flatnonzero(topk_candidates(singles, 5)).tolist() == [0, 1, 2, 3, 4]


def test_topk_monotone_nested():
    rng = np.random.default_rng(34)
    lo = rng.integers(1, 50, size=40)
    sets = _full(list(zip(lo, rng.integers(lo, 60))))
    previous = np.zeros(40, dtype=bool)
    for k_top in range(0, 61):
        current = topk_candidates(sets, k_top)
        assert np.all(current >= previous)
        previous = current


def test_topk_rejects_test_only_sets():
    with pytest.raises(InvalidInput):
        topk_candidates(_full([(1, 2)], kind="test_only"), 2)


# (call, exception type, the parameter its message names)
TARGET_REFUSALS = {
    "calibration_sets ids": (
        lambda: calibration_sets(naive_envelope(3, 2), [1, 2, 3], ids=["a", "b"]),
        DimensionMismatch, "ids must match"),
    "topk_candidates k_top": (
        lambda: topk_candidates(RankSets(["t1"], [1], [2]), -1), InvalidInput,
        "^need k_top >= 0, got k_top=-1$"),
}


@pytest.mark.parametrize("case", TARGET_REFUSALS)
def test_target_refusals_name_their_parameter(case):
    call, error, names = TARGET_REFUSALS[case]
    with pytest.raises(error, match=names):
        call()
