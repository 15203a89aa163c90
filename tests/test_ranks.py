"""Rank arithmetic: examples, brute-force oracles, and invariants."""

import numpy as np
import pytest

from rankcp import (
    InvalidInput,
    RankOutOfRange,
    RankingProblem,
    TiesDetected,
    break_ties,
    has_ties,
    rank_of,
    ranks_within,
    split_ranks,
    value_at_rank,
)
from rankcp.errors import DimensionMismatch


def test_rank_of_examples():
    assert rank_of(3, [1, 2, 5]) == 2
    assert rank_of(0.5, [0.5]) == 1  # equality counts: y >= z
    assert rank_of(-1, [0, 1, 2]) == 0


def test_rank_of_empty_bag_rejected():
    with pytest.raises(InvalidInput):
        rank_of(1.0, [])


def test_rank_of_monotone_in_y():
    rng = np.random.default_rng(0)
    bag = rng.normal(size=40)
    ys = np.sort(rng.normal(size=25))
    ranks = [rank_of(y, bag) for y in ys]
    assert ranks == sorted(ranks)


def test_value_at_rank_examples():
    assert value_at_rank(2, [1, 4, 9]) == 4
    assert value_at_rank(1, [7]) == 7
    assert value_at_rank(3, [9, 1, 4]) == 9  # order-insensitive input


def test_value_at_rank_errors():
    with pytest.raises(RankOutOfRange):
        value_at_rank(0, [1, 2])
    with pytest.raises(RankOutOfRange):
        value_at_rank(3, [1, 2])
    with pytest.raises(TiesDetected):
        value_at_rank(1, [1, 1, 2])


def test_value_at_rank_inverts_rank_of():
    rng = np.random.default_rng(1)
    bag = rng.normal(size=30)
    for r in range(1, 31):
        assert rank_of(value_at_rank(r, bag), bag) == r


def test_ranks_within_examples():
    assert ranks_within([0.3, 0.1, 0.9]).tolist() == [2, 1, 3]
    assert ranks_within([5]).tolist() == [1]
    assert ranks_within([1.0, 2.0, 3.0, 4.0]).tolist() == [1, 2, 3, 4]
    with pytest.raises(TiesDetected):
        ranks_within([1.0, 1.0, 2.0])


def test_ranks_within_always_permutation():
    rng = np.random.default_rng(2)
    for _ in range(50):
        size = int(rng.integers(1, 40))
        values = rng.normal(size=size)
        ranks = ranks_within(values)
        assert sorted(ranks.tolist()) == list(range(1, size + 1))
        assert all(rank_of(values[i], values) == ranks[i] for i in range(size))


def _brute_triples(truth, n):
    out = []
    for i, y in enumerate(truth):
        r_ct = sum(1 for z in truth if y >= z)
        r_t = sum(1 for z in truth[n:] if y >= z)
        r_c = sum(1 for z in truth[:n] if y >= z) if i < n else None
        out.append((r_c, r_t, r_ct))
    return out


def test_split_ranks_hand_example():
    triples = split_ranks([0.2, 0.8, 0.5], n=2)
    assert (triples[0].r_c, triples[0].r_t, triples[0].r_ct) == (1, 0, 1)
    assert (triples[1].r_c, triples[1].r_t, triples[1].r_ct) == (2, 1, 3)
    assert triples[2].r_c is None
    assert (triples[2].r_t, triples[2].r_ct) == (1, 2)


def test_split_ranks_degenerate_no_test_items():
    truth = [0.4, 0.1, 0.9]
    triples = split_ranks(truth, n=3)
    assert all(t.r_t == 0 and t.r_ct == t.r_c for t in triples)


def test_split_ranks_matches_pairwise_counting():
    rng = np.random.default_rng(3)
    truth = rng.normal(size=8)
    triples = split_ranks(truth, n=5)
    assert [(t.r_c, t.r_t, t.r_ct) for t in triples] == _brute_triples(truth, 5)


def test_split_identity_and_order_preservation():
    rng = np.random.default_rng(4)
    for _ in range(1000):
        total = int(rng.integers(2, 25))
        n = int(rng.integers(1, total))
        truth = rng.normal(size=total)
        triples = split_ranks(truth, n)
        calib = triples[:n]
        # identity r_ct = r_c + r_t for calibration items
        assert all(t.r_ct == t.r_c + t.r_t for t in calib)
        # calibration order is conserved in the pooled ranking
        by_rc = sorted(calib, key=lambda t: t.r_c)
        assert all(a.r_ct <= b.r_ct for a, b in zip(by_rc, by_rc[1:]))


def test_break_ties_resolves_and_preserves_order():
    values = np.array([0.5, 0.1, 0.5, 0.9, 0.1])
    fixed = break_ties(values, seed=11)
    assert not has_ties(fixed)
    # strict order of distinct values is untouched
    assert fixed[1] < fixed[0] and fixed[0] < fixed[3]
    assert fixed[4] < fixed[0] and fixed[2] < fixed[3]
    # perturbation below half the smallest gap
    assert np.max(np.abs(fixed - values)) < 0.4 / 2
    # deterministic under the seed
    assert np.array_equal(fixed, break_ties(values, seed=11))
    assert not np.array_equal(fixed, break_ties(values, seed=12))


def test_break_ties_all_equal():
    fixed = break_ties([2.0, 2.0, 2.0], seed=0)
    assert not has_ties(fixed)
    # a gap-based offset would fall below the ulp here and be rounded away
    values = np.array([1e16, 1e16, 1e16 + 2])
    fixed = break_ties(values, seed=0)
    assert not has_ties(fixed)
    assert fixed[2] > max(fixed[0], fixed[1])
    assert np.array_equal(values, [1e16, 1e16, 1e16 + 2])  # input untouched


def _problem(**overrides):
    base = dict(
        n=3,
        m=2,
        calib_ranks=[2, 1, 3],
        ranker_mode="RA",
        ranker_outputs=[2, 1, 4, 3, 5],
    )
    base.update(overrides)
    return RankingProblem(**base)


def test_problem_validation():
    p = _problem()
    assert p.total == 5
    assert p.item_ids == ["c1", "c2", "c3", "t1", "t2"]

    with pytest.raises(InvalidInput):
        _problem(calib_ranks=[1, 1, 3])
    with pytest.raises(InvalidInput):
        _problem(ranker_outputs=[2, 1, 4, 3, 6])  # out of [1, n+m]
    with pytest.raises(InvalidInput):
        _problem(ranker_outputs=[2.5, 1, 4, 3, 5])  # non-integer in RA mode
    with pytest.raises(DimensionMismatch):
        _problem(ranker_outputs=[2, 1, 4, 3])
    with pytest.raises(TiesDetected):
        _problem(ranker_mode="VA", ranker_outputs=[0.1, 0.1, 0.4, 0.3, 0.5])
    with pytest.raises(TiesDetected):
        _problem(truth=[0.1, 0.1, 0.4, 0.3, 0.5])
    with pytest.raises(InvalidInput):
        _problem(ids=["a", "a", "b", "c", "d"])


def test_problem_ra_outputs_may_repeat():
    p = _problem(ranker_outputs=[2, 2, 4, 3, 5])
    assert p.ranker_outputs.tolist() == [2, 2, 4, 3, 5]
