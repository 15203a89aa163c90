"""Rank arithmetic: examples, brute-force oracles, and invariants."""

import numpy as np
import pytest

from rankcp import (
    InvalidInput,
    RankingProblem,
    TiesDetected,
    break_ties,
    ranks_within,
)
from rankcp.errors import DimensionMismatch
from rankcp.ranks import order_rows


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
        assert all(np.count_nonzero(values[i] >= values) == ranks[i] for i in range(size))


def test_break_ties_resolves_and_preserves_order():
    values = np.array([0.5, 0.1, 0.5, 0.9, 0.1])
    fixed = break_ties(values, seed=11)
    assert not order_rows(fixed)[1]
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
    assert not order_rows(fixed)[1]
    # a gap-based offset would fall below the ulp here and be rounded away
    values = np.array([1e16, 1e16, 1e16 + 2])
    fixed = break_ties(values, seed=0)
    assert not order_rows(fixed)[1]
    assert fixed[2] > max(fixed[0], fixed[1])
    assert np.array_equal(values, [1e16, 1e16, 1e16 + 2])  # input untouched


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_break_ties_refuses_non_finite_values(bad):
    # no ulp step parts two equal infinities, and NaN has no order: both came
    # back still tied
    with pytest.raises(InvalidInput, match="^break_ties needs finite values$"):
        break_ties([bad, bad, 1.0], seed=0)


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
    for bad in (np.nan, np.inf):
        with pytest.raises(InvalidInput):
            _problem(ranker_mode="VA", ranker_outputs=[0.1, 0.2, 0.4, 0.3, bad])
    with pytest.raises(InvalidInput):
        _problem(ids=["a", "a", "b", "c", "d"])


def test_problem_ra_outputs_may_repeat():
    p = _problem(ranker_outputs=[2, 2, 4, 3, 5])
    assert p.ranker_outputs.tolist() == [2, 2, 4, 3, 5]


@pytest.mark.parametrize("rows", [None, 4])
def test_problem_orderings_match_sort_and_ranks_within(rows):
    rng = np.random.default_rng(11)
    n, m = 6, 5
    shape = (n + m,) if rows is None else (rows, n + m)
    truth, outputs = rng.normal(size=shape), rng.normal(size=shape)
    calib_ranks = ranks_within(truth[..., :n])
    va = RankingProblem(n=n, m=m, calib_ranks=calib_ranks, ranker_mode="VA",
                        ranker_outputs=outputs, truth=truth)
    predicted = rng.integers(1, n + m + 1, size=shape)
    ra = RankingProblem(n=n, m=m, calib_ranks=calib_ranks, ranker_mode="RA",
                        ranker_outputs=predicted)
    for i in np.ndindex(shape[:-1]):
        assert np.array_equal(va.sorted_outputs[i], np.sort(outputs[i]))
        assert np.array_equal(va.predicted_ranks[i], ranks_within(outputs[i]))
        assert np.array_equal(va.true_ranks[i], ranks_within(truth[i]))
        assert np.array_equal(ra.predicted_ranks[i], predicted[i])
    assert ra.sorted_outputs is None and ra.true_ranks is None
    for arr in (va.sorted_outputs, va.predicted_ranks, va.true_ranks, ra.predicted_ranks):
        with pytest.raises(ValueError):
            arr[..., 0] = 1


def test_tie_messages():
    # one message per offending array, for a single problem and for a batch
    # whose second row alone is tied
    tied = [0.1, 0.1, 0.4, 0.3, 0.5]
    batch = [[0.1, 0.2, 0.4, 0.3, 0.5], tied]
    cases = [
        (dict(ranker_mode="VA", ranker_outputs=tied), "VA ranker outputs"),
        (dict(ranker_mode="VA", ranker_outputs=batch, calib_ranks=[[2, 1, 3]] * 2),
         "VA ranker outputs"),
        (dict(truth=tied), "truth"),
        (dict(truth=batch, ranker_outputs=[[2, 1, 4, 3, 5]] * 2,
              calib_ranks=[[2, 1, 3]] * 2), "truth"),
    ]
    for overrides, name in cases:
        with pytest.raises(TiesDetected) as err:
            _problem(**overrides)
        assert str(err.value) == f"{name} contain exact duplicates; see break_ties"
    with pytest.raises(TiesDetected) as err:
        ranks_within(tied)
    assert str(err.value) == "values contain exact duplicates; see break_ties"


def test_nan_has_no_rank():
    # order_rows still flags two NaNs as a tie, but ranking rejects any NaN
    # (a single NaN was ranked last before)
    assert order_rows(np.array([np.nan, 1.0, np.nan]))[1]
    assert not order_rows(np.array([np.nan, 1.0]))[1]
    for values in ([0.3, np.nan, 0.1], [[0.1, 0.2], [np.nan, 0.5]], [np.nan, np.nan]):
        with pytest.raises(InvalidInput) as err:
            ranks_within(values)
        assert str(err.value) == "values contain NaN, which has no rank"
    batch = dict(ranker_outputs=[[2, 1, 4, 3, 5]] * 2, calib_ranks=[[2, 1, 3]] * 2)
    for overrides in (dict(truth=[0.1, 0.2, np.nan, 0.3, 0.5]),
                      dict(truth=[[0.1, 0.2, 0.4, 0.3, 0.5], [np.nan] * 5], **batch)):
        with pytest.raises(InvalidInput, match="^truth contain NaN, which has no rank$"):
            _problem(**overrides)


@pytest.mark.parametrize("rows", [None, 3])
def test_given_orders_are_checked_not_trusted(rows):
    rng = np.random.default_rng(12)
    n, m = 4, 3
    shape = (n + m,) if rows is None else (rows, n + m)
    truth, outputs = rng.normal(size=shape), rng.normal(size=shape)
    calib_ranks = ranks_within(truth[..., :n])
    plain = RankingProblem(n=n, m=m, calib_ranks=calib_ranks, ranker_mode="VA",
                           ranker_outputs=outputs, truth=truth)
    right = np.argsort(outputs, axis=-1)
    wrong = right[..., ::-1].copy()
    out_of_range = right + (n + m)
    for order in (right, wrong, out_of_range, right[..., :-1], right.astype(float)):
        assert np.array_equal(ranks_within(outputs, order=order), plain.predicted_ranks)
        hinted = RankingProblem(n=n, m=m, calib_ranks=calib_ranks, ranker_mode="VA",
                                ranker_outputs=outputs, truth=truth,
                                output_order=order, truth_order=order)
        for name in ("sorted_outputs", "predicted_ranks", "true_ranks"):
            assert np.array_equal(getattr(hinted, name), getattr(plain, name)), name
    # an order that sorts tied or NaN values does not hide them
    tied = np.array([0.3, 0.1, 0.3])
    with pytest.raises(TiesDetected):
        ranks_within(tied, order=np.argsort(tied))
    with pytest.raises(InvalidInput, match="NaN"):
        ranks_within([0.3, np.nan, 0.1], order=np.array([2, 0, 1]))


def test_order_rows_flags_tied_rows():
    values = np.array([[0.3, 0.1, 0.2], [0.5, 0.1, 0.5]])
    order, tied = order_rows(values)
    assert np.array_equal(order, np.argsort(values, axis=-1))
    assert tied.tolist() == [False, True]



def _ranking_problem(**overrides):
    fields = dict(n=3, m=2, calib_ranks=[2, 1, 3], ranker_mode="VA",
                  ranker_outputs=[0.5, 0.1, 0.9, 0.3, 0.7])
    return RankingProblem(**{**fields, **overrides})


# (call, exception type, the parameter its message names)
RANKS_REFUSALS = {
    "ranks_within 3-D": (lambda: ranks_within(np.zeros((2, 2, 2))), InvalidInput,
                         "values must be a vector or a stack of vectors"),
    "RankingProblem n": (lambda: _ranking_problem(n=0, calib_ranks=[]), InvalidInput,
                         "n >= 1"),
    "RankingProblem truth": (lambda: _ranking_problem(truth=[0.1, 0.2, 0.3]),
                             DimensionMismatch, "truth must have length n[+]m=5"),
    "RankingProblem ids": (lambda: _ranking_problem(ids=["a", "b"]), DimensionMismatch,
                           "ids must have length n[+]m"),
}


@pytest.mark.parametrize("case", RANKS_REFUSALS)
def test_ranks_refusals_name_their_parameter(case):
    call, error, names = RANKS_REFUSALS[case]
    with pytest.raises(error, match=names):
        call()
