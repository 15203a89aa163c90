"""Rank arithmetic: examples, brute-force oracles, and invariants."""

import math

import numpy as np
import pytest

from rankcp import (
    InvalidDelta,
    InvalidInput,
    RankOutOfRange,
    RankingProblem,
    RankSets,
    TiesDetected,
    break_ties,
    calibrate,
    fcp,
    predict_sets,
    proxy_score_va,
    ranks_within,
)
from rankcp.conformal import Threshold
from rankcp.errors import DimensionMismatch
from rankcp.ranks import as_count, as_level, as_ranks, as_values, tied_rows, unique_ids


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
    assert not tied_rows(fixed)
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
    assert not tied_rows(fixed)
    # a gap-based offset would fall below the ulp here and be rounded away
    values = np.array([1e16, 1e16, 1e16 + 2])
    fixed = break_ties(values, seed=0)
    assert not tied_rows(fixed)
    assert fixed[2] > max(fixed[0], fixed[1])
    assert np.array_equal(values, [1e16, 1e16, 1e16 + 2])  # input untouched


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_break_ties_refuses_non_finite_values(bad):
    # no ulp step parts two equal infinities, and NaN has no order: both came
    # back still tied
    with pytest.raises(InvalidInput, match=f"^values must be finite, got {bad}$") as err:
        break_ties([1.0, bad, bad], seed=0)
    assert err.value.at == (1,)


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


def test_unique_ids_names_the_first_repeat_and_both_positions():
    assert unique_ids(["a", "b", "c"]) is None and unique_ids([]) is None
    for ids, at, message in (
        (["a", "b", "a", "b"], (0, 2), "item ids must be unique, got 'a' twice"),
        (("t1", "c1", "c2", "c1", "t1"), (1, 3), "item ids must be unique, got 'c1' twice"),
    ):
        with pytest.raises(InvalidInput) as err:
            unique_ids(ids)
        assert (str(err.value), err.value.at) == (message, at)
    # RankingProblem applies the same rule to its ids (it said "ids must be unique")
    with pytest.raises(InvalidInput) as err:
        _problem(ids=["c1", "t1", "c2", "t1", "t2"])
    assert (str(err.value), err.value.at) == ("item ids must be unique, got 't1' twice", (1, 3))


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
    # tied_rows still flags two NaNs as a tie, but ranking rejects any NaN
    # (a single NaN was ranked last before)
    assert tied_rows(np.array([np.nan, 1.0, np.nan]))
    assert not tied_rows(np.array([np.nan, 1.0]))
    for values in ([0.3, np.nan, 0.1], [[0.1, 0.2], [np.nan, 0.5]], [np.nan, np.nan]):
        with pytest.raises(InvalidInput) as err:
            ranks_within(values)
        assert str(err.value) == "values contain NaN, which has no rank"
    batch = dict(ranker_outputs=[[2, 1, 4, 3, 5]] * 2, calib_ranks=[[2, 1, 3]] * 2)
    for overrides in (dict(truth=[0.1, 0.2, np.nan, 0.3, 0.5]),
                      dict(truth=[[0.1, 0.2, 0.4, 0.3, 0.5], [np.nan] * 5], **batch)):
        with pytest.raises(InvalidInput, match="^truth contain NaN, which has no rank$"):
            _problem(**overrides)


def test_tied_rows_flags_tied_rows():
    values = np.array([[0.3, 0.1, 0.2], [0.5, 0.1, 0.5]])
    assert tied_rows(values).tolist() == [False, True]



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
    # inf passed the old whole-number test (np.round(inf) == inf) and was
    # refused as "must lie in [1, 5]"
    "RankingProblem RA inf": (
        lambda: _ranking_problem(ranker_mode="RA", ranker_outputs=[2, 1, 4, 3, np.inf]),
        InvalidInput, r"^RA ranker outputs must be integers, got inf$"),
    # the rule was handed the list as an array, in which numpy reads True as 1
    "RankingProblem RA bool in list": (
        lambda: _ranking_problem(ranker_mode="RA", ranker_outputs=[2, 1, 4, 3, True]),
        InvalidInput, r"^RA ranker outputs must be integers, got bool$"),
    # numpy reads [True, 2] as int64, and the rule returned [1, 2]
    "as_ranks bool in list": (lambda: as_ranks([True, 2]), InvalidInput,
                              "^ranks must be integers, got bool$"),
    "as_ranks bool in tuple": (lambda: as_ranks((2.5, np.True_), "lo"), InvalidInput,
                               "^lo must be integers, got bool$"),
    # each ended in a bare OverflowError: int too large to convert to float
    "as_count int beyond floats": (lambda: as_count(10**400, "n"), InvalidInput,
                                   f"^n must be below 2\\*\\*63, got {10**400}$"),
    "as_count list of it": (lambda: as_count([-(10**400)], "n"), InvalidInput,
                            f"^n must be above -2\\*\\*63, got {-(10**400)}$"),
    "as_ranks int beyond floats": (
        lambda: as_ranks([1, 10**400], "lo", items=["a", "b"]), InvalidInput,
        f"^lo must be below 2\\*\\*63, got {10**400} for item 'b'$"),
    "as_level int beyond floats": (lambda: as_level(10**400, "delta"), InvalidDelta,
                                   f"^delta={10**400} outside \\[0, 1\\)$"),
    "as_level negative": (lambda: as_level(-(10**400), "alpha", positive=True), InvalidDelta,
                          f"^alpha={-(10**400)} outside \\(0, 1\\)$"),
    "as_ranks range": (lambda: as_ranks([[1, 2], [3, 0]], "lo", items=["a", "b"], top=3),
                       RankOutOfRange, r"^lo must lie in \[1, 3\], got 0 for item 'b'$"),
    "as_count range": (lambda: as_count(4.0, "k", top=3), RankOutOfRange,
                       r"^k must lie in \[1, 3\], got 4$"),
}


@pytest.mark.parametrize("case", RANKS_REFUSALS)
def test_ranks_refusals_name_their_parameter(case):
    call, error, names = RANKS_REFUSALS[case]
    with pytest.raises(error, match=names):
        call()


def test_as_values_reads_numbers_as_float64():
    scores = np.array([0.5, 2.0])
    assert as_values(scores, "scores") is scores  # float64 is taken without a copy
    for given in ([1, 2], np.array([1, 2], dtype=np.uint8), np.float32([1, 2]),
                  np.array([1, 2.0], dtype=object)):
        read = as_values(given, "scores")
        assert read.dtype == np.float64 and read.tolist() == [1.0, 2.0]
    # an int beyond the float range reads as ±inf, as as_level reads it
    assert as_values([[10**400], [-(10**400)]], "scores").tolist() == [[np.inf], [-np.inf]]
    assert as_values(2, "threshold").shape == ()
    assert as_values(np.zeros((0, 3)), "scores", ndims=(1, 2)).shape == (0, 3)


_TWO_SETS = RankSets(["a", "b"], [1, 2], [2, 3])

# (call, the message of its InvalidInput); each ended in numpy's bare
# ValueError or UFuncTypeError, or read a bool as 1.0, a numeric string as
# its number, or a fraction of a rank as the whole number below it
VALUE_REFUSALS = {
    "calibrate string": (lambda: calibrate(["a", "b"], 1), "scores must be numbers, got <U1"),
    "calibrate numeric string": (lambda: calibrate(["1.5", "0.5"], 1),
                                 "scores must be numbers, got <U3"),
    "calibrate bool": (lambda: calibrate([True, False], 1), "scores must be numbers, got bool"),
    "calibrate None": (lambda: calibrate([0.5, None], 1), "scores must be a number, got None"),
    "calibrate 3-D": (lambda: calibrate(np.zeros((2, 2, 2)), 1),
                      "scores must be a vector or a stack of vectors"),
    # a NaN score gave a NaN threshold (k=3), or was passed over (k=1)
    "calibrate NaN": (lambda: calibrate([1.0, 2.0, math.nan], 1),
                      "scores must be nonnegative, got nan"),
    "calibrate negative": (lambda: calibrate([[0.5, 1.0], [2.0, -0.5]], 1),
                           "scores must be nonnegative, got -0.5"),
    "proxy_score_va string": (lambda: proxy_score_va(1, 1, 0.5, ["a", "b"]),
                              "all_values must be numbers, got <U1"),
    "ranks_within string": (lambda: ranks_within(["a", "b"]), "values must be numbers, got <U1"),
    "ranks_within bool": (lambda: ranks_within([True, False]),
                          "values must be numbers, got bool"),
    "break_ties bool": (lambda: break_ties([True, True, False], 0),
                        "values must be numbers, got bool"),
    "VA outputs string": (lambda: _ranking_problem(ranker_outputs=list("abcde")),
                          "VA ranker outputs must be numbers, got <U1"),
    "VA outputs numeric string": (
        lambda: _ranking_problem(ranker_outputs=["2", "1", "3", "5", "4"]),
        "VA ranker outputs must be numbers, got <U1"),
    "VA outputs bool": (lambda: _ranking_problem(ranker_outputs=[True, False, 0.5, 0.2, 0.3]),
                        "VA ranker outputs must be numbers, got bool"),
    "VA outputs ragged": (lambda: _ranking_problem(ranker_outputs=[[0.1, 0.2], [0.3]]),
                          "VA ranker outputs must be a rectangular array, not a ragged list"),
    "truth string": (lambda: _ranking_problem(truth=list("abcde")),
                     "truth must be numbers, got <U1"),
    "truth bool": (lambda: _ranking_problem(truth=[True, False, 0.5, 0.2, 0.3]),
                   "truth must be numbers, got bool"),
    "threshold bool": (lambda: predict_sets(_ranking_problem(), Threshold(k=1, value=True)),
                       "threshold must be a number, got bool"),
    "as_ranks ragged": (lambda: as_ranks([[1, 2], [3]]),
                        "ranks must be a rectangular array, not a ragged list"),
    "RankSets ragged": (lambda: RankSets(["a", "b"], [[1, 2], [3]], [[1, 2], [3, 4]]),
                        "ranks must be a rectangular array, not a ragged list"),
    "fcp fraction": (lambda: fcp(_TWO_SETS, [3.9, 4.0]), "true_ranks must be integers, got 3.9"),
    "contains string": (lambda: _TWO_SETS.contains(["a", "b"]),
                        "ranks must be integers, got <U1"),
}


@pytest.mark.parametrize("case", VALUE_REFUSALS)
def test_value_refusals_name_their_parameter(case):
    call, message = VALUE_REFUSALS[case]
    with pytest.raises(InvalidInput) as err:
        call()
    assert str(err.value) == message
