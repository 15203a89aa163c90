"""Property tests of envelopes, proxy scores, targets and stored orders on small problems."""

import math
import numbers
from fractions import Fraction
from functools import partial

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rankcp import (
    Envelope,
    ExperimentConfig,
    InvalidDelta,
    InvalidInput,
    MonteCarloMeta,
    RankCPError,
    RankingProblem,
    RankOutOfRange,
    RankSets,
    SortedRankSample,
    break_ties,
    build_envelope,
    calibrate,
    calibration_sets,
    fcp,
    fcp_calibration,
    fit_linear_envelope,
    fit_quantile_envelope,
    mc_guarantee_slack,
    proxy_score_ra,
    proxy_score_va,
    proxy_scores,
    naive_envelope,
    predict_sets,
    ranks_within,
    relative_length,
    score_ra,
    scores_at,
    select_k,
    simulate_sorted_ranks,
    synthesize_problem,
    topk_candidates,
)
from rankcp import test_only_set as to_test_only_set
from rankcp.envelope import theoretical_band_halfwidth
from rankcp.io import envelope_to_doc
from rankcp.conformal import Threshold
from rankcp.ranks import as_count, as_values
from rankcp.streams import stream, streams


@st.composite
def _pooled_truth(draw, min_m=0):
    """Sizes ``(n, m)`` and a tie-free truth vector of length ``n + m``."""
    n = draw(st.integers(1, 8))
    m = draw(st.integers(min_m, 8))
    truth = np.array(draw(st.permutations(range(n + m))), dtype=float)
    return n, m, truth


def _covering_envelope(draw, n, m, sorted_calib_ranks):
    """A valid envelope that contains the given sorted pooled ranks."""
    total = n + m
    below = np.array(draw(st.lists(st.integers(0, total), min_size=n, max_size=n)))
    above = np.array(draw(st.lists(st.integers(0, total), min_size=n, max_size=n)))
    # suffix-min / prefix-max keep the bounds around the ranks and make them
    # nondecreasing, as the Envelope contract requires
    lower = np.minimum.accumulate((sorted_calib_ranks - below)[::-1])[::-1]
    upper = np.maximum.accumulate(sorted_calib_ranks + above)
    return Envelope(n=n, m=m, delta=0.1, kind="quantile",
                    lower=np.clip(lower, 1, total), upper=np.clip(upper, 1, total))


@settings(max_examples=100, deadline=None)
@given(data=st.data(), mode=st.sampled_from(["RA", "VA"]))
def test_proxy_scores_dominate_true_scores_under_covering_envelope(data, mode):
    n, m, truth = data.draw(_pooled_truth())
    total = n + m
    if mode == "RA":
        outputs = data.draw(st.lists(st.integers(1, total), min_size=total,
                                     max_size=total))
    else:
        outputs = data.draw(st.lists(
            st.floats(-1e6, 1e6, allow_nan=False), min_size=total, max_size=total,
            unique=True,
        ))
    problem = RankingProblem(n=n, m=m, calib_ranks=ranks_within(truth[:n]),
                             ranker_mode=mode, ranker_outputs=outputs)
    true_calib = ranks_within(truth)[:n]
    env = _covering_envelope(data.draw, n, m, np.sort(true_calib))
    assert np.all(proxy_scores(problem, env) >= scores_at(problem, true_calib))


def _whole(value) -> bool:
    """Whether ``value`` is a whole number below 2**63 in magnitude: a rank or a count.

    A boolean is not, though ``isinstance(True, int)`` holds.
    """
    if isinstance(value, (bool, np.bool_)):
        return False
    if isinstance(value, (int, np.integer)):
        return -(2**63) <= value < 2**63
    return math.isfinite(value) and value.is_integer() and abs(value) < 2**63


def _outcome(call):
    """``call()``, or the class of the package error it raises."""
    try:
        return call()
    except RankCPError as exc:
        return type(exc)


def _refusal(call):
    """``call()``, or the class and message of the package error it raises."""
    try:
        return call()
    except RankCPError as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), mode=st.sampled_from(["RA", "VA"]))
def test_scalar_proxy_score_is_the_array_path(data, mode):
    # one calibration item, output values[0], under the envelope [lo, hi]:
    # the scalar proxy score equals the array path's, and where the outputs
    # hold a NaN, an inf, a tie or (RA) a non-integer rank both refuse alike
    m = data.draw(st.integers(0, 6))
    total = 1 + m
    lo = data.draw(st.integers(1, total))
    hi = data.draw(st.integers(lo, total))
    if mode == "RA":
        own = data.draw(st.integers(1, total) | st.floats(1, total))
        values = [own] + data.draw(st.lists(st.integers(1, total), min_size=m, max_size=m))
        scalar = partial(proxy_score_ra, lo, hi, own)
    else:
        # few distinct values, so ties are common
        value = st.sampled_from([0.0, 0.5, -2.0, math.nan, math.inf, -math.inf]) | st.floats(
            -1e6, 1e6, allow_nan=False)
        values = data.draw(st.lists(value, min_size=total, max_size=total))
        scalar = partial(proxy_score_va, lo, hi, values[0], values)
    env = Envelope(n=1, m=m, delta=0.1, kind="quantile", lower=[lo], upper=[hi])
    problem = partial(RankingProblem, n=1, m=m, calib_ranks=[1], ranker_mode=mode,
                      ranker_outputs=values)
    assert _outcome(scalar) == _outcome(lambda: float(proxy_scores(problem(), env)[0]))


# Values a caller may pass as a rank: ints, whole floats, fractions, signed
# zeros, NaN, ±inf, ints and floats on both sides of 2**63, and ints beyond
# the float range
_RANK_LIKE = (
    st.integers(-2, 10)
    | st.integers(-2, 10).map(float)
    | st.floats(-2, 10)
    | st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf])
    | st.sampled_from([2**63 - 1, 2**63, 2**64, -(2**63), -(2**63) - 1, 10**30])
    | st.sampled_from([10**400, -(10**400)])
    | st.sampled_from([2.0**63, float(np.nextafter(2.0**63, 0)), -(2.0**63), 1e20])
    | st.sampled_from([True, False, np.True_])
)
_M = 8  # the test items of the one-calibration-item problem below


def _ra_problem(calib_rank=1, output=1):
    return RankingProblem(n=1, m=_M, calib_ranks=[calib_rank], ranker_mode="RA",
                          ranker_outputs=[output] * (1 + _M))


def _int64(number) -> np.ndarray:
    """A scalar entry point's result ``number``, a whole number, as a one-entry int64 array."""
    return np.array([number], dtype=np.int64)


_VALUES = [1.0, 2.0, 3.0, 4.0]  # the value at rank r is r

# Each entry point of a rank or an index: a call that reads a value ``v``
# back as an int64 array, the ranks it serves, and the name its range rule
# gives it (``None`` for a rule of its own: RankSets' ``1 <= lo <= hi`` and
# the permutation rule of ``calib_ranks``).  Every entry of the array read
# holds ``v``, so the array has ``v``'s own dtype: numpy reads the list
# ``[True, 1]`` as int64, the array ``[True, True]`` is a boolean one.  The
# readers of true ranks, ``fcp`` and ``RankSets.contains``, have no ceiling
# (a rank above a set is missed, not refused): their served ranks are
# ``None``, they return what the same int returns, and they refuse a rank
# below 1, which no item holds, by the range rule with no ceiling
_RANK_ENTRY_POINTS = {
    "RankSets lo": (lambda v: RankSets(["a"], [v], [2**62]).lo, 2**62, None),
    "RankSets hi": (lambda v: RankSets(["a"], [1], [v]).hi, 2**63 - 1, None),
    "calib_ranks": (lambda v: _ra_problem(calib_rank=v).calib_ranks, 1, None),
    "RA outputs": (lambda v: _ra_problem(output=v).ranker_outputs[:1], 1 + _M,
                   "RA ranker outputs"),
    # the calibration item's RA output is 1, so its score at rank v is v - 1
    "scores_at": (lambda v: scores_at(_ra_problem(), [v]).astype(np.int64) + 1, 1 + _M,
                  "pooled ranks"),
    # a naive envelope's lower bound at calibration rank r is r
    "calibration_sets": (lambda v: calibration_sets(naive_envelope(_M, 1),
                                                    [v] * _M).lo[:1], _M, "calibration ranks"),
    "bounds_for_ranks": (lambda v: naive_envelope(_M, 1).bounds_for_ranks([v])[0], _M,
                         "calibration ranks"),
    "Envelope lower": (lambda v: Envelope(n=1, m=_M, delta=0.1, kind="quantile", lower=[v],
                                          upper=[1 + _M]).lower, 1 + _M, "bounds"),
    "Envelope upper": (lambda v: Envelope(n=1, m=_M, delta=0.1, kind="quantile", lower=[1],
                                          upper=[v]).upper, 1 + _M, "bounds"),
    "calibrate k": (lambda v: _int64(calibrate([3.0, 1.0, 4.0, 2.0], v).value), 4, "k"),
    # the value 5 lies 5 - r above the value at rank r, and 1 above the one at rank 4
    "proxy_score_va lo": (lambda v: _int64(5 - proxy_score_va(v, 4, 5.0, _VALUES)), 4, "lo"),
    # the value 0 lies r below the value at rank r, and 1 below the one at rank 1
    "proxy_score_va hi": (lambda v: _int64(proxy_score_va(1, v, 0.0, _VALUES)), 4, "hi"),
    "fcp": (lambda v: fcp(RankSets(["a"], [1], [3]), [v]), None, "true_ranks"),
    "RankSets.contains": (lambda v: RankSets(["a"], [1], [3]).contains([v]).tolist(), None,
                          "ranks"),
}


@settings(max_examples=300, deadline=None)
@example(value=10**400)
@example(value=-(10**400))
@given(value=_RANK_LIKE)
def test_one_whole_number_rule_for_every_rank_entry_point(value):
    # the scalar rule and every entry point accept exactly the int64 values
    # and the whole floats below 2**63, read them as the same int64, and
    # refuse a whole number outside their range [1, top] with RankOutOfRange
    # in the range rule's words
    whole = _whole(value)
    rank = _outcome(lambda: as_count(value, "ranks"))
    assert (type(rank), rank) == ((int, int(value)) if whole else (type, InvalidInput))
    for entry, (read, top, name) in _RANK_ENTRY_POINTS.items():
        got = _refusal(lambda: read(value))
        if whole and top is None and rank >= 1:
            assert got == read(rank), entry
        elif whole and top is None:
            assert got == (RankOutOfRange, f"{name} must lie in [1, inf), got {rank}"), (
                entry, got)
        elif whole and 1 <= rank <= top:
            assert isinstance(got, np.ndarray) and got.dtype == np.int64, entry
            assert got.tolist() == [rank], entry
        elif whole and name is None:  # a rank refused by the entry point's own rule
            assert got[0] is InvalidInput, (entry, got)
        elif whole:
            assert got == (RankOutOfRange, f"{name} must lie in [1, {top}], got {rank}"), (
                entry, got)
        else:
            assert got[0] is InvalidInput, (entry, got)


def _served(value) -> int:
    """``value`` as an int where it is a whole number below 2**63 in magnitude, else 1.

    Sizes the other inputs of a count entry point; a value that is not a
    count is refused before they are read.
    """
    return int(value) if _whole(value) else 1


def _problem(n=2, m=1):
    size = _served(n)
    return RankingProblem(n=n, m=m, calib_ranks=np.arange(1, size + 1), ranker_mode="RA",
                          ranker_outputs=np.arange(1, size + _served(m) + 1))


_SAMPLE = simulate_sorted_ranks(3, 2, 5, seed=0).trajectories
_ENVELOPE = dict(n=3, m=2, delta=0.1, kind="quantile", lower=[1, 2, 3], upper=[3, 4, 5])


# Each scalar entry point of a count: the call that reads a value ``v``, the
# name its refusals give it, and its floor (``None`` where a rank below 1 is
# RankOutOfRange); the calls return what they stored or computed
_COUNT_ENTRY_POINTS = {
    "RankingProblem n": (lambda v: _problem(n=v).n, "n", 1),
    "RankingProblem m": (lambda v: _problem(m=v).m, "m", 0),
    "SortedRankSample n": (lambda v: SortedRankSample(v, 2, 0, _SAMPLE).n, "n", 1),
    "SortedRankSample m": (lambda v: SortedRankSample(3, v, 0, _SAMPLE).m, "m", 0),
    "simulate n": (lambda v: simulate_sorted_ranks(v, 2, 5, 0).trajectories.tolist(), "n", 1),
    "simulate m": (lambda v: simulate_sorted_ranks(3, v, 5, 0).trajectories.tolist(), "m", 0),
    "simulate K": (lambda v: simulate_sorted_ranks(3, 2, v, 0).trajectories.tolist(), "K", 1),
    "Envelope n": (lambda v: envelope_to_doc(Envelope(**{**_ENVELOPE, "n": v})), "n", 1),
    "Envelope m": (lambda v: envelope_to_doc(Envelope(**{**_ENVELOPE, "m": v})), "m", 0),
    "Envelope mc_meta.K": (lambda v: envelope_to_doc(Envelope(
        **_ENVELOPE, mc_meta=MonteCarloMeta(K=v, seed=1, slack=0.5))), "mc_meta.K", 1),
    "naive_envelope n": (lambda v: envelope_to_doc(naive_envelope(v, 2)), "n", 1),
    "naive_envelope m": (lambda v: envelope_to_doc(naive_envelope(3, v)), "m", 0),
    "halfwidth n": (lambda v: theoretical_band_halfwidth(v, 5, 0.1), "n", 1),
    "halfwidth m": (lambda v: theoretical_band_halfwidth(5, v, 0.1), "m", 1),
    "slack n": (lambda v: mc_guarantee_slack(v, 100), "n", 1),
    "slack K": (lambda v: mc_guarantee_slack(5, v), "K", 1),
    "build_envelope K": (lambda v: envelope_to_doc(build_envelope("quantile", 3, 2, 0.5, v, 0)),
                         "K", 1),
    "score_ra r": (lambda v: score_ra(v, 3), "r", 1),
    "score_ra predicted_rank": (lambda v: score_ra(3, v), "predicted_rank", 1),
    "proxy_score_ra lo": (lambda v: proxy_score_ra(v, 6, 3), "lo", 1),
    "proxy_score_ra hi": (lambda v: proxy_score_ra(1, v, 3), "hi", 1),
    "proxy_score_va lo": (lambda v: proxy_score_va(v, 4, 0.5, [0.1, 0.5, 0.7, 2.0]),
                          "lo", None),
    "proxy_score_va hi": (lambda v: proxy_score_va(1, v, 0.5, [0.1, 0.5, 0.7, 2.0]),
                          "hi", None),
    "select_k n": (lambda v: select_k(0.5, 0.02, v), "n", 1),
    "calibrate k": (lambda v: calibrate([3.0, 1.0, 2.0, 5.0], v).value, "k", None),
    "fcp_calibration n": (lambda v: fcp_calibration(0.1, 0.25, 0.02, v, 5).k, "n", 1),
    "fcp_calibration m": (lambda v: fcp_calibration(0.1, 0.25, 0.02, 5, v).k, "m", 1),
    "synthesize n": (lambda v: synthesize_problem("sigmoid", v, 2, 0.1, "VA", 0).truth.tolist(),
                     "n", 1),
    "synthesize m": (lambda v: synthesize_problem("sigmoid", 2, v, 0.1, "VA", 0).truth.tolist(),
                     "m", 0),
    "synthesize d": (lambda v: synthesize_problem("sigmoid", 2, 2, 0.1, "VA", 0,
                                                  d=v).truth.tolist(), "d", 1),
    "ExperimentConfig n": (lambda v: ExperimentConfig(n=v).n, "n", 1),
    "ExperimentConfig m": (lambda v: ExperimentConfig(m=v).m, "m", 1),
    "ExperimentConfig reps": (lambda v: ExperimentConfig(reps=v).reps, "reps", 1),
    "ExperimentConfig k_top": (lambda v: ExperimentConfig(k_top=v).k_top, "k_top", 0),
    # the kind rule, in its own words: the default quantile kind needs K_env >= 1
    "ExperimentConfig K_env": (lambda v: ExperimentConfig(K_env=v).K_env, "K_env", 1),
    "topk_candidates k_top": (lambda v: topk_candidates(RankSets(["a", "b"], [1, 4], [2, 6]),
                                                        v).tolist(), "k_top", 0),
    "relative_length n_plus_m": (lambda v: relative_length(RankSets(["a"], [1], [2]), v),
                                 "n_plus_m", 1),
}

# Values a caller may pass as a count: Python and numpy ints, whole floats,
# fractions, NaN, ±inf and magnitudes of 2**63 or more, ints beyond the
# float range too; no large whole number, which some entry points would try
# to serve
_COUNT_LIKE = (
    st.integers(-2, 10)
    | st.integers(-2, 10).map(float)
    | st.integers(-2, 10).map(np.int64)
    | st.integers(0, 10).map(np.uint8)
    | st.floats(-2, 10)
    | st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, -(2**63)])
    | st.sampled_from([2**63, 2**64, -(2**63) - 1, 10**30, 2.0**63, -(2.0**63), 1e20])
    | st.sampled_from([10**400, -(10**400)])
    | st.sampled_from([True, False, np.True_])
)


@settings(max_examples=150, deadline=None)
@example(value=10**400)
@example(value=-(10**400))
@given(value=_COUNT_LIKE)
def test_one_whole_number_rule_for_every_count_entry_point(value):
    # every size and index reads its value through ranks.as_count: a numpy
    # int or a whole float gives what the Python int gives, and a value that
    # is not a whole number below 2**63, or lies below the floor, is refused
    # with InvalidInput naming the parameter
    whole = _whole(value)
    for entry, (read, name, floor) in _COUNT_ENTRY_POINTS.items():
        got = _refusal(lambda: read(value))
        if not whole:
            assert got[0] is InvalidInput, entry
            assert got[1].startswith(f"{name} must be "), (entry, got)
        elif floor is not None and value < floor:
            assert got[0] is InvalidInput and name in got[1], (entry, got)
            if name != "K_env":
                assert got[1] == f"need {name} >= {floor}, got {name}={int(value)}", entry
        else:
            reference = _refusal(lambda: read(int(value)))
            assert got == reference and type(got) is type(reference), entry


# Each entry point of a probability level: the call that reads a value ``v``,
# the name its refusals give it, and whether its interval leaves out 0; the
# calls return what they stored or computed.  select_k's delta is read with
# alpha = 0.999, so a delta of 0.999 or more in [0, 1) meets its own relation
# rule, ``need 0 <= delta < alpha < 1``
_LEVEL_ENTRY_POINTS = {
    "select_k alpha": (lambda v: select_k(v, 0.0, 50), "alpha", True),
    "select_k delta": (lambda v: select_k(0.999, v, 50), "delta", False),
    "fcp_calibration alpha_bar": (lambda v: fcp_calibration(v, 0.25, 0.02, 10, 10),
                                  "alpha_bar", False),
    "fcp_calibration beta_bar": (lambda v: fcp_calibration(0.1, v, 0.02, 10, 10),
                                 "beta_bar", True),
    "fcp_calibration delta": (lambda v: fcp_calibration(0.1, 0.25, v, 10, 10), "delta", False),
    "build_envelope delta": (lambda v: envelope_to_doc(build_envelope("quantile", 3, 2, v,
                                                                      200, 0)), "delta", False),
    "Envelope delta": (lambda v: envelope_to_doc(Envelope(**{**_ENVELOPE, "delta": v})),
                       "delta", False),
    "halfwidth delta": (lambda v: theoretical_band_halfwidth(5, 5, v), "delta", True),
    "ExperimentConfig alpha": (lambda v: ExperimentConfig(alpha=v).alpha, "alpha", True),
    "ExperimentConfig beta": (lambda v: ExperimentConfig(beta=v).beta, "beta", True),
    "ExperimentConfig delta": (lambda v: ExperimentConfig(delta=v).delta, "delta", True),
}

# Values a caller may pass as a level: floats in and out of [0, 1), numpy
# floats, the interval's ends as ints and floats, signed zeros, NaN, ±inf,
# other real numbers (a fraction, an int beyond int64 or beyond the float
# range), and what is not one
# number: booleans, a numeric string, an array and None
_LEVEL_LIKE = (
    st.floats(-0.5, 1.5)
    | st.floats(0, 1.5).map(np.float64)
    | st.sampled_from([0, 1, 0.0, 1.0, -0.0, math.nan, math.inf, -math.inf])
    | st.sampled_from([Fraction(1, 4), Fraction(5, 4), 2**64, 10**400, -(10**400)])
    | st.sampled_from([True, False, np.True_, "0.1", np.array([0.1]), None])
)


@settings(max_examples=150, deadline=None)
@example(value=10**400)
@example(value=-(10**400))
@given(value=_LEVEL_LIKE)
def test_one_level_rule_for_every_level_entry_point(value):
    # every probability level is read by ranks.as_level: a number in its
    # interval gives what the same Python float gives, a value that is not
    # one number is refused with InvalidInput and a number outside the
    # interval (NaN too) with InvalidDelta, both naming the parameter
    number = isinstance(value, numbers.Real) and not isinstance(value, (bool, np.bool_))
    for entry, (read, name, positive) in _LEVEL_ENTRY_POINTS.items():
        got = _refusal(lambda: read(value))
        if not number:
            assert got[0] is InvalidInput, (entry, got)
            assert got[1].startswith(f"{name} must be a number, got "), (entry, got)
        elif not (0.0 < value < 1.0 if positive else 0.0 <= value < 1.0):
            interval = "(0, 1)" if positive else "[0, 1)"
            assert got == (InvalidDelta, f"{name}={value} outside {interval}"), (entry, got)
        else:
            reference = _refusal(lambda: read(float(value)))
            assert got == reference and type(got) is type(reference), entry


_VA_PROBLEM = RankingProblem(n=1, m=2, calib_ranks=[1], ranker_mode="VA",
                             ranker_outputs=[0.1, 0.5, 2.0])


def _va_problem(outputs=(0.1, 0.5, 2.0), truth=None):
    """The outputs, truth and ranks, as lists, of a one-calibration-item VA problem."""
    problem = RankingProblem(n=1, m=2, calib_ranks=[1], ranker_mode="VA",
                             ranker_outputs=list(outputs), truth=truth)
    return [problem.ranker_outputs.tolist(), problem.predicted_ranks.tolist(),
            None if truth is None else problem.truth.tolist(),
            None if truth is None else problem.true_ranks.tolist()]


# Each entry point of a real-valued array: the call that reads a value ``v``
# (an element of a list beside the values 0.5 and 2.0, or, for the
# threshold, the value itself) and the name its refusals give it; the calls
# return what they stored or computed
_VALUE_ENTRY_POINTS = {
    "break_ties values": (lambda v: break_ties([v, 0.5, 2.0], 0).tolist(), "values"),
    "ranks_within values": (lambda v: ranks_within([v, 0.5, 2.0]).tolist(), "values"),
    "proxy_score_va all_values": (lambda v: proxy_score_va(1, 3, 0.25, [v, 0.5, 2.0]),
                                  "all_values"),
    "calibrate scores": (lambda v: calibrate([v, 0.5, 2.0], 2).value, "scores"),
    "VA ranker outputs": (lambda v: _va_problem(outputs=(v, 0.5, 2.0)), "VA ranker outputs"),
    "truth": (lambda v: _va_problem(truth=[v, 0.5, 2.0]), "truth"),
    "predict_sets threshold": (lambda v: predict_sets(_VA_PROBLEM, Threshold(k=1, value=v)),
                               "threshold"),
}

# Values a caller may pass as a real number: floats in and out of the other
# values' range, NaN, ±inf, Python and numpy ints, numpy floats, a fraction,
# ints beyond int64 and beyond the float range, and what is not a number:
# booleans, strings (numeric ones too), None and ragged lists
_VALUE_LIKE = (
    st.floats(-3, 3)
    | st.sampled_from([0.5, 2.0, -0.0, math.nan, math.inf, -math.inf])
    | st.integers(-3, 3)
    | st.integers(-3, 3).map(np.int64)
    | st.floats(-3, 3, width=32).map(np.float32)
    | st.sampled_from([Fraction(1, 4), 2**64, 10**400, -(10**400)])
    | st.sampled_from([True, False, np.True_, np.False_])
    | st.sampled_from(["0.5", "1", "x", None, [1.0, [2.0]], [[1.0], [2.0, 3.0]]])
)


@settings(max_examples=150, deadline=None)
@example(value=10**400)
@example(value=True)
@example(value="0.5")
@given(value=_VALUE_LIKE)
def test_one_value_rule_for_every_value_entry_point(value):
    # every real-valued array is read by ranks.as_values: a number gives
    # what the float that as_values reads from it gives, and what is not a
    # number is refused with InvalidInput naming the parameter
    number = isinstance(value, numbers.Real) and not isinstance(value, (bool, np.bool_))
    for entry, (read, name) in _VALUE_ENTRY_POINTS.items():
        got = _refusal(lambda: read(value))
        if not number:
            assert got[0] is InvalidInput, (entry, got)
            assert got[1].startswith(f"{name} must be "), (entry, got)
        else:
            reference = _refusal(lambda: read(float(as_values(value, "value"))))
            assert got == reference and type(got) is type(reference), entry


_VA_BATCH = RankingProblem(n=1, m=2, calib_ranks=[[1]] * 3, ranker_mode="VA",
                           ranker_outputs=[[0.1, 0.5, 2.0]] * 3)

# Each site of the finite rule: the call that reads a value ``v`` (alone, or
# at position 1 of an array beside 0.5 and 2.0), the name its refusals give
# it, and its variant: whether it refuses ±inf (finite) and values below 0
# (nonnegative); NaN is refused by both.  The last field says whether the
# site reads an array, whose refusals carry the position 1 in ``at``.
_FINITE_SITES = {
    "synthesize_problem noise_sd": (
        lambda v: synthesize_problem("sigmoid", 3, 2, v, "VA", seed=0), "noise_sd",
        True, True, False),
    "synthesize_problem data_noise_sd": (
        lambda v: synthesize_problem("beta_adaptive", 3, 2, 0.1, "VA", seed=0, data_noise_sd=v),
        "data_noise_sd", True, True, False),
    "ExperimentConfig noise_sd": (lambda v: ExperimentConfig(noise_sd=v), "noise_sd",
                                  True, True, False),
    "Envelope param": (lambda v: Envelope(**{**_ENVELOPE, "param": v}), "param",
                       True, False, False),
    "Envelope mc_meta.slack": (
        lambda v: Envelope(**_ENVELOPE, mc_meta=MonteCarloMeta(K=10, seed=1, slack=v)),
        "mc_meta.slack", True, True, False),
    "proxy_score_va value": (lambda v: proxy_score_va(1, 3, v, [0.25, 0.5, 2.0]), "value",
                             True, False, False),
    "proxy_score_va all_values": (lambda v: proxy_score_va(1, 3, 0.25, [0.5, v, 2.0]),
                                  "all_values", True, False, True),
    "VA ranker outputs": (lambda v: _va_problem(outputs=(0.5, v, 2.0)), "VA ranker outputs",
                          True, False, True),
    "break_ties values": (lambda v: break_ties([0.5, v, 2.0], 0), "values", True, False, True),
    "calibrate scores": (lambda v: calibrate([0.5, v, 2.0], 2), "scores", False, True, True),
    "predict_sets threshold": (lambda v: predict_sets(_VA_PROBLEM, Threshold(k=1, value=v)),
                               "threshold", False, True, False),
    "predict_sets batch threshold": (
        lambda v: predict_sets(_VA_BATCH, Threshold(k=1, value=[0.5, v, 2.0])), "threshold",
        False, True, True),
}


@settings(max_examples=150, deadline=None)
@example(value=math.nan)
@example(value=-math.inf)
@example(value=-(10**400))
@given(value=_VALUE_LIKE)
def test_one_finite_rule_for_every_finite_site(value):
    # every finite or sign test of an input is ranks' one rule: NaN is
    # refused everywhere, ±inf where the site is finite and a value below 0
    # where it is nonnegative, in one wording, and an array site names the
    # refused position; what is not a number is refused as not one (None
    # is an Envelope's lack of a param)
    number = isinstance(value, numbers.Real) and not isinstance(value, (bool, np.bool_))
    for site, (read, name, finite, nonnegative, array) in _FINITE_SITES.items():
        try:
            read(value)
            refused = None
        except Exception as exc:  # an accepted value may fail later, past the rule
            refused = exc
        if not number:
            if (site, value) != ("Envelope param", None):
                assert isinstance(refused, InvalidInput), (site, refused)
                assert str(refused).startswith(f"{name} must be "), (site, refused)
            continue
        x = float(as_values(value, "value"))  # an int beyond the float range reads as ±inf
        rule = " and ".join(word for word, on in (("finite", finite),
                                                  ("nonnegative", nonnegative)) if on)
        if math.isnan(x) or (finite and math.isinf(x)) or (nonnegative and x < 0):
            assert type(refused) is InvalidInput, (site, refused)
            assert str(refused) == f"{name} must be {rule}, got {x}", (site, refused)
            if array:
                assert refused.at == (1,), (site, refused.at)
        else:
            assert refused is None or " must be finite" not in str(refused) and (
                " must be nonnegative" not in str(refused)), (site, refused)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_topk_candidates_nested_in_k_top(data):
    total = data.draw(st.integers(1, 20))
    edges = data.draw(st.lists(
        st.tuples(st.integers(1, total), st.integers(1, total)), max_size=10))
    sets = RankSets(items=[f"t{j}" for j in range(len(edges))],
                    lo=[min(e) for e in edges], hi=[max(e) for e in edges])
    masks = [topk_candidates(sets, k) for k in range(total + 2)]
    for smaller, larger in zip(masks, masks[1:]):
        assert np.all(larger[smaller])


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_test_only_set_contains_true_test_rank(data):
    n, m, truth = data.draw(_pooled_truth(min_m=1))
    total = n + m
    pooled = ranks_within(truth)
    env = _covering_envelope(data.draw, n, m, np.sort(pooled[:n]))
    true_test = pooled[n:]
    below = np.array(data.draw(st.lists(st.integers(0, total), min_size=m, max_size=m)))
    above = np.array(data.draw(st.lists(st.integers(0, total), min_size=m, max_size=m)))
    sets = RankSets(items=[f"t{j}" for j in range(1, m + 1)],
                    lo=np.maximum(true_test - below, 1),
                    hi=np.minimum(true_test + above, total))
    test_only = to_test_only_set(sets, env)
    assert np.all(test_only.contains(ranks_within(truth[n:])))


@st.composite
def _fit_sample(draw):
    """Simulated sorted ranks at small (n, m, K) and a delta they can resolve."""
    n, m = draw(st.integers(1, 6)), draw(st.integers(0, 6))
    delta = draw(st.sampled_from([0.05, 0.1, 0.2, 0.25, 0.5]))
    K = draw(st.integers(math.ceil(1 / delta), 60))
    sims = simulate_sorted_ranks(n, m, K, seed=draw(st.integers(0, 2**32)))
    need = math.ceil((1 - Fraction(str(delta))) * K)
    return sims, delta, need


def _inside(traj, lower, upper) -> int:
    return int(np.count_nonzero(np.all((traj >= lower) & (traj <= upper), axis=1)))


@settings(max_examples=100, deadline=None)
@given(sample=_fit_sample(),
       fit=st.sampled_from([fit_quantile_envelope, fit_linear_envelope]))
def test_fitted_envelope_is_monotone_and_holds_on_its_training_sample(sample, fit):
    sims, delta, need = sample
    env = fit(sims, delta)
    assert np.all(np.diff(env.lower) >= 0) and np.all(np.diff(env.upper) >= 0)
    assert np.all(env.lower <= env.upper)
    # the integer count, not envelope_coverage(...) * K, which can land just
    # below an integer (28/55*55 == 27.999999999999996)
    assert _inside(sims.trajectories, env.lower, env.upper) >= need


@settings(max_examples=100, deadline=None)
@given(sample=_fit_sample())
def test_quantile_envelope_level_is_maximal(sample):
    sims, delta, need = sample
    K = sims.K
    ordered = np.sort(sims.trajectories, axis=0)
    feasible = [j for j in range(K // 2 + 1)
                if _inside(sims.trajectories, ordered[j], ordered[K - 1 - j]) >= need]
    assert round(fit_quantile_envelope(sims, delta).param * K) == max(feasible)


# One draw from a generator: each leaves the bit generator in a different
# state (a part-used buffer of four words, a spare 32-bit half), which the
# next re-keyed generator must not inherit.
_DRAWS = {
    "normal": lambda gen, k: gen.standard_normal(k),
    "uniform": lambda gen, k: gen.random(k),
    "uint32": lambda gen, k: gen.integers(0, 2**32, size=k, dtype=np.uint32),
    "int64": lambda gen, k: gen.integers(-(2**62), 2**62, size=k),
    "beta": lambda gen, k: gen.beta(0.04, 0.04, k),
    "raw": lambda gen, k: gen.bit_generator.random_raw(k),
}


@settings(max_examples=200, deadline=None)
@given(seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=6),
       tags=st.lists(st.one_of(st.text(max_size=5), st.integers(-3, 3)), max_size=3),
       plan=st.lists(st.tuples(st.sampled_from(sorted(_DRAWS)), st.integers(0, 9)),
                     min_size=1, max_size=4))
def test_batch_streams_draw_what_each_stream_draws(seeds, tags, plan):
    count = 0
    for seed, gen in zip(seeds, streams(np.array(seeds, dtype=np.uint64), *tags)):
        fresh = stream(seed, *tags)
        for name, k in plan:
            assert np.array_equal(_DRAWS[name](gen, k), _DRAWS[name](fresh, k))
        count += 1
    assert count == len(seeds)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), rows=st.sampled_from([None, 1, 3]))
def test_test_order_is_the_argsort_of_the_test_ranks(data, rows):
    # a single problem (rows=None) or a batch, m = 0 included: the order that
    # RankingProblem keeps is the one an argsort of the test items' ranks gives
    n, m = data.draw(st.integers(1, 8)), data.draw(st.integers(0, 8))
    row = st.lists(st.floats(-1e300, 1e300), min_size=n + m, max_size=n + m, unique=True)
    outputs = np.array(data.draw(row) if rows is None
                       else [data.draw(row) for _ in range(rows)])
    calib_ranks = np.tile(np.arange(1, n + 1), outputs.shape[:-1] + (1,))
    problem = RankingProblem(n=n, m=m, calib_ranks=calib_ranks, ranker_mode="VA",
                             ranker_outputs=outputs)
    order = problem.test_order
    assert order.shape == outputs.shape[:-1] + (m,)
    assert np.array_equal(order, np.argsort(problem.predicted_ranks[..., n:], axis=-1))
    assert not order.flags.writeable
    ra = RankingProblem(n=n, m=m, calib_ranks=calib_ranks, ranker_mode="RA",
                        ranker_outputs=problem.predicted_ranks)
    assert ra.test_order is None
