"""Property tests of envelopes, proxy scores, targets and stored orders on small problems."""

import math
from fractions import Fraction
from functools import partial

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rankcp import (
    Envelope,
    InvalidInput,
    RankCPError,
    RankingProblem,
    RankOutOfRange,
    RankSets,
    calibration_sets,
    fit_linear_envelope,
    fit_quantile_envelope,
    proxy_score_ra,
    proxy_score_va,
    proxy_scores,
    naive_envelope,
    ranks_within,
    scores_at,
    simulate_sorted_ranks,
    topk_candidates,
)
from rankcp import test_only_set as to_test_only_set
from rankcp.ranks import as_rank
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


def _outcome(call):
    """``call()``, or the class of the package error it raises."""
    try:
        return call()
    except RankCPError as exc:
        return type(exc)


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
# zeros, NaN, ±inf, and ints and floats on both sides of 2**63
_RANK_LIKE = (
    st.integers(-2, 10)
    | st.integers(-2, 10).map(float)
    | st.floats(-2, 10)
    | st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf])
    | st.sampled_from([2**63 - 1, 2**63, 2**64, -(2**63), -(2**63) - 1, 10**30])
    | st.sampled_from([2.0**63, float(np.nextafter(2.0**63, 0)), -(2.0**63), 1e20])
)
_M = 8  # the test items of the one-calibration-item problem below


def _ra_problem(calib_rank=1, output=1):
    return RankingProblem(n=1, m=_M, calib_ranks=[calib_rank], ranker_mode="RA",
                          ranker_outputs=[output] + [1] * _M)


# Each array entry point of a rank: a call that reads a value ``v`` back as
# an int64 array, and the ranks it serves
_RANK_ENTRY_POINTS = {
    "RankSets lo": (lambda v: RankSets(["a"], [v], [2**62]).lo, 1, 2**62),
    "RankSets hi": (lambda v: RankSets(["a"], [1], [v]).hi, 1, 2**63 - 1),
    "calib_ranks": (lambda v: _ra_problem(calib_rank=v).calib_ranks, 1, 1),
    "RA outputs": (lambda v: _ra_problem(output=v).ranker_outputs[:1], 1, 1 + _M),
    # the calibration item's RA output is 1, so its score at rank v is v - 1
    "scores_at": (lambda v: scores_at(_ra_problem(), [v]).astype(np.int64) + 1, 1, 1 + _M),
    # a naive envelope's lower bound at calibration rank r is r
    "calibration_sets": (lambda v: calibration_sets(naive_envelope(_M, 1),
                                                    [v] + [1] * (_M - 1)).lo[:1], 1, _M),
}


@settings(max_examples=300, deadline=None)
@given(value=_RANK_LIKE)
def test_one_whole_number_rule_for_every_rank_entry_point(value):
    # the scalar rule and every array entry point accept exactly the int64
    # values and the whole floats below 2**63, and read them as the same int64
    if isinstance(value, int):
        whole = -(2**63) <= value < 2**63
    else:
        whole = math.isfinite(value) and value.is_integer() and abs(value) < 2**63
    rank = _outcome(lambda: as_rank(value))
    assert (type(rank), rank) == ((int, int(value)) if whole else (type, InvalidInput))
    for name, (read, low, high) in _RANK_ENTRY_POINTS.items():
        got = _outcome(lambda: read(value))
        if whole and low <= rank <= high:
            assert isinstance(got, np.ndarray) and got.dtype == np.int64, name
            assert got.tolist() == [rank], name
        elif whole:  # a rank that the entry point does not serve
            assert got in (InvalidInput, RankOutOfRange), name
        else:
            assert got is InvalidInput, name


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
