"""Property tests of envelopes, proxy scores and envelope-based targets on small problems."""

import math
from fractions import Fraction
from functools import partial

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rankcp import (
    Envelope,
    RankCPError,
    RankingProblem,
    RankSets,
    fit_linear_envelope,
    fit_quantile_envelope,
    proxy_score_ra,
    proxy_score_va,
    proxy_scores,
    ranks_within,
    scores_at,
    simulate_sorted_ranks,
    topk_candidates,
)
from rankcp import test_only_set as to_test_only_set


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
