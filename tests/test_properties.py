"""Property tests of the envelope-based targets on small random problems."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rankcp import (
    Envelope,
    RankingProblem,
    RankSets,
    proxy_scores,
    ranks_within,
    scores_at,
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
    assert np.all(proxy_scores(problem, env).scores >= scores_at(problem, true_calib))


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
