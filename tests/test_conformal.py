"""Scores, proxies, thresholds, prediction sets, and FCP calibration."""

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankcp import (
    DimensionMismatch,
    ExperimentConfig,
    InfeasibleLevel,
    InvalidInput,
    RankOutOfRange,
    RankingProblem,
    RankSets,
    Threshold,
    TiesDetected,
    calibrate,
    fcp_calibration,
    naive_envelope,
    predict_sets,
    proxy_score_ra,
    proxy_score_va,
    proxy_scores,
    run_experiment,
    score_ra,
    scores_at,
    select_k,
    simulate_sorted_ranks,
    fit_quantile_envelope,
)
from rankcp import conformal
from rankcp.streams import CHUNK, chunk_stream


def test_score_ra_examples():
    assert score_ra(7, 10) == 3
    assert score_ra(5, 5) == 0
    assert score_ra(1, 100) == 99


def test_proxy_score_ra_examples():
    assert proxy_score_ra(3, 9, 4) == 5  # max(1, 5)
    assert proxy_score_ra(6, 6, 2) == score_ra(6, 2)
    with pytest.raises(InvalidInput):
        proxy_score_ra(5, 3, 1)


def test_proxy_score_ra_matches_grid():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        total = int(rng.integers(2, 200))
        lo = int(rng.integers(1, total + 1))
        hi = int(rng.integers(lo, total + 1))
        pred = int(rng.integers(1, total + 1))
        brute = max(score_ra(r, pred) for r in range(lo, hi + 1))
        assert proxy_score_ra(lo, hi, pred) == brute


def test_proxy_score_va_examples():
    values = [0.1, 0.25, 0.45, 0.5, 0.65, 0.8]
    assert proxy_score_va(2, 5, 0.5, values) == pytest.approx(0.25)
    assert proxy_score_va(3, 3, 0.5, values) == abs(np.sort(values)[2] - 0.5)


def test_proxy_score_va_matches_grid():
    rng = np.random.default_rng(2)
    for _ in range(1000):
        values = rng.normal(size=int(rng.integers(2, 60)))
        lo = int(rng.integers(1, values.size + 1))
        hi = int(rng.integers(lo, values.size + 1))
        v = float(rng.normal())
        ordered = np.sort(values)
        brute = max(abs(ordered[r - 1] - v) for r in range(lo, hi + 1))
        assert proxy_score_va(lo, hi, v, values) == brute


def test_scalar_scores_refuse_what_the_array_path_refuses():
    # each returned a number before
    nan, inf = math.nan, math.inf
    cases = [
        (lambda: proxy_score_va(1, 1, 0.5, [nan, 1.0]), "all_values must be finite"),
        (lambda: proxy_score_va(1, 1, nan, [0.2, 1.0]), "value must be finite, got nan"),
        (lambda: proxy_score_va(2, 2, 0.5, [inf, 1.0]), "all_values must be finite"),
        (lambda: proxy_score_va(1, 2, 0.5, [nan, 1.0]), "all_values must be finite"),
        (lambda: score_ra(1.5, 3), "ranks must be integers, got 1.5"),
        (lambda: proxy_score_ra(1.7, 2.2, 3), "ranks must be integers, got 1.7"),
        (lambda: proxy_score_va(1.5, 1.5, 0.5, [0.2, 1.0]), "ranks must be integers, got 1.5"),
        (lambda: RankSets(["a"], [1.5], [2.9]), "ranks must be integers, got 1.5 for item 'a'"),
        (lambda: RankSets(["a", "b"], [1, 2], [2.0, inf]),
         "ranks must be integers, got inf for item 'b'"),
        # a 2-D list ended in numpy's bare "truth value ... is ambiguous"
        (lambda: proxy_score_va(1, 2, 0.5, [[0.1, 0.2], [0.3, 0.4]]),
         "all_values must be one-dimensional"),
        (lambda: proxy_score_va(1, 1, 0.5, [[0.1, 0.2], [0.3, 0.4]]),
         "all_values must be one-dimensional"),
    ]
    for call, message in cases:
        with pytest.raises(InvalidInput) as err:
            call()
        assert str(err.value) == message
    with pytest.raises(TiesDetected, match="^all_values contain exact duplicates"):
        proxy_score_va(1, 2, 0.5, [0.5, 0.5, 1.0])
    # whole floats are ranks, stored as integers
    assert score_ra(2.0, 3) == 1.0 and proxy_score_ra(1.0, 3.0, 2) == 1.0
    sets = RankSets(["a"], [1.0], [2.0])
    assert sets.lo.dtype == np.int64 and (sets.lo[0], sets.hi[0]) == (1, 2)
    assert RankSets(["a"], [2.0], [3.0])[0].size == 2


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("lo, hi, message", [
    ([1e20], [1e20], "ranks must be below 2**63, got 1e+20 for item 'a'"),
    ([1.0], [2.0**63], "ranks must be below 2**63, got 9.223372036854776e+18 for item 'a'"),
    ([-1e300], [1.0], "ranks must be below 2**63, got -1e+300 for item 'a'"),
])
def test_rank_sets_refuse_floats_beyond_int64_before_the_cast(lo, hi, message):
    # the cast to int64 warned "invalid value encountered in cast" (an error
    # here) and then reported lo = -9223372036854775808
    with pytest.raises(InvalidInput) as err:
        RankSets(["a"], lo, hi)
    assert str(err.value) == message
    # the largest float below 2**63 is whole and passes the scan
    below = float(np.nextafter(2.0**63, 0))
    assert RankSets(["a"], [1.0], [below]).hi[0] == int(below)


def test_select_k_examples():
    assert select_k(0.1, 0.02, 99) == 92
    assert select_k(0.1, 0.0, 9) == 9
    with pytest.raises(InfeasibleLevel):
        select_k(0.05, 0.02, 10)  # ceil(0.97 * 11) = 11 > 10
    with pytest.raises(InvalidInput):
        select_k(0.1, 0.2, 100)  # delta must stay below alpha


def test_calibrate_examples():
    scores = [3.0, 1.0, 2.0]  # any array-like
    assert calibrate(scores, 2).value == 2.0
    assert calibrate(np.array(scores), 3).value == 3.0
    with pytest.raises(RankOutOfRange):
        calibrate(scores, 4)
    rng = np.random.default_rng(3)
    scores = rng.normal(size=17)
    for k in (1, 5, 17):
        assert calibrate(scores, k).value == sorted(scores)[k - 1]


def _va_problem(values, test):
    """VA problem whose test items carry the outputs at positions ``test``."""
    values = np.asarray(values, dtype=float)
    calib = np.setdiff1d(np.arange(values.size), test)
    outputs = np.concatenate([values[calib], values[test]])
    return RankingProblem(
        n=calib.size, m=len(test), calib_ranks=np.arange(1, calib.size + 1),
        ranker_mode="VA", ranker_outputs=outputs,
    )


def _ra_problem(test_preds, total):
    """RA problem with the given test predictions among ``total`` items."""
    n = total - len(test_preds)
    return RankingProblem(
        n=n, m=len(test_preds), calib_ranks=np.arange(1, n + 1), ranker_mode="RA",
        ranker_outputs=np.concatenate([np.arange(1, n + 1), test_preds]),
    )


def _bounds(sets):
    return list(zip(sets.lo.tolist(), sets.hi.tolist()))


def test_predict_set_ra_examples():
    problem = _ra_problem([10, 2], 100)
    assert _bounds(predict_sets(problem, Threshold(k=1, value=2.5))) == [(8, 12), (1, 4)]
    assert _bounds(predict_sets(problem, Threshold(k=1, value=0.0))) == [(10, 10), (2, 2)]
    assert _bounds(predict_sets(problem, Threshold(k=1, value=5.0))) == [(5, 15), (1, 7)]
    assert _bounds(predict_sets(problem, Threshold(k=1, value=1e300))) == [(1, 100)] * 2
    with pytest.raises(InvalidInput):
        predict_sets(problem, Threshold(k=1, value=-0.5))


def test_predict_set_va_examples():
    values = [0.1, 0.25, 0.45, 0.5, 0.65, 0.8]
    problem = _va_problem(values, [3])  # the test item's output is 0.5
    s = predict_sets(problem, Threshold(k=1, value=0.2))
    assert (s.items, _bounds(s), s.kind) == (["t1"], [(3, 5)], "full")
    # brute-force membership over all six ranks
    member = [r for r in range(1, 7) if abs(np.sort(values)[r - 1] - 0.5) <= 0.2]
    assert list(range(s.lo[0], s.hi[0] + 1)) == member

    assert _bounds(predict_sets(problem, Threshold(k=1, value=10.0))) == [(1, 6)]
    own = predict_sets(_va_problem(values, [2]), Threshold(k=1, value=0.0))
    assert _bounds(own) == [(3, 3)]

    with pytest.raises(InvalidInput):
        predict_sets(problem, Threshold(k=1, value=-0.1))
    with pytest.raises(InvalidInput):
        predict_sets(problem, Threshold(k=1, value=float("nan")))


def _random_problem(rng, mode, total_max=50, with_truth=True):
    total = int(rng.integers(4, total_max + 1))
    n = int(rng.integers(2, total - 1))
    m = total - n
    truth = rng.normal(size=total)
    if mode == "RA":
        outputs = np.argsort(np.argsort(truth + rng.normal(size=total))) + 1
    else:
        outputs = truth + 0.5 * rng.normal(size=total)
    calib_ranks = np.argsort(np.argsort(truth[:n])) + 1
    return RankingProblem(
        n=n, m=m, calib_ranks=calib_ranks, ranker_mode=mode,
        ranker_outputs=outputs, truth=truth if with_truth else None,
    )


def test_sets_equal_sublevel_sets():
    rng = np.random.default_rng(4)
    for _ in range(300):
        mode = "RA" if rng.random() < 0.5 else "VA"
        problem = _random_problem(rng, mode)
        env = naive_envelope(problem.n, problem.m)
        proxy = proxy_scores(problem, env)
        k = int(rng.integers(1, problem.n + 1))
        thr = calibrate(proxy, k)
        sets = predict_sets(problem, thr)
        ordered = np.sort(problem.ranker_outputs)
        for j, s in enumerate(sets):
            out = problem.test_outputs[j]
            if mode == "RA":
                member = [
                    r for r in range(1, problem.total + 1)
                    if score_ra(r, int(out)) <= thr.value
                ]
            else:
                member = [
                    r for r in range(1, problem.total + 1)
                    if abs(ordered[r - 1] - out) <= thr.value
                ]
            assert list(range(s.lo, s.hi + 1)) == member

    # Adversarial VA cases: runs of adjacent floats at several magnitudes, and
    # thresholds equal to a realized gap or one ulp either side of it.  Plain
    # searchsorted(v -/+ s) misses the exact sets in about a quarter of them.
    for _ in range(600):
        values = _adjacent_float_values(rng)
        test = rng.choice(values.size, size=int(rng.integers(1, values.size)),
                          replace=False)
        problem = _va_problem(values, test)
        a, b = rng.choice(values, size=2)
        gap = abs(a - b)
        s = float(rng.choice([gap, np.nextafter(gap, 0), np.nextafter(gap, np.inf)]))
        sets = predict_sets(problem, Threshold(k=1, value=s))
        for j, v in enumerate(problem.test_outputs):
            hit = np.flatnonzero(np.abs(values - v) <= s) + 1
            assert (sets.lo[j], sets.hi[j]) == (hit[0], hit[-1])
            assert hit.size == hit[-1] - hit[0] + 1


def _ulps(x: float, k: int) -> float:
    """``x`` moved ``k`` floats up (``k < 0``: down)."""
    for _ in range(abs(k)):
        x = float(np.nextafter(x, math.copysign(math.inf, k)))
    return x


@st.composite
def _edge_crowded_rows(draw):
    """VA rows whose values crowd one test item's set edges, and a threshold per row.

    Each row holds a value ``v``, placed last so it is a test item, and
    values a few ulps around ``fl(v - s)`` and ``fl(v + s)``, where the
    rounding of ``v -/+ s`` can put a ``searchsorted`` guess one off; the
    magnitudes reach 1e300 and ``s`` may be 0 or large enough to overflow.
    ``n`` may be the whole row: then ``v`` is a calibration item, and there
    are no test items (``m = 0``).
    """
    rows, total = draw(st.integers(1, 3)), draw(st.integers(2, 12))
    n = draw(st.integers(1, total))
    values, limits = [], []
    for _ in range(rows):
        v = draw(st.sampled_from([0.0, 1.0, -3.7, 0.1, 1e-300, 2.0**52, 1e300, -1e300]))
        s = draw(st.sampled_from([0.0, 1e-300, 0.1, 0.3, 1.0, 2.0**-52, 1e16, 1e300,
                                  1.5e308]))
        with np.errstate(over="ignore"):
            edges = [v - s, v + s]
        pool = {_ulps(e, k) for e in edges if math.isfinite(e) for k in range(-3, 4)}
        pool |= {_ulps(v, k) for k in (-2, -1, 1, 2)}
        pool |= {v - 2.5, v + 7.0, 0.5, -1.0, 42.0, 3e-5, 1e10, -1e10}
        pool.discard(v)
        pool = sorted(x for x in pool if math.isfinite(x))
        others = draw(st.lists(st.sampled_from(pool), min_size=total - 1,
                               max_size=total - 1, unique=True))
        values.append(others + [v])
        limits.append(s)
    return n, total - n, np.array(values), np.array(limits)


def _brute_force_bounds(outputs, n, s):
    """``[lo, hi]`` of ``{r : |sorted[r-1] - v| <= s}`` for each test item, by scan."""
    ordered = np.sort(outputs)
    bounds = []
    for v in outputs[n:]:
        with np.errstate(over="ignore"):  # a gap beyond the largest float is inf
            hit = np.flatnonzero(np.abs(ordered - v) <= s) + 1
        assert hit.size == hit[-1] - hit[0] + 1  # one run of ranks
        bounds.append((hit[0], hit[-1]))
    return bounds


@settings(max_examples=300, deadline=None)
@given(case=_edge_crowded_rows())
def test_va_sets_equal_brute_force_where_edges_are_crowded(case):
    n, m, values, limits = case
    batch = RankingProblem(n=n, m=m, calib_ranks=np.tile(np.arange(1, n + 1), (len(values), 1)),
                           ranker_mode="VA", ranker_outputs=values)
    sets = predict_sets(batch, Threshold(k=1, value=limits))
    for i, (row, s) in enumerate(zip(values, limits)):
        expected = _brute_force_bounds(row, n, s)
        assert list(zip(sets.lo[i].tolist(), sets.hi[i].tolist())) == expected
        one = RankingProblem(n=n, m=m, calib_ranks=np.arange(1, n + 1), ranker_mode="VA",
                             ranker_outputs=row)
        assert _bounds(predict_sets(one, Threshold(k=1, value=float(s)))) == expected


def _count_bisected(monkeypatch) -> list[int]:
    """A list that records the item count of each :func:`conformal._bisect` call."""
    calls = []
    original = conformal._bisect

    def counted(lo, hi, pred):
        calls.append(lo.size)
        return original(lo, hi, pred)

    monkeypatch.setattr(conformal, "_bisect", counted)
    return calls


def test_va_guesses_that_miss_are_bisected(monkeypatch):
    # fl(3.0 - 0.2) is 2.8, so searchsorted(v - s) puts 2.8 inside the set of
    # 3.0, but |2.8 - 3.0| = 0.2000000000000002 > 0.2; and 1 - 0.9 rounds one
    # float above x = 0.09999999999999996, which |x - 1| <= 0.9 admits.  Only
    # the check sends such an item to the bisection.
    calls = _count_bisected(monkeypatch)
    for values, s, bounds in (([2.8, 3.0], 0.2, [(2, 2)]),
                              ([0.09999999999999996, 1.0], 0.9, [(1, 2)])):
        calls.clear()
        sets = predict_sets(_va_problem(values, [1]), Threshold(k=1, value=s))
        assert _bounds(sets) == bounds == _brute_force_bounds(np.array(values), 1, s)
        assert calls == [1]
    # where every guess holds, nothing is bisected
    calls.clear()
    sets = predict_sets(_va_problem([0.2, 0.7, 0.9, 1.0], [0, 2]), Threshold(k=1, value=0.25))
    assert _bounds(sets) == [(1, 1), (2, 4)] and calls == []


@pytest.mark.parametrize("rows", [1, 50])
def test_va_guesses_hold_at_spans_near_the_largest_float(monkeypatch, rows):
    # outputs in +-1.5e308 overflowed the shifted layout of _edge_guesses,
    # and nearly every guess went to the bisection (191 of 200 edges on one
    # row); scaled by a power of two first, every guess holds
    calls = _count_bisected(monkeypatch)
    rng = np.random.default_rng(rows)
    n = m = 100
    values = 1.5e308 * rng.uniform(-1.0, 1.0, (rows, n + m))
    limits = 1.5e308 * rng.uniform(0.0, 0.2, rows)
    batch = RankingProblem(n=n, m=m, calib_ranks=np.tile(np.arange(1, n + 1), (rows, 1)),
                           ranker_mode="VA", ranker_outputs=values)
    sets = predict_sets(batch, Threshold(k=1, value=limits))
    assert calls == []
    for i, (row, s) in enumerate(zip(values, limits)):
        expected = _brute_force_bounds(row, n, s)
        assert list(zip(sets.lo[i].tolist(), sets.hi[i].tolist())) == expected


def _adjacent_float_values(rng):
    """Sorted tie-free floats, mostly one to three ulps apart."""
    x = float(rng.choice([0.0, 1.0, -3.7, 0.1, 1e-300, 2.0**52, 1e16, 123.456]))
    out = []
    for _ in range(int(rng.integers(3, 30))):
        out.append(x)
        if rng.random() < 0.25:
            scale = float(rng.choice([1e-16, 1e-15, 1e-3, 0.5]))
            x += abs(x or 1.0) * scale * rng.random()
        for _ in range(int(rng.integers(1, 4))):
            x = float(np.nextafter(x, np.inf))
    return np.array(out)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_bisect_equals_linear_scan(data):
    # Rows of nondecreasing keys laid end to end, as predict_sets lays out the
    # sorted outputs; each item searches a range inside one row for its first
    # key at or above its own bound, and a few items search empty ranges,
    # including lo == hi == the length of the flat array.
    lengths = data.draw(st.lists(st.integers(0, 9), min_size=1, max_size=5))
    rows = [sorted(data.draw(st.lists(st.integers(0, 6), min_size=size, max_size=size)))
            for size in lengths]
    keys = np.array([k for row in rows for k in row], dtype=np.int64)
    ends = np.cumsum(lengths)
    starts = ends - lengths
    items = data.draw(st.lists(st.tuples(st.integers(0, len(rows) - 1), st.integers(0, 9),
                                         st.integers(0, 9), st.integers(0, 7)), max_size=8))
    lo, hi, bound = [], [], []
    for row, a, b, need in items:
        a, b = sorted((min(a, lengths[row]), min(b, lengths[row])))
        lo.append(starts[row] + a)
        hi.append(starts[row] + b)
        bound.append(need)
    if data.draw(st.booleans()):
        lo.append(keys.size)
        hi.append(keys.size)
        bound.append(0)
    lo, hi, bound = (np.array(v, dtype=np.int64) for v in (lo, hi, bound))
    probed = []

    def pred(i):
        probed.append(i)
        assert i.shape == lo.shape
        return keys[i] >= bound

    found = conformal._bisect(lo, hi, pred)
    expected = [next((i for i in range(a, b) if keys[i] >= need), b)
                for a, b, need in zip(lo.tolist(), hi.tolist(), bound.tolist())]
    assert found.tolist() == expected
    assert all(np.all((i >= 0) & (i < keys.size)) for i in probed)
    assert len(probed) == int(np.max(hi - lo, initial=0)).bit_length()


def test_bisect_edge_ranges():
    keys = np.array([0, 1, 2])
    empty = np.array([], dtype=np.int64)

    def never(i):
        raise AssertionError("no range is open")

    assert conformal._bisect(empty, empty, never).tolist() == []  # m = 0
    assert conformal._bisect(np.array([3, 0]), np.array([3, 0]), never).tolist() == [3, 0]
    # a closed item at the end of the array beside an open one: its probe is
    # clipped to the last index, so keys[i] stays in range
    assert conformal._bisect(np.array([3, 0]), np.array([3, 3]),
                             lambda i: keys[i] >= 2).tolist() == [3, 2]


def test_va_predict_sets_memory_is_linear():
    # The sets come from O(n+m) arrays, not an m x (n+m) gap matrix (which
    # is 64 MB here).
    rng = np.random.default_rng(12)
    n = m = 2000
    problem = RankingProblem(
        n=n, m=m, calib_ranks=rng.permutation(n) + 1, ranker_mode="VA",
        ranker_outputs=rng.normal(size=n + m),
    )
    thr = calibrate(proxy_scores(problem, naive_envelope(n, m)), select_k(0.1, 0.0, n))
    tracemalloc.start()
    try:
        sets = predict_sets(problem, thr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(sets) == m
    assert peak < 2 * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_va_reduces_to_ra():
    # feeding the predicted ranks as values makes the two scores coincide
    rng = np.random.default_rng(5)
    total = 30
    all_values = np.arange(1, total + 1, dtype=float)
    for _ in range(200):
        r = int(rng.integers(1, total + 1))
        pred = int(rng.integers(1, total + 1))
        assert proxy_score_va(r, r, float(pred), all_values) == score_ra(r, pred)
    for _ in range(50):
        test = rng.choice(total, size=int(rng.integers(1, total)), replace=False)
        thr = Threshold(k=1, value=float(np.round(rng.uniform(0, 10), 1)))
        a = predict_sets(_ra_problem(test + 1, total), thr)
        b = predict_sets(_va_problem(all_values, test), thr)
        assert _bounds(a) == _bounds(b)


def test_proxy_dominates_true_scores():
    rng = np.random.default_rng(6)
    for _ in range(100):
        mode = "RA" if rng.random() < 0.5 else "VA"
        problem = _random_problem(rng, mode)
        pooled = np.argsort(np.argsort(problem.truth)) + 1
        true_scores = scores_at(problem, pooled[: problem.n])
        env = naive_envelope(problem.n, problem.m)  # always covers
        proxy = proxy_scores(problem, env)
        assert np.all(proxy >= true_scores - 1e-12)
        for k in range(1, problem.n + 1):
            assert (
                np.partition(proxy, k - 1)[k - 1]
                >= np.partition(true_scores, k - 1)[k - 1] - 1e-12
            )


def test_proxy_dominance_under_fitted_envelope_coverage():
    rng = np.random.default_rng(7)
    sims = simulate_sorted_ranks(10, 15, 2000, seed=17)
    env = fit_quantile_envelope(sims, 0.1)
    hits = 0
    for _ in range(200):
        problem = _random_problem(rng, "RA", total_max=25)
        if (problem.n, problem.m) != (10, 15):
            continue
        pooled = np.argsort(np.argsort(problem.truth)) + 1
        lo, hi = env.bounds_for_ranks(problem.calib_ranks)
        covered = np.all((pooled[:10] >= lo) & (pooled[:10] <= hi))
        if not covered:
            continue
        hits += 1
        true_scores = scores_at(problem, pooled[:10])
        assert np.all(proxy_scores(problem, env) >= true_scores - 1e-12)
    assert hits > 0


def test_fcp_calibration_two_item_enumeration():
    # n = m = 1: the only p-value is 1/2 or 1, each with probability 1/2,
    # so the 0.25-quantile settles at 1/2 and k = 1.
    cal = fcp_calibration(0.0, 0.25, 0.1, n=1, m=1)
    assert cal.t_hat == pytest.approx(0.5)
    assert cal.k == 1


def test_fcp_calibration_vs_marginal_k():
    n = m = 200
    k_fcp = fcp_calibration(0.1, 0.25, 0.02, n, m).k
    k_marginal = int(np.ceil((1 - 0.1) * (n + 1)))
    assert k_fcp >= k_marginal
    # stricter exceedance budgets can only raise the index
    k_strict = fcp_calibration(0.1, 0.05, 0.02, n, m).k
    assert k_strict >= k_fcp


def test_fcp_calibration_determinism_and_errors():
    args = dict(alpha_bar=0.1, beta_bar=0.25, delta=0.02, n=50, m=80)
    a = fcp_calibration(**args)
    b = fcp_calibration(**args)
    assert (a.k, a.t_hat) == (b.k, b.t_hat)
    with pytest.raises(InvalidInput):
        fcp_calibration(0.1, 1.5, 0.02, 10, 10)


def _x_star(n, m, alpha_bar, beta_bar, counts):
    """Largest x with P(X >= x) >= beta_bar, from integer counts of X."""
    total = sum(counts)
    beta = Fraction(beta_bar)
    return max(
        x for x in range(n + 1) if Fraction(sum(counts[x:]), total) >= beta
    )


def _j0(m, alpha_bar):
    return m - min(m, math.floor(m * alpha_bar + 1e-9) + 1)


def _placement_counts(n, m, alpha_bar):
    """How many placements of the test items give each X = 0..n.

    Every placement of the m test items among the n + m sorted positions is
    equally likely; X counts the calibration items below the (j0+1)-th
    smallest test item.
    """
    j0 = _j0(m, alpha_bar)
    counts = [0] * (n + 1)
    for test_pos in itertools.combinations(range(n + m), m):
        counts[test_pos[j0] - j0] += 1
    return counts


def test_fcp_calibration_matches_enumeration_oracle():
    grid_alpha = (0.0, 0.1, 0.25, 0.5, 0.9)
    grid_beta = (0.05, 0.1, 0.25, 0.5, 0.75, 0.95)
    for total in range(2, 11):
        for n in range(1, total):
            m = total - n
            for alpha_bar in grid_alpha:
                counts = _placement_counts(n, m, alpha_bar)
                for beta_bar in grid_beta:
                    x = _x_star(n, m, alpha_bar, beta_bar, counts)
                    cal = fcp_calibration(alpha_bar, beta_bar, 0.02, n, m)
                    assert (cal.k, cal.t_hat) == (
                        min(n, max(1, x)), (n + 1 - x) / (n + 1)
                    ), (n, m, alpha_bar, beta_bar)


@pytest.mark.xfail(strict=True, reason="fcp_calibration's k is the largest x with "
                   "P(X >= x) >= beta_bar, not the smallest with P(X >= x) <= beta_bar")
def test_fcp_index_bounds_the_exceedance():
    # The a-th largest test score misses its set when at least k calibration
    # scores lie below it, so the FCP exceeds alpha_bar with probability
    # P(X >= k), which the guarantee needs at most beta_bar.  Checked
    # wherever some k <= n can do it.
    for total in range(2, 11):
        for n in range(1, total):
            m = total - n
            for alpha_bar in (0.0, 0.1, 0.25, 0.5):
                counts = _placement_counts(n, m, alpha_bar)
                for beta_bar in (0.1, 0.25, 0.5):
                    if Fraction(counts[n], sum(counts)) > Fraction(beta_bar):
                        continue
                    k = fcp_calibration(alpha_bar, beta_bar, 0.02, n, m).k
                    exceed = Fraction(sum(counts[k:]), sum(counts))
                    assert exceed <= Fraction(beta_bar), (n, m, alpha_bar, beta_bar, exceed)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 80),
    m=st.integers(1, 80),
    alpha_bar=st.floats(0.0, 0.99),
    betas=st.lists(st.floats(0.001, 0.999), min_size=2, max_size=2),
)
def test_fcp_calibration_scan_equals_comb_tail(n, m, alpha_bar, betas):
    j0 = _j0(m, alpha_bar)
    r = m - j0 - 1
    counts = [math.comb(x + j0, x) * math.comb(n - x + r, n - x) for x in range(n + 1)]
    assert sum(counts) == math.comb(n + m, n)
    lo, hi = sorted(betas)
    ks = []
    for beta_bar in (hi, lo):
        x = _x_star(n, m, alpha_bar, beta_bar, counts)
        cal = fcp_calibration(alpha_bar, beta_bar, 0.02, n, m)
        assert cal.k == min(n, max(1, x))
        assert cal.t_hat == (n + 1 - x) / (n + 1)
        ks.append(cal.k)
    # a smaller exceedance budget never lowers the index
    assert ks[1] >= ks[0]


def _simulated_fcp_k(alpha_bar, beta_bar, n, m, K, seed):
    """Monte-Carlo estimate of the FCP index (the former implementation).

    Draws K replicates of the n + m uniforms, reads X off the sorted pooled
    positions and takes the empirical beta_bar-quantile of 1 + n - X.
    """
    a = int(math.floor(m * alpha_bar + 1e-9)) + 1
    j0 = m - a
    order_stats = np.empty(K, dtype=np.int64)
    for c in range(math.ceil(K / CHUNK)):
        lo, hi = c * CHUNK, min(K, (c + 1) * CHUNK)
        u = chunk_stream(seed, c, "fcp-pvalues", n, m).random((hi - lo, n + m))
        order = np.argsort(u, axis=1)
        pos = np.nonzero(order >= n)[1].reshape(hi - lo, m)
        order_stats[lo:hi] = 1 + n - (pos[:, j0] - j0)
    idx = max(1, min(K, int(math.ceil(beta_bar * K - 1e-9))))
    t_num = int(np.partition(order_stats, idx - 1)[idx - 1])
    return min(n, max(1, n + 1 - t_num))


@pytest.mark.parametrize("n,m", [(200, 200), (50, 80)])
def test_fcp_calibration_within_simulation_band(n, m):
    alpha_bar, beta_bar, K = 0.1, 0.25, 10_000
    sd = 5 * math.sqrt(beta_bar * (1 - beta_bar) / K)
    k_lo = fcp_calibration(alpha_bar, beta_bar + sd, 0.02, n, m).k
    k_hi = fcp_calibration(alpha_bar, beta_bar - sd, 0.02, n, m).k
    k_mc = _simulated_fcp_k(alpha_bar, beta_bar, n, m, K, seed=9)
    assert k_lo <= k_mc <= k_hi


def test_fcp_calibration_deprecated_arguments_ignored():
    exact = fcp_calibration(0.1, 0.25, 0.02, 50, 80)
    with pytest.warns(DeprecationWarning, match="K and seed"):
        old = fcp_calibration(0.1, 0.25, 0.02, 50, 80, 2000, 3)
    assert (old.k, old.t_hat) == (exact.k, exact.t_hat)
    base = dict(n=40, m=30, reps=2, K_env=2000, master_seed=57,
                fcp_mode="fcp_controlled")
    with pytest.warns(DeprecationWarning, match="K_fcp"):
        cfg = ExperimentConfig(K_fcp=1000, **base)
    old_report, new_report = run_experiment(cfg), run_experiment(ExperimentConfig(**base))
    assert old_report.k == new_report.k
    assert old_report.to_rows() == new_report.to_rows()


def _three_item_problem():
    return RankingProblem(n=2, m=1, calib_ranks=[2, 1], ranker_mode="VA",
                          ranker_outputs=[0.3, 0.1, 0.2])


# (call, exception type, the parameter its message names)
CONFORMAL_REFUSALS = {
    "RankSets kind": (lambda: RankSets(["a"], [1], [2], kind="exotic"), InvalidInput,
                      "set kind 'exotic'"),
    "RankSets lo > hi": (lambda: RankSets(["a"], [3], [2]), InvalidInput,
                         r"lo <= hi, got \[3, 2\] for item 'a'"),
    "RankSets shape": (lambda: RankSets(["a", "b"], [1], [2]), DimensionMismatch,
                       "one lo and one hi per item"),
    "batch single-item view": (lambda: RankSets(["a"], [[1], [1]], [[2], [2]])[0],
                               InvalidInput, "batch of sets"),
    "score_ra rank < 1": (lambda: score_ra(0, 3), InvalidInput, "ranks must be >= 1"),
    "scores_at shape": (lambda: scores_at(_three_item_problem(), [1, 2, 3]),
                        DimensionMismatch, "one rank per calibration item"),
    "scores_at range": (lambda: scores_at(_three_item_problem(), [1, 4]),
                        RankOutOfRange, r"pooled ranks outside \[1, n\+m\]"),
    "select_k n < 1": (lambda: select_k(0.1, 0.0, 0), InvalidInput, "n >= 1"),
    "fcp_calibration alpha_bar": (lambda: fcp_calibration(1.0, 0.25, 0.0, 10, 10),
                                  InvalidInput, "alpha_bar=1.0"),
    "fcp_calibration delta": (lambda: fcp_calibration(0.1, 0.25, -0.1, 10, 10),
                              InvalidInput, "delta=-0.1"),
    "fcp_calibration n": (lambda: fcp_calibration(0.1, 0.25, 0.0, 0, 10), InvalidInput,
                          "n, m >= 1"),
    "fcp_calibration m": (lambda: fcp_calibration(0.1, 0.25, 0.0, 10, 0), InvalidInput,
                          "n, m >= 1"),
}


@pytest.mark.parametrize("case", CONFORMAL_REFUSALS)
def test_conformal_refusals_name_their_parameter(case):
    call, error, names = CONFORMAL_REFUSALS[case]
    with pytest.raises(error, match=names):
        call()
