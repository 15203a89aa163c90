"""Metrics, generators, the oracle arm, and the experiment harness."""

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from rankcp import (
    ENVELOPE_KINDS,
    DimensionMismatch,
    Envelope,
    ExperimentConfig,
    InvalidInput,
    MissingTruth,
    RankSets,
    RankingProblem,
    SortedRankSample,
    Threshold,
    TiesDetected,
    build_envelope,
    envelope_coverage,
    fcp,
    fcp_calibration,
    oracle_sets,
    predict_sets,
    proxy_scores,
    calibrate,
    ranks_within,
    relative_length,
    run_experiment,
    scores_at,
    select_k,
    naive_envelope,
    synthesize_problem,
    topk_candidates,
)
from rankcp import evaluate
from rankcp.ranks import order_rows
from rankcp.streams import child_seed


def _sets(bounds, kind="full"):
    lo, hi = zip(*bounds) if bounds else ((), ())
    return RankSets(items=[f"t{i}" for i in range(len(bounds))], lo=lo, hi=hi, kind=kind)


def test_fcp_examples():
    sets = _sets([(1, 3), (2, 5), (4, 8), (1, 10)])
    assert fcp(sets, [2, 3, 5, 9]) == 0.0
    assert fcp(sets, [4, 1, 9, 11]) == 1.0
    assert fcp(sets, [2, 3, 5, 11]) == 0.25
    with pytest.raises(DimensionMismatch):
        fcp(sets, [1, 2, 3])
    for empty in ([], _sets([])):
        with pytest.raises(InvalidInput):
            fcp(empty, [])


def test_relative_length_examples():
    assert relative_length(_sets([(2, 2), (5, 5)]), 10) == pytest.approx(0.1)
    assert relative_length(_sets([(1, 10), (1, 10)]), 10) == 1.0
    assert relative_length(_sets([(1, 2), (1, 4)]), 12) == pytest.approx(0.25)
    for empty in ([], _sets([])):
        with pytest.raises(InvalidInput):
            relative_length(empty, 10)


def test_oracle_requires_truth():
    problem = RankingProblem(
        n=3, m=2, calib_ranks=[1, 2, 3], ranker_mode="RA",
        ranker_outputs=[1, 2, 3, 4, 5],
    )
    with pytest.raises(MissingTruth):
        oracle_sets(problem, 0.1)


def _ra_problem(truth, n, m, outputs):
    """The RA problem of ``truth`` split into its first ``n`` and last ``m`` items."""
    return RankingProblem(n=n, m=m, calib_ranks=ranks_within(truth[:n]), ranker_mode="RA",
                          ranker_outputs=outputs, truth=truth)


def _truth_indexed_envelope(problem):
    """Zero-width envelope pinned at the true pooled calibration ranks."""
    pooled = ranks_within(problem.truth)[: problem.n]
    by_rank = np.empty(problem.n, dtype=np.int64)
    by_rank[problem.calib_ranks - 1] = pooled
    return Envelope(
        n=problem.n, m=problem.m, delta=0.0, kind="quantile",
        lower=by_rank, upper=by_rank,
    )


def test_degenerate_envelope_reproduces_oracle():
    rng = np.random.default_rng(40)
    truth = rng.normal(size=30)
    outputs = ranks_within(truth + 0.3 * rng.normal(size=30))
    problem = _ra_problem(truth, 20, 10, outputs)
    env = _truth_indexed_envelope(problem)
    k = select_k(0.1, env.delta, problem.n)
    thr = calibrate(proxy_scores(problem, env), k, alpha=0.1)
    sets = predict_sets(problem, thr)
    osets = oracle_sets(problem, 0.1)
    assert sets == osets
    assert relative_length(sets, 30) / relative_length(osets, 30) == 1.0


def test_oracle_ratio_at_least_one_under_coverage():
    rng = np.random.default_rng(41)
    for _ in range(30):
        truth = rng.normal(size=40)
        outputs = ranks_within(truth + 0.5 * rng.normal(size=40))
        problem = _ra_problem(truth, 25, 15, outputs)
        env = naive_envelope(25, 15)  # always covers
        thr = calibrate(proxy_scores(problem, env), select_k(0.1, 0.0, 25), alpha=0.1)
        sets = predict_sets(problem, thr)
        osets = oracle_sets(problem, 0.1)
        assert relative_length(sets, 40) >= relative_length(osets, 40)
        assert np.all((sets.lo <= osets.lo) & (sets.hi >= osets.hi))


def _truth(model, total, seed, **kwargs):
    """The truth of a synthetic VA problem of ``total`` items."""
    return synthesize_problem(model, total // 2, total - total // 2, 0.07, "VA",
                              seed=seed, **kwargs).truth


def test_sigmoid_generator():
    y = _truth("sigmoid", 500, seed=50)
    assert y.shape == (500,)
    # sigmoid plus mild noise stays near the unit interval
    assert np.mean((y > -0.3) & (y < 1.3)) > 0.99
    assert np.array_equal(y, _truth("sigmoid", 500, seed=50))
    assert not np.array_equal(y, _truth("sigmoid", 500, seed=51))
    assert _truth("sigmoid", 10, d=1, seed=0).shape == (10,)
    with pytest.raises(InvalidInput, match="^need d >= 1$"):
        _truth("sigmoid", 10, d=0, seed=0)
    for n, m in ((1, 0), (0, 5), (5, -1)):
        with pytest.raises(InvalidInput, match=f"^need n >= 1, m >= 0 and n [+] m >= 2, "
                                               f"got n={n}, m={m}$"):
            synthesize_problem("sigmoid", n, m, 0.07, "VA", seed=0)


def test_beta_generator_concentrates_at_endpoints():
    x = _truth("beta_adaptive", 20_000, data_noise_sd=0.0, seed=52)
    near_edges = np.mean((np.abs(x) < 0.1) | (np.abs(x - 1) < 0.1))
    assert near_edges > 0.8


def test_beta_generator_symmetry():
    # a == b and symmetric noise make Y and 1 - Y equal in law; the noise
    # also smooths the float atoms the raw Beta(.04, .04) sampler leaves at
    # the endpoints (about a quarter of its mass sits within 1e-16 of them)
    y = _truth("beta_adaptive", 20_000, seed=53)
    assert stats.ks_2samp(y, 1 - y).pvalue > 0.01


def test_beta_generator_reproducible():
    assert np.array_equal(_truth("beta_adaptive", 100, seed=7),
                          _truth("beta_adaptive", 100, seed=7))


def test_generated_values_must_be_finite():
    # 1e308 times a draw beyond 1.8 overflows; the overflow warned, then the
    # tie check failed on the infinities (or the VA check blamed the ranker)
    message = "noise_sd=1e\\+308 makes the generated values non-finite$"
    for model in ("sigmoid", "beta_adaptive"):
        with pytest.raises(InvalidInput, match=f"^{message}"):
            synthesize_problem(model, 25, 25, 1e308, "VA", seed=0)
        # the truth's noise is named data_noise_sd, not the ranker's noise_sd
        with pytest.raises(InvalidInput, match=f"^data_{message}"):
            synthesize_problem(model, 25, 25, 0.07, "VA", seed=0, data_noise_sd=1e308)


@pytest.mark.parametrize("model", ["sigmoid", "beta_adaptive"])
def test_synthesize_problem_checks_mode_before_drawing(monkeypatch, model):
    # the whole truth was drawn before the ranker refused the mode
    def no_draw(*args):
        raise AssertionError("drew before checking mode")

    monkeypatch.setattr(evaluate, "streams", no_draw)
    with pytest.raises(InvalidInput, match="^mode must be 'RA' or 'VA'$"):
        synthesize_problem(model, 5, 5, 0.07, "XX", seed=0)


def test_noisy_oracle_ranker():
    def outputs(noise_sd, mode):
        return synthesize_problem("sigmoid", 30, 20, noise_sd, mode, seed=54).ranker_outputs

    truth = _truth("sigmoid", 50, seed=54)
    assert np.array_equal(outputs(0.0, "VA"), truth)
    assert np.array_equal(outputs(0.0, "RA"), ranks_within(truth))
    noisy = outputs(0.3, "RA")
    assert sorted(noisy.tolist()) == list(range(1, 51))
    assert not np.array_equal(noisy, ranks_within(truth))


def test_perfect_ranker_oracle_sets_are_singletons():
    problem = synthesize_problem("sigmoid", 30, 10, 0.0, "RA", seed=55)
    osets = oracle_sets(problem, 0.1)
    assert np.all(osets.size == 1)


def test_relative_length_grows_with_ranker_noise():
    lengths = {}
    for noise in (0.05, 0.5):
        cfg = ExperimentConfig(
            n=60, m=60, reps=30, alpha=0.1, delta=0.02, mode="RA",
            envelope_kind="quantile", K_env=4000, data_model="sigmoid",
            noise_sd=noise, master_seed=56,
        )
        lengths[noise] = run_experiment(cfg).aggregates()["mean_relative_length"]
    assert lengths[0.5] > lengths[0.05]


def test_run_experiment_reproducible():
    cfg = ExperimentConfig(
        n=40, m=30, reps=3, alpha=0.1, delta=0.02, mode="VA",
        envelope_kind="linear", K_env=2000,
        data_model="sigmoid", noise_sd=0.07, master_seed=57,
        fcp_mode="fcp_controlled",
    )
    a, b = run_experiment(cfg), run_experiment(cfg)
    assert a.k == b.k
    assert a.to_rows() == b.to_rows()
    assert 0 <= a.aggregates()["mean_fcp"] <= 1
    assert a.aggregates()["mean_relative_length"] <= 1


def test_run_experiment_report_fields():
    cfg = ExperimentConfig(
        n=30, m=20, reps=4, envelope_kind="naive", master_seed=58
    )
    report = run_experiment(cfg)
    assert len(report.per_rep) == 4
    for r in report.per_rep:
        assert 0.0 <= r.fcp <= 1.0
        assert 0.0 < r.relative_length <= 1.0
        assert r.oracle_ratio >= 1.0  # naive envelope always covers
        assert r.envelope_covered
        assert r.oracle_contained
    rows = report.to_rows()
    assert {row[3] for row in rows} == {"proxy", "oracle"}
    assert report.config.effective_k_top == 1  # ceil(0.05 * 20)


def test_experiment_config_validation():
    with pytest.raises(InvalidInput):
        ExperimentConfig(alpha=1.5)
    with pytest.raises(InvalidInput):
        ExperimentConfig(mode="XX")
    with pytest.raises(InvalidInput):
        ExperimentConfig(reps=0)
    with pytest.raises(InvalidInput):
        ExperimentConfig(data_model="mystery")
    with pytest.raises(InvalidInput, match="K_env=0 must be at least 1 for a linear"):
        ExperimentConfig(envelope_kind="linear", K_env=0)
    # the closed-form kinds draw nothing, so they ignore K_env
    ExperimentConfig(envelope_kind="theoretical", K_env=0)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, -0.5])
def test_noise_levels_must_be_finite_and_nonnegative(bad):
    message = f"noise_sd={bad} must be finite and nonnegative"
    for model in ("sigmoid", "beta_adaptive"):
        with pytest.raises(InvalidInput, match=f"^{message}$"):
            synthesize_problem(model, 5, 5, bad, "VA", seed=0)
        with pytest.raises(InvalidInput, match=f"^data_{message}$"):
            synthesize_problem(model, 5, 5, 0.1, "VA", seed=0, data_noise_sd=bad)
    with pytest.raises(InvalidInput, match=f"^{message}$"):
        ExperimentConfig(noise_sd=bad)


# (metric, arm) of the nine report rows of one repetition, in order
REPORT_LAYOUT = (
    ("fcp", "proxy"), ("relative_length", "proxy"), ("oracle_ratio", "proxy"),
    ("envelope_covered", "proxy"), ("topk_overlap", "proxy"),
    ("width_mid_quintile", "proxy"), ("width_extreme_quintile", "proxy"),
    ("fcp", "oracle"), ("relative_length", "oracle"),
)


def _reference_rows(cfg):
    """Report rows of the per-repetition loop over single problems.

    The reference for the block engine: one 1-D problem per repetition,
    drawn from the same ``(master_seed, "rep", rep)`` streams.
    """
    n, m = cfg.n, cfg.m
    env = build_envelope(cfg.envelope_kind, n, m, cfg.delta, cfg.K_env,
                         child_seed(cfg.master_seed, "envelope"))
    meta = None
    if cfg.fcp_mode == "fcp_controlled":
        meta = fcp_calibration(cfg.alpha, cfg.beta, env.delta, n, m)
    k = meta.k if meta else select_k(cfg.alpha, env.delta, n)
    k_top = cfg.effective_k_top
    rows = []
    for rep in range(cfg.reps):
        problem = synthesize_problem(cfg.data_model, n, m, cfg.noise_sd, cfg.mode,
                                     seed=child_seed(cfg.master_seed, "rep", rep), d=5)
        pooled = ranks_within(problem.truth)
        true_calib, true_test = pooled[:n], pooled[n:]
        thr = calibrate(proxy_scores(problem, env), k, alpha=cfg.alpha)
        sets = predict_sets(problem, thr)
        osets = oracle_sets(problem, cfg.alpha)
        rl, o_rl = relative_length(sets, n + m), relative_length(osets, n + m)
        lo, hi = env.bounds_for_ranks(problem.calib_ranks)
        covered = bool(np.all((true_calib >= lo) & (true_calib <= hi)))
        overlap = int(np.count_nonzero(topk_candidates(sets, k_top) & (true_test <= k_top)))
        predicted = (problem.test_outputs if cfg.mode == "RA"
                     else ranks_within(problem.ranker_outputs)[n:])
        widths = sets.size.astype(float)
        quintile = np.minimum(4, (5 * (predicted - 1)) // (n + m))
        mid = widths[quintile == 2]
        ext = widths[(quintile == 0) | (quintile == 4)]
        values = (
            fcp(sets, true_test), rl, rl / o_rl, float(covered), float(overlap),
            float(mid.mean()) if mid.size else float("nan"),
            float(ext.mean()) if ext.size else float("nan"),
            fcp(osets, true_test), o_rl,
        )
        rows += [(rep, metric, value, arm)
                 for (metric, arm), value in zip(REPORT_LAYOUT, values)]
    return rows


def _engine_grid():
    """Every mode x threshold x data model, cycling envelope kinds, sizes and reps."""
    kinds = itertools.cycle(("naive", "quantile", "linear"))
    shapes = itertools.cycle(((40, 3, 170), (30, 70, 5), (30, 70, 40), (40, 3, 5)))
    for (mode, fcp_mode, model), kind, (n, m, reps) in zip(
        itertools.product(("RA", "VA"), ("marginal", "fcp_controlled"),
                          ("sigmoid", "beta_adaptive")),
        kinds, shapes,
    ):
        yield ExperimentConfig(n=n, m=m, reps=reps, mode=mode, fcp_mode=fcp_mode,
                               data_model=model, envelope_kind=kind, K_env=2000,
                               master_seed=n * 7 + reps)


@pytest.mark.parametrize("cfg", list(_engine_grid()),
                         ids=lambda c: f"{c.mode}-{c.fcp_mode}-{c.data_model}-"
                                       f"{c.envelope_kind}-{c.n}x{c.m}x{c.reps}")
def test_block_engine_matches_per_rep_reference(cfg):
    assert repr(run_experiment(cfg).to_rows()) == repr(_reference_rows(cfg))


@pytest.mark.parametrize("block_elements", [1, 2 * 73 + 5])
@pytest.mark.parametrize("mode", ["RA", "VA"])
def test_blocks_straddle_without_changing_rows(monkeypatch, block_elements, mode):
    # n + m = 73: blocks of 1 and of 2 repetitions, the last one short
    cfg = ExperimentConfig(n=40, m=33, reps=7, mode=mode, envelope_kind="quantile",
                           K_env=2000, master_seed=61, fcp_mode="fcp_controlled")
    monkeypatch.setattr(evaluate, "BLOCK_ELEMENTS", block_elements)
    assert repr(run_experiment(cfg).to_rows()) == repr(_reference_rows(cfg))


def test_empty_quintile_gives_nan_width():
    cfg = ExperimentConfig(n=40, m=3, reps=30, mode="VA", envelope_kind="naive",
                           master_seed=62)
    report = run_experiment(cfg)
    mid = report.values("width_mid_quintile")
    assert np.isnan(mid).any() and not np.isnan(mid).all()
    assert repr(report.to_rows()) == repr(_reference_rows(cfg))
    assert math.isnan(report.per_rep[int(np.flatnonzero(np.isnan(mid))[0])]
                      .width_mid_quintile)


def test_rep_phase_memory_bounded_by_block():
    """Eight blocks of repetitions peak within 1.5x of one block."""
    block = max(1, evaluate.BLOCK_ELEMENTS // 400)

    def peak(reps):
        cfg = ExperimentConfig(n=200, m=200, reps=reps, envelope_kind="naive",
                               master_seed=63)
        tracemalloc.start()
        try:
            run_experiment(cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one, eight = peak(block), peak(8 * block)
    assert eight <= 1.5 * one, (one, eight)


VA_POOL = (0.0, 0.1, 0.2, 0.3, -0.1, -0.3, 1e-300, 1.0, 1.0 + 2**-52, 1.0 - 2**-53,
           3.5, -3.5, 7.0, 0.7)


@st.composite
def _batch(draw):
    """Stacked problems of one size and mode, and the 1-D problem of each row."""
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    rows, mode = draw(st.integers(1, 4)), draw(st.sampled_from(["RA", "VA"]))
    total = n + m
    truth = np.array([draw(st.permutations(range(total))) for _ in range(rows)],
                     dtype=float)
    if mode == "RA":
        outputs = [draw(st.lists(st.integers(1, total), min_size=total, max_size=total))
                   for _ in range(rows)]
    else:
        # few distinct values, so gaps repeat and thresholds hit them exactly
        outputs = [draw(st.lists(st.sampled_from(VA_POOL), min_size=total, max_size=total,
                                 unique=True))
                   for _ in range(rows)]
    outputs = np.array(outputs)
    batch = RankingProblem(n=n, m=m, calib_ranks=ranks_within(truth[:, :n]),
                           ranker_mode=mode, ranker_outputs=outputs, truth=truth)
    singles = [RankingProblem(n=n, m=m, calib_ranks=ranks_within(truth[i, :n]),
                              ranker_mode=mode, ranker_outputs=outputs[i], truth=truth[i])
               for i in range(rows)]
    return batch, singles


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_batched_layers_equal_single_problem_calls(data):
    batch, singles = data.draw(_batch())
    n, m = batch.n, batch.m
    lower = np.arange(1, n + 1)
    env = Envelope(n=n, m=m, delta=0.0, kind="quantile", lower=lower,
                   upper=np.minimum(lower + data.draw(st.integers(0, m)), n + m))
    alpha = data.draw(st.sampled_from([0.5, 0.7, 0.9]))  # k <= n for every n >= 1
    k = data.draw(st.integers(1, n))
    pooled = ranks_within(batch.truth)
    proxy = proxy_scores(batch, env)
    thr = calibrate(proxy, k, alpha=alpha)
    sets = predict_sets(batch, thr)
    osets = oracle_sets(batch, alpha)
    k_top = data.draw(st.integers(0, n + m))
    assert sets.lo.shape == (len(singles), m)
    for i, one in enumerate(singles):
        assert np.array_equal(pooled[i], ranks_within(one.truth))
        assert order_rows(batch.ranker_outputs)[1][i] == order_rows(one.ranker_outputs)[1]
        assert np.array_equal(scores_at(batch, pooled[:, :n])[i],
                              scores_at(one, pooled[i, :n]))
        assert np.array_equal(proxy[i], proxy_scores(one, env))
        one_thr = calibrate(proxy_scores(one, env), k, alpha=alpha)
        assert type(one_thr.value) is float and one_thr.value == thr.value[i]
        one_sets = predict_sets(one, one_thr)
        assert np.array_equal(sets.lo[i], one_sets.lo)
        assert np.array_equal(sets.hi[i], one_sets.hi)
        one_osets = oracle_sets(one, alpha)
        assert np.array_equal(osets.lo[i], one_osets.lo)
        assert np.array_equal(osets.hi[i], one_osets.hi)
        true_test = pooled[i, n:]
        assert fcp(sets, pooled[:, n:])[i] == fcp(one_sets, true_test)
        assert relative_length(sets, n + m)[i] == relative_length(one_sets, n + m)
        assert np.array_equal(topk_candidates(sets, k_top)[i],
                              topk_candidates(one_sets, k_top))


@settings(max_examples=20, deadline=None)
@given(seeds=st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=4),
       model=st.sampled_from(["sigmoid", "beta_adaptive"]),
       mode=st.sampled_from(["RA", "VA"]))
def test_synthesize_problem_rows_equal_single_seeds(seeds, model, mode):
    batch = synthesize_problem(model, 7, 5, 0.07, mode, seed=np.array(seeds))
    for i, seed in enumerate(seeds):
        one = synthesize_problem(model, 7, 5, 0.07, mode, seed=seed)
        assert np.array_equal(batch.truth[i], one.truth)
        assert np.array_equal(batch.ranker_outputs[i], one.ranker_outputs)
        assert np.array_equal(batch.calib_ranks[i], one.calib_ranks)
    assert batch.item_ids == one.item_ids


def test_batch_rows_are_validated_one_by_one():
    ranks = np.array([[1, 2], [2, 1]])
    ok = RankingProblem(n=2, m=1, calib_ranks=ranks, ranker_mode="VA",
                        ranker_outputs=[[0.1, 0.2, 0.3], [0.3, 0.2, 0.1]])
    assert ok.test_outputs.tolist() == [[0.3], [0.1]]
    # equal values in different rows are not ties; within a row they are
    with pytest.raises(TiesDetected):
        RankingProblem(n=2, m=1, calib_ranks=ranks, ranker_mode="VA",
                       ranker_outputs=[[0.1, 0.2, 0.3], [0.3, 0.3, 0.1]])
    with pytest.raises(InvalidInput):
        RankingProblem(n=2, m=1, calib_ranks=[[1, 2], [1, 1]], ranker_mode="RA",
                       ranker_outputs=[[1, 2, 3], [1, 2, 3]])
    with pytest.raises(InvalidInput):
        RankingProblem(n=2, m=1, calib_ranks=[1, 2], ranker_mode="RA",
                       ranker_outputs=[[1, 2, 3], [1, 2, 3]])
    with pytest.raises(DimensionMismatch):
        predict_sets(ok, Threshold(k=1, value=0.5))  # one threshold for two rows


def test_tied_generated_rows_are_broken_and_ordered_again():
    # with no noise the outputs repeat the truth, and its first row is tied
    truth = np.array([[0.5, 0.5, 0.1, 0.9], [0.3, 0.2, 0.1, 0.0]])
    seeds = np.array([7, 8])
    values, order = evaluate._noisy_outputs(truth, 0.0, seeds, "VA")
    assert order_rows(truth)[1].tolist() == [True, False]
    assert not order_rows(values)[1].any() and np.array_equal(values[1], truth[1])
    assert np.array_equal(order, np.argsort(values, axis=-1))
    ranks, _ = evaluate._noisy_outputs(truth, 0.0, seeds, "RA")
    assert np.array_equal(ranks, ranks_within(values))


@pytest.mark.parametrize("mode", ["RA", "VA"])
def test_one_block_sorts_each_array_once(monkeypatch, mode):
    # A block argsorts the truth and the generated outputs once each, to look
    # for ties; the problem checks those orders instead of sorting again and
    # the calibration ranks are read from the truth's order, so the one other
    # sort is the permutation check of the calibration ranks (np.sort).  Every
    # later layer reads the problem's stored orderings.
    calls = dict.fromkeys(("sort", "argsort"), 0)

    def counted(name):
        original = getattr(np, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(np, name, counted(name))
    cfg = ExperimentConfig(n=40, m=30, reps=5, mode=mode, envelope_kind="naive",
                           master_seed=3)
    assert cfg.reps <= evaluate.BLOCK_ELEMENTS // (cfg.n + cfg.m)  # one block
    run_experiment(cfg)
    assert calls == {"sort": 1, "argsort": 2}


SEED_REFUSALS = {
    # truncated by int(): seed 1.7 drew the problem of seed 1
    "float": (lambda: synthesize_problem("sigmoid", 5, 5, 0.07, "VA", seed=1.7),
              "^seed must be an integer, got 1.7$"),
    # drew seed 1's sample and wrote mc_meta.seed 1.5, which read_envelope refuses
    "envelope float": (lambda: build_envelope("quantile", 10, 10, 0.1, 100, seed=1.5),
                       "^seed must be an integer, got 1.5$"),
    # ended in a bare TypeError
    "2-D array": (lambda: synthesize_problem("sigmoid", 5, 5, 0.07, "VA",
                                             seed=np.array([[1, 2]])),
                  r"^seed must be an integer, got \[1 2\]$"),
    # ended in numpy's "need at least one array to stack"
    "empty array": (lambda: synthesize_problem("sigmoid", 5, 5, 0.07, "VA",
                                               seed=np.array([], dtype=np.int64)),
                    "^seed must hold at least one seed$"),
}


@pytest.mark.parametrize("case", SEED_REFUSALS)
def test_seeds_must_be_integers(case):
    call, message = SEED_REFUSALS[case]
    with pytest.raises(InvalidInput, match=message):
        call()


def test_integer_seeds_of_any_integer_type_draw_alike():
    one = synthesize_problem("beta_adaptive", 5, 5, 0.07, "RA", seed=3)
    for seed in (np.int64(3), np.uint8(3), np.array(3)):
        other = synthesize_problem("beta_adaptive", 5, 5, 0.07, "RA", seed=seed)
        assert np.array_equal(other.truth, one.truth)
        assert np.array_equal(other.ranker_outputs, one.ranker_outputs)


def _audit_proxy_arm(problem, env, alpha, inside):
    """Coverage and FCP control of ``env``'s proxy sets over every split (rows of ``problem``).

    ``inside`` marks the rows on which ``env`` holds.  Prints the share of
    trivial ``[1, n+m]`` sets of each arm (shown by ``pytest -rP``).
    """
    n, m, total = problem.n, problem.m, problem.total
    c = Fraction(int(np.count_nonzero(inside)), inside.size)
    k = math.ceil((1 - Fraction(alpha) + Fraction(str(env.delta))) * (n + 1))
    proxies = proxy_scores(problem, env)
    # the premise of both bounds: where the envelope holds, no proxy score
    # falls below the item's true score
    assert np.all(proxies[inside] >= scores_at(problem, problem.true_ranks[:, :n])[inside])
    test_ranks = problem.true_ranks[:, n:]
    sets = predict_sets(problem, calibrate(proxies, k))
    coverage = Fraction(int(np.count_nonzero(sets.contains(test_ranks))), sets.lo.size)
    where = f"{env.kind} envelope, {problem.ranker_mode} bag, c={float(c):.3f}"
    assert coverage >= Fraction(k, n + 1) - (1 - c), where
    beta = Fraction(1, 4)
    k_fcp = fcp_calibration(float(alpha), float(beta), env.delta, n, m).k
    fcp_sets = predict_sets(problem, calibrate(proxies, k_fcp))
    missed = np.count_nonzero(~fcp_sets.contains(test_ranks), axis=1)
    controlled = Fraction(int(np.count_nonzero(missed <= Fraction(alpha) * m)), len(missed))
    assert controlled >= 1 - beta - (1 - c), where
    trivial = [np.mean((arm.lo == 1) & (arm.hi == total)) for arm in (sets, fcp_sets)]
    print(f"{where}: coverage {float(coverage):.3f}, FCP <= alpha in "
          f"{float(controlled):.3f}, trivial sets {trivial[0]:.3f} (marginal), "
          f"{trivial[1]:.3f} (FCP)")


@pytest.mark.parametrize("alpha", ["0.15", "0.3"])
@pytest.mark.parametrize("n, m", [(12, 3), (13, 4), (14, 5)])
def test_oracle_sets_cover_exactly_over_every_split(n, m, alpha):
    # One bag of n+m items, one row per choice of the n calibration items:
    # all C(n+m, n) splits, each equally likely under exchangeability.  An
    # item's oracle score depends on the bag, not on the split, so when the
    # n+m scores are distinct the test item's score is at most the k-th
    # smallest calibration score in exactly k of every n+1 cases.
    #
    # The proxy arm of every envelope kind is audited over the same splits.
    # The envelope holds on a share c of them, counted exactly; there every
    # proxy score dominates the true one, so the proxy sets contain the
    # oracle sets of the same k.  Hence proxy coverage is at least
    # k/(n+1) - (1 - c), and with fcp_calibration's k the share of splits
    # with FCP <= alpha at least 1 - beta - (1 - c).
    total = n + m
    k = math.ceil((1 - Fraction(alpha)) * (n + 1))  # not select_k: it is under test
    rng = np.random.default_rng(total)
    truth = rng.normal(size=total)
    true_ranks = ranks_within(truth)
    # VA: the ranker rotates the output ranks by one within runs of three to
    # five consecutive true ranks, so each score is the gap between two
    # outputs of one run, and no two items share a pair of outputs
    runs = np.array_split(np.arange(total), total // 3)
    rotated = np.concatenate([np.roll(run, -1) for run in runs])
    values = np.sort(rng.normal(size=total))[rotated[true_ranks - 1]]
    va_scores = np.abs(np.sort(values)[true_ranks - 1] - values)
    assert len(set(va_scores.tolist())) == total  # the premise of exactness
    # RA: the ranks of the truth plus noise; integer scores tie, which can
    # only add coverage
    noisy_ranks = ranks_within(truth + 0.5 * rng.normal(size=total))
    splits = np.array([list(calib) + [i for i in range(total) if i not in calib]
                       for calib in itertools.combinations(range(total), n)])
    # the sorted pooled calibration ranks of the splits are all n-subsets
    every_subset = SortedRankSample(n, m, seed=0, trajectories=np.array(
        list(itertools.combinations(range(1, total + 1), n))))
    envelopes = [build_envelope(kind, n, m, 0.05, 2000, seed=total) for kind in ENVELOPE_KINDS]
    pooled = np.sort(true_ranks[splits[:, :n]], axis=1)
    inside = {}
    for env in envelopes:
        inside[env.kind] = np.all((env.lower <= pooled) & (pooled <= env.upper), axis=1)
        c = Fraction(int(np.count_nonzero(inside[env.kind])), len(splits))
        assert envelope_coverage(env, every_subset) == float(c)
    for mode, outputs in (("VA", values), ("RA", noisy_ranks)):
        problem = RankingProblem(n=n, m=m, calib_ranks=ranks_within(truth[splits[:, :n]]),
                                 ranker_mode=mode, ranker_outputs=outputs[splits],
                                 truth=truth[splits])
        sets = oracle_sets(problem, float(alpha))
        assert not np.any((sets.lo == 1) & (sets.hi == total))  # no trivial set
        coverage = Fraction(int(np.count_nonzero(sets.contains(problem.true_ranks[:, n:]))),
                            sets.lo.size)
        if mode == "VA":
            assert coverage == Fraction(k, n + 1)
        else:
            assert coverage >= Fraction(k, n + 1)
        for env in envelopes:
            _audit_proxy_arm(problem, env, alpha, inside[env.kind])
