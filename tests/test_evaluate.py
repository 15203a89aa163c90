"""Metrics, generators, the oracle arm, and the experiment harness."""

import numpy as np
import pytest
from scipy import stats

from rankcp import (
    DimensionMismatch,
    Envelope,
    ExperimentConfig,
    InvalidInput,
    MissingTruth,
    RankSets,
    RankingProblem,
    fcp,
    gen_beta_data,
    gen_sigmoid_data,
    make_problem,
    noisy_oracle_ranker,
    oracle_sets,
    predict_sets,
    proxy_scores,
    calibrate,
    ranks_within,
    relative_length,
    run_experiment,
    select_k,
    naive_envelope,
)


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
    problem = make_problem(truth, 20, 10, "RA", outputs)
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
        problem = make_problem(truth, 25, 15, "RA", outputs)
        env = naive_envelope(25, 15)  # always covers
        thr = calibrate(proxy_scores(problem, env), select_k(0.1, 0.0, 25), alpha=0.1)
        sets = predict_sets(problem, thr)
        osets = oracle_sets(problem, 0.1)
        assert relative_length(sets, 40) >= relative_length(osets, 40)
        assert np.all((sets.lo <= osets.lo) & (sets.hi >= osets.hi))


def test_sigmoid_generator():
    y = gen_sigmoid_data(500, seed=50)
    assert y.shape == (500,)
    # sigmoid plus mild noise stays near the unit interval
    assert np.mean((y > -0.3) & (y < 1.3)) > 0.99
    assert np.array_equal(y, gen_sigmoid_data(500, seed=50))
    assert not np.array_equal(y, gen_sigmoid_data(500, seed=51))
    assert gen_sigmoid_data(10, d=1, seed=0).shape == (10,)
    with pytest.raises(InvalidInput):
        gen_sigmoid_data(10, d=0, seed=0)
    with pytest.raises(InvalidInput):
        gen_sigmoid_data(1, seed=0)


def test_beta_generator_concentrates_at_endpoints():
    x = gen_beta_data(20_000, noise_sd=0.0, seed=52)
    near_edges = np.mean((np.abs(x) < 0.1) | (np.abs(x - 1) < 0.1))
    assert near_edges > 0.8


def test_beta_generator_symmetry():
    # a == b and symmetric noise make Y and 1 - Y equal in law; the noise
    # also smooths the float atoms the raw Beta(.04, .04) sampler leaves at
    # the endpoints (about a quarter of its mass sits within 1e-16 of them)
    y = gen_beta_data(20_000, seed=53)
    assert stats.ks_2samp(y, 1 - y).pvalue > 0.01


def test_beta_generator_reproducible():
    assert np.array_equal(gen_beta_data(100, seed=7), gen_beta_data(100, seed=7))


def test_noisy_oracle_ranker():
    truth = gen_sigmoid_data(50, seed=54)
    assert np.array_equal(noisy_oracle_ranker(truth, 0.0, seed=1, mode="VA"), truth)
    perfect = noisy_oracle_ranker(truth, 0.0, seed=1, mode="RA")
    assert np.array_equal(perfect, ranks_within(truth))
    noisy = noisy_oracle_ranker(truth, 0.3, seed=1, mode="RA")
    assert sorted(noisy.tolist()) == list(range(1, 51))


def test_perfect_ranker_oracle_sets_are_singletons():
    truth = gen_sigmoid_data(40, seed=55)
    outputs = noisy_oracle_ranker(truth, 0.0, seed=2, mode="RA")
    problem = make_problem(truth, 30, 10, "RA", outputs)
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
