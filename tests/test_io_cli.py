"""File formats and the command-line surface."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from rankcp import (
    Envelope,
    RankSets,
    RankingProblem,
    naive_envelope,
    theoretical_envelope,
)
from rankcp import io as rio
from rankcp.cli import main
from rankcp.evaluate import ExperimentConfig, run_experiment

DATA = Path(__file__).parent / "data"


def _problem(mode="VA", with_truth=True):
    rng = np.random.default_rng(70)
    truth = rng.normal(size=9)
    outputs = truth + 0.2 * rng.normal(size=9)
    if mode == "RA":
        outputs = np.argsort(np.argsort(outputs)) + 1
    return RankingProblem(
        n=6, m=3,
        calib_ranks=np.argsort(np.argsort(truth[:6])) + 1,
        ranker_mode=mode, ranker_outputs=outputs,
        truth=truth if with_truth else None,
    )


@pytest.mark.parametrize("mode", ["RA", "VA"])
@pytest.mark.parametrize("with_truth", [True, False])
def test_scores_roundtrip(tmp_path, mode, with_truth):
    problem = _problem(mode, with_truth)
    path = tmp_path / "scores.csv"
    rio.write_scores(problem, path)
    back = rio.read_scores(path, mode)
    assert (back.n, back.m) == (problem.n, problem.m)
    assert np.array_equal(back.calib_ranks, problem.calib_ranks)
    assert np.array_equal(back.ranker_outputs, problem.ranker_outputs)
    assert back.item_ids == problem.item_ids
    if with_truth:
        assert np.array_equal(back.truth, problem.truth)
    else:
        assert back.truth is None


def test_envelope_roundtrip(tmp_path):
    import rankcp

    sims = rankcp.simulate_sorted_ranks(8, 12, 2000, seed=71)
    for env in (
        naive_envelope(8, 12),
        theoretical_envelope(8, 12, 0.1),
        rankcp.fit_quantile_envelope(sims, 0.1),
        rankcp.fit_linear_envelope(sims, 0.1),
    ):
        path = tmp_path / f"{env.kind}.json"
        rio.write_envelope(env, path)
        back = rio.read_envelope(path)
        assert (back.n, back.m, back.delta, back.kind) == (
            env.n, env.m, env.delta, env.kind,
        )
        assert np.array_equal(back.lower, env.lower)
        assert np.array_equal(back.upper, env.upper)
        assert back.param == env.param
        if env.mc_meta is None:
            assert back.mc_meta is None
        else:
            assert back.mc_meta == env.mc_meta
        # serialization is stable byte for byte
        rio.write_envelope(back, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def test_sets_roundtrip(tmp_path):
    items = [f"t{i}" for i in range(5)]
    sets = RankSets(items=items, lo=np.arange(1, 6), hi=np.arange(4, 9))
    path = tmp_path / "sets.csv"
    rio.write_sets(sets, path)
    assert rio.read_sets(path) == sets
    # extra columns are carried but do not disturb the core round trip
    rio.write_sets(
        sets, path,
        test_only=RankSets(items=items, lo=[1] * 5, hi=[2] * 5, kind="test_only"),
        top_candidates=np.array([True, False, True, False, False]),
    )
    assert rio.read_sets(path) == sets
    assert path.read_text().splitlines()[1:3] == ["t0,1,4,1,2,1", "t1,2,5,1,2,0"]


def test_report_roundtrip(tmp_path):
    cfg = ExperimentConfig(n=20, m=10, reps=3, envelope_kind="naive", master_seed=72)
    report = run_experiment(cfg)
    path = tmp_path / "report.csv"
    rio.write_report(report, path)
    rows = rio.read_report_rows(path)
    assert rows == report.to_rows()
    assert path.read_text().splitlines()[0] == "rep,metric,value,arm"


def test_golden_predict(tmp_path):
    out = tmp_path / "sets.csv"
    code = main(
        [
            "predict",
            "--scores", str(DATA / "golden_scores.csv"),
            "--envelope", str(DATA / "golden_envelope.json"),
            "--alpha", "0.25",
            "--mode", "VA",
            "--out", str(out),
        ]
    )
    assert code == 0
    assert out.read_bytes() == (DATA / "golden_sets.csv").read_bytes()
    manifest = json.loads((str(out) + ".manifest.json" and Path(str(out) + ".manifest.json")).read_text())
    assert manifest["extras"]["k"] == 11
    assert manifest["payload_sha256"] == rio.file_digest(out)

    # independent check of the committed golden: exhaustive membership
    problem = rio.read_scores(DATA / "golden_scores.csv", "VA")
    env = rio.read_envelope(DATA / "golden_envelope.json")
    ordered = np.sort(problem.ranker_outputs)
    proxies = []
    lower, upper = env.bounds_for_ranks(problem.calib_ranks)
    for i in range(problem.n):
        lo, hi = int(lower[i]), int(upper[i])
        proxies.append(
            max(
                abs(ordered[r - 1] - problem.ranker_outputs[i])
                for r in range(lo, hi + 1)
            )
        )
    threshold = sorted(proxies)[11 - 1]
    expected = []
    for j in range(problem.m):
        val = problem.test_outputs[j]
        member = [
            r for r in range(1, problem.total + 1)
            if abs(ordered[r - 1] - val) <= threshold
        ]
        expected.append((problem.test_ids[j], member[0], member[-1]))
    back = rio.read_sets(out)
    got = list(zip(back.items, back.lo.tolist(), back.hi.tolist()))
    assert got == expected


def test_predict_extra_target_columns(tmp_path):
    out = tmp_path / "sets.csv"
    code = main(
        [
            "predict",
            "--scores", str(DATA / "golden_scores.csv"),
            "--envelope", str(DATA / "golden_envelope.json"),
            "--alpha", "0.25",
            "--mode", "VA",
            "--test-only", "on",
            "--top-k", "3",
            "--out", str(out),
        ]
    )
    assert code == 0
    header = out.read_text().splitlines()[0]
    assert header == "id,lo,hi,test_lo,test_hi,top_candidate"


def test_predict_fcp_threshold_at_least_marginal(tmp_path):
    rng = np.random.default_rng(73)
    truth = np.sort(rng.normal(size=300))  # sorted truth keeps ids aligned simply
    outputs = truth + 0.1 * rng.normal(size=300)
    problem = RankingProblem(
        n=200, m=100, calib_ranks=np.arange(1, 201), ranker_mode="VA",
        ranker_outputs=outputs, truth=truth,
    )
    scores_path = tmp_path / "scores.csv"
    rio.write_scores(problem, scores_path)
    env_path = tmp_path / "env.json"
    rio.write_envelope(theoretical_envelope(200, 100, 0.02), env_path)

    out_marginal = tmp_path / "marginal.csv"
    out_fcp = tmp_path / "fcp.csv"
    base = [
        "predict", "--scores", str(scores_path), "--envelope", str(env_path),
        "--alpha", "0.1", "--mode", "VA",
    ]
    assert main(base + ["--out", str(out_marginal)]) == 0
    assert main(base + ["--fcp", "on", "--beta", "0.25",
                        "--out", str(out_fcp)]) == 0
    k_marginal = json.loads(Path(str(out_marginal) + ".manifest.json").read_text())
    k_fcp = json.loads(Path(str(out_fcp) + ".manifest.json").read_text())
    assert k_fcp["extras"]["k"] >= math.ceil(0.9 * 201)
    assert k_fcp["extras"]["t_hat"] is not None
    assert k_marginal["extras"]["k"] == math.ceil((1 - 0.1 + 0.02) * 201)


def test_evaluate_command(tmp_path):
    sets_path = tmp_path / "sets.csv"
    rio.write_sets(
        RankSets(items=["t1", "t2", "t3", "t4"], lo=[1, 2, 1, 4], hi=[3, 4, 5, 4]),
        sets_path,
    )
    truth_path = tmp_path / "truth.csv"
    problem = RankingProblem(
        n=1, m=4, calib_ranks=[1], ranker_mode="VA",
        ranker_outputs=[0.15, 0.1, 0.3, 0.5, 0.7],
        truth=[0.15, 0.1, 0.3, 0.5, 0.7],
        ids=["c1", "t1", "t2", "t3", "t4"],
    )
    rio.write_scores(problem, truth_path)
    out = tmp_path / "metrics.json"
    code = main(
        ["evaluate", "--sets", str(sets_path), "--truth", str(truth_path),
         "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    # true pooled ranks of t1..t4 are 1, 3, 4, 5; the t4 set [4, 4] misses 5
    assert doc["fcp"] == pytest.approx(0.25)
    assert doc["relative_length"] == pytest.approx((3 + 3 + 5 + 1) / 4 / 5)
    assert [it["covered"] for it in doc["items"]] == [True, True, True, False]

    # fcp is the miss count over m, as in evaluate.fcp: 10 misses of 2000
    # give 0.005 (1 - covered/m would give 0.0050000000000000044)
    m = 2000
    problem = RankingProblem(
        n=1, m=m, calib_ranks=[1], ranker_mode="VA",
        ranker_outputs=np.arange(m + 1.0), truth=np.arange(m + 1.0),
    )
    rio.write_scores(problem, truth_path)
    true_ranks = np.arange(2, m + 2)
    missed = np.arange(m) < 10
    rio.write_sets(
        RankSets(items=problem.test_ids, lo=true_ranks + missed, hi=true_ranks + missed),
        sets_path,
    )
    assert main(["evaluate", "--sets", str(sets_path), "--truth", str(truth_path),
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["fcp"] == 0.005


def test_exit_codes(tmp_path, capsys):
    scores = DATA / "golden_scores.csv"
    envelope = DATA / "golden_envelope.json"

    # usage: unknown choice
    assert main(["simulate-envelope", "--n", "5", "--m", "5",
                 "--kind", "exotic", "--out", str(tmp_path / "e.json")]) == 2
    # usage: RA mode on value-typed outputs (type error)
    assert main(["predict", "--scores", str(scores), "--envelope", str(envelope),
                 "--alpha", "0.25", "--mode", "RA",
                 "--out", str(tmp_path / "s.csv")]) == 2
    # sampling: K too small for delta
    assert main(["simulate-envelope", "--n", "10", "--m", "10", "--delta", "0.001",
                 "--K", "100", "--out", str(tmp_path / "e.json")]) == 3
    # data: envelope dimensions do not match the scores file
    other_env = tmp_path / "wrong.json"
    rio.write_envelope(naive_envelope(5, 15), other_env)
    assert main(["predict", "--scores", str(scores), "--envelope", str(other_env),
                 "--alpha", "0.25", "--mode", "VA",
                 "--out", str(tmp_path / "s.csv")]) == 4
    # infeasible: alpha too tight for n = 12 calibration points
    assert main(["predict", "--scores", str(scores), "--envelope", str(envelope),
                 "--alpha", "0.06", "--mode", "VA",
                 "--out", str(tmp_path / "s.csv")]) == 5
    # data: id mismatch in evaluate
    sets_path = tmp_path / "sets.csv"
    rio.write_sets(RankSets(items=["ghost"], lo=[1], hi=[2]), sets_path)
    truth = tmp_path / "truth.csv"
    rio.write_scores(_problem("VA", with_truth=True), truth)
    assert main(["evaluate", "--sets", str(sets_path), "--truth", str(truth),
                 "--out", str(tmp_path / "m.json")]) == 4
    # data: a sets file with a header and no rows has nothing to evaluate
    sets_path.write_text("id,lo,hi\n")
    assert main(["evaluate", "--sets", str(sets_path), "--truth", str(truth),
                 "--out", str(tmp_path / "empty.json")]) == 4
    assert not (tmp_path / "empty.json").exists()
    # data: a sets file that lists an item twice would count it twice
    sets_path.write_text("id,lo,hi\nt1,2,2\nt1,2,2\nt2,1,1\n")
    assert main(["evaluate", "--sets", str(sets_path), "--truth", str(truth),
                 "--out", str(tmp_path / "dup.json")]) == 4
    assert "item id 't1' is listed more than once" in capsys.readouterr().err
    assert not (tmp_path / "dup.json").exists()
    # data: the envelope leaves no test-only rank for a test item whose
    # full set is [1, 3] (every calibration item is pinned at pooled rank 1)
    small = tmp_path / "small.csv"
    rio.write_scores(RankingProblem(
        n=3, m=2, calib_ranks=[1, 2, 3], ranker_mode="VA",
        ranker_outputs=[10.0, 20.0, 30.0, 1.0, 2.0],
    ), small)
    pinned = tmp_path / "pinned.json"
    rio.write_envelope(Envelope(n=3, m=2, delta=0.02, kind="quantile",
                                lower=[1, 1, 1], upper=[1, 1, 1]), pinned)
    assert main(["predict", "--scores", str(small), "--envelope", str(pinned),
                 "--alpha", "0.9", "--mode", "VA", "--test-only", "on",
                 "--out", str(tmp_path / "s.csv")]) == 4
    assert "test-only set of item 't1' is empty" in capsys.readouterr().err
    # data: FCP control on a scores file with no test rows names the file;
    # marginal prediction on it writes a header-only sets file
    calib_only = tmp_path / "calib_only.csv"
    rio.write_scores(RankingProblem(n=3, m=0, calib_ranks=[1, 2, 3], ranker_mode="VA",
                                    ranker_outputs=[0.1, 0.2, 0.3]), calib_only)
    naive = tmp_path / "naive.json"
    rio.write_envelope(naive_envelope(3, 0), naive)
    base = ["predict", "--scores", str(calib_only), "--envelope", str(naive),
            "--alpha", "0.5", "--mode", "VA", "--out", str(tmp_path / "c.csv")]
    assert main(base + ["--fcp", "on"]) == 4
    assert f"data error: {calib_only}: no test rows" in capsys.readouterr().err
    assert main(base) == 0
    assert (tmp_path / "c.csv").read_text() == "id,lo,hi\n"
    # usage: invalid probability flag names the field
    assert main(["experiment", "--alpha", "1.4", "--reps", "2",
                 "--out", str(tmp_path / "r.csv")]) == 2
    # usage: a JSON null in a config file names the key
    cfg = tmp_path / "null.json"
    cfg.write_text('{"alpha": null}')
    assert main(["predict", "--scores", str(scores), "--envelope", str(envelope),
                 "--mode", "VA", "--config", str(cfg),
                 "--out", str(tmp_path / "s.csv")]) == 2
    assert "config key 'alpha' must not be null" in capsys.readouterr().err
    cfg.write_text('{"reps": null}')
    assert main(["experiment", "--config", str(cfg),
                 "--out", str(tmp_path / "r.csv")]) == 2
    assert "config key 'reps' must not be null" in capsys.readouterr().err


def test_synth_predict_evaluate_chain(tmp_path):
    scores = tmp_path / "scores.csv"
    env = tmp_path / "env.json"
    sets = tmp_path / "sets.csv"
    metrics = tmp_path / "metrics.json"
    assert main(["synth", "--model", "sigmoid", "--n", "80", "--m", "40",
                 "--mode", "VA", "--seed", "6", "--out", str(scores)]) == 0
    assert main(["simulate-envelope", "--n", "80", "--m", "40", "--delta", "0.02",
                 "--kind", "quantile", "--K", "5000", "--seed", "7",
                 "--out", str(env)]) == 0
    assert main(["predict", "--scores", str(scores), "--envelope", str(env),
                 "--alpha", "0.1", "--mode", "VA", "--out", str(sets)]) == 0
    assert main(["evaluate", "--sets", str(sets), "--truth", str(scores),
                 "--out", str(metrics)]) == 0
    doc = json.loads(metrics.read_text())
    assert 0.0 <= doc["fcp"] <= 1.0
    assert len(doc["items"]) == 40


def test_simulate_envelope_naive_records_null_meta(tmp_path):
    out = tmp_path / "naive.json"
    assert main(["simulate-envelope", "--n", "6", "--m", "4", "--kind", "naive",
                 "--K", "123", "--seed", "9", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["mc_meta"] == {"K": None, "seed": None, "slack": None}
    assert doc["param"] is None


def test_experiment_command_schema_and_config_merge(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n": 30, "m": 20, "reps": 3, "K_env": 2000,
                                    "alpha": 0.3}))
    out = tmp_path / "report.csv"
    # CLI --alpha overrides the config file value
    assert main(["experiment", "--config", str(cfg_path), "--alpha", "0.2",
                 "--seed", "8", "--out", str(out)]) == 0
    manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
    assert manifest["config"]["alpha"] == 0.2
    assert manifest["config"]["n"] == 30
    rows = rio.read_report_rows(out)
    assert {r[3] for r in rows} == {"proxy", "oracle"}
    assert {r[0] for r in rows} == {0, 1, 2}
    # unknown config keys are usage errors
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"banana": 1}))
    assert main(["experiment", "--config", str(bad), "--out", str(out)]) == 2


def test_simulate_envelope_file_shape(tmp_path):
    out = tmp_path / "env.json"
    assert main(["simulate-envelope", "--n", "50", "--m", "500", "--delta", "0.1",
                 "--kind", "quantile", "--K", "20000", "--seed", "7",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["lower"]) == 50 and len(doc["upper"]) == 50
    assert doc["mc_meta"]["K"] == 20000 and doc["mc_meta"]["seed"] == 7


def test_experiment_smoke_runtime(tmp_path):
    import time

    start = time.perf_counter()
    out = tmp_path / "report.csv"
    assert main(["experiment", "--n", "100", "--m", "100", "--reps", "20",
                 "--K-env", "10000", "--seed", "1",
                 "--out", str(out)]) == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 60
    rows = rio.read_report_rows(out)
    assert len({r[0] for r in rows}) == 20


def test_cli_byte_determinism(tmp_path):
    env_a, env_b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["simulate-envelope", "--n", "25", "--m", "50", "--delta", "0.1",
            "--kind", "quantile", "--K", "8000", "--seed", "13"]
    assert main(args + ["--out", str(env_a)]) == 0
    assert main(args + ["--out", str(env_b)]) == 0
    assert env_a.read_bytes() == env_b.read_bytes()

    rep_a, rep_b = tmp_path / "ra.csv", tmp_path / "rb.csv"
    args = ["experiment", "--n", "30", "--m", "20", "--reps", "4",
            "--K-env", "2000", "--seed", "3",
            "--fcp-mode", "fcp_controlled"]
    assert main(args + ["--out", str(rep_a)]) == 0
    assert main(args + ["--out", str(rep_b)]) == 0
    assert rep_a.read_bytes() == rep_b.read_bytes()


def test_removed_flags_exit_2(tmp_path, capsys):
    base = {
        "simulate-envelope": ["simulate-envelope", "--n", "5", "--m", "5"],
        "predict": ["predict", "--scores", str(DATA / "golden_scores.csv"),
                    "--envelope", str(DATA / "golden_envelope.json"),
                    "--alpha", "0.25", "--mode", "VA", "--fcp", "on"],
        "experiment": ["experiment", "--n", "40", "--m", "30", "--reps", "3",
                       "--K-env", "2000"],
    }
    removed = [("simulate-envelope", "workers"), ("experiment", "workers"),
               ("predict", "fcp-K"), ("predict", "seed"), ("predict", "workers"),
               ("experiment", "K-fcp")]
    cfg = tmp_path / "cfg.json"
    for command, flag in removed:
        out = tmp_path / f"{command}-{flag}.out"
        argv = base[command] + ["--out", str(out)]
        assert main(argv + [f"--{flag}", "2"]) == 2
        assert f"unrecognized arguments: --{flag} 2" in capsys.readouterr().err
        cfg.write_text(json.dumps({flag.replace("-", "_"): 2}))
        assert main(argv + ["--config", str(cfg)]) == 2
        assert "unknown config key" in capsys.readouterr().err
        assert not out.exists()
