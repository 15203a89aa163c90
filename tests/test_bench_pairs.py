"""tools/bench_pairs.py, the interleaved parent/change benchmark pairs, on canned output."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "bench_pairs.py"

_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _output(values: dict, seed: int = 1) -> str:
    """What ``perfbench/run.py`` prints: log lines, then the record and the result."""
    metrics = {name: {"value": value, "unit": "s" if name.endswith("_s") else "1/s"}
               for name, value in values.items()}
    return "\n".join([
        "perfbench: a log line",
        json.dumps({"record": {"workload": "predict", "seed": seed}}),
        json.dumps({"correct": True, "attempted": 4, "failed": 0, "metrics": metrics}),
    ]) + "\n"


def test_a_run_is_read_from_its_last_two_lines():
    record, result = bench_pairs.parse_run(_output({"wall_s": 2.5}, seed=7))
    assert record == {"workload": "predict", "seed": 7}
    assert result["metrics"] == {"wall_s": {"value": 2.5, "unit": "s"}}
    assert result["correct"] is True
    for bad in ("", json.dumps({"metrics": {}}), "{}\n{}\n"):
        with pytest.raises(ValueError):
            bench_pairs.parse_run(bad)


def test_pairs_are_summarised_per_metric():
    parent = [{"wall_s": v, "units_per_s": u, "trace": 1.0}
              for v, u in ((2.0, 10.0), (3.0, 12.0), (4.0, 11.0), (5.0, 9.0))]
    change = [{"wall_s": v, "units_per_s": u}
              for v, u in ((1.5, 10.0), (3.5, 13.0), (4.0, 12.0), (4.5, 8.0))]
    pairs = [bench_pairs.parse_run(_output(p))[1]["metrics"] for p in parent]
    pairs = list(zip(pairs, [bench_pairs.parse_run(_output(c))[1]["metrics"] for c in change]))
    got = bench_pairs.summarise(pairs, {"wall_s": "lower", "units_per_s": "higher"})
    # a metric that a run lacks is left out
    assert set(got) == {"wall_s", "units_per_s"}
    wall = got["wall_s"]
    assert wall["parent"] == [2.0, 3.0, 4.0, 5.0] and wall["change"] == [1.5, 3.5, 4.0, 4.5]
    assert wall["parent_quartiles"] == [2.75, 3.5, 4.25]
    assert wall["change_quartiles"] == [3.0, 3.75, 4.125]
    # lower is better: pairs 0 and 3 win, pair 1 loses and pair 2 ties
    assert wall["change_wins"] == 2 and (wall["better"], wall["unit"]) == ("lower", "s")
    # higher is better: pairs 1 and 2 win, pair 0 ties
    assert got["units_per_s"]["change_wins"] == 2
    # a metric with no direction has no wins, and one pair has one quartile value
    one = bench_pairs.summarise(pairs[:1], {})
    assert one["wall_s"]["change_wins"] is None
    assert one["wall_s"]["parent_quartiles"] == [2.0, 2.0, 2.0]


def test_checkouts_whose_paths_differ_in_length_are_refused(tmp_path, capsys, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("no benchmark may run")

    monkeypatch.setattr(bench_pairs, "_run", no_run)
    (tmp_path / "parent").mkdir()
    (tmp_path / "change2").mkdir()
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change2"),
                          "--workload", "predict", "--pairs", "2", "--seconds", "1",
                          "--seed", "1", "--out", str(tmp_path / "bench.json")])
    assert exc.value.code == 2
    assert "the checkout paths differ in length" in capsys.readouterr().err
    assert not (tmp_path / "bench.json").exists()


def test_pairs_alternate_their_order_and_keep_other_workloads(tmp_path, monkeypatch):
    calls = []

    def canned(checkout, workload, seed, seconds):
        calls.append((checkout.name, seed))
        wall = {"parent": 2.0, "change": 1.0}[checkout.name] + seed / 100
        return bench_pairs.parse_run(_output({"wall_s": wall}, seed))

    monkeypatch.setattr(bench_pairs, "_run", canned)
    for name in ("parent", "change"):
        (tmp_path / name).mkdir()
    out = tmp_path / "bench.json"
    out.write_text(json.dumps({"offline": {"kept": True}}))
    assert bench_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                             "--workload", "predict", "--pairs", "3", "--seconds", "1",
                             "--seed", "40", "--out", str(out)]) == 0
    assert calls == [("parent", 40), ("change", 40), ("change", 41), ("parent", 41),
                     ("parent", 42), ("change", 42)]
    doc = json.loads(out.read_text())
    assert doc["offline"] == {"kept": True}
    entry = doc["predict"]
    assert entry["seeds"] == [40, 41, 42]
    assert [(run["pair"], run["side"]) for run in entry["runs"]] == [
        (0, "parent"), (0, "change"), (1, "change"), (1, "parent"), (2, "parent"),
        (2, "change")]
    assert entry["runs"][0]["record"] == {"workload": "predict", "seed": 40}
    # no BENCHMARK.json in the change checkout: no direction, so no wins
    assert entry["metrics"]["wall_s"]["change"] == pytest.approx([1.4, 1.41, 1.42])
    assert entry["metrics"]["wall_s"]["change_wins"] is None


def test_each_side_names_its_commit_or_null(tmp_path, monkeypatch):
    # the change holds a .git, whose HEAD git names; the parent a directory
    # with none, as a git archive copy is, which git is not asked about
    monkeypatch.setattr(bench_pairs, "_run", lambda checkout, workload, seed, seconds:
                        bench_pairs.parse_run(_output({"wall_s": 1.0}, seed)))
    commands = []

    def git(command, **kwargs):
        commands.append(command)
        return subprocess.CompletedProcess(command, 0, stdout="0123abcd\n", stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", git)
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    (change / ".git").mkdir(parents=True)
    out = tmp_path / "bench.json"
    assert bench_pairs.main([str(parent), str(change), "--workload", "offline", "--pairs", "1",
                             "--seconds", "1", "--seed", "1", "--out", str(out)]) == 0
    assert commands == [["git", "-C", str(change), "rev-parse", "HEAD"]]
    assert json.loads(out.read_text())["offline"]["commits"] == {"parent": None,
                                                                 "change": "0123abcd"}
