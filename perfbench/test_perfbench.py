"""Self-test of the benchmark harness at tiny sizes; runs in seconds.

    python3 -m pytest perfbench

Checks the result line against BENCHMARK.json (metric names and units), the
trace coverage, the scaling of times by the speed probe, and that the output
oracles count a wrong set as a failure.
"""

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _bench(workload: str, trace: int, script: Path = HERE / "run.py", cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=120,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_result_line_matches_benchmark_json(workload, trace):
    proc = _bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = BENCH["per_layer" if trace else "end_to_end"]
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in spec}
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if trace:
        for layer in workloads.EXPECTED_LAYERS[workload]:
            assert values[f"{layer}.calls"] > 0, layer
    else:
        assert all(v > 0 for v in values.values()), values
        assert values["success_rate"] == 1.0
    record = json.loads(proc.stdout.splitlines()[-2])["record"]
    assert record["workers"] == 1 and record["RANKCP_PARALLEL"] is None
    assert set(record["threads"].values()) == {"1"}


def test_end_to_end_names_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in BENCH["end_to_end"]] == list(run.END_TO_END)


def test_wrong_set_is_counted_as_error(tmp_path):
    sz = workloads.sizes_for("predict", tiny=True)
    workloads.setup("predict", 5, tmp_path, sz)
    passes = [workloads.run_pass("predict", 5, tmp_path, sz)]
    records = passes[0]["ops"]
    failures, _ = workloads.CHECKS["predict"](5, tmp_path, sz, records)
    assert failures == {}

    # Widen one set of a brute-force-checked request by one rank.
    i = workloads.checked_requests(sz["requests"])[-1]
    path = tmp_path / "out" / f"sets_{i:03d}.csv"
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    row = next(r for r in rows[1:] if int(r[header.index("lo")]) > 1)
    row[header.index("lo")] = str(int(row[header.index("lo")]) - 1)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)

    failures, _ = workloads.CHECKS["predict"](5, tmp_path, sz, records)
    assert list(failures) == [f"request_{i:03d}"]
    assert "brute force" in " ".join(failures[f"request_{i:03d}"])
    attempted, failed = run.count_failures(passes, failures)
    assert (attempted, failed) == (sz["requests"], 1)
    passes[0]["peak_rss_mb"] = 1.0
    metrics = run.end_to_end([1.0], passes, sz["requests"], attempted, failed)
    assert metrics["success_rate"]["value"] == pytest.approx(1 - 1 / sz["requests"])


def test_times_are_scaled_by_bracketing_probes(tmp_path, monkeypatch):
    # The core runs at half the reference speed before the first operation
    # and at the reference speed after it.
    probes = iter([2 * speed.REF_S, speed.REF_S])
    monkeypatch.setattr(speed, "probe", lambda: next(probes))
    monkeypatch.setitem(workloads.OPS, "experiment",
                        lambda seed, d, sz: [("op", lambda: {"exit": 0})])
    doc = workloads.run_pass("experiment", 1, tmp_path, {})
    (rec,) = doc["ops"]
    assert doc["probes_s"] == [2 * speed.REF_S, speed.REF_S]
    assert rec["ms"] == pytest.approx(rec["raw_ms"] / 1.5)
    assert doc["wall_s"] == pytest.approx(doc["raw_wall_s"] / 1.5)


def test_unwrapped_import_site_is_reported():
    code = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "import tracer, rankcp.cli as cli, rankcp.evaluate as ev\n"
        "tracer.install(tracer.Tracer())\n"
        "assert tracer.unwrapped_sites() == []\n"
        "assert hasattr(cli.predict_sets, '__wrapped__')\n"
        "assert hasattr(ev.fcp_calibration, '__wrapped__')\n"
        "cli.fcp_calibration = cli.fcp_calibration.__wrapped__\n"
        "print(tracer.unwrapped_sites())\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, str(HERE), str(ROOT / "src")],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['rankcp.cli.fcp_calibration']"


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("offline", 0, script=tmp_path / "perfbench" / "run.py", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
