"""rankcp benchmark: offline calibration, online predict requests, experiments.

Usage, from the repository root::

    python3 perfbench/run.py --workload offline|predict|experiment \\
        --seed N --seconds S --trace 0|1

The package is imported from ``src/`` of the checkout holding this file, with
the default worker count (``RANKCP_PARALLEL`` unset) and BLAS/OpenMP threads
pinned to 1.  A run has three phases, each in its own process so that no
phase's memory counts against another's:

1. set-up, repeated at least ``SETUP_REPEATS`` times and until
   ``SETUP_MIN_S`` have passed: imports and, for ``predict``, the score files
   and the shared envelope (``setup_s`` is the median);
2. the timed phase: the workload's fixed pass, each in a fresh process after
   an untimed warm-up (``workloads.warm_up``), as many times as fill about
   ``--seconds`` (``workloads.pass_count``), then with ``--trace 1`` one more
   pass with every layer function wrapped (see ``tracer.py``);
3. the output oracles of ``workloads.CHECKS``, outside the timed phase.

Times are in reference seconds.  The host's cores change speed in steps of
up to 1.5x that last from seconds to minutes, so every timed operation is
bracketed by a speed probe (``speed.py``, a fixed kernel outside the
package) in the same process, and scaled to the speed at which the probe
takes ``speed.REF_S``; set-up times are scaled by probes run in this process
before and after the set-ups.  The whole run is pinned to one core, so the
probes see the core the timed work ran on.  A change to the package moves a
scaled time as much as a raw one.  Raw times and probe times are in the run
record.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is the machine
and run record.  End-to-end metrics (``--trace 0``):

* ``setup_s``        median set-up time, process start to exit;
* ``wall_s``         median time of one pass;
* ``peak_rss_mb``    highest peak RSS of the untraced pass processes;
* ``success_rate``   1 - error_rate: operations that completed with correct
                     output over operations attempted (the result line cannot
                     carry a metric that is 0 when all is well);
* ``request_ms_p50`` and ``request_ms_p90``: latency of one operation, pooled
  over the untraced passes.  An operation is one predict+evaluate request on
  ``predict`` (100 per pass) and one CLI or library call otherwise (4 per
  pass on ``offline``, 2 on ``experiment``);
* ``units_per_s``    work units per second: Monte-Carlo trajectories
                     (``offline``), requests (``predict``), repetitions
                     (``experiment``).

``--trace 1`` prints the per-layer metrics of ``tracer.metric_names()``: call
counts and self times from the traced pass, allocation peaks from a second
pass made after it for that alone, and ``trace_overhead_s``, the traced
pass's time minus ``wall_s`` (self times are raw seconds, measured under
the tracer).  It fails if a layer the workload reaches records no call.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import speed
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
SETUP_REPEATS = 3
# Cheap set-ups (a bare import) repeat until this much time has passed, so
# their median is not at the mercy of one slow process start.
SETUP_MIN_S = 2.0
SETUP_MAX_REPEATS = 15
# A run must end within 180 s; phases still running at this deadline are killed.
RUN_TIMEOUT_S = 170

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("success_rate", "ratio"),
    ("request_ms_p50", "ms"),
    ("request_ms_p90", "ms"),
    ("units_per_s", "1/s"),
)

# ROADMAP baseline for the traced offline kernels at n=m=1000, K=2e4 (seconds).
ROADMAP_BASELINE_S = {
    "envelope.simulate_sorted_ranks": 2.35,
    "envelope.fit_quantile_envelope": 0.88,
}


def pinned_env() -> dict:
    env = dict(os.environ)
    env.pop("RANKCP_PARALLEL", None)
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _phase(env: dict, deadline: float, *argv) -> float:
    """Run one phase of ``workloads.py`` in its own process; return its wall time.

    The process is killed if it is still running at ``deadline``
    (``time.perf_counter`` clock).
    """
    cmd = [sys.executable, str(HERE / "workloads.py"), *map(str, argv)]
    start = time.perf_counter()
    # The phase's own output goes to stderr: stdout carries only the result.
    proc = subprocess.Popen(cmd, env=env, stdout=sys.stderr)
    # A blocking wait returns as the child exits; Popen.wait(timeout) polls
    # in steps of up to 50 ms, which would quantize the set-up time.
    killer = threading.Timer(max(0.0, deadline - start), proc.kill)
    killer.start()
    try:
        code = proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:  # interrupted: stop the phase before leaving
            proc.kill()
            proc.wait()
    elapsed = time.perf_counter() - start
    if code != 0:
        raise RuntimeError(f"{argv[0]} phase exited with {code}")
    return elapsed


def _git_sha() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def count_failures(passes: list, failures: dict) -> tuple[int, int]:
    """(attempted, failed) over every operation instance of the given passes.

    An instance fails if it raised or exited nonzero, or if an oracle found
    its operation's output wrong.
    """
    ops = [rec for p in passes for rec in p["ops"]]
    failed = sum(1 for rec in ops if not rec["ok"] or rec["op"] in failures)
    return len(ops), failed


def end_to_end(setup_times: list, passes: list, units: int, attempted: int,
               failed: int) -> dict:
    latencies = [rec["ms"] for p in passes for rec in p["ops"]]
    wall = statistics.median(p["wall_s"] for p in passes)
    values = {
        "setup_s": statistics.median(setup_times),
        "wall_s": wall,
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
        "success_rate": 1.0 - failed / attempted,
        "request_ms_p50": statistics.median(latencies),
        "request_ms_p90": statistics.quantiles(latencies, n=10, method="inclusive")[-1],
        "units_per_s": units / wall,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(passes: list, traced: dict) -> dict:
    values = dict(traced["layers"])
    values["trace_overhead_s"] = (
        traced["wall_s"] - statistics.median(p["wall_s"] for p in passes)
    )
    return {name: {"value": values[name], "unit": unit}
            for name, unit in tracer.metric_names()}


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool) -> int:
    if not (SRC / "rankcp" / "__init__.py").is_file():
        print(f"perfbench: no rankcp package under {SRC}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + RUN_TIMEOUT_S
    # The oracles import numpy and the package in this process.
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))
    sys.path.insert(0, str(SRC))
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})  # inherited by every phase
    env = pinned_env()
    sz = workloads.sizes_for(workload, tiny)
    common = ["--workload", workload, "--seed", seed] + (["--tiny"] if tiny else [])
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    try:
        setup_probes = [speed.probe()]
        raw_setup = []
        while len(raw_setup) < SETUP_REPEATS or (
            sum(raw_setup) < SETUP_MIN_S and len(raw_setup) < SETUP_MAX_REPEATS
        ):
            inputs = work / f"setup{len(raw_setup)}"
            inputs.mkdir(parents=True)
            raw_setup.append(_phase(env, deadline, "setup", *common, "--dir", inputs))
        setup_probes.append(speed.probe())
        setup_times = [t * speed.REF_S / statistics.mean(setup_probes) for t in raw_setup]

        def one_pass(traced: bool) -> dict:
            out = work / "pass.json"
            _phase(env, deadline, "pass", *common, "--dir", inputs,
                   "--trace", int(traced), "--out", out)
            return json.loads(out.read_text(encoding="utf-8"))

        passes = [one_pass(False) for _ in range(workloads.pass_count(sz, seconds))]
        traced = one_pass(True) if trace else None
        every_pass = passes + ([traced] if trace else [])
        failures, findings = workloads.CHECKS[workload](
            seed, inputs, sz, [rec for p in every_pass for rec in p["ops"]])
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    attempted, failed = count_failures(every_pass, failures)
    record = {
        "workload": workload, "seed": seed, "tiny": tiny,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": passes[0]["numpy"], "git_sha": _git_sha(), "workers": passes[0]["workers"],
        "threads": {var: env[var] for var in THREAD_VARS},
        "RANKCP_PARALLEL": env.get("RANKCP_PARALLEL"),
        "pass_wall_s": [p["wall_s"] for p in passes], "setup_s_samples": setup_times,
        "raw_pass_wall_s": [p["raw_wall_s"] for p in passes], "raw_setup_s": raw_setup,
        "setup_probes_s": setup_probes, "pass_probes_s": [p["probes_s"] for p in passes],
        "ref_s": speed.REF_S, "cpu": sorted(os.sched_getaffinity(0)),
        "oracle_failures": failures, "oracle_findings": findings,
    }
    for op, messages in failures.items():
        print(f"perfbench: wrong output from {op}: {'; '.join(messages)}", file=sys.stderr)
    if trace:
        calls = traced["layers"]
        silent = [layer for layer in workloads.EXPECTED_LAYERS[workload]
                  if calls[f"{layer}.calls"] == 0]
        if silent:
            print(f"perfbench: traced run recorded no call to {', '.join(silent)}",
                  file=sys.stderr)
            return 1
        metrics = per_layer(passes, traced)
        if workload == "offline" and not tiny:
            record["traced_vs_roadmap_s"] = {
                layer: {"traced": traced["first_s"][layer], "roadmap": base}
                for layer, base in ROADMAP_BASELINE_S.items()
            }
    else:
        metrics = end_to_end(setup_times, passes, workloads.units_per_pass(workload, sz),
                             attempted, failed)
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads.FULL))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test sizes (seconds per run)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    try:
        return run(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
