"""The three benchmark workloads: set-up, timed passes and output oracles.

Run as a script, this module is one phase of a benchmark run in its own
process (``run.py`` starts it)::

    python3 perfbench/workloads.py setup --workload W --seed S --dir D [--tiny]
    python3 perfbench/workloads.py pass --workload W --seed S --dir D \\
        --trace 0|1 --out RESULT.json [--tiny]

``setup`` builds the workload's inputs in ``D``.  ``pass`` runs the workload's
fixed pass once, records each operation's latency and outcome and the
process's peak RSS, and with ``--trace 1`` the per-layer trace.  The oracles
(:data:`CHECKS`) run in the calling process, after the timed phase, on the
files and results the passes left.

Every operation goes through the package's public entry points:
``rankcp.cli.main`` for CLI calls and module attributes for library calls,
looked up at call time so the tracer's rebinding reaches them.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path

import speed

ALPHA, BETA, DELTA = 0.1, 0.25, 0.02

# Workload sizes.  FULL is what the benchmark measures; TINY keeps the same
# shape at sizes the self-test runs in seconds.  ``pass_s`` is the nominal
# time of one pass (FULL: measured on a 2-core x86 VM at the seed commit).
FULL = {
    "offline": {"sizes": [(1000, 1000), (2500, 500)], "K_env": 20_000, "K_fcp": 10_000,
                "pass_s": 10.0},
    "predict": {"n": 2000, "m": 2000, "files": 5, "requests": 100, "K_env": 20_000,
                "top_k": 100, "pass_s": 15.0},
    "experiment": {"n": 200, "m": 200, "reps": 1000, "K_env": 20_000, "K_fcp": 10_000,
                   "pass_s": 6.0},
}
TINY = {
    "offline": {"sizes": [(60, 60), (150, 30)], "K_env": 2000, "K_fcp": 1000,
                "pass_s": 0.25},
    "predict": {"n": 100, "m": 100, "files": 5, "requests": 20, "K_env": 2000,
                "top_k": 10, "pass_s": 0.25},
    "experiment": {"n": 60, "m": 60, "reps": 60, "K_env": 2000, "K_fcp": 1000,
                   "pass_s": 0.25},
}

# The two experiment calls: (score family, threshold selection).
EXPERIMENT_ARMS = (("RA", "fcp_controlled"), ("VA", "marginal"))

# Layers each workload must reach in its traced pass.
EXPECTED_LAYERS = {
    "offline": (
        "cli.main", "envelope.simulate_sorted_ranks", "envelope.fit_quantile_envelope",
        "io.write_envelope", "io.RunManifest.write", "conformal.fcp_calibration",
    ),
    "predict": (
        "cli.main", "io.read_scores", "io.read_envelope", "conformal.proxy_scores",
        "conformal.calibrate", "conformal.predict_sets", "targets.test_only_set",
        "targets.topk_candidates", "io.write_sets", "io.RunManifest.write",
        "io.read_sets", "io.read_truth", "ranks.ranks_within",
    ),
    "experiment": (
        "evaluate.run_experiment", "evaluate.synthesize_problem", "evaluate.oracle_sets",
        "evaluate.fcp", "evaluate.relative_length", "conformal.proxy_scores",
        "conformal.calibrate", "conformal.predict_sets", "conformal.fcp_calibration",
        "ranks.ranks_within", "envelope.simulate_sorted_ranks",
        "envelope.fit_quantile_envelope",
    ),
}

# Work (seconds) between two speed probes inside a pass; see run_pass.
PROBE_EVERY_S = 3.0

# z-score of the Monte-Carlo tolerances stated by the oracles below: a
# correct program fails one check with probability of order 1e-6 (normal
# approximation).
Z_TOL = 5.0


def coverage_tolerance(samples: int, K_env: int) -> float:
    """Allowed shortfall of a measured envelope coverage below ``1 - delta``.

    ``Z_TOL`` binomial standard errors of the coverage measured on ``samples``
    draws, widened by the spread of the true coverage of an envelope fitted
    on ``K_env`` trajectories.
    """
    return Z_TOL * math.sqrt(DELTA * (1 - DELTA) * (1 / samples + 1 / K_env))


def sizes_for(workload: str, tiny: bool) -> dict:
    return (TINY if tiny else FULL)[workload]


def pass_count(sz: dict, seconds: float) -> int:
    """Passes that fill about ``seconds``, fixed before any is timed.

    Counting from the nominal pass time, not from the clock, keeps the count
    independent of the measurement: looping until the clock runs out adds a
    pass exactly when the first one was fast, which biases the median.
    """
    return max(1, round(seconds / sz["pass_s"]))


def units_per_pass(workload: str, sz: dict) -> int:
    """Work units in one pass: Monte-Carlo trajectories, requests or reps."""
    if workload == "offline":
        return len(sz["sizes"]) * (sz["K_env"] + sz["K_fcp"])
    if workload == "predict":
        return sz["requests"]
    return len(EXPERIMENT_ARMS) * sz["reps"]


def _seeds(seed: int, count: int) -> list[int]:
    """Distinct nonnegative seeds derived from the workload seed."""
    return [seed * 64 + i for i in range(count)]


# --------------------------------------------------------------------------
# set-up


def setup(workload: str, seed: int, d: Path, sz: dict) -> None:
    """Build the workload's inputs in ``d``.

    Offline and experiment take no inputs: their set-up is the package import.
    """
    from rankcp import cli

    if workload != "predict":
        return
    n, m = sz["n"], sz["m"]
    data_seeds = _seeds(seed, sz["files"] + 1)
    for i in range(sz["files"]):
        _cli(cli, "synth", "--model", "sigmoid", "--n", n, "--m", m, "--mode", "VA",
             "--seed", data_seeds[i], "--out", d / f"scores_{i}.csv")
    _cli(cli, "simulate-envelope", "--n", n, "--m", m, "--kind", "quantile",
         "--K", sz["K_env"], "--delta", DELTA, "--seed", data_seeds[-1],
         "--out", d / "envelope.json")


def _cli(cli, *argv) -> None:
    code = cli.main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"rankcp {argv[0]} exited with {code}")


# --------------------------------------------------------------------------
# timed passes: each returns [(op_id, fn)], run in order by run_pass


def _offline_ops(seed: int, d: Path, sz: dict) -> list:
    from rankcp import cli, conformal

    ops = []
    env_seed, fcp_seed = _seeds(seed, 2)
    for n, m in sz["sizes"]:
        argv = ["simulate-envelope", "--n", str(n), "--m", str(m), "--kind", "quantile",
                "--K", str(sz["K_env"]), "--delta", str(DELTA), "--seed", str(env_seed),
                "--out", str(d / f"envelope_{n}x{m}.json")]
        ops.append((f"envelope_{n}x{m}", lambda argv=argv: {"exit": cli.main(argv)}))

        def calibrate_fcp(n=n, m=m):
            meta = conformal.fcp_calibration(ALPHA, BETA, DELTA, n, m, sz["K_fcp"],
                                             fcp_seed)
            return {"exit": 0, "k": meta.k, "t_hat": meta.t_hat}

        ops.append((f"fcp_{n}x{m}", calibrate_fcp))
    return ops


def _predict_ops(seed: int, d: Path, sz: dict) -> list:
    from rankcp import cli

    out = d / "out"
    out.mkdir(exist_ok=True)
    ops = []
    for i in range(sz["requests"]):
        scores = str(d / f"scores_{i % sz['files']}.csv")
        sets = str(out / f"sets_{i:03d}.csv")

        def request(scores=scores, sets=sets, i=i):
            code = cli.main(["predict", "--scores", scores,
                             "--envelope", str(d / "envelope.json"), "--mode", "VA",
                             "--alpha", str(ALPHA), "--test-only", "on",
                             "--top-k", str(sz["top_k"]), "--out", sets])
            if code != 0:
                return {"exit": code}
            return {"exit": cli.main(["evaluate", "--sets", sets, "--truth", scores,
                                      "--out", str(out / f"eval_{i:03d}.json")])}

        ops.append((f"request_{i:03d}", request))
    return ops


def _experiment_ops(seed: int, d: Path, sz: dict) -> list:
    from rankcp import evaluate

    ops = []
    masters = _seeds(seed, len(EXPERIMENT_ARMS))
    for (mode, fcp_mode), master in zip(EXPERIMENT_ARMS, masters):
        cfg = evaluate.ExperimentConfig(
            n=sz["n"], m=sz["m"], reps=sz["reps"], alpha=ALPHA, beta=BETA, delta=DELTA,
            mode=mode, K_env=sz["K_env"], K_fcp=sz["K_fcp"], master_seed=master,
            fcp_mode=fcp_mode,
        )

        def experiment(cfg=cfg):
            report = evaluate.run_experiment(cfg)
            return {"exit": 0, "aggregates": report.aggregates()}

        ops.append((f"experiment_{mode}_{fcp_mode}", experiment))
    return ops


OPS = {"offline": _offline_ops, "predict": _predict_ops, "experiment": _experiment_ops}


def run_pass(workload: str, seed: int, d: Path, sz: dict) -> dict:
    """One pass of the workload's fixed work; each operation is timed alone.

    An operation that raises or exits nonzero is recorded as failed and the
    pass goes on, so every failure is counted against the attempts.

    Times are in reference seconds (see ``speed.py``).  The speed probe runs
    before the first operation, after the last, and between operations once
    ``PROBE_EVERY_S`` of work has passed since the last probe; its own time
    is not counted.  Each operation's ``ms`` is its raw time ``raw_ms``
    scaled by ``speed.REF_S`` over the mean of the two probes that bracket
    it; ``wall_s`` and ``raw_wall_s`` are the pass's sums.
    """
    ops = OPS[workload](seed, d, sz)
    records = []
    probes = [speed.probe()]
    since_probe = 0.0
    for index, (op_id, fn) in enumerate(ops):
        t0 = time.perf_counter()
        try:
            detail = fn()
        except Exception:  # counted as a failed operation, traceback kept
            traceback.print_exc(file=sys.stderr)
            detail = {"exit": None}
        elapsed = time.perf_counter() - t0
        records.append({"op": op_id, "raw_ms": 1e3 * elapsed, "probe": len(probes) - 1,
                        "ok": detail["exit"] == 0, "detail": detail})
        since_probe += elapsed
        if since_probe >= PROBE_EVERY_S or index == len(ops) - 1:
            probes.append(speed.probe())
            since_probe = 0.0
    for rec in records:
        before = rec.pop("probe")
        mean_probe = (probes[before] + probes[before + 1]) / 2
        rec["ms"] = rec["raw_ms"] * speed.REF_S / mean_probe
    return {"wall_s": sum(rec["ms"] for rec in records) / 1e3,
            "raw_wall_s": sum(rec["raw_ms"] for rec in records) / 1e3,
            "probes_s": probes, "ops": records}


def warm_up(workload: str, seed: int, d: Path, sz: dict) -> None:
    """Untimed work that loads every code path the pass takes.

    Offline and experiment run their pass at the self-test sizes; predict
    runs its first request on each score file, whose outputs the timed pass
    then overwrites.  Failures are left for the timed pass to record.
    """
    if workload == "predict":
        ops = OPS[workload](seed, d, sz)[: sz["files"]]
    else:
        ops = OPS[workload](seed, d, TINY[workload])
    for _, fn in ops:
        try:
            fn()
        except Exception:  # the timed pass records the failure
            pass


def timed_pass(workload: str, seed: int, d: Path, sz: dict, trace: bool) -> dict:
    """One pass in this fresh process; traced, then repeated for memory, if asked.

    Each pass gets its own process and the same untimed warm-up, so that
    every pass starts from the same state: a pass run after another in the
    same process is measurably faster (allocator and cache warm-up), which
    would make the figures depend on how many passes a run makes, and the
    process's peak RSS would mix passes.  A traced pass takes call counts
    and self times from itself and allocation peaks from a second pass run
    after it, whose operations are appended to its own.
    """
    import numpy as np

    import rankcp.cli  # noqa: F401  (imports stay out of the timed pass)
    from rankcp import streams

    warm_up(workload, seed, d, sz)
    tracer = None
    if trace:
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        tracer_mod.install(tracer)
    doc = run_pass(workload, seed, d, sz)
    doc.update(
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        workers=streams.default_workers(),
        numpy=np.__version__,
    )
    if tracer is not None:
        layers = tracer.timings()
        tracer.memory = True
        doc["ops"] += run_pass(workload, seed, d, sz)["ops"]
        doc.update(layers={**layers, **tracer.peaks()}, first_s=tracer.first_s)
    return doc


# --------------------------------------------------------------------------
# oracles: each returns ({op_id: [failure, ...]}, findings for the run record)


def _exact_fcp_k(n: int, m: int, K: int) -> tuple[int, int, int]:
    """Exact FCP index from the negative-hypergeometric law, with a MC band.

    ``X`` = number of calibration items below the ``(m - a + 1)``-th smallest
    test item, ``a = floor(m alpha) + 1``, follows ``nhypergeom(n+m, n,
    m - a + 1)``; ``fcp_calibration`` returns the empirical upper
    ``beta``-quantile of ``X`` over ``K`` draws.  The exact index is the
    largest ``x`` with ``P(X >= x) >= beta``.  Also returns the indices at
    levels ``beta +- Z_TOL sqrt(beta (1 - beta) / K)``, the band a Monte-Carlo
    index falls in.
    """
    import numpy as np
    from scipy.stats import nhypergeom

    a = int(math.floor(m * ALPHA + 1e-9)) + 1
    pmf = nhypergeom(M=n + m, n=n, r=m - a + 1).pmf(np.arange(n + 1))
    tail = np.cumsum(pmf[::-1])[::-1]  # tail[x] = P(X >= x)

    def index(level: float) -> int:
        ok = np.flatnonzero(tail >= level)
        return int(min(n, max(1, ok[-1] if ok.size else 1)))

    sd = Z_TOL * math.sqrt(BETA * (1 - BETA) / K)
    return index(BETA), index(BETA + sd), index(BETA - sd)


def check_offline(seed: int, d: Path, sz: dict, records: list) -> tuple:
    import numpy as np

    from rankcp import io
    from rankcp.errors import RankCPError

    failures, findings = {}, {}
    check_k = 2000
    tol = coverage_tolerance(check_k, sz["K_env"])
    for n, m in sz["sizes"]:
        op = f"envelope_{n}x{m}"
        try:
            env = io.read_envelope(d / f"envelope_{n}x{m}.json")
        except RankCPError as exc:
            failures[op] = [f"envelope does not load: {exc}"]
            continue
        bad = []
        if (env.n, env.m, env.kind, env.delta) != (n, m, "quantile", DELTA):
            bad.append(f"header {(env.n, env.m, env.kind, env.delta)}")
        if env.mc_meta is None or env.mc_meta.K != sz["K_env"]:
            bad.append(f"mc_meta.K is not {sz['K_env']}")
        # Independent check sample: uniformly random n-subsets of 1..n+m,
        # drawn from a seed the benchmark never hands to the package.
        rng = np.random.default_rng([seed, n, m, 0xC0FFEE])
        pool = np.tile(np.arange(1, n + m + 1), (check_k, 1))
        traj = np.sort(rng.permuted(pool, axis=1)[:, :n], axis=1)
        coverage = float(np.mean(np.all((traj >= env.lower) & (traj <= env.upper), axis=1)))
        if coverage < 1 - DELTA - tol:
            bad.append(f"check-sample coverage {coverage:.4f} < {1 - DELTA - tol:.4f}")
        findings[f"{op}.coverage"] = coverage
        if bad:
            failures[op] = bad

    exact = {(n, m): _exact_fcp_k(n, m, sz["K_fcp"]) for n, m in sz["sizes"]}
    for rec in records:
        if not rec["op"].startswith("fcp_") or not rec["ok"]:
            continue
        n, m = map(int, rec["op"][4:].split("x"))
        k_exact, k_lo, k_hi = exact[(n, m)]
        findings[f"{rec['op']}.k"] = [rec["detail"]["k"], k_exact]
        if not k_lo <= rec["detail"]["k"] <= k_hi:
            failures.setdefault(rec["op"], []).append(
                f"k={rec['detail']['k']} outside exact band [{k_lo}, {k_hi}]"
                f" (exact {k_exact})"
            )
    findings["coverage_tolerance"] = tol
    return failures, findings


def checked_requests(count: int) -> list[int]:
    """One request in each block of ten, at an offset that rotates with the block."""
    return [i for i in range(count) if i % 10 == (i // 10) % 10]


def _read_rows(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _check_request(scores_rows: list, sets_path: Path, eval_path: Path, top_k: int,
                   brute_force: bool) -> list:
    """Failures of one request's outputs against the scores file it read."""
    import numpy as np

    bad = []
    outputs = {r["id"]: float(r["output"]) for r in scores_rows}
    truth = np.array([float(r["true_value"]) for r in scores_rows])
    true_rank = dict(zip((r["id"] for r in scores_rows),
                         (np.argsort(np.argsort(truth)) + 1).tolist()))
    test_ids = [r["id"] for r in scores_rows if r["split"] == "test"]
    m = len(test_ids)
    sets = _read_rows(sets_path)
    if [s["id"] for s in sets] != test_ids:
        return ["sets file does not list the test items in order"]
    missed = sum(1 for s in sets if not int(s["lo"]) <= true_rank[s["id"]] <= int(s["hi"]))
    fcp = json.loads(eval_path.read_text(encoding="utf-8"))["fcp"]
    if abs(fcp - missed / m) > 1e-12:
        bad.append(f"evaluate fcp {fcp!r} != own count {missed}/{m}")
    for s in sets:
        lo, hi = int(s["lo"]), int(s["hi"])
        if not 1 <= int(s["test_lo"]) <= int(s["test_hi"]) <= m:
            bad.append(f"{s['id']}: test-only set [{s['test_lo']}, {s['test_hi']}]"
                       f" not in [1, {m}]")
        if (s["top_candidate"] == "1") != (lo <= top_k):
            bad.append(f"{s['id']}: top_candidate {s['top_candidate']} with lo={lo}")
    if brute_force:
        manifest = Path(f"{sets_path}.manifest.json")
        threshold = json.loads(manifest.read_text(encoding="utf-8"))["extras"]["threshold"]
        ordered = np.sort(np.fromiter(outputs.values(), dtype=float))
        for s in sets:
            hit = np.flatnonzero(np.abs(ordered - outputs[s["id"]]) <= threshold) + 1
            contiguous = hit.size and hit.size == hit[-1] - hit[0] + 1
            want = (int(hit[0]), int(hit[-1])) if contiguous else None
            if want != (int(s["lo"]), int(s["hi"])):
                bad.append(f"{s['id']}: set [{s['lo']}, {s['hi']}] != brute force {want}")
    return bad[:5]


def check_predict(seed: int, d: Path, sz: dict, records: list) -> tuple:
    failures = {}
    scores = [_read_rows(d / f"scores_{i}.csv") for i in range(sz["files"])]
    brute = set(checked_requests(sz["requests"]))
    for i in range(sz["requests"]):
        op = f"request_{i:03d}"
        try:
            bad = _check_request(scores[i % sz["files"]], d / "out" / f"sets_{i:03d}.csv",
                                 d / "out" / f"eval_{i:03d}.json", sz["top_k"], i in brute)
        except (OSError, KeyError, ValueError, IndexError) as exc:
            bad = [f"unreadable output: {exc!r}"]
        if bad:
            failures[op] = bad
    return failures, {"brute_force_requests": sorted(brute)}


def check_experiment(seed: int, d: Path, sz: dict, records: list) -> tuple:
    failures, findings = {}, {}
    tol = coverage_tolerance(sz["reps"], sz["K_env"])
    for rec in records:
        if not rec["ok"]:
            continue
        agg = rec["detail"]["aggregates"]
        bad = []
        if agg["reps"] != sz["reps"]:
            bad.append(f"reps {agg['reps']} != {sz['reps']}")
        if agg["mean_fcp"] > ALPHA:
            bad.append(f"mean_fcp {agg['mean_fcp']:.4f} > alpha {ALPHA}")
        if agg["envelope_covered_frequency"] < 1 - DELTA - tol:
            bad.append(f"envelope_covered_frequency {agg['envelope_covered_frequency']:.4f}"
                       f" < {1 - DELTA - tol:.4f}")
        if rec["op"].endswith("fcp_controlled") and agg["fcp_exceedance"] > BETA:
            bad.append(f"fcp_exceedance {agg['fcp_exceedance']:.4f} > beta {BETA}")
        findings[rec["op"]] = {key: agg[key] for key in (
            "mean_fcp", "fcp_exceedance", "envelope_covered_frequency", "k")}
        if bad:
            failures[rec["op"]] = bad
    findings["coverage_tolerance"] = tol
    return failures, findings


CHECKS = {
    "offline": check_offline, "predict": check_predict, "experiment": check_experiment,
}


# --------------------------------------------------------------------------
# phase entry point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("phase", choices=("setup", "pass"))
    parser.add_argument("--workload", required=True, choices=tuple(FULL))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    sz = sizes_for(args.workload, args.tiny)
    if args.phase == "setup":
        setup(args.workload, args.seed, args.dir, sz)
        return 0
    doc = timed_pass(args.workload, args.seed, args.dir, sz, bool(args.trace))
    args.out.write_text(json.dumps(doc), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
