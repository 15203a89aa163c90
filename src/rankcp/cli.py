"""Command-line surface tying the pipeline together.

Subcommands: ``simulate-envelope``, ``predict``, ``evaluate``, ``synth``,
``experiment``.  All flags are long-form; a JSON config file may supply any
flag (command line wins on conflict).  Every output is a pure function of
the flags and the input files.

Exit codes: 0 ok, 2 usage/type error, 3 insufficient Monte-Carlo sample,
4 data error, 5 infeasible level.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import __version__, io
from .conformal import (
    DEFAULT_ALPHA,
    DEFAULT_BETA,
    DEFAULT_DELTA,
    calibrate,
    fcp_calibration,
    predict_sets,
    proxy_scores,
    select_k,
)
from .envelope import DEFAULT_K, build_envelope
from .errors import (
    DimensionMismatch,
    InfeasibleLevel,
    InsufficientSample,
    InvalidData,
    InvalidInput,
    RankCPError,
)
from .evaluate import (
    DATA_NOISE_SD,
    SIGMOID,
    ExperimentConfig,
    fcp,
    relative_length,
    run_experiment,
    synthesize_problem,
)
from .ranks import RA
from .targets import test_only_set, topk_candidates

TOOL = "rankcp"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_SAMPLING = 3
EXIT_DATA = 4
EXIT_INFEASIBLE = 5


def _opt(name, converter, default, help_text):
    """One flag; a ``None`` default makes it required."""
    return {"name": name, "converter": converter, "default": default, "help": help_text}


def _bool_flag(value) -> bool:
    if isinstance(value, bool):
        return value
    text = str(value).strip().lower()
    if text in ("on", "true", "1", "yes"):
        return True
    if text in ("off", "false", "0", "no"):
        return False
    raise InvalidInput(f"expected on/off, got {value!r}")


# Defaults are the library's own values; a value outside a flag's vocabulary
# is refused by the library call it reaches, before anything is written.
COMMANDS: dict[str, list[dict]] = {
    "simulate-envelope": [
        _opt("n", int, None, "calibration set size (required)"),
        _opt("m", int, None, "test set size (required)"),
        _opt("delta", float, DEFAULT_DELTA, "envelope miscoverage level"),
        _opt("kind", str, ExperimentConfig.envelope_kind, "envelope kind"),
        _opt("K", int, DEFAULT_K, "Monte-Carlo trajectory count"),
        _opt("seed", int, 0, "simulation seed"),
        _opt("out", str, None, "output envelope JSON path (required)"),
    ],
    "predict": [
        _opt("scores", str, None, "scores CSV path (required)"),
        _opt("envelope", str, None, "envelope JSON path (required)"),
        _opt("alpha", float, DEFAULT_ALPHA, "target miscoverage per item"),
        _opt("mode", str, RA, "score family"),
        _opt("fcp", _bool_flag, False, "FCP-calibrated threshold (on/off)"),
        _opt("beta", float, DEFAULT_BETA, "FCP exceedance budget (fcp=on)"),
        _opt("test-only", _bool_flag, False, "add test-only rank columns"),
        _opt("top-k", int, 0, "add a top-k candidate column (0 disables)"),
        _opt("out", str, None, "output sets CSV path (required)"),
    ],
    "evaluate": [
        _opt("sets", str, None, "sets CSV path (required)"),
        _opt("truth", str, None, "scores CSV with true_value column (required)"),
        _opt("out", str, None, "output metrics JSON path (required)"),
    ],
    "synth": [
        _opt("model", str, SIGMOID, "data model"),
        _opt("n", int, None, "calibration set size (required)"),
        _opt("m", int, None, "test set size (required)"),
        _opt("noise-sd", float, ExperimentConfig.noise_sd, "toy ranker noise"),
        _opt("data-noise-sd", float, DATA_NOISE_SD, "generator noise"),
        _opt("d", int, 5, "feature dimension (sigmoid model)"),
        _opt("mode", str, RA, "ranker output type"),
        _opt("seed", int, 0, "generation seed"),
        _opt("out", str, None, "output scores CSV path (required)"),
    ],
    "experiment": [
        _opt("n", int, ExperimentConfig.n, "calibration set size"),
        _opt("m", int, ExperimentConfig.m, "test set size"),
        _opt("reps", int, ExperimentConfig.reps, "repetitions"),
        _opt("alpha", float, ExperimentConfig.alpha, "target miscoverage per item"),
        _opt("beta", float, ExperimentConfig.beta, "FCP exceedance budget"),
        _opt("delta", float, ExperimentConfig.delta, "envelope miscoverage level"),
        _opt("mode", str, ExperimentConfig.mode, "score family"),
        _opt("envelope-kind", str, ExperimentConfig.envelope_kind, "envelope kind"),
        _opt("K-env", int, ExperimentConfig.K_env, "envelope trajectory count"),
        _opt("data-model", str, ExperimentConfig.data_model, "data model"),
        _opt("noise-sd", float, ExperimentConfig.noise_sd, "toy ranker noise"),
        _opt("seed", int, ExperimentConfig.master_seed, "master seed"),
        _opt("fcp-mode", str, ExperimentConfig.fcp_mode, "threshold selection"),
        _opt("k-top", int, 0, "top-k target size (0: 5%% of m)"),
        _opt("out", str, None, "output report CSV path (required)"),
    ],
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.

    Parsing leaves it unchanged: every flag but ``--config`` defaults to
    ``argparse.SUPPRESS``, and each ``parse_args`` call fills a fresh namespace.
    """
    parser = argparse.ArgumentParser(
        prog=TOOL,
        description="Prediction intervals for item ranks around a black-box ranker.",
    )
    parser.add_argument("--version", action="version", version=f"{TOOL} {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, options in COMMANDS.items():
        p = sub.add_parser(command)
        p.add_argument("--config", default=None, help="JSON file supplying any flag")
        for opt in options:
            p.add_argument(
                f"--{opt['name']}",
                default=argparse.SUPPRESS,
                help=opt["help"],
                dest=opt["name"].replace("-", "_"),
            )
    return parser


def _resolve(command: str, args: argparse.Namespace) -> dict:
    """Merge defaults, config-file values, and explicit flags (flags win)."""
    options = {opt["name"]: opt for opt in COMMANDS[command]}
    values = {name: opt["default"] for name, opt in options.items()}
    if args.config is not None:
        doc = io.read_json(args.config)
        if not isinstance(doc, dict):
            raise InvalidData(f"{args.config}: config must be a JSON object")
        for key, value in doc.items():
            name = key.replace("_", "-")
            if name not in options:
                raise InvalidInput(f"unknown config key {key!r} for {command}")
            if value is None:
                raise InvalidInput(f"config key {key!r} must not be null")
            # int() would truncate 2.9 to 2 and read true as 1
            if options[name]["converter"] is int and isinstance(value, (bool, float)):
                raise InvalidInput(f"config key {key!r} must be an integer, got {value!r}")
            values[name] = value
    for name in options:
        attr = name.replace("-", "_")
        if hasattr(args, attr):
            values[name] = getattr(args, attr)
    resolved = {}
    for name, opt in options.items():
        value = values[name]
        if value is None:
            raise InvalidInput(f"--{name} is required for {command}")
        try:
            value = opt["converter"](value)
        except (TypeError, ValueError) as exc:
            raise InvalidInput(f"--{name}: {exc}") from exc
        resolved[name] = value
    return resolved


def _manifest(command: str, resolved: dict, seeds: dict, inputs: dict, extras: dict,
              out: str) -> None:
    io.RunManifest(
        tool=TOOL,
        version=__version__,
        command=command,
        config={k: v for k, v in resolved.items()},
        seeds=seeds,
        inputs={name: io.file_digest(path) for name, path in inputs.items()},
        extras=extras,
    ).write(out)


def _cmd_simulate_envelope(resolved: dict) -> int:
    env = build_envelope(
        resolved["kind"], resolved["n"], resolved["m"], resolved["delta"],
        resolved["K"], resolved["seed"],
    )
    io.write_envelope(env, resolved["out"])
    _manifest(
        "simulate-envelope", resolved,
        seeds={"envelope": None if env.mc_meta is None else env.mc_meta.seed},
        inputs={},
        extras={"param": env.param},
        out=resolved["out"],
    )
    return EXIT_OK


def _cmd_predict(resolved: dict) -> int:
    if resolved["top-k"] < 0:
        raise InvalidInput(f"--top-k must be nonnegative, got {resolved['top-k']}")
    problem = io.read_scores(resolved["scores"], resolved["mode"])
    env = io.read_envelope(resolved["envelope"])
    scores = proxy_scores(problem, env)  # refuses an envelope of other sizes
    meta = None
    if resolved["fcp"]:
        if problem.m == 0:
            raise InvalidData(f"{resolved['scores']}: no test rows to control the FCP of")
        meta = fcp_calibration(
            resolved["alpha"], resolved["beta"], env.delta, problem.n, problem.m
        )
        k = meta.k
    else:
        k = select_k(resolved["alpha"], env.delta, problem.n)
    thr = calibrate(scores, k, alpha=resolved["alpha"])
    sets = predict_sets(problem, thr)
    test_only = test_only_set(sets, env) if resolved["test-only"] else None
    top = topk_candidates(sets, resolved["top-k"]) if resolved["top-k"] > 0 else None
    io.write_sets(sets, resolved["out"], test_only=test_only, top_candidates=top)
    _manifest(
        "predict", resolved,
        seeds={},
        inputs={"scores": resolved["scores"], "envelope": resolved["envelope"]},
        extras={
            "k": thr.k,
            "threshold": thr.value,
            "t_hat": None if meta is None else meta.t_hat,
        },
        out=resolved["out"],
    )
    return EXIT_OK


def _cmd_evaluate(resolved: dict) -> int:
    sets = io.read_sets(resolved["sets"])
    if not len(sets):
        raise InvalidData(f"{resolved['sets']}: no prediction sets to evaluate")
    ids, n, m, pooled = io.read_truth(resolved["truth"])
    rank_by_id = dict(zip(ids, pooled.tolist()))
    missing = [item for item in sets.items if item not in rank_by_id]
    if missing:
        raise DimensionMismatch(
            f"ids in sets file missing from truth file: {missing[:5]}"
        )
    beyond = np.flatnonzero(sets.hi > n + m)
    if beyond.size:
        j = beyond[0]
        raise InvalidData(
            f"{resolved['sets']}: set [{sets.lo[j]}, {sets.hi[j]}] of item "
            f"{sets.items[j]!r} reaches past n+m = {n + m}"
        )
    ranks = [rank_by_id[item] for item in sets.items]
    true_ranks = np.array(ranks, dtype=np.int64)
    io.write_evaluation(
        resolved["out"], fcp(sets, true_ranks), relative_length(sets, n + m),
        sets.items, ranks, sets.contains(true_ranks).tolist(),
    )
    _manifest(
        "evaluate", resolved, seeds={},
        inputs={"sets": resolved["sets"], "truth": resolved["truth"]},
        extras={}, out=resolved["out"],
    )
    return EXIT_OK


def _cmd_synth(resolved: dict) -> int:
    problem = synthesize_problem(
        resolved["model"], resolved["n"], resolved["m"], resolved["noise-sd"],
        resolved["mode"], resolved["seed"], d=resolved["d"],
        data_noise_sd=resolved["data-noise-sd"],
    )
    io.write_scores(problem, resolved["out"])
    _manifest(
        "synth", resolved, seeds={"data": resolved["seed"]}, inputs={},
        extras={}, out=resolved["out"],
    )
    return EXIT_OK


def _cmd_experiment(resolved: dict) -> int:
    cfg = ExperimentConfig(
        **{name.replace("-", "_"): value for name, value in resolved.items()
           if name not in ("seed", "k-top", "out")},
        master_seed=resolved["seed"], k_top=resolved["k-top"] or None,
    )
    report = run_experiment(cfg)
    io.write_report(report, resolved["out"])
    summary = report.aggregates()
    _manifest(
        "experiment", resolved, seeds={"master": resolved["seed"]}, inputs={},
        extras={"aggregates": summary}, out=resolved["out"],
    )
    for key in ("mean_fcp", "fcp_exceedance", "mean_relative_length",
                "mean_oracle_ratio"):
        print(f"{key}: {summary[key]:.6g}")
    return EXIT_OK


DISPATCH = {
    "simulate-envelope": _cmd_simulate_envelope,
    "predict": _cmd_predict,
    "evaluate": _cmd_evaluate,
    "synth": _cmd_synth,
    "experiment": _cmd_experiment,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        resolved = _resolve(args.command, args)
        return DISPATCH[args.command](resolved)
    except InvalidInput as exc:
        print(f"{TOOL}: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InsufficientSample as exc:
        print(f"{TOOL}: sampling error: {exc}", file=sys.stderr)
        return EXIT_SAMPLING
    except InfeasibleLevel as exc:
        print(f"{TOOL}: infeasible level: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except RankCPError as exc:
        print(f"{TOOL}: data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
