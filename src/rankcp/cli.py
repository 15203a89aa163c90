"""Command-line surface tying the pipeline together.

Subcommands: ``simulate-envelope``, ``predict``, ``evaluate``, ``synth``,
``experiment``.  All flags are long-form; a JSON config file may supply any
flag (command line wins on conflict), as a JSON value of the type the flag
takes.  Every output is a pure function of the flags and the input files.

Every subcommand runs through :func:`main`: it resolves the flags, refuses
an ``--out`` that cannot be written or that names one of the subcommand's
input files or the ``--config`` file before any work, runs the subcommand's
function from :data:`COMMANDS`, which computes and writes the payload and
returns its seeds and extras, and writes the ``<out>.manifest.json`` sidecar
with the digests of the files the subcommand read and of the payload: the
sha256 of the bytes its readers parsed and its writer wrote, which they
record as they go, so no input is read twice and no payload read back.
Where the sidecar cannot be written, the payload just written is removed.
``main`` also maps every failure to its exit code.

Exit codes: 0 ok, 2 usage/type error, 3 insufficient Monte-Carlo sample,
4 data error (an unwritable ``--out`` included), 5 infeasible level.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import Callable, NamedTuple

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
    FEATURE_DIM,
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


# The JSON types a config value may have, by its flag's converter: int()
# would truncate 2.9 to 2 and read true as 1, and float() would read false as 0.
_CONFIG_TYPES = {
    int: ("an integer", (int,)),
    float: ("a number", (int, float)),
    _bool_flag: ("a boolean or on/off", (bool, str)),
    str: ("a string", (str,)),
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
    for command, spec in COMMANDS.items():
        p = sub.add_parser(command)
        p.add_argument("--config", default=None, help="JSON file supplying any flag")
        for opt in spec.flags:
            p.add_argument(
                f"--{opt['name']}",
                default=argparse.SUPPRESS,
                help=opt["help"],
                dest=opt["name"].replace("-", "_"),
            )
    return parser


def _resolve(command: str, args: argparse.Namespace) -> dict:
    """Merge defaults, config-file values, and explicit flags (flags win)."""
    options = {opt["name"]: opt for opt in COMMANDS[command].flags}
    values = {name: opt["default"] for name, opt in options.items()}
    if args.config is not None:
        for key, value in io.read_json(args.config, "config").items():
            name = key.replace("_", "-")
            if name not in options:
                raise InvalidInput(f"unknown config key {key!r} for {command}")
            if value is None:
                raise InvalidInput(f"config key {key!r} must not be null")
            noun, types = _CONFIG_TYPES[options[name]["converter"]]
            if type(value) not in types:
                raise InvalidInput(f"config key {key!r} must be {noun}, got {value!r}")
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


def _cmd_simulate_envelope(resolved: dict, digests: dict) -> tuple[dict, dict]:
    env = build_envelope(
        resolved["kind"], resolved["n"], resolved["m"], resolved["delta"],
        resolved["K"], resolved["seed"],
    )
    io.write_envelope(env, resolved["out"], digests)
    return ({"envelope": None if env.mc_meta is None else env.mc_meta.seed},
            {"param": env.param})


def _cmd_predict(resolved: dict, digests: dict) -> tuple[dict, dict]:
    problem = io.read_scores(resolved["scores"], resolved["mode"], digests)
    env = io.read_envelope(resolved["envelope"], digests)
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
    top = topk_candidates(sets, resolved["top-k"]) if resolved["top-k"] else None
    io.write_sets(sets, resolved["out"], test_only=test_only, top_candidates=top, digests=digests)
    return {}, {
        "k": thr.k,
        "threshold": thr.value,
        "t_hat": None if meta is None else meta.t_hat,
    }


def _cmd_evaluate(resolved: dict, digests: dict) -> tuple[dict, dict]:
    sets = io.read_sets(resolved["sets"], digests)
    if not len(sets):
        raise InvalidData(f"{resolved['sets']}: no prediction sets to evaluate")
    ids, n, m, pooled = io.read_truth(resolved["truth"], digests)
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
        sets.items, ranks, sets.contains(true_ranks).tolist(), digests,
    )
    return {}, {}


def _cmd_synth(resolved: dict, digests: dict) -> tuple[dict, dict]:
    problem = synthesize_problem(
        resolved["model"], resolved["n"], resolved["m"], resolved["noise-sd"],
        resolved["mode"], resolved["seed"], d=resolved["d"],
        data_noise_sd=resolved["data-noise-sd"],
    )
    io.write_scores(problem, resolved["out"], digests)
    return {"data": resolved["seed"]}, {}


def _cmd_experiment(resolved: dict, digests: dict) -> tuple[dict, dict]:
    cfg = ExperimentConfig(
        **{name.replace("-", "_"): value for name, value in resolved.items()
           if name not in ("seed", "k-top", "out")},
        master_seed=resolved["seed"], k_top=resolved["k-top"] or None,
    )
    report = run_experiment(cfg)
    io.write_report(report, resolved["out"], digests)
    summary = report.aggregates()
    for key in ("mean_fcp", "fcp_exceedance", "mean_relative_length",
                "mean_oracle_ratio"):
        print(f"{key}: {summary[key]:.6g}")
    meta = report.threshold_meta
    return {"master": resolved["seed"]}, {
        "aggregates": summary, "t_hat": None if meta is None else meta.t_hat}


class Command(NamedTuple):
    """A subcommand: its function, the flags naming the files it reads, its flags.

    ``run`` computes and writes the payload from the resolved flags, records
    in a dict the sha256 of each file it reads and of the payload, by path,
    and returns the manifest's ``seeds`` and ``extras``.
    """

    run: Callable[[dict, dict], tuple[dict, dict]]
    reads: tuple[str, ...]
    flags: list[dict]


# Defaults are the library's own values; a value outside a flag's vocabulary
# is refused by the library call it reaches, before anything is written.
COMMANDS: dict[str, Command] = {
    "simulate-envelope": Command(_cmd_simulate_envelope, (), [
        _opt("n", int, None, "calibration set size (required)"),
        _opt("m", int, None, "test set size (required)"),
        _opt("delta", float, DEFAULT_DELTA, "envelope miscoverage level"),
        _opt("kind", str, ExperimentConfig.envelope_kind, "envelope kind"),
        _opt("K", int, DEFAULT_K, "Monte-Carlo trajectory count"),
        _opt("seed", int, 0, "simulation seed"),
        _opt("out", str, None, "output envelope JSON path (required)"),
    ]),
    "predict": Command(_cmd_predict, ("scores", "envelope"), [
        _opt("scores", str, None, "scores CSV path (required)"),
        _opt("envelope", str, None, "envelope JSON path (required)"),
        _opt("alpha", float, DEFAULT_ALPHA, "target miscoverage per item"),
        _opt("mode", str, RA, "score family"),
        _opt("fcp", _bool_flag, False, "FCP-calibrated threshold (on/off)"),
        _opt("beta", float, DEFAULT_BETA, "FCP exceedance budget (fcp=on)"),
        _opt("test-only", _bool_flag, False, "add test-only rank columns"),
        _opt("top-k", int, 0, "add a top-k candidate column (0 disables)"),
        _opt("out", str, None, "output sets CSV path (required)"),
    ]),
    "evaluate": Command(_cmd_evaluate, ("sets", "truth"), [
        _opt("sets", str, None, "sets CSV path (required)"),
        _opt("truth", str, None, "scores CSV with true_value column (required)"),
        _opt("out", str, None, "output metrics JSON path (required)"),
    ]),
    "synth": Command(_cmd_synth, (), [
        _opt("model", str, SIGMOID, "data model"),
        _opt("n", int, None, "calibration set size (required)"),
        _opt("m", int, None, "test set size (required)"),
        _opt("noise-sd", float, ExperimentConfig.noise_sd, "toy ranker noise"),
        _opt("data-noise-sd", float, DATA_NOISE_SD, "generator noise"),
        _opt("d", int, FEATURE_DIM, "feature dimension (sigmoid model)"),
        _opt("mode", str, RA, "ranker output type"),
        _opt("seed", int, 0, "generation seed"),
        _opt("out", str, None, "output scores CSV path (required)"),
    ]),
    "experiment": Command(_cmd_experiment, (), [
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
    ]),
}


def _check_out(out: str, inputs: dict[str, str]) -> None:
    """Refuse, before any work, an ``--out`` that cannot be written or names an input.

    An ``--out`` that is a directory or lies in none cannot be written, and
    one whose payload or ``<out>.manifest.json`` names the same file as an
    input flag or the config file (``inputs`` maps each flag to its path)
    would overwrite that file.
    """
    if os.path.isdir(out):
        raise InvalidData(f"--out {out} is a directory")
    parent = os.path.dirname(out) or "."
    if not os.path.isdir(parent):
        raise InvalidData(f"--out {out}: {parent} is not a directory")
    manifest = f"{out}.manifest.json"
    for name, path in inputs.items():
        for written in (out, manifest):
            if os.path.realpath(path) == os.path.realpath(written) or (os.path.exists(path)
                    and os.path.exists(written) and os.path.samefile(path, written)):
                raise InvalidData(f"--out and --{name} name the same file {out}"
                                  if written is out else
                                  f"--{name} names {manifest}, the manifest of --out")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    command = COMMANDS[args.command]
    try:
        resolved = _resolve(args.command, args)
        out = resolved["out"]
        reads = {name: resolved[name] for name in command.reads}
        _check_out(out, reads if args.config is None else {**reads, "config": args.config})
        try:
            digests = {}
            seeds, extras = command.run(resolved, digests)
            try:
                io.RunManifest(
                    tool=TOOL, version=__version__, command=args.command,
                    config=resolved, seeds=seeds, extras=extras,
                    inputs={name: digests[resolved[name]] for name in command.reads},
                ).write(out, digests[out])
            except OSError:
                os.remove(out)  # no payload without its sidecar
                raise
        except OSError as exc:  # the readers name their file in an InvalidData
            raise InvalidData(f"cannot write --out {out}: {exc}") from exc
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
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
