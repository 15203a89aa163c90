"""Run one benchmark workload on two checkouts in interleaved pairs, and summarise.

Usage::

    python tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W --pairs N \\
        --seconds S --seed S0 --out FILE

Pair ``i`` runs ``perfbench/run.py --workload W --seed S0+i --seconds S`` in
each checkout in turn, from the checkout's root: the parent first in even
pairs and the change first in odd ones, so a step in the host's speed falls
on both sides alike.  The absolute paths of the two directories must be of
one length, since ``peak_rss_mb`` moves with the length of the work path
that ``run.py`` hands its pass processes.

A run's last line of output is its result (``metrics`` among it), and the
line before it its machine and run record.  ``FILE`` is a JSON object keyed
by workload; a run of the tool sets its workload's entry and keeps the
others.  The entry holds the commit of each side (``git rev-parse HEAD`` in
its directory, or ``null`` where the directory holds no repository, such as
a ``git archive`` copy), the seeds, per metric the values of each pair, each
side's quartiles (first, median, third) and the number of pairs the change
wins (by the direction ``better`` that the change's ``BENCHMARK.json`` gives
it; a tie counts for neither side, and a metric with no direction has no
wins), and each run's result and record.  The standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def parse_run(output: str) -> tuple[dict, dict]:
    """The record and the result of a ``run.py`` output: its last two lines, as JSON."""
    lines = output.strip().splitlines()
    if len(lines) < 2:
        raise ValueError("expected a record line and a result line")
    record, result = (json.loads(line) for line in lines[-2:])
    if "record" not in record or "metrics" not in result:
        raise ValueError("expected a record line and a result line with metrics")
    return record["record"], result


def _quartiles(values: list[float]) -> list[float]:
    """The first quartile, the median and the third quartile of ``values``."""
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarise(pairs: list[tuple[dict, dict]], better: dict[str, str]) -> dict:
    """Per metric of the ``(parent, change)`` ``metrics`` of ``pairs``: values, quartiles, wins.

    A run's ``metrics`` maps each name to ``{"value", "unit"}``, as
    ``run.py`` prints them; ``better`` maps a name to ``"lower"`` or
    ``"higher"``.  Only the metrics that every run reports are summarised.
    """
    names = set.intersection(*(set(run) for pair in pairs for run in pair))
    summary = {}
    for name in sorted(names):
        parent = [pair[0][name]["value"] for pair in pairs]
        change = [pair[1][name]["value"] for pair in pairs]
        side = {"lower": -1, "higher": 1}.get(better.get(name))
        summary[name] = {
            "unit": pairs[0][0][name]["unit"],
            "better": better.get(name),
            "parent": parent,
            "change": change,
            "parent_quartiles": _quartiles(parent),
            "change_quartiles": _quartiles(change),
            "change_wins": None if side is None else sum(
                (c - p) * side > 0 for p, c in zip(parent, change)),
        }
    return summary


def _directions(checkout: Path) -> dict[str, str]:
    """The ``better`` direction of each metric that ``BENCHMARK.json`` of ``checkout`` lists."""
    path = checkout / "BENCHMARK.json"
    if not path.is_file():
        return {}
    doc = json.loads(path.read_text(encoding="utf-8"))
    return {metric["name"]: metric["better"]
            for group in ("end_to_end", "per_layer") for metric in doc.get(group, [])}


def _commit(checkout: Path) -> str | None:
    """The commit ``checkout`` has checked out, or ``None`` where it holds no repository."""
    if not (checkout / ".git").exists():  # not a directory inside some other repository
        return None
    proc = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def _run(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: run.py exited {proc.returncode}: {proc.stderr[-2000:]}")
    return parse_run(proc.stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()
    if len(str(parent)) != len(str(change)):
        parser.error(f"the checkout paths differ in length: {parent} ({len(str(parent))}) "
                     f"and {change} ({len(str(change))})")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    seeds = [args.seed + i for i in range(args.pairs)]
    runs, pairs = [], []
    for i, seed in enumerate(seeds):
        order = [("parent", parent), ("change", change)][::1 if i % 2 == 0 else -1]
        results = {}
        for side, checkout in order:
            try:
                record, result = _run(checkout, args.workload, seed, args.seconds)
            except (RuntimeError, ValueError) as exc:
                print(f"bench_pairs: pair {i} {side}: {exc}", file=sys.stderr)
                return 1
            results[side] = result
            runs.append({"pair": i, "side": side, "seed": seed, "result": result,
                         "record": record})
            print(f"pair {i} {side}: {json.dumps(result['metrics'])}", file=sys.stderr)
        pairs.append((results["parent"]["metrics"], results["change"]["metrics"]))
    doc = json.loads(args.out.read_text(encoding="utf-8")) if args.out.is_file() else {}
    doc[args.workload] = {"commits": {"parent": _commit(parent), "change": _commit(change)},
                          "seconds": args.seconds, "seeds": seeds,
                          "metrics": summarise(pairs, _directions(change)), "runs": runs}
    args.out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
