"""File formats: scores CSV, envelope JSON, sets CSV, reports, run manifests.

Tabular data is comma-separated UTF-8 with a header row and '.' decimals;
structured documents are JSON.  Floats are written with ``repr`` (shortest
round-trip form), so identical inputs always produce byte-identical payloads.
Every output file is paired with a ``<name>.manifest.json`` sidecar carrying
the resolved configuration, seeds, and input digests needed for bit-exact
replay (manifests contain timestamps and are excluded from byte-identity).
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .conformal import RankSets
from .envelope import Envelope, MonteCarloMeta
from .errors import InvalidData, InvalidInput
from .evaluate import ExperimentReport
from .ranks import RA, VA, RankingProblem

SCORES_HEADER = ["id", "split", "output", "calib_rank", "true_value"]
SETS_HEADER = ["id", "lo", "hi"]
REPORT_HEADER = ["rep", "metric", "value", "arm"]


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def write_scores(problem: RankingProblem, path) -> None:
    """Write a problem as a scores CSV (one row per item)."""
    ids = problem.item_ids
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(SCORES_HEADER)
        for i in range(problem.total):
            calib = i < problem.n
            writer.writerow(
                [
                    ids[i],
                    "calib" if calib else "test",
                    _fmt(problem.ranker_outputs[i]),
                    _fmt(problem.calib_ranks[i]) if calib else "",
                    _fmt(problem.truth[i]) if problem.truth is not None else "",
                ]
            )


def read_scores(path, mode: str) -> RankingProblem:
    """Read a scores CSV into a problem; ``mode`` types the output column."""
    if mode not in (RA, VA):
        raise InvalidInput(f"mode must be {RA!r} or {VA!r}")
    rows = _read_csv(path, SCORES_HEADER)
    ids, splits, outputs, calib_ranks, truths = [], [], [], [], []
    for lineno, row in rows:
        ids.append(row["id"])
        split = row["split"]
        if split not in ("calib", "test"):
            raise InvalidData(f"{path}:{lineno}: split must be calib|test, got {split!r}")
        splits.append(split)
        outputs.append(_parse_output(row["output"], mode, path, lineno))
        if split == "calib":
            calib_ranks.append(_parse_int(row["calib_rank"], "calib_rank", path, lineno))
        elif row["calib_rank"] not in ("", None):
            raise InvalidData(f"{path}:{lineno}: test rows must leave calib_rank empty")
        truths.append(row["true_value"])
    if len(set(ids)) != len(ids):
        raise InvalidData(f"{path}: item ids must be unique")
    order = [i for i, s in enumerate(splits) if s == "calib"] + [
        i for i, s in enumerate(splits) if s == "test"
    ]
    n = len(calib_ranks)
    m = len(ids) - n
    if n == 0:
        raise InvalidData(f"{path}: no calibration rows")
    truth = None
    filled = [truths[i] for i in order]
    if all(t not in ("", None) for t in filled):
        truth = np.array([float(t) for t in filled])
    elif any(t not in ("", None) for t in filled):
        raise InvalidData(f"{path}: true_value must be set on all rows or none")
    try:
        return RankingProblem(
            n=n,
            m=m,
            calib_ranks=np.asarray(calib_ranks),
            ranker_mode=mode,
            ranker_outputs=np.asarray([outputs[i] for i in order]),
            truth=truth,
            ids=[ids[i] for i in order],
        )
    except InvalidInput as exc:
        # Everything but output typing is a data-file defect, not a flag error.
        if "RA ranker outputs" in str(exc):
            raise
        raise InvalidData(f"{path}: {exc}") from exc


def _parse_output(text: str, mode: str, path, lineno: int):
    try:
        value = float(text)
    except (TypeError, ValueError) as exc:
        raise InvalidData(f"{path}:{lineno}: output {text!r} is not a number") from exc
    if mode == RA and value != int(value):
        raise InvalidInput(
            f"{path}:{lineno}: mode=RA requires integer ranks in the output "
            f"column, got {text!r} (type error)"
        )
    return int(value) if mode == RA else value


def read_truth(path) -> tuple[list[str], int, int, np.ndarray]:
    """ids, n, m, and truth values from a scores CSV (outputs ignored).

    Lenient companion to :func:`read_scores` for evaluation inputs: the
    output column is not typed or validated, but every row must carry a
    true_value.
    """
    rows = _read_csv(path, SCORES_HEADER)
    ids, splits, truths = [], [], []
    for lineno, row in rows:
        ids.append(row["id"])
        splits.append(row["split"])
        if row["true_value"] in ("", None):
            raise InvalidData(f"{path}:{lineno}: true_value required for evaluation")
        try:
            truths.append(float(row["true_value"]))
        except ValueError as exc:
            raise InvalidData(f"{path}:{lineno}: bad true_value") from exc
    if len(set(ids)) != len(ids):
        raise InvalidData(f"{path}: item ids must be unique")
    n = sum(1 for s in splits if s == "calib")
    m = len(ids) - n
    return ids, n, m, np.asarray(truths)


def _parse_int(text: str, name: str, path, lineno: int) -> int:
    try:
        return int(text)
    except (TypeError, ValueError) as exc:
        raise InvalidData(f"{path}:{lineno}: {name} {text!r} is not an integer") from exc


def _read_csv(path, expected_header: list[str]) -> list[tuple[int, dict]]:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise InvalidData(f"{path}: empty file") from None
            if [h.strip() for h in header] != expected_header:
                raise InvalidData(
                    f"{path}: header must be {','.join(expected_header)}"
                )
            out = []
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(expected_header):
                    raise InvalidData(f"{path}:{lineno}: wrong number of columns")
                out.append((lineno, dict(zip(expected_header, row))))
            return out
    except OSError as exc:
        raise InvalidData(f"{path}: {exc}") from exc


def envelope_to_doc(env: Envelope) -> dict:
    meta = env.mc_meta
    return {
        "n": env.n,
        "m": env.m,
        "delta": env.delta,
        "kind": env.kind,
        "param": env.param,
        "lower": [int(v) for v in env.lower],
        "upper": [int(v) for v in env.upper],
        "mc_meta": {
            "K": None if meta is None else meta.K,
            "seed": None if meta is None else meta.seed,
            "slack": None if meta is None else meta.slack,
        },
    }


def envelope_from_doc(doc: dict) -> Envelope:
    try:
        meta_doc = doc.get("mc_meta") or {}
        meta = None
        if meta_doc.get("K") is not None:
            meta = MonteCarloMeta(
                K=int(meta_doc["K"]),
                seed=int(meta_doc["seed"]),
                slack=float(meta_doc["slack"]),
            )
        return Envelope(
            n=int(doc["n"]),
            m=int(doc["m"]),
            delta=float(doc["delta"]),
            kind=str(doc["kind"]),
            lower=np.asarray(doc["lower"], dtype=np.int64),
            upper=np.asarray(doc["upper"], dtype=np.int64),
            param=None if doc.get("param") is None else float(doc["param"]),
            mc_meta=meta,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidData(f"malformed envelope document: {exc}") from exc


def write_json(doc: dict, path) -> None:
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def read_json(path) -> dict:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise InvalidData(f"{path}: {exc}") from exc


def write_envelope(env: Envelope, path) -> None:
    write_json(envelope_to_doc(env), path)


def read_envelope(path) -> Envelope:
    return envelope_from_doc(read_json(path))


def write_sets(
    sets: RankSets,
    path,
    test_only: RankSets | None = None,
    top_candidates: np.ndarray | None = None,
) -> None:
    """Write prediction sets, one row per item, with optional target columns.

    ``test_only`` adds ``test_lo``/``test_hi``; ``top_candidates``, a boolean
    mask over the rows, adds a 0/1 ``top_candidate`` column.
    """
    header = list(SETS_HEADER)
    columns = [sets.items, sets.lo.tolist(), sets.hi.tolist()]
    if test_only is not None:
        header += ["test_lo", "test_hi"]
        columns += [test_only.lo.tolist(), test_only.hi.tolist()]
    if top_candidates is not None:
        header += ["top_candidate"]
        columns.append(np.asarray(top_candidates, dtype=np.int64).tolist())
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*columns, strict=True))


def read_sets(path) -> RankSets:
    """Read the id/lo/hi columns of a sets CSV (extra columns ignored).

    Item ids must be unique: a repeated id would be counted twice by the
    metrics.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or reader.fieldnames[:3] != SETS_HEADER:
                raise InvalidData(f"{path}: header must start with id,lo,hi")
            rows = list(reader)
        sets = RankSets(
            items=[row["id"] for row in rows],
            lo=[int(row["lo"]) for row in rows],
            hi=[int(row["hi"]) for row in rows],
        )
    except OSError as exc:
        raise InvalidData(f"{path}: {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidData(f"{path}: {exc}") from exc
    seen = set()
    for item in sets.items:
        if item in seen:
            raise InvalidData(f"{path}: item id {item!r} is listed more than once")
        seen.add(item)
    return sets


def write_report(report: ExperimentReport, path) -> None:
    """Write the long-format experiment table (rep, metric, value, arm)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_HEADER)
        for rep, metric, value, arm in report.to_rows():
            writer.writerow([str(rep), metric, _fmt(value), arm])


def read_report_rows(path) -> list[tuple[int, str, float, str]]:
    """Read a long-format report back into (rep, metric, value, arm) rows."""
    rows = _read_csv(path, REPORT_HEADER)
    try:
        return [
            (int(r["rep"]), r["metric"], float(r["value"]), r["arm"])
            for _, r in rows
        ]
    except ValueError as exc:
        raise InvalidData(f"{path}: {exc}") from exc


def file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@dataclass
class RunManifest:
    """Reproducibility sidecar: everything needed to replay a command."""

    tool: str
    version: str
    command: str
    config: dict
    seeds: dict = field(default_factory=dict)
    inputs: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)

    def write(self, payload_path) -> None:
        doc = {
            "tool": self.tool,
            "version": self.version,
            "command": self.command,
            "config": self.config,
            "seeds": self.seeds,
            "inputs": self.inputs,
            "extras": self.extras,
            "payload": str(payload_path),
            "payload_sha256": file_digest(payload_path),
            "created_utc": datetime.now(timezone.utc).isoformat(),
        }
        write_json(doc, f"{payload_path}.manifest.json")
