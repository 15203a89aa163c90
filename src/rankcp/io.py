"""File formats: scores CSV, envelope JSON, sets CSV, reports, run manifests.

Tabular data is comma-separated UTF-8 with a header row and '.' decimals,
read and written column by column by one reader and one writer; structured
documents are JSON.  Tables are read as Python's ``csv.reader`` reads them:
a cell may be quoted as ``csv.writer`` quotes it, and a cell longer than
``csv.field_size_limit()`` (131072 characters by default) is refused.  A
table with no quote and rows of one width, which is what the writers here
produce for plain ids, is split as one text, with no object per row.
Floats are written with ``repr`` (shortest round-trip form), so identical
inputs always produce byte-identical payloads.  The metrics JSON of
``evaluate`` can hold thousands of items, so :func:`write_evaluation` writes
it from its columns, in the bytes ``json.dumps(doc, indent=2)`` gives,
without building a dict per item.  Every output file is paired with a
``<name>.manifest.json`` sidecar carrying the resolved configuration, seeds,
and input digests needed for bit-exact replay (manifests contain timestamps
and are excluded from byte-identity).
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from io import StringIO
from itertools import compress, islice, repeat
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .conformal import RankSets
from .envelope import Envelope, MonteCarloMeta
from .errors import InvalidData, InvalidInput, TiesDetected
from .ranks import RA, VA, RankingProblem, check_mode, ranks_within, whole_numbers

SCORES_HEADER = ["id", "split", "output", "calib_rank", "true_value"]
SETS_HEADER = ["id", "lo", "hi"]
REPORT_HEADER = ["rep", "metric", "value", "arm"]


def _write_csv(path, header: list[str], columns) -> None:
    """Write a table: the header row, then one row across the equal-length columns."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*columns, strict=True))


def _read_csv(path, header: list[str], extra_columns: bool = False):
    """The columns of a table by header name, and the file line of each row.

    Blank lines are skipped.  Every row has one cell per name in ``header``;
    with ``extra_columns`` the file may carry further columns after those,
    which are ignored.  A text that only ``csv.reader`` reads as it should
    (one holding a ``"``, a NUL, a line longer than ``csv.field_size_limit()``
    or rows of several widths or of the wrong width) goes through
    :func:`_reader_table`; any other is split whole, with no object per row.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidData(f"{path}: {exc}") from exc
    # csv.reader reads a NUL in a cell from Python 3.11 on, and refuses it before
    if '"' in text or "\0" in text:
        return _reader_table(path, StringIO(text, newline=""), header, extra_columns)
    # the line ends that csv.reader and a file opened with newline="" know;
    # csv.writer ends every line in \r\n, so a bare \r is rare
    text = text.replace("\r\n", "\n")
    lines = (text.replace("\r", "\n") if "\r" in text else text).split("\n")
    del text  # each intermediate is dropped once the next is built
    if lines[-1] == "":  # the end of the last line, or an empty text
        lines.pop()
    if not lines or max(map(len, lines)) > csv.field_size_limit():
        return _reader_table(path, lines, header, extra_columns)
    rows = list(filter(None, islice(lines, 1, None)))  # blank lines are skipped
    commas = set(map(str.count, rows, repeat(",")))
    width = len(header)
    cells = commas.pop() + 1 if commas else width
    if commas or cells < width or (cells > width and not extra_columns):
        return _reader_table(path, lines, header, extra_columns)
    _check_header(path, lines[0].split(","), header, extra_columns)
    numbers = (range(2, len(lines) + 1) if len(rows) == len(lines) - 1
               else list(compress(range(2, len(lines) + 1), islice(lines, 1, None))))
    del lines
    joined = ",".join(rows)
    del rows
    flat = joined.split(",") if joined else []
    del joined
    return dict(zip(header, (flat[i::cells] for i in range(width)))), numbers


def _reader_table(path, source, header: list[str], extra_columns: bool):
    """:func:`_read_csv` by ``csv.reader`` over ``source``, an iterable of the file's lines."""
    try:
        reader = csv.reader(source)
        first = next(reader, None)
        rows, lines = [], []
        for row in reader:
            if row:
                rows.append(row)
                lines.append(reader.line_num)
    except csv.Error as exc:
        raise InvalidData(f"{path}: {exc}") from exc
    _check_header(path, first, header, extra_columns)
    width = len(header)
    for row, line in zip(rows, lines):
        if len(row) < width or (len(row) > width and not extra_columns):
            raise InvalidData(f"{path}:{line}: wrong number of columns")
    columns = list(zip(*rows)) if rows else [()] * width
    return dict(zip(header, columns)), lines


def _check_header(path, first: list[str] | None, header: list[str], extra_columns: bool):
    """Refuse an empty file (``first`` is ``None``) or a header row other than ``header``."""
    if first is None:
        raise InvalidData(f"{path}: empty file")
    names = [name.strip() for name in first]
    if (names[:len(header)] if extra_columns else names) != header:
        rule = "start with" if extra_columns else "be"
        raise InvalidData(f"{path}: header must {rule} {','.join(header)}")


def _parse(path, texts, lines, convert, message: str) -> list:
    """``convert`` of each cell; a rejected cell raises ``message.format(cell)`` at its line."""
    try:
        return list(map(convert, texts))
    except ValueError:
        pass  # find the cell that failed
    for text, line in zip(texts, lines):
        try:
            convert(text)
        except ValueError as exc:
            raise InvalidData(f"{path}:{line}: {message.format(text)}") from exc


def write_scores(problem: RankingProblem, path) -> None:
    """Write a problem as a scores CSV (one row per item)."""
    _write_csv(path, SCORES_HEADER, [
        problem.item_ids,
        ["calib"] * problem.n + ["test"] * problem.m,
        problem.ranker_outputs.tolist(),
        problem.calib_ranks.tolist() + [""] * problem.m,
        [""] * problem.total if problem.truth is None else problem.truth.tolist(),
    ])


def _read_scores_table(path):
    """The columns and row lines of a scores CSV, and its split as a calib mask.

    The split of each row must be calib or test, and no id may be listed
    twice.  :func:`read_scores` and :func:`read_truth` read through here.
    """
    columns, lines = _read_csv(path, SCORES_HEADER)
    is_calib = np.array(_parse(path, columns["split"], lines, ("test", "calib").index,
                               "split must be calib|test, got {!r}"), dtype=bool)
    _check_unique_ids(path, columns["id"], lines)
    return columns, lines, is_calib


def read_scores(path, mode: str) -> RankingProblem:
    """Read a scores CSV into a problem; ``mode`` types the output column."""
    check_mode(mode)
    columns, lines, is_calib = _read_scores_table(path)
    texts, ranks = columns["output"], np.array(columns["calib_rank"], dtype=object)
    outputs = np.asarray(_parse(path, texts, lines, float, "output {!r} is not a number"))
    if mode == RA:
        whole = whole_numbers(outputs)
        # the first row in file order that is not a whole number, or out of range
        bad = np.flatnonzero(~whole | (outputs < 1) | (outputs > outputs.size))
        if bad.size:
            i = bad[0]
            if not whole[i]:
                raise InvalidInput(f"{path}:{lines[i]}: mode=RA requires integer ranks in "
                                   f"the output column, got {texts[i]!r} (type error)")
            raise InvalidInput(f"RA ranker outputs must lie in [1, {outputs.size}], "
                               f"got {texts[i]!r} at {path}:{lines[i]}")
    else:
        bad = np.flatnonzero(~np.isfinite(outputs))  # float('1e400') is inf
        if bad.size:
            i = bad[0]
            raise InvalidData(f"{path}:{lines[i]}: output {texts[i]!r} is not finite")
    bad = np.flatnonzero(ranks.astype(bool) & ~is_calib)  # a cell is true unless empty
    if bad.size:
        raise InvalidData(f"{path}:{lines[bad[0]]}: test rows must leave calib_rank empty")
    calib, test = np.flatnonzero(is_calib), np.flatnonzero(~is_calib)
    # the lines are read only to locate a cell that is not an integer
    calib_ranks = _parse(path, ranks[calib].tolist(), compress(lines, is_calib),
                         int, "calib_rank {!r} is not an integer")
    if not calib.size:
        raise InvalidData(f"{path}: no calibration rows")
    order = np.concatenate([calib, test])
    truths = columns["true_value"]
    if any(truths) and not all(truths):
        raise InvalidData(f"{path}: true_value must be set on all rows or none")
    truth = _parse_truth(path, truths, lines) if all(truths) else None
    try:
        return RankingProblem(
            n=calib.size,
            m=test.size,
            calib_ranks=np.asarray(calib_ranks),
            ranker_mode=mode,
            ranker_outputs=outputs[order],
            truth=None if truth is None else truth[order],
            ids=np.array(columns["id"], dtype=object)[order].tolist(),
        )
    except InvalidInput as exc:
        # The outputs, the truth and the ids were checked above; what is left
        # is a set of calib_ranks that is not a permutation of 1..n.
        raise _bad_calib_rank(path, ranks[calib], list(compress(lines, is_calib)),
                              calib_ranks) from exc
    except TiesDetected as exc:
        # RankingProblem checks the VA outputs first, then the truth.
        raise _tie_at_lines(path, lines, exc, *([outputs.tolist()] if mode == VA else []),
                            truth) from exc


def _first_repeat(values) -> tuple[int, int] | None:
    """Rows of the first value, in file order, that equals an earlier one."""
    seen = {}
    for i, value in enumerate(values):
        if value in seen:
            return seen[value], i
        seen[value] = i
    return None


def _bad_calib_rank(path, texts, lines, ranks) -> InvalidData:
    """The first calib row, in file order, whose rank is outside ``[1, n]`` or repeats.

    ``ranks`` that make no permutation of ``1..n`` always hold such a row:
    ``n`` ranks in ``[1, n]`` with no repeat are one.
    """
    n = len(ranks)
    outside = next((i for i, rank in enumerate(ranks) if not 1 <= rank <= n), n)
    first, second = _first_repeat(ranks) or (n, n)
    i = min(outside, second)
    rule = f"is outside [1, {n}]" if i == outside else f"repeats line {lines[first]}"
    return InvalidData(f"{path}:{lines[i]}: calib_rank {texts[i]!r} {rule}")


def _tie_at_lines(path, lines, exc: TiesDetected, *columns) -> TiesDetected:
    """``exc`` located at the lines of the first repeat in the first column that has one."""
    first, second = next(filter(None, map(_first_repeat, columns)))
    return TiesDetected(f"{path}: lines {lines[first]} and {lines[second]}: {exc}")


def _check_unique_ids(path, ids, lines) -> None:
    """Refuse a table that lists an item id twice, at the line of its second row."""
    if len(set(ids)) != len(ids):
        _, second = _first_repeat(ids)
        raise InvalidData(f"{path}:{lines[second]}: item id {ids[second]!r} "
                          "is listed more than once")


def _parse_truth(path, texts, lines) -> np.ndarray:
    """The true_value column as floats; every row must carry a number, and NaN has no rank."""
    if "" in texts:
        raise InvalidData(
            f"{path}:{lines[texts.index('')]}: true_value required for evaluation")
    truth = np.asarray(_parse(path, texts, lines, float, "bad true_value"), dtype=float)
    nan = np.flatnonzero(np.isnan(truth))
    if nan.size:
        raise InvalidData(f"{path}:{lines[nan[0]]}: true_value {texts[nan[0]]!r} has no rank")
    return truth


def read_truth(path) -> tuple[list[str], int, int, np.ndarray]:
    """ids, n, m, and the true pooled rank of each row from a scores CSV.

    Lenient companion to :func:`read_scores` for evaluation inputs: the
    output column is not typed or validated, but the split and the ids are
    read by the same rules, and every row must carry a true_value that is a
    number other than NaN, and no two may be equal.
    """
    columns, lines, is_calib = _read_scores_table(path)
    truth = _parse_truth(path, columns["true_value"], lines)
    try:
        true_ranks = ranks_within(truth, "truth")
    except TiesDetected as exc:
        raise _tie_at_lines(path, lines, exc, truth.tolist()) from exc
    n = int(np.count_nonzero(is_calib))
    return list(columns["id"]), n, len(is_calib) - n, true_ranks


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
            "seed": None if meta is None else int(meta.seed),  # a numpy integer too
            "slack": None if meta is None else meta.slack,
        },
    }


def _numbers(value, name: str, kind=int):
    """``value`` if it is a JSON ``kind`` or a list of them, else a TypeError naming ``name``.

    ``kind`` is ``int``, or ``float`` for any JSON number, which is returned
    as a float.  int() would truncate a float, and int() and float() would
    read a bool as 0 or 1; float() would also read a numeric string.  An
    integer must fit in int64, which the envelope's arrays hold.
    """
    allowed, noun = ({int}, "an integer") if kind is int else ({int, float}, "a number")
    items = value if isinstance(value, list) else [value]
    if not set(map(type, items)) <= allowed:
        bad = next(v for v in items if type(v) not in allowed)
        raise TypeError(f"{name} must be {noun}, got {json.dumps(bad)}")
    if kind is int and items and (min(items) < -2**63 or max(items) >= 2**63):
        bad = next(v for v in items if not -2**63 <= v < 2**63)
        raise ValueError(f"{name} must be an integer in [-2**63, 2**63), got {bad}")
    return value if isinstance(value, list) else kind(value)


def envelope_from_doc(doc: dict) -> Envelope:
    try:
        if not isinstance(doc, dict):
            raise TypeError(f"the document must be an object, got {type(doc).__name__}")
        meta_doc = doc.get("mc_meta") or {}
        if not isinstance(meta_doc, dict):
            raise TypeError(f"mc_meta must be an object, got {json.dumps(meta_doc)}")
        meta = None
        if meta_doc.get("K") is not None:
            meta = MonteCarloMeta(
                K=_numbers(meta_doc["K"], "mc_meta.K"),
                seed=_numbers(meta_doc["seed"], "mc_meta.seed"),
                slack=_numbers(meta_doc["slack"], "mc_meta.slack", float),
            )
        return Envelope(
            n=_numbers(doc["n"], "n"),
            m=_numbers(doc["m"], "m"),
            delta=_numbers(doc["delta"], "delta", float),
            kind=str(doc["kind"]),
            lower=_numbers(doc["lower"], "lower"),
            upper=_numbers(doc["upper"], "upper"),
            param=None if doc.get("param") is None else _numbers(doc["param"], "param", float),
            mc_meta=meta,
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidData(f"malformed envelope document: {exc}") from exc


def write_json(doc: dict, path) -> None:
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def read_json(path, name: str = "document") -> dict:
    """The JSON object in ``path``; a file that is not UTF-8 JSON holding an object is refused.

    The refusal names the file, and ``name`` says what it should hold.
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # JSONDecodeError and UnicodeDecodeError
        raise InvalidData(f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise InvalidData(f"{path}: {name} must be a JSON object")
    return doc


def write_envelope(env: Envelope, path) -> None:
    write_json(envelope_to_doc(env), path)


def read_envelope(path) -> Envelope:
    return envelope_from_doc(read_json(path, "envelope"))


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
    _write_csv(path, header, columns)


def read_sets(path) -> RankSets:
    """Read the id/lo/hi columns of a sets CSV (extra columns ignored).

    Item ids must be unique: a repeated id would be counted twice by the
    metrics.
    """
    columns, lines = _read_csv(path, SETS_HEADER, extra_columns=True)
    lo = _parse(path, columns["lo"], lines, int, "lo {!r} is not an integer")
    hi = _parse(path, columns["hi"], lines, int, "hi {!r} is not an integer")
    try:
        sets = RankSets(items=columns["id"], lo=lo, hi=hi)
    except InvalidInput as exc:
        raise InvalidData(f"{path}: {exc}") from exc
    _check_unique_ids(path, sets.items, lines)
    return sets


# One item of the metrics JSON, laid out as json.dumps(doc, indent=2) lays it out
_EVAL_ITEM = '    {\n      "id": %s,\n      "true_rank": %d,\n      "covered": %s\n    }'


def write_evaluation(path, fcp: float, relative_length: float, ids: list[str],
                     true_ranks: list[int], covered: list[bool]) -> None:
    """Write the metrics JSON of ``evaluate`` from its per-item columns.

    The document is ``{"fcp", "relative_length", "items": [{"id", "true_rank",
    "covered"}, ...]}``, and the bytes are those of ``write_json`` on it: two-space
    indent, ids ASCII-escaped by the function ``json.dumps`` uses.
    """
    text = json.dumps({"fcp": fcp, "relative_length": relative_length, "items": []},
                      indent=2)
    if ids:
        items = ",\n".join([
            _EVAL_ITEM % (encode_basestring_ascii(item), rank, "true" if hit else "false")
            for item, rank, hit in zip(ids, true_ranks, covered, strict=True)
        ])
        text = text[: -len("[]\n}")] + "[\n" + items + "\n  ]\n}"
    Path(path).write_text(text + "\n", encoding="utf-8")


def write_report(report, path) -> None:
    """Write an ``evaluate.ExperimentReport`` as rows (rep, metric, value, arm)."""
    reps, metrics, values, arms = list(zip(*report.to_rows())) or [()] * 4
    _write_csv(path, REPORT_HEADER, [reps, metrics, values, arms])


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
            **asdict(self),  # the fields, in the order they are declared
            "payload": str(payload_path),
            "payload_sha256": file_digest(payload_path),
            "created_utc": datetime.now(timezone.utc).isoformat(),
        }
        write_json(doc, f"{payload_path}.manifest.json")
