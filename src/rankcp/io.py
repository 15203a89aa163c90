"""File formats: scores CSV, envelope JSON, sets CSV, reports, run manifests.

Tabular data is comma-separated UTF-8 with a header row and '.' decimals,
read and written column by column by one reader and one writer; structured
documents are JSON.  Tables are read as Python's ``csv.reader`` reads them:
a cell may be quoted as ``csv.writer`` quotes it, and a cell longer than
``csv.field_size_limit()`` (131072 characters by default) is refused.  A
table with no quote and rows of one width, which is what the writers here
produce for plain ids, is split as one text, with no object per row.
Floats are written with ``repr`` (shortest round-trip form), so identical
inputs always produce byte-identical payloads.

Each input file is read once: :func:`_read_file` takes its bytes and their
sha256, the reader parses those bytes, and records the digest in the
``digests`` dict its caller passes, for the run manifest.  Each writer builds
its payload's bytes and writes them through :func:`_write_file`, which
records their sha256 there too, so no payload is read back to be hashed.
One slot per file kind keeps the last file read, validated, as ``(key,
parsed)`` with read-only arrays, under the digest of its bytes: of a scores
table, what :func:`read_truth` reads (ids, row lines, split and true
values), which :func:`read_scores` fills too but is not served from, since
it parses on every call; the sets table, filled by :func:`write_sets` too,
so reading back the sets just written parses nothing; and the envelope.  A
table's key also holds ``csv.field_size_limit()``, the one setting its
reading depends on.  A file whose bytes differ misses, a file that fails any
check leaves the slot as it was, and every read builds a new object from
what the slot holds, so a caller that changes its result changes no later
read.  There is one slot per kind, no cache across files, and no setting.
A table's values are judged by the rules of the library
(``RankingProblem``, ``ranks_within``, ``RankSets``), not again here: a
refusal carries in ``at`` the positions it refused in the array it was
given, and :func:`_located` names the file and the line of each, as
``<file>:<line>: <message>`` or, for a repeat, ``<file>: lines <a> and <b>:
<message>``.  The metrics JSON of
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
from dataclasses import asdict, dataclass, field, replace
from datetime import datetime, timezone
from io import StringIO
from itertools import compress, islice, repeat
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .conformal import RankSets
from .envelope import Envelope, MonteCarloMeta
from .errors import InvalidData, InvalidInput, RankCPError, TiesDetected
from .ranks import RA, RankingProblem, _first_repeat, _frozen, as_ranks, check_mode, ranks_within

SCORES_HEADER = ["id", "split", "output", "calib_rank", "true_value"]
SETS_HEADER = ["id", "lo", "hi"]
REPORT_HEADER = ["rep", "metric", "value", "arm"]


# The last file of each kind read (or, for sets, written) as (key, parsed):
# "scores" a _Scores, "sets" a RankSets and "envelope" an Envelope.  A file is
# stored only once every check on it has passed.
_slots: dict[str, tuple] = {}


def _hit(kind: str, key):
    """What the slot of ``kind`` holds where it was stored under ``key``, else ``None``."""
    held, parsed = _slots.get(kind, (None, None))
    return parsed if held == key else None


def _read_file(path, digests: dict | None) -> tuple[bytes, str]:
    """The bytes of ``path`` and their sha256, recorded in ``digests[path]`` where given.

    The one read of an input file: its reader parses these bytes, finds its
    slot by the digest, and the command's manifest records it.
    """
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise InvalidData(f"{path}: {exc}") from exc
    digest = hashlib.sha256(data).hexdigest()
    if digests is not None:
        digests[path] = digest
    return data, digest


def _read_table(path, digests: dict | None) -> tuple[bytes, tuple[str, int]]:
    """The bytes of a table file and the key of its slot: the digest and the field limit."""
    data, digest = _read_file(path, digests)
    return data, (digest, csv.field_size_limit())


def _write_file(path, data: bytes, digests: dict | None) -> str:
    """Write ``data`` to ``path``; their sha256, recorded in ``digests[path]`` where given.

    The one write of an output file: the command's manifest records the
    digest of the bytes written, so no payload is read back.
    """
    Path(path).write_bytes(data)
    digest = hashlib.sha256(data).hexdigest()
    if digests is not None:
        digests[path] = digest
    return digest


def _write_csv(path, header: list[str], columns, digests: dict | None) -> str:
    """Write a table: the header row, then one row across the equal-length columns.

    The text is built in memory and written at once (see :func:`_write_file`).
    """
    buffer = StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(zip(*columns, strict=True))
    return _write_file(path, buffer.getvalue().encode("utf-8"), digests)


def _read_csv(path, data: bytes, header: list[str], extra_columns: bool = False):
    """The columns of the table ``data`` by header name, and the file line of each row.

    ``path``, the file ``data`` was read from, is named in refusals.  Blank
    lines are skipped.  Every row has one cell per name in ``header``;
    with ``extra_columns`` the file may carry further columns after those,
    which are ignored.  A text that only ``csv.reader`` reads as it should
    (one holding a ``"``, a NUL, a line longer than ``csv.field_size_limit()``
    or rows of several widths or of the wrong width) goes through
    :func:`_reader_table`; any other is split whole, with no object per row.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
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


def write_scores(problem: RankingProblem, path, digests: dict | None = None) -> None:
    """Write a problem as a scores CSV (one row per item).

    ``digests``, where given, records the sha256 of the bytes written (see
    :func:`_write_file`); so do the other writers'.
    """
    _write_csv(path, SCORES_HEADER, [
        problem.item_ids,
        ["calib"] * problem.n + ["test"] * problem.m,
        problem.ranker_outputs.tolist(),
        problem.calib_ranks.tolist() + [""] * problem.m,
        [""] * problem.total if problem.truth is None else problem.truth.tolist(),
    ], digests)


class _Scores(NamedTuple):
    """What :func:`read_truth` reads of a scores table: read-only columns in file order."""

    ids: tuple[str, ...]
    lines: Sequence[int]
    is_calib: np.ndarray
    truth: np.ndarray


def _read_scores_table(path, data: bytes):
    """The columns and row lines of the scores CSV ``data``, and its split as a calib mask.

    The split of each row must be calib or test, and no id may be listed
    twice.  :func:`read_scores` and :func:`read_truth` read through here.
    """
    columns, lines = _read_csv(path, data, SCORES_HEADER)
    is_calib = np.array(_parse(path, columns["split"], lines, ("test", "calib").index,
                               "split must be calib|test, got {!r}"), dtype=bool)
    _check_unique_ids(path, columns["id"], lines)
    return columns, lines, is_calib


def read_scores(path, mode: str, digests: dict | None = None) -> RankingProblem:
    """Read a scores CSV into a problem, calib rows first; ``mode`` types the output column.

    ``digests``, where given, records the sha256 of the bytes read (see
    :func:`_read_file`).  The file is parsed on every call; a table with
    true values fills the scores slot that :func:`read_truth` is served from.
    The RA outputs are read here by the rank rule, so a bad one is a usage
    error; :class:`RankingProblem` applies every other rule of the table, and
    its refusal is a data error (a tie stays a ``TiesDetected``), each named
    at its line by :func:`_located`.
    """
    check_mode(mode)
    data, key = _read_table(path, digests)
    columns, lines, is_calib = _read_scores_table(path, data)
    ranks = np.array(columns["calib_rank"], dtype=object)
    outputs = np.asarray(_parse(path, columns["output"], lines, float,
                                "output {!r} is not a number"))
    if mode == RA:
        try:
            outputs = as_ranks(outputs, "RA ranker outputs", top=outputs.size)
        except InvalidInput as exc:
            raise _located(path, exc, lines, InvalidInput) from exc
    bad = np.flatnonzero(ranks.astype(bool) & ~is_calib)  # a cell is true unless empty
    if bad.size:
        raise InvalidData(f"{path}:{lines[bad[0]]}: test rows must leave calib_rank empty")
    # the lines are read only to locate a cell that is not an integer
    calib_ranks = _parse(path, ranks[is_calib].tolist(), compress(lines, is_calib),
                         int, "calib_rank {!r} is not an integer")
    if not calib_ranks:
        raise InvalidData(f"{path}: no calibration rows")
    truths = columns["true_value"]
    if any(truths) and not all(truths):
        raise InvalidData(f"{path}: true_value must be set on all rows or none")
    truth = _parse_truth(path, truths, lines) if all(truths) else None
    ids = columns["id"]
    calib, test = np.flatnonzero(is_calib), np.flatnonzero(~is_calib)
    order = np.concatenate([calib, test])
    try:
        problem = RankingProblem(
            n=calib.size,
            m=test.size,
            calib_ranks=np.asarray(calib_ranks),
            ranker_mode=mode,
            ranker_outputs=outputs[order],
            truth=None if truth is None else truth[order],
            ids=[ids[i] for i in order.tolist()],
        )
    except (InvalidInput, TiesDetected) as exc:
        # a position among the calib ranks is one among the first n of order too
        raise _located(path, exc, lines, order=order) from exc
    if truth is not None:
        _slots["scores"] = (key, _Scores(tuple(ids), lines, _frozen(is_calib), _frozen(truth)))
    return problem


def _located(path, exc: RankCPError, lines, kind=InvalidData, order=None) -> RankCPError:
    """The refusal ``exc`` of a rule, named at the lines of the rows it refused.

    The one place a refusal's positions, ``exc.at``, become lines: ``order``,
    where given, maps a position of the array the rule was given to its row
    in file order, and ``lines`` a row to its line.  One position gives
    ``<file>:<line>: <message>``, a repeat ``<file>: lines <a> and <b>:
    <message>``.  A tie stays a ``TiesDetected``; any other refusal becomes
    a ``kind``.
    """
    at = sorted(lines[i if order is None else order[i]] for i in exc.at)
    where = ": lines {} and {}".format(*at) if len(at) == 2 else "".join(f":{i}" for i in at)
    return (TiesDetected if isinstance(exc, TiesDetected) else kind)(f"{path}{where}: {exc}")


def _check_unique_ids(path, ids, lines) -> None:
    """Refuse a table that lists an item id twice, at the line of its second row."""
    if len(set(ids)) != len(ids):
        _, second = _first_repeat(ids)
        raise InvalidData(f"{path}:{lines[second]}: item id {ids[second]!r} "
                          "is listed more than once")


def _parse_truth(path, texts, lines) -> np.ndarray:
    """The true_value column as floats; every row must carry a number."""
    if "" in texts:
        raise InvalidData(
            f"{path}:{lines[texts.index('')]}: true_value required for evaluation")
    return np.asarray(_parse(path, texts, lines, float, "bad true_value"), dtype=float)


def read_truth(path, digests: dict | None = None) -> tuple[list[str], int, int, np.ndarray]:
    """ids, n, m, and the true pooled rank of each row from a scores CSV.

    Lenient companion to :func:`read_scores` for evaluation inputs: the
    output column is not typed or validated, but the split and the ids are
    read by the same rules, and every row must carry a true_value that is a
    number other than NaN, and no two may be equal.  A table in the scores
    slot is not parsed again, but its truth is ranked anew.
    """
    data, key = _read_table(path, digests)
    table = _hit("scores", key)
    if table is None:
        columns, lines, is_calib = _read_scores_table(path, data)
        truth = _parse_truth(path, columns["true_value"], lines)
        table = _Scores(tuple(columns["id"]), lines, _frozen(is_calib), _frozen(truth))
    try:
        true_ranks = ranks_within(table.truth, "truth")
    except (InvalidInput, TiesDetected) as exc:
        raise _located(path, exc, table.lines) from exc
    _slots["scores"] = (key, table)
    n = int(np.count_nonzero(table.is_calib))
    return list(table.ids), n, len(table.ids) - n, true_ranks


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
            # _numbers refuses a bool, so the bounds skip the rank rule's scan of a list
            lower=np.asarray(_numbers(doc["lower"], "lower")),
            upper=np.asarray(_numbers(doc["upper"], "upper")),
            param=None if doc.get("param") is None else _numbers(doc["param"], "param", float),
            mc_meta=meta,
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidData(f"malformed envelope document: {exc}") from exc


def write_json(doc: dict, path, digests: dict | None = None) -> None:
    _write_file(path, (json.dumps(doc, indent=2) + "\n").encode("utf-8"), digests)


def read_json(path, name: str = "document") -> dict:
    """The JSON object in ``path``; a file that is not UTF-8 JSON holding an object is refused.

    The refusal names the file, and ``name`` says what it should hold.
    """
    return _json_object(path, _read_file(path, None)[0], name)


def _json_object(path, data: bytes, name: str) -> dict:
    """:func:`read_json` of the bytes ``data`` read from ``path``."""
    try:  # the text as a file opened in text mode reads it, with \r\n and \r as \n
        doc = json.loads(data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n"))
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise InvalidData(f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise InvalidData(f"{path}: {name} must be a JSON object")
    return doc


def write_envelope(env: Envelope, path, digests: dict | None = None) -> None:
    write_json(envelope_to_doc(env), path, digests)


def read_envelope(path, digests: dict | None = None) -> Envelope:
    """Read an envelope JSON; ``digests`` as for :func:`read_scores`."""
    data, digest = _read_file(path, digests)
    env = _hit("envelope", digest)
    if env is None:
        env = envelope_from_doc(_json_object(path, data, "envelope"))
        env.lower.flags.writeable = env.upper.flags.writeable = False
        _slots["envelope"] = (digest, env)
    return replace(env, lower=env.lower.copy(), upper=env.upper.copy())


def write_sets(
    sets: RankSets,
    path,
    test_only: RankSets | None = None,
    top_candidates: np.ndarray | None = None,
    digests: dict | None = None,
) -> None:
    """Write prediction sets, one row per item, with optional target columns.

    ``test_only`` adds ``test_lo``/``test_hi``; ``top_candidates``, a boolean
    mask over the rows, adds a 0/1 ``top_candidate`` column.  The sets slot
    then holds ``sets`` under the digest of the bytes written, where
    :func:`read_sets` reads them back as written (see :func:`_reads_back`).
    """
    header = list(SETS_HEADER)
    columns = [sets.items, sets.lo.tolist(), sets.hi.tolist()]
    if test_only is not None:
        header += ["test_lo", "test_hi"]
        columns += [test_only.lo.tolist(), test_only.hi.tolist()]
    if top_candidates is not None:
        header += ["top_candidate"]
        columns.append(np.asarray(top_candidates, dtype=np.int64).tolist())
    digest = _write_csv(path, header, columns, digests)
    if _reads_back(sets):
        _slots["sets"] = ((digest, csv.field_size_limit()), RankSets(
            items=sets.items, lo=_frozen(sets.lo.copy()), hi=_frozen(sets.hi.copy())))


def _reads_back(sets: RankSets) -> bool:
    """Whether :func:`read_sets` gives back the ids and ends of ``sets`` as written.

    Not for a batch of sets, for ids that are not distinct strings (it reads
    strings, and refuses a repeat), or for a table it refuses, with an id
    longer than ``csv.field_size_limit()`` or, before Python 3.11, a NUL.
    """
    items, limit = sets.items, csv.field_size_limit()
    return not (sets.lo.ndim != 1 or set(map(type, items)) - {str} or len(set(items)) != len(items)
                or max(map(len, items), default=0) > limit or "\0" in "".join(items))


def read_sets(path, digests: dict | None = None) -> RankSets:
    """Read the id/lo/hi columns of a sets CSV (extra columns ignored).

    Item ids must be unique: a repeated id would be counted twice by the
    metrics.  ``digests`` as for :func:`read_scores`.
    """
    data, key = _read_table(path, digests)
    sets = _hit("sets", key)
    if sets is None:
        columns, lines = _read_csv(path, data, SETS_HEADER, extra_columns=True)
        lo = _parse(path, columns["lo"], lines, int, "lo {!r} is not an integer")
        hi = _parse(path, columns["hi"], lines, int, "hi {!r} is not an integer")
        try:  # int() gives no bool, so the columns skip the rank rule's scan of a list
            sets = RankSets(items=columns["id"], lo=_frozen(np.asarray(lo)),
                            hi=_frozen(np.asarray(hi)))
        except InvalidInput as exc:
            raise _located(path, exc, lines) from exc
        _check_unique_ids(path, sets.items, lines)
        _slots["sets"] = (key, sets)
    return RankSets(items=sets.items, lo=sets.lo.copy(), hi=sets.hi.copy())


# One item of the metrics JSON, laid out as json.dumps(doc, indent=2) lays it out
_EVAL_ITEM = '    {\n      "id": %s,\n      "true_rank": %d,\n      "covered": %s\n    }'


def write_evaluation(path, fcp: float, relative_length: float, ids: list[str],
                     true_ranks: list[int], covered: list[bool],
                     digests: dict | None = None) -> None:
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
    _write_file(path, (text + "\n").encode("utf-8"), digests)


def write_report(report, path, digests: dict | None = None) -> None:
    """Write an ``evaluate.ExperimentReport`` as rows (rep, metric, value, arm)."""
    reps, metrics, values, arms = list(zip(*report.to_rows())) or [()] * 4
    _write_csv(path, REPORT_HEADER, [reps, metrics, values, arms], digests)


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

    def write(self, payload_path, payload_sha256: str) -> None:
        """Write ``<payload_path>.manifest.json``; ``payload_sha256`` is the writer's digest."""
        doc = {
            **asdict(self),  # the fields, in the order they are declared
            "payload": str(payload_path),
            "payload_sha256": payload_sha256,
            "created_utc": datetime.now(timezone.utc).isoformat(),
        }
        write_json(doc, f"{payload_path}.manifest.json")
