"""File formats and the command-line surface."""

import argparse
import builtins
import cProfile
import csv
import errno
import gc
import hashlib
import json
import json.encoder
import math
import os
import pstats
import re
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from rankcp import (
    ENVELOPE_KINDS,
    Envelope,
    InfeasibleLevel,
    InsufficientSample,
    InvalidData,
    InvalidInput,
    TiesDetected,
    RankSets,
    RankingProblem,
    naive_envelope,
    theoretical_envelope,
)
from rankcp import cli, evaluate
from rankcp import envelope as renv
from rankcp import io as rio
from rankcp import ranks as rranks
from rankcp.cli import main
from rankcp.conformal import DEFAULT_ALPHA, DEFAULT_BETA, DEFAULT_DELTA, select_k
from rankcp.evaluate import DATA_NOISE_SD, SIGMOID, ExperimentConfig, run_experiment

DATA = Path(__file__).parent / "data"
SCORES_HEADER = "id,split,output,calib_rank,true_value\n"


def _report_rows(path) -> list[tuple[int, str, float, str]]:
    """The (rep, metric, value, arm) rows of a report CSV, read with ``csv``."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        assert next(reader) == ["rep", "metric", "value", "arm"]
        return [(int(rep), metric, float(value), arm) for rep, metric, value, arm in reader]


def _problem(mode="VA", with_truth=True):
    rng = np.random.default_rng(70)
    truth = rng.normal(size=9)
    outputs = truth + 0.2 * rng.normal(size=9)
    if mode == "RA":
        outputs = np.argsort(np.argsort(outputs)) + 1
    return RankingProblem(
        n=6, m=3,
        calib_ranks=np.argsort(np.argsort(truth[:6])) + 1,
        ranker_mode=mode, ranker_outputs=outputs,
        truth=truth if with_truth else None,
    )


@pytest.mark.parametrize("mode", ["RA", "VA"])
@pytest.mark.parametrize("with_truth", [True, False])
def test_scores_roundtrip(tmp_path, mode, with_truth):
    problem = _problem(mode, with_truth)
    path = tmp_path / "scores.csv"
    rio.write_scores(problem, path)
    back = rio.read_scores(path, mode)
    assert (back.n, back.m) == (problem.n, problem.m)
    assert np.array_equal(back.calib_ranks, problem.calib_ranks)
    assert np.array_equal(back.ranker_outputs, problem.ranker_outputs)
    assert back.item_ids == problem.item_ids
    if with_truth:
        assert np.array_equal(back.truth, problem.truth)
    else:
        assert back.truth is None


def test_envelope_roundtrip(tmp_path):
    import rankcp

    sims = rankcp.simulate_sorted_ranks(8, 12, 2000, seed=71)
    for env in (
        naive_envelope(8, 12),
        theoretical_envelope(8, 12, 0.1),
        rankcp.fit_quantile_envelope(sims, 0.1),
        rankcp.fit_linear_envelope(sims, 0.1),
        # a numpy integer seed ended the write in json's bare TypeError
        rankcp.build_envelope("quantile", 8, 12, 0.1, 2000, seed=np.int64(71)),
    ):
        path = tmp_path / f"{env.kind}.json"
        rio.write_envelope(env, path)
        back = rio.read_envelope(path)
        assert (back.n, back.m, back.delta, back.kind) == (
            env.n, env.m, env.delta, env.kind,
        )
        assert np.array_equal(back.lower, env.lower)
        assert np.array_equal(back.upper, env.upper)
        assert back.param == env.param
        if env.mc_meta is None:
            assert back.mc_meta is None
        else:
            assert back.mc_meta == env.mc_meta
        # serialization is stable byte for byte
        rio.write_envelope(back, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def _set_key(doc: dict, key: str, value) -> None:
    """Set ``doc``'s entry at the dotted ``key`` (``mc_meta.seed``) to ``value``."""
    *parents, last = key.split(".")
    for name in parents:
        doc = doc[name]
    doc[last] = value


@pytest.mark.parametrize("key, value, shown", [
    ("lower", [1.9, 2.5, 3.2], "1.9"),
    ("upper", [4, 5, True], "true"),
    ("n", 3.9, "3.9"),
    ("m", True, "true"),
    ("m", "4", '"4"'),
    ("mc_meta.K", 10.5, "10.5"),
    ("mc_meta.seed", 1.0, "1.0"),
    ("mc_meta.seed", None, "null"),
])
def test_envelope_document_rejects_non_integers(key, value, shown):
    # int() would truncate a JSON float and read true as 1
    doc = rio.envelope_to_doc(naive_envelope(3, 4))
    doc["mc_meta"] = {"K": 10, "seed": 1, "slack": 0.1}
    assert rio.envelope_to_doc(rio.envelope_from_doc(doc)) == doc
    _set_key(doc, key, value)
    with pytest.raises(InvalidData) as err:
        rio.envelope_from_doc(doc)
    assert str(err.value) == f"malformed envelope document: {key} must be an integer, got {shown}"


@pytest.mark.parametrize("key, index, value", [
    ("upper", 2, 2**70),
    ("lower", 0, -2**70),
    ("upper", 2, 2**63),
    ("lower", 0, -2**63 - 1),
    ("n", None, 2**70),
    ("mc_meta.K", None, 2**64),
])
def test_envelope_document_refuses_integers_beyond_int64(key, index, value):
    # the bounds read "bounds must be integers, got object" (or "got float64"
    # at 2**63), n = 2**70 read "lower/upper must have length n", and
    # mc_meta.K = 2**64 was loaded
    doc = rio.envelope_to_doc(naive_envelope(3, 4))
    doc["mc_meta"] = {"K": 10, "seed": 1, "slack": 0.1}
    if index is None:
        _set_key(doc, key, value)
    else:
        doc[key][index] = value
    with pytest.raises(InvalidData) as err:
        rio.envelope_from_doc(doc)
    assert str(err.value) == ("malformed envelope document: "
                              f"{key} must be an integer in [-2**63, 2**63), got {value}")


@pytest.mark.parametrize("key", ["delta", "param", "mc_meta.slack"])
@pytest.mark.parametrize("value, shown", [(False, "false"), (True, "true"), ("0.02", '"0.02"')])
def test_envelope_document_rejects_non_numbers(tmp_path, key, value, shown):
    # float() read false as 0.0, true as 1.0 and "0.02" as 0.02
    doc = rio.read_json(DATA / "golden_envelope.json")
    _set_key(doc, key, value)
    path = tmp_path / "env.json"
    rio.write_json(doc, path)
    with pytest.raises(InvalidData) as err:
        rio.read_envelope(path)
    assert str(err.value) == f"malformed envelope document: {key} must be a number, got {shown}"
    # a JSON integer is a number, read as a float
    _set_key(doc, key, 0)
    rio.write_json(doc, path)
    env = rio.read_envelope(path)
    read = env.mc_meta.slack if key == "mc_meta.slack" else getattr(env, key)
    assert type(read) is float and read == 0.0


def test_predict_refuses_an_envelope_whose_delta_is_false(tmp_path, capsys):
    # "delta": false was read as 0.0: predict exited 0 with a smaller k, as
    # though the envelope held with certainty
    doc = rio.read_json(DATA / "golden_envelope.json")
    bad = tmp_path / "bad.json"
    rio.write_json({**doc, "delta": False}, bad)
    out = tmp_path / "s.csv"
    assert main(["predict", "--scores", str(DATA / "golden_scores.csv"),
                 "--envelope", str(bad), "--alpha", "0.25", "--mode", "VA",
                 "--out", str(out)]) == 4
    assert ("data error: malformed envelope document: delta must be a number, got false"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("key, value, message", [
    ("param", math.nan, "param must be finite, got nan"),
    ("param", math.inf, "param must be finite, got inf"),
    ("param", -math.inf, "param must be finite, got -inf"),
    ("mc_meta.slack", math.nan, "mc_meta.slack must be finite and nonnegative, got nan"),
    ("mc_meta.slack", -0.1, "mc_meta.slack must be finite and nonnegative, got -0.1"),
    ("mc_meta.slack", math.inf, "mc_meta.slack must be finite and nonnegative, got inf"),
    ("mc_meta.K", 0, "need mc_meta.K >= 1, got mc_meta.K=0"),
])
def test_envelope_document_refuses_values_with_no_meaning(tmp_path, capsys, key, value,
                                                           message):
    # each was loaded, and predict exited 0 on it
    doc = rio.read_json(DATA / "golden_envelope.json")
    _set_key(doc, key, value)
    bad = tmp_path / "bad.json"
    rio.write_json(doc, bad)  # json writes NaN, Infinity and -Infinity
    with pytest.raises(InvalidData) as err:
        rio.read_envelope(bad)
    assert str(err.value) == f"malformed envelope document: {message}"
    out = tmp_path / "s.csv"
    assert main(["predict", "--scores", str(DATA / "golden_scores.csv"),
                 "--envelope", str(bad), "--alpha", "0.25", "--mode", "VA",
                 "--out", str(out)]) == 4
    assert f"data error: malformed envelope document: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_sets_roundtrip(tmp_path):
    items = [f"t{i}" for i in range(5)]
    sets = RankSets(items=items, lo=np.arange(1, 6), hi=np.arange(4, 9))
    path = tmp_path / "sets.csv"
    rio.write_sets(sets, path)
    assert rio.read_sets(path) == sets
    # extra columns are carried but do not disturb the core round trip
    rio.write_sets(
        sets, path,
        test_only=RankSets(items=items, lo=[1] * 5, hi=[2] * 5, kind="test_only"),
        top_candidates=np.array([True, False, True, False, False]),
    )
    assert rio.read_sets(path) == sets
    assert path.read_text().splitlines()[1:3] == ["t0,1,4,1,2,1", "t1,2,5,1,2,0"]


def test_read_sets_error_messages(tmp_path):
    path = tmp_path / "sets.csv"
    for text, message in (
        ("x,lo,hi\nt1,1,2\n", f"{path}: header must start with id,lo,hi"),
        ("id,lo,hi\nt0,1,2\n\nt1,x,2\n", f"{path}:4: lo 'x' is not an integer"),
        ("id,lo,hi\nt1,1,2.5\n", f"{path}:2: hi '2.5' is not an integer"),
        # a set that breaks 1 <= lo <= hi was refused without its line
        ("id,lo,hi\nt1,3,2\n", f"{path}:2: need 1 <= lo <= hi, got [3, 2] for item 't1'"),
        ("id,lo,hi\nt0,1,2\n\nt1,0,2\n",
         f"{path}:4: need 1 <= lo <= hi, got [0, 2] for item 't1'"),
        # was named at its second line only, "item id 't1' is listed more than once"
        ("id,lo,hi\nt1,1,2\nt2,1,2\n\nt1,1,2\n",
         f"{path}: lines 2 and 5: item ids must be unique, got 't1' twice"),
        # was numpy's "Python int too large to convert to C long"
        ("id,lo,hi\nt1,1,2\nt2,1,99999999999999999999\n",
         f"{path}:3: ranks must be below 2**63, got 99999999999999999999 for item 't2'"),
    ):
        path.write_text(text)
        with pytest.raises(InvalidData) as err:
            rio.read_sets(path)
        assert str(err.value) == message


@pytest.mark.parametrize("reader, body, message", [
    ("scores", "id,split,output,rank,true_value\nc1,calib,0.1,1,\n",
     "{path}: header must be id,split,output,calib_rank,true_value"),
    ("scores", "", "{path}: empty file"),
    ("scores", SCORES_HEADER + "c1,calib,0.1,1,\n\nt1,test,0.2,\n",
     "{path}:4: wrong number of columns"),
    ("scores", SCORES_HEADER + "c1,calib,0.1,1,,x\n", "{path}:2: wrong number of columns"),
    ("scores", SCORES_HEADER + "c1,calib,0.1,1,\nt1,train,0.2,,\n",
     "{path}:3: split must be calib|test, got 'train'"),
    ("scores", SCORES_HEADER + "c1,calib,0.1,1,\n\nt1,test,0.2,1,\n",
     "{path}:4: test rows must leave calib_rank empty"),
    ("scores", SCORES_HEADER + "c1,calib,0.1,1.5,\nt1,test,0.2,,\n",
     "{path}:2: calib_rank '1.5' is not an integer"),
    ("scores", SCORES_HEADER + "c1,calib,0.1,1,\nt1,test,abc,,\n",
     "{path}:3: output 'abc' is not a number"),
    # a VA output that is not finite was refused without its line, and
    # then without its value
    ("scores", SCORES_HEADER + "c1,calib,0.1,1,\n\nt1,test,inf,,\n",
     "{path}:4: VA ranker outputs must be finite, got inf"),
    ("scores", SCORES_HEADER + "c1,calib,nan,1,\nt1,test,-inf,,\n",
     "{path}:2: VA ranker outputs must be finite, got nan"),
    ("scores", SCORES_HEADER + "c1,calib,0.1,1,\nt1,test,1e400,,\n",
     "{path}:3: VA ranker outputs must be finite, got inf"),
    ("scores", SCORES_HEADER + "c1,calib,0.1,1,0.5\nt1,test,0.2,,\n",
     "{path}: true_value must be set on all rows or none"),
    ("scores", SCORES_HEADER + "t1,test,0.1,,\nt2,test,0.2,,\n", "{path}: no calibration rows"),
    # a repeated id was named at its second line only, "item id 'c1' is
    # listed more than once"; RankingProblem refuses it by ranks.unique_ids,
    # whose positions io maps back to file order
    ("scores", SCORES_HEADER + "c1,calib,0.1,1,\nc1,test,0.2,,\n",
     "{path}: lines 2 and 3: item ids must be unique, got 'c1' twice"),
    ("scores", SCORES_HEADER + "t1,test,0.2,,\nc1,calib,0.1,1,\n\nt1,test,0.3,,\n",
     "{path}: lines 2 and 5: item ids must be unique, got 't1' twice"),
    # a calib_rank that makes no permutation of 1..n was refused without its
    # line: the first calib row, in file order, outside [1, n], or else both
    # rows of the first repeat
    ("scores", SCORES_HEADER + "c1,calib,0.1,1,\nc2,calib,0.3,3,\nt1,test,0.2,,\n",
     "{path}:3: calib_ranks must be a permutation of 1..n, got 3 outside [1, 2]"),
    ("scores", SCORES_HEADER + "c1,calib,0.1,1,\n\nc2,calib,0.3,5,\nt1,test,0.2,,\n",
     "{path}:4: calib_ranks must be a permutation of 1..n, got 5 outside [1, 2]"),
    ("scores", SCORES_HEADER + "c1,calib,0.1,1,\nc2,calib,0.3,1,\nt1,test,0.2,,\n",
     "{path}: lines 2 and 3: calib_ranks must be a permutation of 1..n, got 1 twice"),
    ("scores", SCORES_HEADER + "c1,calib,0.1,2,\nt1,test,0.2,,\nc2,calib,0.3,2,\n"
     "c3,calib,0.4,1,\n", "{path}: lines 2 and 4: calib_ranks must be a permutation of "
     "1..n, got 2 twice"),
    ("scores", SCORES_HEADER + "c1,calib,0.1,2,\nt1,test,0.2,,\nc2,calib,0.3,2,\n"
     "c3,calib,0.4,9,\n",
     "{path}:5: calib_ranks must be a permutation of 1..n, got 9 outside [1, 3]"),
    ("scores", SCORES_HEADER + "c1,calib,0.1,0,\nc2,calib,0.3,1,\nc3,calib,0.4,1,\n",
     "{path}:2: calib_ranks must be a permutation of 1..n, got 0 outside [1, 3]"),
    # was "calib_ranks must be below 2**63", with no line
    ("scores", SCORES_HEADER + "c1,calib,0.1,99999999999999999999,\nt1,test,0.2,,\n",
     "{path}:2: calib_ranks must be below 2**63, got 99999999999999999999"),
    ("truth", SCORES_HEADER + "c1,calib,0.1,1,0.5\n\nt1,test,0.2,,\n",
     "{path}:4: true_value required for evaluation"),
    ("truth", SCORES_HEADER + "c1,calib,0.1,1,0.5\nt1,test,0.2,,x\n",
     "{path}:3: bad true_value"),
    ("truth", SCORES_HEADER + "c1,calib,0.1,1,0.5\nc1,test,0.2,,0.7\n",
     "{path}: lines 2 and 3: item ids must be unique, got 'c1' twice"),
    # read_scores refuses the table and leaves the scores slot as it was, so
    # read_truth after it parses the table and refuses it in the same words
    ("scores,truth", SCORES_HEADER + "t1,test,0.2,,0.7\nc1,calib,0.1,1,0.5\nt1,test,0.3,,0.2\n",
     "{path}: lines 2 and 4: item ids must be unique, got 't1' twice"),
    # a bad or NaN true_value: a traceback, or a NaN ranked last, before
    ("scores", SCORES_HEADER + "c1,calib,0.1,1,0.5\nt1,test,0.2,,x\n",
     "{path}:3: bad true_value"),
    ("scores", SCORES_HEADER + "c1,calib,0.1,1,0.5\n\nt1,test,0.2,,nan\n",
     "{path}:4: truth contain NaN, which has no rank"),
    ("truth", SCORES_HEADER + "c1,calib,0.1,1,NaN\nt1,test,0.2,,0.7\n",
     "{path}:2: truth contain NaN, which has no rank"),
    # the split was not read: evaluate counted a 'bogus' row as a test item
    ("truth", SCORES_HEADER + "c1,calib,0.1,1,0.5\n\nt1,bogus,0.2,,0.7\n",
     "{path}:4: split must be calib|test, got 'bogus'"),
])
def test_read_scores_error_messages(tmp_path, reader, body, message):
    # one defect per file; the message names the file and, where the defect
    # sits in one row, the line (blank lines count)
    path = tmp_path / "scores.csv"
    path.write_text(body)
    for name in reader.split(","):
        read = rio.read_truth if name == "truth" else lambda p: rio.read_scores(p, "VA")
        with pytest.raises(InvalidData) as err:
            read(path)
        assert str(err.value) == message.format(path=path)


@pytest.mark.parametrize("body, lines, what", [
    ("c1,calib,0.1,1,\nt1,test,0.1,,\n", (2, 3), "VA ranker outputs"),
    # the first repeat, not the first pair in sorted order
    ("c1,calib,0.5,1,\nt1,test,0.2,,\nc2,calib,0.3,2,\n\nt2,test,0.2,,\nt3,test,0.5,,\n",
     (3, 6), "VA ranker outputs"),
    ("c1,calib,0.1,1,7\nc2,calib,0.3,2,1\nt1,test,0.2,,2\nt2,test,0.4,,7\n",
     (2, 5), "truth"),
])
def test_read_scores_locates_ties(tmp_path, body, lines, what):
    path = tmp_path / "scores.csv"
    path.write_text(SCORES_HEADER + body)
    with pytest.raises(TiesDetected) as err:
        rio.read_scores(path, "VA")
    assert str(err.value) == (f"{path}: lines {lines[0]} and {lines[1]}: {what} "
                              "contain exact duplicates; see break_ties")


def test_read_undecodable_file(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_bytes(SCORES_HEADER.encode() + b"c1,calib,0.1,1,\xff\n")
    for read in (rio.read_truth, rio.read_sets, lambda p: rio.read_scores(p, "VA")):
        with pytest.raises(InvalidData, match=f"^{path}: 'utf-8' codec can't decode"):
            read(path)


_GOLDEN_ENVELOPE = json.loads((DATA / "golden_envelope.json").read_text())


@pytest.mark.parametrize("flag, body, message", [
    ("envelope", b"[]", "{path}: envelope must be a JSON object"),
    ("envelope", b'"x"', "{path}: envelope must be a JSON object"),
    ("envelope", b"\xff{}", "{path}: 'utf-8' codec can't decode byte 0xff in position 0"),
    ("envelope", json.dumps({**_GOLDEN_ENVELOPE, "mc_meta": "abc"}).encode(),
     'malformed envelope document: mc_meta must be an object, got "abc"'),
    ("config", b'"x"', "{path}: config must be a JSON object"),
    ("config", b"\xff{}", "{path}: 'utf-8' codec can't decode byte 0xff in position 0"),
], ids=["envelope-list", "envelope-string", "envelope-not-utf8", "envelope-mc_meta-string",
        "config-string", "config-not-utf8"])
def test_json_documents_that_are_not_objects_are_refused(tmp_path, capsys, flag, body,
                                                         message):
    # the envelope cases and the undecodable config ended in an AttributeError
    # or a UnicodeDecodeError traceback
    path = tmp_path / "doc.json"
    path.write_bytes(body)
    out = tmp_path / "out.csv"
    argv = (["predict", "--scores", str(GOLDEN_INPUTS["scores"]), "--envelope", str(path),
             "--alpha", "0.25", "--mode", "VA"] if flag == "envelope"
            else ["synth", "--n", "5", "--m", "5", "--config", str(path)])
    assert main(argv + ["--out", str(out)]) == 4
    assert capsys.readouterr().err.startswith(
        f"rankcp: data error: {message.format(path=path)}")
    assert not out.exists()


def _table_outcome(read):
    """The columns (as lists) and lines ``read()`` gives, or its InvalidData message."""
    try:
        columns, lines = read()
    except InvalidData as exc:
        return str(exc)
    return {name: list(cells) for name, cells in columns.items()}, list(lines)


def _reader_outcome(path, header, extra_columns):
    """``rio._read_csv``'s result by the csv.reader loop over the open file."""
    with open(path, newline="", encoding="utf-8") as fh:
        return _table_outcome(lambda: rio._reader_table(path, fh, header, extra_columns))


_PLAIN_CELLS = st.text(st.sampled_from("ab1 .\u00e9"), max_size=3)
# a quote, the line ends, NUL, and line ends that only str.splitlines knows
_ODD_CELLS = st.text(st.sampled_from('a,"\r\n\x00\x0b\x1c\x85\u2028 '), max_size=4)


@st.composite
def _tables(draw):
    """Texts of a few lines, most with the id,lo,hi header and rows of one width."""
    header = draw(st.sampled_from(["id,lo,hi", "id,lo,hi", " id ,lo, hi", "id,lo,hi,x",
                                   "id,lo", ""]))
    cells = st.one_of(*[_PLAIN_CELLS] * 6, _ODD_CELLS)
    width = draw(st.sampled_from([3, 3, 4, 2]))
    widths = st.sampled_from([width] * 6 + [0, 2, 3, 4])
    rows = draw(st.lists(widths.flatmap(lambda w: st.lists(cells, min_size=w, max_size=w)),
                         max_size=6))
    lines = [header, *map(",".join, rows)]
    ends = draw(st.lists(st.sampled_from(["\n", "\n", "\r\n", "\r"]),
                         min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    return text[:-len(ends[-1])] if draw(st.booleans()) else text


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_tables(), extra_columns=st.booleans(),
       limit=st.sampled_from([4, 131072, 131072]))
@example(text="", extra_columns=False, limit=131072)
@example(text="\n", extra_columns=False, limit=131072)
@example(text="id,lo,hi\r\n\r\nt1,1,2\rt2,2,3", extra_columns=False, limit=131072)
@example(text="id,lo,hi\nt1,1,2\nt2,2\n", extra_columns=True, limit=131072)
@example(text="id,lo,hi\nt1,1,2,a\nt2,2,3,b,c\n", extra_columns=True, limit=131072)
@example(text="id,lo,hi\nt1,1,12345\n", extra_columns=False, limit=4)
def test_tables_are_read_as_csv_reader_reads_them(tmp_path, text, extra_columns, limit):
    # the whole-text split against the csv.reader loop, on the same file: the
    # same columns, the same lines and the same refusal; a limit of 4 puts
    # some lines, and some cells, over csv.field_size_limit()
    path = tmp_path / "table.csv"
    path.write_bytes(text.encode("utf-8"))
    header = list(rio.SETS_HEADER)
    old = csv.field_size_limit(limit)
    try:
        got = _table_outcome(lambda: rio._read_csv(path, path.read_bytes(), header,
                                                   extra_columns))
        assert got == _reader_outcome(path, header, extra_columns)
    finally:
        csv.field_size_limit(old)


@pytest.mark.parametrize("text, extra_columns", [
    ("id,lo,hi\r\nt1,1,2\r\nt2,2,3\r\n", False),
    # blank lines are counted, a bare \r ends a line, the last has no end
    ("id ,lo,hi\n\nt1,1,2\r\r\nt2,2,3\rt3,3,4", False),
    ("id,lo,hi,test_lo\nt1,1,2,1\nt2,2,3,1\n", True),
    ("id,lo,hi\n\n", False),
    ("id,lo,hi\n,,\n", False),
])
def test_plain_tables_are_split_whole(monkeypatch, tmp_path, text, extra_columns):
    # no quote, no NUL, no over-long line, one width: csv.reader is not reached
    path = tmp_path / "table.csv"
    path.write_bytes(text.encode("utf-8"))
    expected = _reader_outcome(path, list(rio.SETS_HEADER), extra_columns)
    assert not isinstance(expected, str)

    def refuse(*args):
        raise AssertionError("csv.reader read a plain table")

    monkeypatch.setattr(rio, "_reader_table", refuse)
    assert _table_outcome(lambda: rio._read_csv(path, path.read_bytes(), list(rio.SETS_HEADER),
                                                 extra_columns)) == expected


def test_reading_a_table_starts_no_garbage_collection(tmp_path):
    # csv.reader made a list per row: a 4000-row file started 11 gen-0
    # collections (from gc.get_stats()), each walking every young container
    path = tmp_path / "scores.csv"
    rio.write_scores(evaluate.synthesize_problem(SIGMOID, 2000, 2000, 0.07, "VA", 3), path)
    assert gc.isenabled()
    gc.collect()
    before = gc.get_stats()[0]["collections"]
    ids, n, m, _ = rio.read_truth(path)
    assert gc.get_stats()[0]["collections"] == before
    assert (len(ids), n, m) == (4000, 2000, 2000)


# ids that csv.writer quotes: a comma, a quote, a line end, edge spaces
ODD_IDS = ["a,b", 'say "hi"', "two\nlines", "  padded  ", "cr\r\nlf"]


def test_quoted_cells_round_trip(tmp_path):
    plain = evaluate.synthesize_problem(SIGMOID, 30, 20, 0.07, "VA", 4)
    ids = [f"{ODD_IDS[i % len(ODD_IDS)]}{i}" for i in range(plain.total)]
    odd = RankingProblem(n=plain.n, m=plain.m, calib_ranks=plain.calib_ranks,
                         ranker_mode="VA", ranker_outputs=plain.ranker_outputs,
                         truth=plain.truth, ids=ids)
    scores = tmp_path / "odd.csv"
    rio.write_scores(odd, scores)
    assert '"' in scores.read_text(encoding="utf-8")
    back = rio.read_scores(scores, "VA")
    assert back.item_ids == ids
    assert np.array_equal(back.ranker_outputs, plain.ranker_outputs)
    truth_ids, n, m, true_ranks = rio.read_truth(scores)
    assert (truth_ids, n, m) == (ids, plain.n, plain.m)
    sets = RankSets(items=ids, lo=np.arange(1, 51), hi=np.arange(1, 51) + 3)
    rio.write_sets(sets, tmp_path / "sets.csv")
    assert rio.read_sets(tmp_path / "sets.csv") == sets

    # predict and evaluate give the sets and metrics of the plain ids
    rio.write_scores(plain, tmp_path / "plain.csv")
    rio.write_envelope(theoretical_envelope(30, 20, 0.05), tmp_path / "env.json")
    results = {}
    for name in ("plain", "odd"):
        scores, out = tmp_path / f"{name}.csv", tmp_path / f"{name}_sets.csv"
        assert main(["predict", "--scores", str(scores), "--envelope",
                     str(tmp_path / "env.json"), "--alpha", "0.2", "--mode", "VA",
                     "--out", str(out)]) == 0
        metrics = tmp_path / f"{name}.json"
        assert main(["evaluate", "--sets", str(out), "--truth", str(scores),
                     "--out", str(metrics)]) == 0
        results[name] = rio.read_sets(out), json.loads(metrics.read_text())
    (plain_sets, plain_doc), (odd_sets, odd_doc) = results["plain"], results["odd"]
    assert odd_sets.items == ids[plain.n:]
    assert np.array_equal(odd_sets.lo, plain_sets.lo)
    assert np.array_equal(odd_sets.hi, plain_sets.hi)
    for doc in (plain_doc, odd_doc):
        for item in doc["items"]:
            del item["id"]
    assert odd_doc == plain_doc


def test_a_cell_over_the_field_limit_is_refused(tmp_path):
    # csv.reader refuses a cell of more than csv.field_size_limit() characters;
    # the whole-text split must not take it, quoted or not
    path = tmp_path / "scores.csv"
    limit = csv.field_size_limit()
    for cell in ("x" * (limit + 1), '"' + "x" * (limit + 1) + '"'):
        path.write_text(SCORES_HEADER + f"c1,calib,0.1,1,\n{cell},test,0.2,,\n")
        for read in (rio.read_truth, rio.read_sets, lambda p: rio.read_scores(p, "VA")):
            with pytest.raises(InvalidData) as err:
                read(path)
            assert str(err.value) == f"{path}: field larger than field limit ({limit})"
    # a line over the limit whose cells are all short is read
    path.write_text("id,lo,hi\nt1,1,2," + ",".join(["9"] * limit) + "\n")
    assert rio.read_sets(path) == RankSets(items=["t1"], lo=[1], hi=[2])


# --------------------------------------------------------------------------
# the slots: one per file kind, keyed by the sha256 of the file's bytes


def _outcome(read):
    """What ``read()`` returns, or the type and message of its refusal."""
    try:
        return read()
    except (InvalidData, InvalidInput, TiesDetected) as exc:
        return type(exc), str(exc)


def _fresh(read):
    """:func:`_outcome` of ``read`` with every slot empty: a parse of the file's bytes."""
    rio._slots.clear()
    return _outcome(read)


def _parsing_refused(monkeypatch):
    """Make any parse of a table or a document fail, so that only a slot can serve a read."""
    def refuse(*args, **kwargs):
        raise AssertionError("a file was parsed")

    for name in ("_read_csv", "_json_object"):
        monkeypatch.setattr(rio, name, refuse)


def _state(result):
    """A read's result in terms ``==`` compares: arrays as lists, dtypes and writable flags.

    A problem gives every stored field, an envelope its document, and
    ``read_truth`` its ids, sizes and ranks; a refusal or a set is as it is.
    """
    if isinstance(result, Envelope):
        return rio.envelope_to_doc(result)
    if isinstance(result, RankingProblem):
        arrays = {name: getattr(result, name) for name in (
            "calib_ranks", "ranker_outputs", "truth", "sorted_outputs", "predicted_ranks",
            "test_order", "true_ranks")}
        return (result.n, result.m, result.ranker_mode, result.item_ids,
                {name: None if arr is None else (arr.tolist(), arr.dtype.str, arr.flags.writeable)
                 for name, arr in arrays.items()})
    if isinstance(result, tuple) and len(result) == 4:
        ids, n, m, ranks = result
        return ids, n, m, ranks.tolist(), ranks.dtype.str
    return result


# ids that csv.writer quotes and leaves alone: a comma, a quote, line ends,
# edge spaces, non-ASCII, and characters that only str.splitlines ends a line at
_ID_CHARS = st.sampled_from('ab,"\r\n é \x85')


@st.composite
def _scores_files(draw):
    """A scores CSV of distinct ids and true values, rows shuffled, and its mode."""
    n, m = draw(st.integers(1, 5)), draw(st.integers(0, 5))
    total = n + m
    mode = draw(st.sampled_from(["RA", "VA"]))
    ids = draw(st.lists(st.text(_ID_CHARS, max_size=4), min_size=total, max_size=total,
                        unique=True))
    values = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
    truth = draw(st.lists(values, min_size=total, max_size=total, unique=True))
    outputs = (draw(st.lists(st.integers(1, total), min_size=total, max_size=total))
               if mode == "RA" else
               draw(st.lists(values, min_size=total, max_size=total, unique=True)))
    calib_ranks = draw(st.permutations(range(1, n + 1))) + [""] * m
    rows = [[ids[i], "calib" if i < n else "test", outputs[i], calib_ranks[i], truth[i]]
            for i in range(total)]
    rows = draw(st.permutations(rows))
    buffer = StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(rio.SCORES_HEADER)
    writer.writerows(rows)
    return buffer.getvalue().encode("utf-8"), mode


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(table=_scores_files(), truth_first=st.booleans())
def test_a_scores_slot_hit_is_a_fresh_parse(tmp_path, table, truth_first):
    # read_truth after read_scores or after read_truth parses nothing, and
    # read_scores after either parses anew.  Each gives what a parse of the
    # same bytes gives.
    data, mode = table
    path = tmp_path / "scores.csv"
    path.write_bytes(data)
    rio._slots.clear()
    first = _outcome(lambda: rio.read_truth(path) if truth_first else rio.read_scores(path, mode))
    with pytest.MonkeyPatch.context() as patch:
        _parsing_refused(patch)
        hit = _outcome(lambda: rio.read_truth(path))
    scores = _outcome(lambda: rio.read_scores(path, mode))
    fresh = [_fresh(lambda: rio.read_truth(path)), _fresh(lambda: rio.read_scores(path, mode))]
    assert _state(first) == _state(fresh[0 if truth_first else 1])
    assert _state(hit) == _state(fresh[0])
    assert _state(scores) == _state(fresh[1])


def test_a_predict_and_evaluate_rank_the_truth_once(tmp_path, monkeypatch):
    # read_scores's problem ranks the truth, and read_truth answers evaluate
    # from the scores slot that read_scores filled (it ranked the truth again)
    rank_rows, ranked = rranks._rank_rows, []

    def counted(arr, name):
        ranked.append(name)
        return rank_rows(arr, name)

    monkeypatch.setattr(rranks, "_rank_rows", counted)
    sets, metrics = tmp_path / "sets.csv", tmp_path / "metrics.json"
    assert main(RUNS["predict"] + ["--out", str(sets)]) == 0
    assert main(["evaluate", "--sets", str(sets), "--truth", str(GOLDEN_INPUTS["truth"]),
                 "--out", str(metrics)]) == 0
    assert ranked.count("truth") == 1


@st.composite
def _written_sets(draw):
    """Sets of ids that need quoting (repeats and a NUL now and then), and target columns."""
    count = draw(st.integers(0, 6))
    chars = st.one_of(*[_ID_CHARS] * 20, st.just("\x00"))
    ids = draw(st.lists(st.text(chars, max_size=4), min_size=count, max_size=count,
                        unique=draw(st.booleans()) or count < 2))
    lo = draw(st.lists(st.integers(1, 9), min_size=count, max_size=count))
    hi = [a + draw(st.integers(0, 3)) for a in lo]
    kind = draw(st.sampled_from(["full", "test_only"]))
    extra = {}
    if draw(st.booleans()):
        extra["test_only"] = RankSets(items=ids, lo=lo, hi=hi, kind="test_only")
    if draw(st.booleans()):
        extra["top_candidates"] = np.array([a <= 3 for a in lo], dtype=bool)
    return RankSets(items=ids, lo=lo, hi=hi, kind=kind), extra


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(written=_written_sets())
def test_reading_the_sets_just_written_is_a_fresh_parse(tmp_path, written):
    # write_sets leaves its table in the sets slot; reading it back parses
    # nothing where the ids are distinct and hold no NUL, and gives what a
    # parse of the file gives (a refusal of repeated ids included)
    sets, extra = written
    path = tmp_path / "sets.csv"
    rio.write_sets(sets, path, **extra)
    served = len(set(sets.items)) == len(sets) and "\x00" not in "".join(sets.items)
    with pytest.MonkeyPatch.context() as patch:
        if served:
            _parsing_refused(patch)
        hit = _outcome(lambda: rio.read_sets(path))
    fresh = _fresh(lambda: rio.read_sets(path))
    assert hit == fresh
    if served:
        assert hit == RankSets(items=sets.items, lo=sets.lo, hi=sets.hi)
        assert hit.kind == "full" and hit.lo.flags.writeable and hit.hi.flags.writeable


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(n=st.integers(1, 30), m=st.integers(1, 30), delta=st.floats(0.01, 0.5),
       kind=st.sampled_from(["naive", "theoretical", "golden"]))
def test_reading_an_envelope_twice_is_a_fresh_parse(tmp_path, n, m, delta, kind):
    path = tmp_path / "env.json"
    if kind == "golden":
        path.write_bytes((DATA / "golden_envelope.json").read_bytes())
    else:
        env = naive_envelope(n, m) if kind == "naive" else theoretical_envelope(n, m, delta)
        rio.write_envelope(env, path)
    rio._slots.clear()
    first = rio.read_envelope(path)
    with pytest.MonkeyPatch.context() as patch:
        _parsing_refused(patch)
        patch.setattr(rio, "envelope_from_doc", None)
        hit = rio.read_envelope(path)
    fresh = _fresh(lambda: rio.read_envelope(path))
    assert rio.envelope_to_doc(first) == rio.envelope_to_doc(hit) == rio.envelope_to_doc(fresh)
    assert hit.mc_meta == fresh.mc_meta
    assert hit.mc_meta is None or hit.mc_meta is not first.mc_meta
    assert hit.lower.flags.writeable and hit.upper.flags.writeable


def test_a_changed_result_changes_no_later_read(tmp_path):
    scores, sets_path, env_path = (tmp_path / name for name in
                                   ("scores.csv", "sets.csv", "env.json"))
    problem = _problem("VA")
    rio.write_scores(problem, scores)
    rio._slots.clear()
    first = rio.read_scores(scores, "VA")
    want, want_truth = _state(first), _state(rio.read_truth(scores))
    first.calib_ranks[:] = 1
    first.ranker_outputs[:] = 0.0
    first.truth[:] = 0.0
    first.ids[0] = "changed"
    ids, _, _, ranks = rio.read_truth(scores)
    ids[0], ranks[:] = "changed", 1
    assert _state(rio.read_scores(scores, "VA")) == want
    assert _state(rio.read_truth(scores)) == want_truth

    written = RankSets(items=["a", "b"], lo=[1, 2], hi=[3, 4])
    rio.write_sets(written, sets_path)
    written.lo[:] = 2
    written.items[0] = "changed"
    got = rio.read_sets(sets_path)
    assert got == RankSets(items=["a", "b"], lo=[1, 2], hi=[3, 4])
    got.lo[:], got.items[1] = 3, "changed"
    assert rio.read_sets(sets_path) == RankSets(items=["a", "b"], lo=[1, 2], hi=[3, 4])

    env_path.write_bytes((DATA / "golden_envelope.json").read_bytes())
    env = rio.read_envelope(env_path)
    want = rio.envelope_to_doc(env)
    env.lower[:] = 1
    env.mc_meta.K = 5
    env.param = 0.0
    assert rio.envelope_to_doc(rio.read_envelope(env_path)) == want


def test_a_file_rewritten_at_the_same_path_is_read_anew(tmp_path):
    scores, sets_path, env_path = (tmp_path / name for name in
                                   ("scores.csv", "sets.csv", "env.json"))
    for mode in ("VA", "RA"):
        rio.write_scores(_problem(mode), scores)
        assert rio.read_truth(scores)[3].tolist() == _problem(mode).true_ranks.tolist()
        back = rio.read_scores(scores, mode)
        assert back.ranker_outputs.tolist() == _problem(mode).ranker_outputs.tolist()
    rio.write_sets(RankSets(items=["a"], lo=[1], hi=[2]), sets_path)
    sets_path.write_text("id,lo,hi\na,2,3\n")
    assert rio.read_sets(sets_path) == RankSets(items=["a"], lo=[2], hi=[3])
    for n in (3, 4):
        rio.write_envelope(naive_envelope(n, 2), env_path)
        assert rio.read_envelope(env_path).n == n


def test_a_field_limit_lowered_after_a_read_refuses_the_table(tmp_path):
    # a table's slot is keyed by the field limit too: a cell over the limit
    # in force is refused, however the table was read before
    path = tmp_path / "sets.csv"
    rio.write_sets(RankSets(items=["x" * 10], lo=[1], hi=[2]), path)
    assert rio.read_sets(path).items == ["x" * 10]
    old = csv.field_size_limit(4)
    try:
        with pytest.raises(InvalidData, match="field larger than field limit"):
            rio.read_sets(path)
    finally:
        csv.field_size_limit(old)
    assert rio.read_sets(path).items == ["x" * 10]


@pytest.mark.parametrize("name, text, read, message", [
    ("scores.csv", SCORES_HEADER + "c1,calib,0.5,1,1\nt1,test,x,,2\n",
     lambda p: rio.read_scores(p, "VA"), "{path}:3: output 'x' is not a number"),
    ("scores.csv", SCORES_HEADER + "c1,calib,0.5,1,1\nt1,test,0.7,,1\n", rio.read_truth,
     "{path}: lines 2 and 3: truth contain exact duplicates; see break_ties"),
    ("sets.csv", "id,lo,hi\nt1,1,2\nt2,x,3\n", rio.read_sets,
     "{path}:3: lo 'x' is not an integer"),
    ("sets.csv", "id,lo,hi\nt1,1,2\nt1,2,3\n", rio.read_sets,
     "{path}: lines 2 and 3: item ids must be unique, got 't1' twice"),
    ("scores.csv", SCORES_HEADER + "c1,calib,0.5,1,1\nc1,test,0.7,,2\n", rio.read_truth,
     "{path}: lines 2 and 3: item ids must be unique, got 'c1' twice"),
    ("scores.csv", SCORES_HEADER + "c1,calib,0.5,1,1\nc1,test,0.7,,2\n",
     lambda p: rio.read_scores(p, "VA"),
     "{path}: lines 2 and 3: item ids must be unique, got 'c1' twice"),
    ("env.json", '{"n": 1,\r\n "m": }', rio.read_envelope,
     "{path}: Expecting value: line 2 column 7 (char 15)"),
])
def test_a_malformed_file_is_refused_alike_on_every_read(tmp_path, name, text, read,
                                                         message):
    # a failed parse leaves the slot as it was: the good file read before
    # is still served (read_scores has no hit, and parses it anew), and the
    # bad one raises the same located message
    good = tmp_path / f"good_{name}"
    good.write_bytes({"scores.csv": (DATA / "golden_scores.csv").read_bytes(),
                      "sets.csv": (DATA / "golden_sets.csv").read_bytes(),
                      "env.json": (DATA / "golden_envelope.json").read_bytes()}[name])
    path = tmp_path / name
    path.write_bytes(text.encode("utf-8"))
    rio._slots.clear()
    before = _state(_outcome(lambda: read(good)))
    for _ in range(2):
        got = _outcome(lambda: read(path))
        assert isinstance(got, tuple) and got[1] == message.format(path=path)
    with pytest.MonkeyPatch.context() as patch:
        if name != "scores.csv" or read is rio.read_truth:
            _parsing_refused(patch)
            patch.setattr(rio, "envelope_from_doc", None)
        assert _state(_outcome(lambda: read(good))) == before


def test_the_text_of_a_json_document_is_read_as_a_text_file_reads_it(tmp_path):
    # \r\n and \r read as \n, so a refusal locates its character as before
    path = tmp_path / "doc.json"
    for text in ('{"a": 1,\r\n\r\n "b": }', '{"a":\r 1,\r "b": [1,\r\n 2,]}', "[1,\r2]"):
        path.write_bytes(text.encode("utf-8"))
        try:
            json.loads(path.read_text(encoding="utf-8"))
            want = f"{path}: document must be a JSON object"
        except ValueError as exc:
            want = f"{path}: {exc}"
        with pytest.raises(InvalidData) as err:
            rio.read_json(path)
        assert str(err.value) == want


def test_truth_of_a_table_without_true_values_is_refused_after_read_scores(tmp_path):
    path = tmp_path / "scores.csv"
    rio.write_scores(_problem("VA", with_truth=False), path)
    rio._slots.clear()
    assert rio.read_scores(path, "VA").truth is None
    with pytest.raises(InvalidData) as err:
        rio.read_truth(path)
    assert str(err.value) == f"{path}:2: true_value required for evaluation"


def test_a_command_reads_each_input_once_and_records_the_bytes_it_parsed(tmp_path,
                                                                          monkeypatch):
    # the manifest's input digest is that of the bytes the reader parsed,
    # even where the file changes after the read
    scores, env, out = tmp_path / "scores.csv", tmp_path / "env.json", tmp_path / "sets.csv"
    scores.write_bytes((DATA / "golden_scores.csv").read_bytes())
    env.write_bytes((DATA / "golden_envelope.json").read_bytes())
    parsed = hashlib.sha256(scores.read_bytes()).hexdigest()
    reads = []
    read_file, read_scores = rio._read_file, rio.read_scores

    def counted(path, digests):
        reads.append(str(path))
        return read_file(path, digests)

    def read_then_rewrite(path, *args, **kwargs):
        problem = read_scores(path, *args, **kwargs)
        Path(path).write_text(Path(path).read_text() + "\n")
        return problem

    monkeypatch.setattr(rio, "_read_file", counted)
    monkeypatch.setattr(rio, "read_scores", read_then_rewrite)
    assert main(["predict", "--scores", str(scores), "--envelope", str(env), "--alpha", "0.25",
                 "--mode", "VA", "--out", str(out)]) == 0
    manifest = json.loads(Path(f"{out}.manifest.json").read_text())
    assert manifest["inputs"] == {
        "scores": parsed, "envelope": hashlib.sha256(env.read_bytes()).hexdigest()}
    assert hashlib.sha256(scores.read_bytes()).hexdigest() != parsed
    assert sorted(reads) == sorted([str(scores), str(env)])
    reads.clear()
    metrics = tmp_path / "metrics.json"
    assert main(["evaluate", "--sets", str(out), "--truth", str(scores),
                 "--out", str(metrics)]) == 0
    assert sorted(reads) == sorted([str(out), str(scores)])


# sha256 of request payloads at n=m=300 and on the golden files, taken when
# tables were read by csv.reader row by row
PINNED_REQUESTS = {
    "golden_metrics": "fc5373c1cef672daf4de638bf3d43205f964be213b74b65c2bd539bdf63e74dc",
    "scores": "e64ee36b8051fb541c45b5d6b837dee0763f5fd0a96ca0c58413773276e9d31d",
    "sets": "ed5b9b19eb1cdbe6135a9351d95b5a890f91bef01c7c649c7630f56521c4ef70",
    "metrics": "6d321766aa98ee3f38ead47276a9a1989d09fe2598cc168470fb777adbb39594",
}


def test_request_payloads_are_pinned(tmp_path):
    out = {name: tmp_path / name for name in PINNED_REQUESTS}
    assert main(["evaluate", "--sets", str(DATA / "golden_sets.csv"),
                 "--truth", str(DATA / "golden_scores.csv"),
                 "--out", str(out["golden_metrics"])]) == 0
    env = tmp_path / "env.json"
    assert main(["synth", "--n", "300", "--m", "300", "--mode", "VA", "--seed", "5",
                 "--out", str(out["scores"])]) == 0
    assert main(["simulate-envelope", "--kind", "theoretical", "--n", "300",
                 "--m", "300", "--out", str(env)]) == 0
    assert main(["predict", "--scores", str(out["scores"]), "--envelope", str(env),
                 "--mode", "VA", "--test-only", "on", "--top-k", "5",
                 "--out", str(out["sets"])]) == 0
    assert main(["evaluate", "--sets", str(out["sets"]), "--truth", str(out["scores"]),
                 "--out", str(out["metrics"])]) == 0
    assert {name: hashlib.sha256(path.read_bytes()).hexdigest()
            for name, path in out.items()} == PINNED_REQUESTS


# sha256 of single-seed synth payloads, taken when a single seed drew
# through a path of its own beside the batch.  Noise-free beta truth ties
# about a tenth of its items at 1.0, so the first payload pins the
# beta-ties stream of a single seed.
PINNED_SYNTH = {
    ("--data-noise-sd", "0", "--mode", "RA"):
        "8eec233cd78d4288f393848c2a24ad0c11eee58b3ffbef1dc28315bb014c0ab3",
    ("--mode", "VA"): "6b9b1b3281b2bf0920e22b9e8705af6d634c73b81504a78236af92c5b0b0824e",
}


@pytest.mark.parametrize("flags", PINNED_SYNTH, ids=["beta-tied-RA", "beta-VA"])
def test_single_seed_synth_payloads_are_pinned(tmp_path, flags):
    out = tmp_path / "scores.csv"
    assert main(["synth", "--model", "beta_adaptive", "--n", "200", "--m", "200",
                 "--seed", "9", *flags, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_SYNTH[flags]


def test_report_roundtrip(tmp_path):
    cfg = ExperimentConfig(n=20, m=10, reps=3, envelope_kind="naive", master_seed=72)
    report = run_experiment(cfg)
    path = tmp_path / "report.csv"
    rio.write_report(report, path)
    rows = _report_rows(path)
    assert rows == report.to_rows()
    assert path.read_text().splitlines()[0] == "rep,metric,value,arm"


# sha256 of simulate-envelope payloads, frozen when the simulation ranked
# every row by a sort of 64-bit keys and the fits read the sample row by row.
# A kernel that moves any trajectory or bound changes them.  At (20000, 20000)
# about a third of the rows of 40000 draws share a 31-bit prefix, and the
# quantile fit has twenty thousand columns of forty trajectories.
PINNED_ENVELOPES = [
    (200, 200, 2000, 0.02, "quantile",
     "8e7f9c9b6b64b91007c82d4dc3bc690c3042d7fa2334670bf4f4549102b356b5"),
    (200, 200, 2000, 0.02, "linear",
     "1b34f23bb30df9c35a0f6d1be9ac8a08d8adb9722c229386db7c0dd119ad1a68"),
    (20000, 20000, 40, 0.1, "quantile",
     "a0466a00ce2e7547924817429d41b04cce466b596115c80c130cc29c98ee3c93"),
    (20000, 20000, 40, 0.1, "linear",
     "081c7070fad520696e1052045c201f5a6f70177c466e147916065ea55065c2f3"),
]


@pytest.mark.parametrize("n, m, K, delta, kind, digest", PINNED_ENVELOPES,
                         ids=[f"{kind}-{n}-{m}-K{K}" for n, m, K, _, kind, _ in PINNED_ENVELOPES])
def test_simulated_envelope_payloads_are_pinned(tmp_path, n, m, K, delta, kind, digest):
    out = tmp_path / "env.json"
    assert main(["simulate-envelope", "--n", str(n), "--m", str(m), "--K", str(K),
                 "--delta", str(delta), "--kind", kind, "--seed", "0",
                 "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# sha256 of experiment reports, frozen when each repetition built its own
# Philox generators and the VA set edges came from a bisection alone.  The
# per-rep reference of test_evaluate draws through the same generators as the
# block engine, so only these digests see a change to the draws themselves.
# At n + m = 400 the 400 repetitions run in three blocks.
PINNED_REPORTS = [
    ("RA", "fcp_controlled", "sigmoid", 200, 200, 400, "quantile",
     "391266e6193487ead656bc67cdcfe29c212c7442308d3b0b722ab8576aa31a9e"),
    ("VA", "marginal", "sigmoid", 200, 200, 400, "quantile",
     "9109aa2fcbc91dde0d35bf26be127c66e8f8f52333b83a0e8602d9eb56155198"),
    ("VA", "marginal", "beta_adaptive", 40, 30, 100, "linear",
     "4f8070b81d507ad761d26dabcb8004a80e84d061cd979358f4ccabaefeae333b"),
]


@pytest.mark.parametrize("mode, fcp_mode, model, n, m, reps, kind, digest", PINNED_REPORTS,
                         ids=[f"{p[0]}-{p[1]}-{p[2]}" for p in PINNED_REPORTS])
def test_experiment_reports_are_pinned(tmp_path, mode, fcp_mode, model, n, m, reps,
                                       kind, digest):
    out = tmp_path / "report.csv"
    assert main(["experiment", "--n", str(n), "--m", str(m), "--reps", str(reps),
                 "--mode", mode, "--fcp-mode", fcp_mode, "--data-model", model,
                 "--envelope-kind", kind, "--K-env", "2000", "--seed", "17",
                 "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_golden_predict(tmp_path):
    out = tmp_path / "sets.csv"
    code = main(
        [
            "predict",
            "--scores", str(DATA / "golden_scores.csv"),
            "--envelope", str(DATA / "golden_envelope.json"),
            "--alpha", "0.25",
            "--mode", "VA",
            "--out", str(out),
        ]
    )
    assert code == 0
    assert out.read_bytes() == (DATA / "golden_sets.csv").read_bytes()
    manifest = json.loads((str(out) + ".manifest.json" and Path(str(out) + ".manifest.json")).read_text())
    assert manifest["extras"]["k"] == 11
    assert manifest["payload_sha256"] == hashlib.sha256(out.read_bytes()).hexdigest()

    # independent check of the committed golden: exhaustive membership
    problem = rio.read_scores(DATA / "golden_scores.csv", "VA")
    env = rio.read_envelope(DATA / "golden_envelope.json")
    ordered = np.sort(problem.ranker_outputs)
    proxies = []
    lower, upper = env.bounds_for_ranks(problem.calib_ranks)
    for i in range(problem.n):
        lo, hi = int(lower[i]), int(upper[i])
        proxies.append(
            max(
                abs(ordered[r - 1] - problem.ranker_outputs[i])
                for r in range(lo, hi + 1)
            )
        )
    threshold = sorted(proxies)[11 - 1]
    expected = []
    for j in range(problem.m):
        val = problem.test_outputs[j]
        member = [
            r for r in range(1, problem.total + 1)
            if abs(ordered[r - 1] - val) <= threshold
        ]
        expected.append((problem.test_ids[j], member[0], member[-1]))
    back = rio.read_sets(out)
    got = list(zip(back.items, back.lo.tolist(), back.hi.tolist()))
    assert got == expected


def test_predict_extra_target_columns(tmp_path):
    out = tmp_path / "sets.csv"
    base = ["predict", "--scores", str(DATA / "golden_scores.csv"),
            "--envelope", str(DATA / "golden_envelope.json"),
            "--alpha", "0.25", "--mode", "VA", "--out", str(out)]

    def header(argv):
        assert main(argv) == 0
        return out.read_text().splitlines()[0]

    assert header(base + ["--test-only", "on", "--top-k", "3"]) == (
        "id,lo,hi,test_lo,test_hi,top_candidate")
    # one parser serves every call in a process: neither a flag nor a config
    # value of one call carries over to the next
    assert header(base) == "id,lo,hi"
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"top_k": 3}')
    assert header(base + ["--config", str(cfg)]) == "id,lo,hi,top_candidate"
    assert header(base) == "id,lo,hi"


def test_predict_fcp_threshold_at_least_marginal(tmp_path):
    rng = np.random.default_rng(73)
    truth = np.sort(rng.normal(size=300))  # sorted truth keeps ids aligned simply
    outputs = truth + 0.1 * rng.normal(size=300)
    problem = RankingProblem(
        n=200, m=100, calib_ranks=np.arange(1, 201), ranker_mode="VA",
        ranker_outputs=outputs, truth=truth,
    )
    scores_path = tmp_path / "scores.csv"
    rio.write_scores(problem, scores_path)
    env_path = tmp_path / "env.json"
    rio.write_envelope(theoretical_envelope(200, 100, 0.02), env_path)

    out_marginal = tmp_path / "marginal.csv"
    out_fcp = tmp_path / "fcp.csv"
    base = [
        "predict", "--scores", str(scores_path), "--envelope", str(env_path),
        "--alpha", "0.1", "--mode", "VA",
    ]
    assert main(base + ["--out", str(out_marginal)]) == 0
    assert main(base + ["--fcp", "on", "--beta", "0.25",
                        "--out", str(out_fcp)]) == 0
    k_marginal = json.loads(Path(str(out_marginal) + ".manifest.json").read_text())
    k_fcp = json.loads(Path(str(out_fcp) + ".manifest.json").read_text())
    assert k_fcp["extras"]["k"] >= math.ceil(0.9 * 201)
    assert k_fcp["extras"]["t_hat"] is not None
    assert k_marginal["extras"]["k"] == math.ceil((1 - 0.1 + 0.02) * 201)


def test_evaluate_command(tmp_path):
    sets_path = tmp_path / "sets.csv"
    rio.write_sets(
        RankSets(items=["t1", "t2", "t3", "t4"], lo=[1, 2, 1, 4], hi=[3, 4, 5, 4]),
        sets_path,
    )
    truth_path = tmp_path / "truth.csv"
    problem = RankingProblem(
        n=1, m=4, calib_ranks=[1], ranker_mode="VA",
        ranker_outputs=[0.15, 0.1, 0.3, 0.5, 0.7],
        truth=[0.15, 0.1, 0.3, 0.5, 0.7],
        ids=["c1", "t1", "t2", "t3", "t4"],
    )
    rio.write_scores(problem, truth_path)
    out = tmp_path / "metrics.json"
    code = main(
        ["evaluate", "--sets", str(sets_path), "--truth", str(truth_path),
         "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    # true pooled ranks of t1..t4 are 1, 3, 4, 5; the t4 set [4, 4] misses 5
    assert doc["fcp"] == pytest.approx(0.25)
    assert doc["relative_length"] == pytest.approx((3 + 3 + 5 + 1) / 4 / 5)
    assert [it["covered"] for it in doc["items"]] == [True, True, True, False]

    # fcp is the miss count over m, as in evaluate.fcp: 10 misses of 2000
    # give 0.005 (1 - covered/m would give 0.0050000000000000044)
    m = 2000
    problem = RankingProblem(
        n=1, m=m, calib_ranks=[1], ranker_mode="VA",
        ranker_outputs=np.arange(m + 1.0), truth=np.arange(m + 1.0),
    )
    rio.write_scores(problem, truth_path)
    true_ranks = np.arange(2, m + 2)
    missed = np.arange(m) < 10
    rio.write_sets(
        RankSets(items=problem.test_ids, lo=true_ranks + missed, hi=true_ranks + missed),
        sets_path,
    )
    assert main(["evaluate", "--sets", str(sets_path), "--truth", str(truth_path),
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["fcp"] == 0.005


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    items=st.lists(st.tuples(
        st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\n\té€😀'), st.characters())),
        st.integers(),
        st.booleans(),
    )),
    fcp=st.floats(allow_nan=False, allow_infinity=False),
    length=st.floats(allow_nan=False, allow_infinity=False),
)
@example(items=[], fcp=0.0, length=0.5)
def test_write_evaluation_matches_json_dumps(tmp_path, items, fcp, length):
    # the reference is the document that write_evaluation does not build
    doc = {
        "fcp": fcp,
        "relative_length": length,
        "items": [{"id": item, "true_rank": rank, "covered": hit}
                  for item, rank, hit in items],
    }
    ids, ranks, covered = map(list, zip(*items)) if items else ([], [], [])
    path = tmp_path / "metrics.json"
    rio.write_evaluation(path, fcp, length, ids, ranks, covered)
    assert path.read_bytes() == (json.dumps(doc, indent=2) + "\n").encode("utf-8")


def test_request_path_work_is_fixed(tmp_path):
    # Under cProfile: the metrics JSON of evaluate is written from columns, so
    # the pure-Python JSON encoder (json.dumps with an indent) only runs on
    # the fcp/relative_length head and the manifest, and its call count does
    # not grow with the item count; the argument parser is built by the first
    # main call of the process alone.
    def calls(argv, match):
        profile = cProfile.Profile()
        assert profile.runcall(main, argv) == 0
        stats = pstats.Stats(profile).stats
        return sum(nc for key, (_, nc, *_) in stats.items() if match(*key))

    def encoder(filename, line, name):
        return filename == json.encoder.__file__ and name == "_iterencode_dict"

    def evaluate_argv(m):
        problem = RankingProblem(n=1, m=m, calib_ranks=[1], ranker_mode="VA",
                                 ranker_outputs=np.arange(m + 1.0),
                                 truth=np.arange(m + 1.0))
        truth, sets = tmp_path / f"truth_{m}.csv", tmp_path / f"sets_{m}.csv"
        rio.write_scores(problem, truth)
        ranks = np.arange(2, m + 2)
        rio.write_sets(RankSets(items=problem.test_ids, lo=ranks, hi=ranks), sets)
        return ["evaluate", "--sets", str(sets), "--truth", str(truth),
                "--out", str(tmp_path / f"metrics_{m}.json")]

    assert calls(evaluate_argv(10), encoder) == calls(evaluate_argv(1000), encoder)

    init = argparse.ArgumentParser.__init__.__code__

    def parser_init(filename, line, name):
        return (filename, line, name) == (init.co_filename, init.co_firstlineno,
                                          init.co_name)

    cli.build_parser.cache_clear()
    argv = evaluate_argv(10)
    inits = [calls(argv, parser_init) for _ in range(3)]
    assert inits[0] > 0 and inits[1:] == [0, 0]


def test_scores_file_errors_are_typed_by_where_they_are_found(tmp_path):
    # read_scores told a usage error from a data error by the words of the
    # message; read_scores applies the RA outputs' rule itself, and every
    # other refusal of the problem is a data error
    path = tmp_path / "ra.csv"
    path.write_text(SCORES_HEADER + "c1,calib,1,1,\nc2,calib,0,2,\nt1,test,3,,\n")
    with pytest.raises(InvalidInput, match=re.escape(
            f"{path}:3: RA ranker outputs must lie in [1, 3], got 0")):
        rio.read_scores(path, "RA")
    path.write_text(SCORES_HEADER + "c1,calib,1,1,\nc2,calib,2,1,\nt1,test,3,,\n")
    with pytest.raises(InvalidData, match=re.escape(
            f"{path}: lines 2 and 3: calib_ranks must be a permutation of 1..n, got 1 twice")):
        rio.read_scores(path, "RA")


# one defect of a scores table each: (name, the mode it needs or None for
# either, the cell it changes, and whether the rule is the RA outputs')
_DEFECTS = [
    ("RA fraction", "RA", "output", True), ("RA outside", "RA", "output", True),
    ("RA 2**63", "RA", "output", True), ("VA inf", "VA", "output", False),
    ("VA nan", "VA", "output", False), ("VA 1e400", "VA", "output", False),
    ("calib outside", None, "calib_rank", False), ("calib repeat", None, "calib_rank", False),
    ("tied outputs", "VA", "output", False), ("tied truth", None, "true_value", False),
    ("nan truth", None, "true_value", False), ("id repeat", None, "id", False),
]


@st.composite
def _defective_tables(draw):
    """A valid scores table with one defective cell, the lines it names, and its defect.

    The test rows come before the calib rows, and blank lines fall between
    rows.  A repeat names two lines, in file order; any other defect one.
    """
    name, mode, column, ra_rule = draw(st.sampled_from(_DEFECTS))
    mode = mode or draw(st.sampled_from(["RA", "VA"]))
    n, m = draw(st.integers(2, 5)), draw(st.integers(1, 4))
    total = n + m
    outputs = (draw(st.lists(st.integers(1, total), min_size=total, max_size=total))
               if mode == "RA" else [v / 4 for v in draw(st.permutations(range(total)))])
    truth = [v / 2 for v in draw(st.permutations(range(total)))]
    calib_ranks = draw(st.permutations(range(1, n + 1)))
    rows = [{"id": f"t{j}", "split": "test", "output": str(outputs[n + j]),
             "calib_rank": "", "true_value": str(truth[n + j])} for j in range(m)]
    rows += [{"id": f"c{i}", "split": "calib", "output": str(outputs[i]),
              "calib_rank": str(calib_ranks[i]), "true_value": str(truth[i])}
             for i in range(n)]
    pool = range(m, total) if column == "calib_rank" else range(total)
    if "repeat" in name or "tied" in name:
        at = sorted(draw(st.permutations(pool))[:2])
        rows[at[0]][column] = rows[at[1]][column]
    else:
        at = [draw(st.sampled_from(pool))]
        rows[at[0]][column] = draw(st.sampled_from({
            "RA fraction": ["1.5", f"{total}.25"], "RA outside": ["0", "-3", str(total + 1)],
            "RA 2**63": ["9223372036854775808", "1e19", "-1e30"],
            "VA inf": ["inf", "-inf"], "VA nan": ["nan", "NaN"], "VA 1e400": ["1e400"],
            "calib outside": ["0", str(n + 1)], "nan truth": ["nan"]}[name]))
    blank = draw(st.lists(st.booleans(), min_size=total, max_size=total))
    text, lines = SCORES_HEADER, []
    for row, skip in zip(rows, blank):
        text += "\n" * skip + ",".join(row[key] for key in rio.SCORES_HEADER) + "\n"
        lines.append(text.count("\n"))
    return text, mode, [lines[i] for i in at], name, ra_rule


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(table=_defective_tables())
def test_a_defective_scores_row_is_named_by_its_line(tmp_path, capsys, table):
    # every refusal of a scores table names the row (both rows of a repeat)
    # that breaks the rule it states, wherever the row sits in the file, and
    # exits 2 for the RA outputs' rule and 4 for the others
    text, mode, lines, name, ra_rule = table
    path = tmp_path / "scores.csv"
    path.write_text(text)
    where = (f"{path}:{lines[0]}: " if len(lines) == 1
             else f"{path}: lines {lines[0]} and {lines[1]}: ")
    assert main(["predict", "--scores", str(path), "--mode", mode,
                 "--envelope", str(GOLDEN_INPUTS["envelope"]),
                 "--out", str(tmp_path / "sets.csv")]) == (2 if ra_rule else 4)
    kind = "usage" if ra_rule else "data"
    assert capsys.readouterr().err.startswith(f"rankcp: {kind} error: {where}"), name
    if "truth" in name or name == "id repeat":
        rio._slots.clear()
        with pytest.raises(TiesDetected if "tied" in name else InvalidData) as err:
            rio.read_truth(path)
        assert str(err.value).startswith(where)
    assert not (tmp_path / "sets.csv").exists()


def test_exit_codes(tmp_path, capsys, monkeypatch):
    scores = DATA / "golden_scores.csv"
    envelope = DATA / "golden_envelope.json"

    # usage: unknown choice
    assert main(["simulate-envelope", "--n", "5", "--m", "5",
                 "--kind", "exotic", "--out", str(tmp_path / "e.json")]) == 2
    # usage: RA mode on value-typed outputs (type error)
    assert main(["predict", "--scores", str(scores), "--envelope", str(envelope),
                 "--alpha", "0.25", "--mode", "RA",
                 "--out", str(tmp_path / "s.csv")]) == 2
    # usage: RA outputs that are not finite integers (type error), by line;
    # int() raised ValueError or OverflowError on them
    for value in ("nan", "inf", "1e400"):
        bad_ra = tmp_path / "bad_ra.csv"
        bad_ra.write_text(SCORES_HEADER + f"c1,calib,1,1,\nt1,test,{value},,\n")
        assert main(["predict", "--scores", str(bad_ra), "--envelope", str(envelope),
                     "--alpha", "0.25", "--mode", "RA",
                     "--out", str(tmp_path / "s.csv")]) == 2
        assert (f"usage error: {bad_ra}:3: RA ranker outputs must be integers, got "
                f"{float(value)}") in capsys.readouterr().err
    # usage: an integer RA output beyond int64 is refused at its line, with no cast
    # warning before the error (this module runs with warnings as errors)
    bad_ra.write_text(SCORES_HEADER + "c1,calib,1,1,\nt1,test,1e20,,\n")
    assert main(["predict", "--scores", str(bad_ra), "--envelope", str(envelope),
                 "--alpha", "0.25", "--mode", "RA",
                 "--out", str(tmp_path / "s.csv")]) == 2
    assert (f"usage error: {bad_ra}:3: RA ranker outputs must be below 2**63, got 1e+20"
            in capsys.readouterr().err)
    # ... and one below -2**63 is worded by its sign (was "must be below 2**63")
    bad_ra.write_text(SCORES_HEADER + "c1,calib,1,1,\nt1,test,-1e30,,\n")
    assert main(["predict", "--scores", str(bad_ra), "--envelope", str(envelope),
                 "--alpha", "0.25", "--mode", "RA",
                 "--out", str(tmp_path / "s.csv")]) == 2
    assert (f"usage error: {bad_ra}:3: RA ranker outputs must be above -2**63, got -1e+30"
            in capsys.readouterr().err)
    # data: tied VA outputs, with the file and both lines named
    tied = tmp_path / "tied.csv"
    tied.write_text(SCORES_HEADER + "c1,calib,0.1,1,\nt1,test,0.1,,\n")
    assert main(["predict", "--scores", str(tied), "--envelope", str(envelope),
                 "--alpha", "0.25", "--mode", "VA",
                 "--out", str(tmp_path / "s.csv")]) == 4
    assert f"data error: {tied}: lines 2 and 3: VA ranker outputs contain" in (
        capsys.readouterr().err)
    # data: a VA output that is not finite, by line
    tied.write_text(SCORES_HEADER + "c1,calib,0.1,1,\nt1,test,1e400,,\n")
    assert main(["predict", "--scores", str(tied), "--envelope", str(envelope),
                 "--alpha", "0.25", "--mode", "VA",
                 "--out", str(tmp_path / "s.csv")]) == 4
    assert (f"data error: {tied}:3: VA ranker outputs must be finite, got inf"
            in capsys.readouterr().err)
    # data: a repeated id, with both lines named by predict, and in the same
    # words by evaluate after it (read_scores refused the file, so read_truth
    # parses it)
    repeat = tmp_path / "repeat.csv"
    repeat.write_text(SCORES_HEADER + "c1,calib,0.1,1,0.5\nt1,test,0.2,,0.6\n"
                      "t1,test,0.3,,0.7\n")
    assert main(["predict", "--scores", str(repeat), "--envelope", str(envelope),
                 "--alpha", "0.25", "--mode", "VA",
                 "--out", str(tmp_path / "s.csv")]) == 4
    refusal = f"data error: {repeat}: lines 3 and 4: item ids must be unique, got 't1' twice"
    assert refusal in capsys.readouterr().err
    rio.write_sets(RankSets(items=["t1"], lo=[1], hi=[2]), tmp_path / "one.csv")
    assert main(["evaluate", "--sets", str(tmp_path / "one.csv"), "--truth", str(repeat),
                 "--out", str(tmp_path / "m.json")]) == 4
    assert refusal in capsys.readouterr().err
    # data: a Monte-Carlo sample larger than the machine's memory is refused
    # before anything is allocated
    assert main(["simulate-envelope", "--n", "10", "--m", "10", "--kind", "quantile",
                 "--K", str(10**15), "--out", str(tmp_path / "huge.json")]) == 4
    assert ("data error: K=1000000000000000 trajectories of n=10 ranks need "
            "9,536,743,165 MiB, more than the") in capsys.readouterr().err
    assert not (tmp_path / "huge.json").exists()
    # data: an envelope file whose integer field holds a float
    doc = json.loads(envelope.read_text())
    float_env = tmp_path / "float.json"
    float_env.write_text(json.dumps({**doc, "n": 12.0}))
    assert main(["predict", "--scores", str(scores), "--envelope", str(float_env),
                 "--alpha", "0.25", "--mode", "VA",
                 "--out", str(tmp_path / "s.csv")]) == 4
    assert "malformed envelope document: n must be an integer, got 12.0" in (
        capsys.readouterr().err)
    # sampling: K too small for delta
    assert main(["simulate-envelope", "--n", "10", "--m", "10", "--delta", "0.001",
                 "--K", "100", "--out", str(tmp_path / "e.json")]) == 3
    # data: envelope dimensions do not match the scores file
    other_env = tmp_path / "wrong.json"
    rio.write_envelope(naive_envelope(5, 15), other_env)
    assert main(["predict", "--scores", str(scores), "--envelope", str(other_env),
                 "--alpha", "0.25", "--mode", "VA",
                 "--out", str(tmp_path / "s.csv")]) == 4
    # infeasible: alpha too tight for n = 12 calibration points
    assert main(["predict", "--scores", str(scores), "--envelope", str(envelope),
                 "--alpha", "0.06", "--mode", "VA",
                 "--out", str(tmp_path / "s.csv")]) == 5
    # data: id mismatch in evaluate
    sets_path = tmp_path / "sets.csv"
    rio.write_sets(RankSets(items=["ghost"], lo=[1], hi=[2]), sets_path)
    truth = tmp_path / "truth.csv"
    rio.write_scores(_problem("VA", with_truth=True), truth)
    assert main(["evaluate", "--sets", str(sets_path), "--truth", str(truth),
                 "--out", str(tmp_path / "m.json")]) == 4
    # data: a NaN truth has no rank (it was ranked last and scored)
    nan_truth = tmp_path / "nan_truth.csv"
    nan_truth.write_text(SCORES_HEADER + "c1,calib,0.1,1,0.3\nghost,test,0.2,,nan\n")
    assert main(["evaluate", "--sets", str(sets_path), "--truth", str(nan_truth),
                 "--out", str(tmp_path / "m.json")]) == 4
    assert f"data error: {nan_truth}:3: truth contain NaN, which has no rank" in (
        capsys.readouterr().err)
    assert not (tmp_path / "m.json").exists()
    # data: a sets file with a header and no rows has nothing to evaluate
    sets_path.write_text("id,lo,hi\n")
    assert main(["evaluate", "--sets", str(sets_path), "--truth", str(truth),
                 "--out", str(tmp_path / "empty.json")]) == 4
    assert not (tmp_path / "empty.json").exists()
    # data: a sets file that lists an item twice would count it twice
    sets_path.write_text("id,lo,hi\nt1,2,2\nt1,2,2\nt2,1,1\n")
    assert main(["evaluate", "--sets", str(sets_path), "--truth", str(truth),
                 "--out", str(tmp_path / "dup.json")]) == 4
    assert (f"data error: {sets_path}: lines 2 and 3: item ids must be unique, got 't1' twice"
            in capsys.readouterr().err)
    assert not (tmp_path / "dup.json").exists()
    # data: tied true values, with the truth file and both lines named
    sets_path.write_text("id,lo,hi\nt1,1,2\n")
    tied_truth = tmp_path / "tied_truth.csv"
    tied_truth.write_text(SCORES_HEADER + "c1,calib,0.1,1,0.5\nt1,test,0.2,,0.5\n")
    assert main(["evaluate", "--sets", str(sets_path), "--truth", str(tied_truth),
                 "--out", str(tmp_path / "tied.json")]) == 4
    assert (f"data error: {tied_truth}: lines 2 and 3: truth contain exact duplicates; "
            "see break_ties") in capsys.readouterr().err
    assert not (tmp_path / "tied.json").exists()
    # data: a set reaching past rank n+m (it was scored, relative_length 500)
    sets_path.write_text("id,lo,hi\nt1,1,1000\n")
    two_items = tmp_path / "two_items.csv"
    two_items.write_text(SCORES_HEADER + "c1,calib,0.1,1,0.5\nt1,test,0.2,,0.7\n")
    assert main(["evaluate", "--sets", str(sets_path), "--truth", str(two_items),
                 "--out", str(tmp_path / "past.json")]) == 4
    assert (f"data error: {sets_path}: set [1, 1000] of item 't1' reaches past "
            "n+m = 2") in capsys.readouterr().err
    assert not (tmp_path / "past.json").exists()
    # data: the envelope leaves no test-only rank for a test item whose
    # full set is [1, 3] (every calibration item is pinned at pooled rank 1)
    small = tmp_path / "small.csv"
    rio.write_scores(RankingProblem(
        n=3, m=2, calib_ranks=[1, 2, 3], ranker_mode="VA",
        ranker_outputs=[10.0, 20.0, 30.0, 1.0, 2.0],
    ), small)
    pinned = tmp_path / "pinned.json"
    rio.write_envelope(Envelope(n=3, m=2, delta=0.02, kind="quantile",
                                lower=[1, 1, 1], upper=[1, 1, 1]), pinned)
    assert main(["predict", "--scores", str(small), "--envelope", str(pinned),
                 "--alpha", "0.9", "--mode", "VA", "--test-only", "on",
                 "--out", str(tmp_path / "s.csv")]) == 4
    assert "test-only set of item 't1' is empty" in capsys.readouterr().err
    # data: FCP control on a scores file with no test rows names the file;
    # marginal prediction on it writes a header-only sets file
    calib_only = tmp_path / "calib_only.csv"
    rio.write_scores(RankingProblem(n=3, m=0, calib_ranks=[1, 2, 3], ranker_mode="VA",
                                    ranker_outputs=[0.1, 0.2, 0.3]), calib_only)
    naive = tmp_path / "naive.json"
    rio.write_envelope(naive_envelope(3, 0), naive)
    base = ["predict", "--scores", str(calib_only), "--envelope", str(naive),
            "--alpha", "0.5", "--mode", "VA", "--out", str(tmp_path / "c.csv")]
    assert main(base + ["--fcp", "on"]) == 4
    assert f"data error: {calib_only}: no test rows" in capsys.readouterr().err
    assert main(base) == 0
    assert (tmp_path / "c.csv").read_text() == "id,lo,hi\n"
    # usage: invalid probability flag names the field
    assert main(["experiment", "--alpha", "1.4", "--reps", "2",
                 "--out", str(tmp_path / "r.csv")]) == 2
    # usage: a JSON null in a config file names the key
    cfg = tmp_path / "null.json"
    cfg.write_text('{"alpha": null}')
    assert main(["predict", "--scores", str(scores), "--envelope", str(envelope),
                 "--mode", "VA", "--config", str(cfg),
                 "--out", str(tmp_path / "s.csv")]) == 2
    assert "config key 'alpha' must not be null" in capsys.readouterr().err
    cfg.write_text('{"reps": null}')
    assert main(["experiment", "--config", str(cfg),
                 "--out", str(tmp_path / "r.csv")]) == 2
    assert "config key 'reps' must not be null" in capsys.readouterr().err
    # usage: int() would truncate a float and read a bool as 1, so both are
    # rejected for integer options, naming the key
    for value in ("2.9", "true"):
        cfg.write_text(f'{{"reps": {value}, "n": 30, "m": 20, "K_env": 2000}}')
        assert main(["experiment", "--config", str(cfg),
                     "--out", str(tmp_path / "r.csv")]) == 2
        assert f"config key 'reps' must be an integer, got {value.title()}" in (
            capsys.readouterr().err)
    assert not (tmp_path / "r.csv").exists()
    # usage: a negative top-k would silently drop the top_candidate column
    assert main(["predict", "--scores", str(scores), "--envelope", str(envelope),
                 "--alpha", "0.25", "--mode", "VA", "--top-k", "-5",
                 "--out", str(tmp_path / "s.csv")]) == 2
    assert "usage error: need k_top >= 0, got k_top=-5" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()
    # usage: a negative k_top is rejected by the config itself, so the
    # experiment stops before it builds an envelope
    with pytest.raises(InvalidInput, match="^need k_top >= 0, got k_top=-3$"):
        ExperimentConfig(k_top=-3)

    def no_envelope(*args):
        raise AssertionError("envelope built for an invalid config")

    monkeypatch.setattr(evaluate, "build_envelope", no_envelope)
    assert main(["experiment", "--k-top", "-3", "--reps", "2",
                 "--out", str(tmp_path / "r.csv")]) == 2
    assert "usage error: need k_top >= 0, got k_top=-3" in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()
    # usage: a noise level that is not finite or is negative names its
    # parameter (inf reached the tie check, NaN the rank check, and a negative
    # level passed), and so does a Monte-Carlo envelope with K_env < 1; the
    # experiment stops before it builds an envelope
    for flags, name, value in [
        (["--noise-sd", "inf", "--envelope-kind", "naive"], "noise_sd", "inf"),
        (["--noise-sd", "nan"], "noise_sd", "nan"),
        (["--noise-sd", "-1"], "noise_sd", "-1.0"),
    ]:
        assert main(["experiment", "--n", "50", "--m", "5", "--reps", "2", *flags,
                     "--out", str(tmp_path / "r.csv")]) == 2
        assert f"usage error: {name} must be finite and nonnegative, got {value}" in (
            capsys.readouterr().err)
    assert main(["experiment", "--K-env", "0", "--reps", "2",
                 "--out", str(tmp_path / "r.csv")]) == 2
    assert "usage error: K_env=0 must be at least 1 for a quantile envelope" in (
        capsys.readouterr().err)
    assert not (tmp_path / "r.csv").exists()
    for flags, name, value in [
        (["--data-noise-sd", "inf"], "data_noise_sd", "inf"),
        (["--data-noise-sd", "-0.5"], "data_noise_sd", "-0.5"),
        (["--noise-sd", "nan"], "noise_sd", "nan"),
    ]:
        assert main(["synth", "--n", "5", "--m", "5", "--mode", "VA", *flags,
                     "--out", str(tmp_path / "syn.csv")]) == 2
        assert f"usage error: {name} must be finite and nonnegative, got {value}" in (
            capsys.readouterr().err)
    assert not (tmp_path / "syn.csv").exists()


@pytest.mark.parametrize("kind", ["quantile", "linear"])
def test_unresolvable_delta_fails_before_simulating(monkeypatch, capsys, tmp_path, kind):
    def no_simulation(*args):
        raise AssertionError("simulated a sample that cannot resolve delta")

    monkeypatch.setattr(renv, "simulate_sorted_ranks", no_simulation)
    message = "K=20000 trajectories cannot resolve delta=1e-05; need K >= 1/delta"
    with pytest.raises(InsufficientSample, match=message):
        renv.build_envelope(kind, 1000, 1000, 1e-5, 20000, 1)
    assert main(["simulate-envelope", "--kind", kind, "--n", "1000", "--m", "1000",
                 "--K", "20000", "--delta", "0.00001", "--seed", "1",
                 "--out", str(tmp_path / "e.json")]) == 3
    assert f"sampling error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "e.json").exists()


def test_synth_predict_evaluate_chain(tmp_path):
    scores = tmp_path / "scores.csv"
    env = tmp_path / "env.json"
    sets = tmp_path / "sets.csv"
    metrics = tmp_path / "metrics.json"
    assert main(["synth", "--model", "sigmoid", "--n", "80", "--m", "40",
                 "--mode", "VA", "--seed", "6", "--out", str(scores)]) == 0
    assert main(["simulate-envelope", "--n", "80", "--m", "40", "--delta", "0.02",
                 "--kind", "quantile", "--K", "5000", "--seed", "7",
                 "--out", str(env)]) == 0
    assert main(["predict", "--scores", str(scores), "--envelope", str(env),
                 "--alpha", "0.1", "--mode", "VA", "--out", str(sets)]) == 0
    assert main(["evaluate", "--sets", str(sets), "--truth", str(scores),
                 "--out", str(metrics)]) == 0
    doc = json.loads(metrics.read_text())
    assert 0.0 <= doc["fcp"] <= 1.0
    assert len(doc["items"]) == 40


def test_default_flags_compose(tmp_path):
    # simulate-envelope defaulted to delta 0.1, which predict's default alpha
    # 0.1 refused: "need 0 <= delta < alpha < 1"
    scores, env, sets = tmp_path / "s.csv", tmp_path / "env.json", tmp_path / "o.csv"
    assert main(["synth", "--n", "100", "--m", "50", "--out", str(scores)]) == 0
    assert main(["simulate-envelope", "--n", "100", "--m", "50", "--K", "2000",
                 "--out", str(env)]) == 0
    assert main(["predict", "--scores", str(scores), "--envelope", str(env),
                 "--out", str(sets)]) == 0
    assert len(rio.read_sets(sets)) == 50


def test_cli_defaults_are_the_library_defaults():
    defaults = {command: {opt["name"]: opt["default"] for opt in spec.flags}
                for command, spec in cli.COMMANDS.items()}
    config = ExperimentConfig()
    for name, value in defaults["experiment"].items():
        if name == "k-top":
            assert (value, config.k_top) == (0, None)
        elif name != "out":
            field = "master_seed" if name == "seed" else name.replace("-", "_")
            assert value == getattr(config, field), name
    assert defaults["simulate-envelope"]["delta"] == DEFAULT_DELTA
    assert defaults["simulate-envelope"]["kind"] == config.envelope_kind
    assert (defaults["predict"]["alpha"], defaults["predict"]["beta"]) == (
        DEFAULT_ALPHA, DEFAULT_BETA)
    assert defaults["predict"]["mode"] == defaults["synth"]["mode"] == config.mode
    assert defaults["synth"]["model"] == SIGMOID
    assert defaults["synth"]["noise-sd"] == config.noise_sd
    assert defaults["synth"]["data-noise-sd"] == DATA_NOISE_SD


@pytest.mark.parametrize("argv, message", [
    (["predict", "--scores", str(DATA / "golden_scores.csv"),
      "--envelope", str(DATA / "golden_envelope.json"), "--mode", "XX"],
     "mode must be 'RA' or 'VA'"),
    (["synth", "--n", "5", "--m", "5", "--model", "foo"], "data_model must be one of"),
    (["synth", "--n", "5", "--m", "5", "--mode", "XX"], "mode must be 'RA' or 'VA'"),
    (["experiment", "--reps", "2", "--mode", "XX"], "mode must be 'RA' or 'VA'"),
    (["experiment", "--reps", "2", "--envelope-kind", "exotic"],
     "unknown envelope kind 'exotic'; expected one of naive, theoretical, linear, "
     "quantile"),
    (["experiment", "--reps", "2", "--fcp-mode", "nope"],
     "fcp_mode must be 'marginal' or 'fcp_controlled'"),
    (["experiment", "--reps", "2", "--data-model", "foo"], "data_model must be one of"),
    # a finite noise level that overflows the generated values named no
    # parameter: the tie check (exit 4) or the VA check caught the infinities
    (["synth", "--n", "50", "--m", "50", "--noise-sd", "1e308", "--mode", "RA"],
     "noise_sd=1e+308 makes the generated values non-finite"),
    (["experiment", "--n", "50", "--m", "50", "--reps", "2", "--noise-sd", "1e308",
      "--envelope-kind", "naive"],
     "noise_sd=1e+308 makes the generated values non-finite"),
    (["synth", "--n", "50", "--m", "50", "--data-noise-sd", "1e308", "--mode", "VA"],
     "data_noise_sd=1e+308 makes the generated values non-finite"),
    (["synth", "--n", "50", "--m", "50", "--data-noise-sd", "1e308", "--mode", "RA",
      "--model", "beta_adaptive"],
     "data_noise_sd=1e+308 makes the generated values non-finite"),
])
def test_library_refuses_bad_values(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    assert f"usage error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_envelopes_of_numpy_scalars_write_the_documents_of_python_scalars(tmp_path):
    # np.int64 sizes and an np.float32 delta were stored as given, and
    # write_envelope raised "Object of type int64 is not JSON serializable"
    plain, numpy = tmp_path / "plain.json", tmp_path / "numpy.json"
    for kind in ENVELOPE_KINDS:
        rio.write_envelope(renv.build_envelope(kind, 20, 10, 0.1, 2000, 0), plain)
        rio.write_envelope(renv.build_envelope(kind, np.int64(20), np.int64(10), np.float64(0.1),
                                               np.int64(2000), np.int64(0)), numpy)
        assert numpy.read_bytes() == plain.read_bytes(), kind
    env = renv.build_envelope("theoretical", 20, 10, np.float32(0.1), 1, 0)
    rio.write_envelope(env, numpy)
    assert rio.envelope_to_doc(rio.read_envelope(numpy)) == rio.envelope_to_doc(env)
    # naive_envelope(3.0, 2) stored n = 3.0, and its file was then refused
    # with "n must be an integer, got 3.0"
    rio.write_envelope(naive_envelope(3.0, 2), numpy)
    rio.write_envelope(naive_envelope(3, 2), plain)
    assert numpy.read_bytes() == plain.read_bytes()
    assert rio.read_envelope(numpy).n == 3


def test_envelope_stores_python_scalars_without_changing_its_mc_meta():
    meta = renv.MonteCarloMeta(K=np.int64(10), seed=np.uint64(7), slack=np.float32(0.5))
    env = Envelope(n=np.int64(3), m=2.0, delta=np.float64(0.1), kind="quantile",
                   lower=[1.0, 2.0, 3.0], upper=np.array([3, 4, 5], np.uint8),
                   param=np.float32(0.25), mc_meta=meta)
    assert [type(v) for v in (env.n, env.m, env.delta, env.param, env.mc_meta.K,
                              env.mc_meta.seed, env.mc_meta.slack)] == [
        int, int, float, float, int, int, float]
    assert env.lower.dtype == env.upper.dtype == np.int64  # whole floats are bounds
    assert (type(meta.K), type(meta.seed), type(meta.slack)) == (
        np.int64, np.uint64, np.float32)
    assert rio.envelope_to_doc(env)["mc_meta"] == {"K": 10, "seed": 7, "slack": 0.5}


def test_envelope_document_with_bad_sizes(tmp_path, capsys):
    # "m": -1 loaded, and predict then blamed the scores file for the mismatch
    doc = rio.envelope_to_doc(naive_envelope(2, 1))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**doc, "m": -1}))
    assert main(["predict", "--scores", str(DATA / "golden_scores.csv"),
                 "--envelope", str(bad), "--mode", "VA",
                 "--out", str(tmp_path / "s.csv")]) == 4
    assert ("data error: malformed envelope document: need m >= 0, "
            "got m=-1") in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("kind", ENVELOPE_KINDS)
def test_simulate_envelope_checks_delta_for_every_kind(tmp_path, capsys, kind):
    # the naive envelope ignored delta and wrote delta 0.0 for any value
    out = tmp_path / "e.json"
    for delta in ("5", "-1", "1"):
        assert main(["simulate-envelope", "--n", "6", "--m", "4", "--kind", kind,
                     "--K", "200", "--delta", delta, "--out", str(out)]) == 2
        assert f"usage error: delta={float(delta)} outside [0, 1)" in (
            capsys.readouterr().err)
        assert not out.exists()
    # delta = 0 stays valid where the kind can reach it
    assert main(["simulate-envelope", "--n", "6", "--m", "4", "--kind", "naive",
                 "--delta", "0", "--out", str(out)]) == 0


def test_simulate_envelope_naive_records_null_meta(tmp_path):
    out = tmp_path / "naive.json"
    assert main(["simulate-envelope", "--n", "6", "--m", "4", "--kind", "naive",
                 "--K", "123", "--seed", "9", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["mc_meta"] == {"K": None, "seed": None, "slack": None}
    assert doc["param"] is None


def test_experiment_command_schema_and_config_merge(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n": 30, "m": 20, "reps": 3, "K_env": 2000,
                                    "alpha": 0.3}))
    out = tmp_path / "report.csv"
    # CLI --alpha overrides the config file value
    assert main(["experiment", "--config", str(cfg_path), "--alpha", "0.2",
                 "--seed", "8", "--out", str(out)]) == 0
    manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
    assert manifest["config"]["alpha"] == 0.2
    assert manifest["config"]["n"] == 30
    rows = _report_rows(out)
    assert {r[3] for r in rows} == {"proxy", "oracle"}
    assert {r[0] for r in rows} == {0, 1, 2}
    # unknown config keys are usage errors
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"banana": 1}))
    assert main(["experiment", "--config", str(bad), "--out", str(out)]) == 2


def test_simulate_envelope_file_shape(tmp_path):
    out = tmp_path / "env.json"
    assert main(["simulate-envelope", "--n", "50", "--m", "500", "--delta", "0.1",
                 "--kind", "quantile", "--K", "20000", "--seed", "7",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["lower"]) == 50 and len(doc["upper"]) == 50
    assert doc["mc_meta"]["K"] == 20000 and doc["mc_meta"]["seed"] == 7


def test_experiment_smoke_runtime(tmp_path):
    import time

    start = time.perf_counter()
    out = tmp_path / "report.csv"
    assert main(["experiment", "--n", "100", "--m", "100", "--reps", "20",
                 "--K-env", "10000", "--seed", "1",
                 "--out", str(out)]) == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 60
    rows = _report_rows(out)
    assert len({r[0] for r in rows}) == 20


def test_cli_byte_determinism(tmp_path):
    env_a, env_b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["simulate-envelope", "--n", "25", "--m", "50", "--delta", "0.1",
            "--kind", "quantile", "--K", "8000", "--seed", "13"]
    assert main(args + ["--out", str(env_a)]) == 0
    assert main(args + ["--out", str(env_b)]) == 0
    assert env_a.read_bytes() == env_b.read_bytes()

    rep_a, rep_b = tmp_path / "ra.csv", tmp_path / "rb.csv"
    args = ["experiment", "--n", "30", "--m", "20", "--reps", "4",
            "--K-env", "2000", "--seed", "3",
            "--fcp-mode", "fcp_controlled"]
    assert main(args + ["--out", str(rep_a)]) == 0
    assert main(args + ["--out", str(rep_b)]) == 0
    assert rep_a.read_bytes() == rep_b.read_bytes()


def test_removed_flags_exit_2(tmp_path, capsys):
    base = {
        "simulate-envelope": ["simulate-envelope", "--n", "5", "--m", "5"],
        "predict": ["predict", "--scores", str(DATA / "golden_scores.csv"),
                    "--envelope", str(DATA / "golden_envelope.json"),
                    "--alpha", "0.25", "--mode", "VA", "--fcp", "on"],
        "experiment": ["experiment", "--n", "40", "--m", "30", "--reps", "3",
                       "--K-env", "2000"],
    }
    removed = [("simulate-envelope", "workers"), ("experiment", "workers"),
               ("predict", "fcp-K"), ("predict", "seed"), ("predict", "workers"),
               ("experiment", "K-fcp")]
    cfg = tmp_path / "cfg.json"
    for command, flag in removed:
        out = tmp_path / f"{command}-{flag}.out"
        argv = base[command] + ["--out", str(out)]
        assert main(argv + [f"--{flag}", "2"]) == 2
        assert f"unrecognized arguments: --{flag} 2" in capsys.readouterr().err
        cfg.write_text(json.dumps({flag.replace("-", "_"): 2}))
        assert main(argv + ["--config", str(cfg)]) == 2
        assert "unknown config key" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("command", [None, *cli.COMMANDS])
def test_every_help_exits_0(capsys, command):
    # argparse expands % in help strings: "(0: 5% of m)" ended
    # `experiment --help` in a TypeError
    assert main(["--help"] if command is None else [command, "--help"]) == 0
    shown = capsys.readouterr().out
    names = cli.COMMANDS if command is None else [
        f"--{opt['name']}" for opt in cli.COMMANDS[command].flags]
    for name in names:
        assert name in shown


@pytest.mark.parametrize("config, code, error, message", [
    ({"alpha": 0.02, "delta": 0.05}, 2, InvalidInput,
     "usage error: need 0 <= delta < alpha < 1, got alpha=0.02, delta=0.05"),
    ({"n": 5, "m": 50}, 5, InfeasibleLevel, "infeasible level: k=6 exceeds n=5"),
], ids=["delta-above-alpha", "n-too-small"])
def test_hopeless_experiment_draws_no_envelope(monkeypatch, capsys, tmp_path, config, code,
                                               error, message):
    # the envelope was simulated before k was chosen and the level refused
    def no_simulation(*args):
        raise AssertionError("simulated an envelope for a hopeless experiment")

    monkeypatch.setattr(renv, "simulate_sorted_ranks", no_simulation)
    with pytest.raises(error):
        run_experiment(ExperimentConfig(reps=10, **config))
    out = tmp_path / "r.csv"
    flags = [arg for key, value in config.items() for arg in (f"--{key}", str(value))]
    assert main(["experiment", "--reps", "10", *flags, "--out", str(out)]) == code
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_naive_experiment_runs_with_alpha_below_delta():
    # the naive envelope records delta 0, so k is chosen at level 0
    cfg = ExperimentConfig(n=60, m=20, reps=3, alpha=0.02, delta=0.05,
                           envelope_kind="naive")
    assert run_experiment(cfg).k == select_k(0.02, 0.0, 60)


def test_theoretical_envelope_through_the_cli(tmp_path):
    out = tmp_path / "env.json"
    assert main(["simulate-envelope", "--n", "40", "--m", "60", "--kind", "theoretical",
                 "--delta", "0.05", "--seed", "3", "--out", str(out)]) == 0
    expected = tmp_path / "expected.json"
    rio.write_envelope(theoretical_envelope(40, 60, 0.05), expected)
    assert out.read_bytes() == expected.read_bytes()
    manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
    assert manifest["seeds"] == {"envelope": None}
    report = tmp_path / "report.csv"
    assert main(["experiment", "--n", "40", "--m", "60", "--reps", "3",
                 "--envelope-kind", "theoretical", "--out", str(report)]) == 0
    cfg = ExperimentConfig(n=40, m=60, reps=3, envelope_kind="theoretical")
    assert _report_rows(report) == run_experiment(cfg).to_rows()


GOLDEN_INPUTS = {"scores": DATA / "golden_scores.csv",
                 "envelope": DATA / "golden_envelope.json",
                 "sets": DATA / "golden_sets.csv", "truth": DATA / "golden_scores.csv"}

# one small run of each subcommand, without its --out
RUNS = {
    "simulate-envelope": ["simulate-envelope", "--n", "20", "--m", "10", "--K", "2000",
                          "--seed", "7"],
    "predict": ["predict", "--scores", str(GOLDEN_INPUTS["scores"]),
                "--envelope", str(GOLDEN_INPUTS["envelope"]), "--alpha", "0.25",
                "--mode", "VA", "--fcp", "on"],
    "evaluate": ["evaluate", "--sets", str(GOLDEN_INPUTS["sets"]),
                 "--truth", str(GOLDEN_INPUTS["truth"])],
    "synth": ["synth", "--n", "20", "--m", "10", "--seed", "5"],
    "experiment": ["experiment", "--n", "40", "--m", "30", "--reps", "2",
                   "--K-env", "2000", "--seed", "3"],
}


# per subcommand: the typed values some of its flags resolve to, its seeds,
# the files it reads and its extras keys
@pytest.mark.parametrize("command, typed, seeds, inputs, extras", [
    ("simulate-envelope", {"n": 20, "K": 2000, "kind": "quantile"}, {"envelope": 7}, [],
     ["param"]),
    ("predict", {"alpha": 0.25, "fcp": True, "top-k": 0}, {}, ["scores", "envelope"],
     ["k", "threshold", "t_hat"]),
    ("evaluate", {"sets": str(GOLDEN_INPUTS["sets"])}, {}, ["sets", "truth"], []),
    ("synth", {"m": 10, "seed": 5, "d": 5}, {"data": 5}, [], []),
    ("experiment", {"reps": 2, "seed": 3, "k-top": 0}, {"master": 3}, [],
     ["aggregates", "t_hat"]),
])
def test_every_subcommand_writes_its_manifest(tmp_path, capsys, command, typed, seeds,
                                              inputs, extras):
    out = tmp_path / "payload"
    assert main(RUNS[command] + ["--out", str(out)]) == 0
    manifest = json.loads(Path(f"{out}.manifest.json").read_text())
    assert manifest["command"] == command
    config = manifest["config"]
    assert config["out"] == str(out)
    for name, value in typed.items():
        assert config[name] == value and type(config[name]) is type(value), name
    assert manifest["seeds"] == seeds
    assert manifest["inputs"] == {
        name: hashlib.sha256(GOLDEN_INPUTS[name].read_bytes()).hexdigest()
        for name in inputs}
    assert sorted(manifest["extras"]) == sorted(extras)
    assert manifest["payload"] == str(out)
    assert manifest["payload_sha256"] == hashlib.sha256(out.read_bytes()).hexdigest()
    # the recorded config replays the run byte for byte
    replay_config, replay = tmp_path / "replay.json", tmp_path / "replay"
    replay_config.write_text(json.dumps(config))
    assert main([command, "--config", str(replay_config), "--out", str(replay)]) == 0
    assert replay.read_bytes() == out.read_bytes()
    capsys.readouterr()


@pytest.mark.parametrize("command", RUNS)
@pytest.mark.parametrize("where", ["missing-directory", "existing-directory",
                                   "under-a-file"])
def test_an_unwritable_out_is_refused_before_any_work(tmp_path, capsys, command, where):
    directory, file = tmp_path / "dir", tmp_path / "file"
    directory.mkdir()
    file.write_text("")
    missing = tmp_path / "missing"
    out, message = {
        "missing-directory": (missing / "x",
                              f"--out {missing / 'x'}: {missing} is not a directory"),
        "existing-directory": (directory, f"--out {directory} is a directory"),
        "under-a-file": (file / "x", f"--out {file / 'x'}: {file} is not a directory"),
    }[where]
    assert main(RUNS[command] + ["--out", str(out)]) == 4
    assert capsys.readouterr().err == f"rankcp: data error: {message}\n"
    assert sorted(path.name for path in tmp_path.rglob("*")) == ["dir", "file"]


@pytest.mark.parametrize("command, module, name", [
    ("simulate-envelope", renv, "simulate_sorted_ranks"),
    ("experiment", cli, "run_experiment"),
])
def test_an_unwritable_out_computes_nothing(monkeypatch, tmp_path, command, module, name):
    def no_work(*args, **kwargs):
        raise AssertionError(f"{name} ran")

    monkeypatch.setattr(module, name, no_work)
    with pytest.raises(AssertionError, match=f"{name} ran"):
        main(RUNS[command] + ["--out", str(tmp_path / "x")])
    assert main(RUNS[command] + ["--out", str(tmp_path / "missing" / "x")]) == 4


# one flag of each converter, given a JSON value of another type
@pytest.mark.parametrize("command, key, value, kind", [
    ("synth", "n", 20.0, "an integer"),
    ("simulate-envelope", "delta", False, "a number"),
    ("experiment", "alpha", True, "a number"),
    ("predict", "fcp", 1, "a boolean or on/off"),
    ("synth", "mode", 1, "a string"),
], ids=["integer", "number-false", "number-true", "on-off", "text"])
def test_config_values_take_the_json_types_of_their_flag(tmp_path, capsys, command, key,
                                                         value, kind):
    cfg, out = tmp_path / "cfg.json", tmp_path / "out"
    cfg.write_text(json.dumps({key: value}))
    assert main(RUNS[command] + ["--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"rankcp: usage error: config key {key!r} must be {kind}, got {value!r}\n")
    assert list(tmp_path.iterdir()) == [cfg]


def test_config_values_of_the_flags_json_types_are_taken(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    for command, doc, typed in [
        ("synth", {"noise_sd": 1}, {"noise-sd": 1.0}),
        ("predict", {"test_only": True}, {"test-only": True}),
        ("predict", {"test_only": "off"}, {"test-only": False}),
    ]:
        cfg.write_text(json.dumps(doc))
        out = tmp_path / command
        assert main(RUNS[command] + ["--config", str(cfg), "--out", str(out)]) == 0
        config = json.loads(Path(f"{out}.manifest.json").read_text())["config"]
        assert {name: config[name] for name in typed} == typed
        assert all(type(config[name]) is type(value) for name, value in typed.items())


def test_a_failed_write_exits_4_naming_the_out(tmp_path, capsys):
    # a name too long for the file system passes the directory checks and
    # fails when the payload is opened
    out = tmp_path / ("x" * 300 + ".csv")
    assert main(RUNS["synth"] + ["--out", str(out)]) == 4
    reason = f"[Errno {errno.ENAMETOOLONG}] {os.strerror(errno.ENAMETOOLONG)}"
    assert capsys.readouterr().err.startswith(
        f"rankcp: data error: cannot write --out {out}: {reason}")
    assert list(tmp_path.iterdir()) == []
    # the manifest cannot be written where a directory takes its name, and
    # the payload written before it is removed
    out = tmp_path / "scores.csv"
    Path(f"{out}.manifest.json").mkdir()
    assert main(RUNS["synth"] + ["--out", str(out)]) == 4
    assert capsys.readouterr().err.startswith(
        f"rankcp: data error: cannot write --out {out}: [Errno {errno.EISDIR}]")
    assert [path.name for path in tmp_path.iterdir()] == ["scores.csv.manifest.json"]


@pytest.mark.parametrize("command, flag", [
    ("predict", "scores"), ("predict", "envelope"), ("evaluate", "sets"),
    ("evaluate", "truth"), ("predict", "config"), ("synth", "config"),
])
@pytest.mark.parametrize("spelling", ["same", "dot", "symlink", "hardlink"])
@pytest.mark.parametrize("written", ["payload", "manifest"])
def test_an_out_that_names_an_input_is_refused(tmp_path, capsys, command, flag, spelling,
                                               written):
    # the run would overwrite the input (or the config file) with its payload
    # or, where the input is named <out>.manifest.json, with its manifest
    # (which it did: synth --config s.csv.manifest.json --out s.csv exited 0)
    inputs = {name: tmp_path / f"{name}{GOLDEN_INPUTS[name].suffix}"
              for name in cli.COMMANDS[command].reads}
    if flag == "config":
        inputs["config"] = tmp_path / "config.json"
    suffix = ".manifest.json" if written == "manifest" else ""
    if suffix:
        inputs[flag] = tmp_path / f"run{suffix}"
    for name, path in inputs.items():
        path.write_bytes(GOLDEN_INPUTS[name].read_bytes() if name != "config"
                         else b'{"seed": 1}\n' if command == "synth" else b"{}\n")
    target = inputs[flag]
    files = {path: path.read_bytes() for path in tmp_path.iterdir()}
    stem = target.name[: len(target.name) - len(suffix)]
    out = {"same": str(tmp_path / stem), "dot": f"{tmp_path}/./{stem}",
           "symlink": str(tmp_path / "link"), "hardlink": str(tmp_path / "hard")}[spelling]
    if spelling == "symlink":
        os.symlink(target, out + suffix)
    elif spelling == "hardlink":
        os.link(target, out + suffix)
    argv = [RUNS[command][0]] + [arg for name, path in inputs.items()
                                 for arg in (f"--{name}", str(path))]
    argv += {"predict": ["--alpha", "0.25", "--mode", "VA"],
             "synth": ["--n", "20", "--m", "10"]}.get(command, [])
    assert main(argv + ["--out", out]) == 4
    assert capsys.readouterr().err == "rankcp: data error: " + (
        f"--{flag} names {out}{suffix}, the manifest of --out\n" if suffix
        else f"--out and --{flag} name the same file {out}\n")
    links = {Path(out + suffix)} if spelling in ("symlink", "hardlink") else set()
    assert {path: path.read_bytes() for path in tmp_path.iterdir() if path not in links} == files


# the files the envelope simulation reads to size its work to the memory left
_MEMORY_FILES = {renv._MEMINFO, renv._CGROUP_MAX, renv._CGROUP_CURRENT, renv._CGROUP_STAT}


@pytest.mark.parametrize("command", RUNS)
def test_no_command_reads_back_its_payload(tmp_path, monkeypatch, command):
    # main reads the config file and each input file once, and nothing else:
    # the manifest's payload digest is that of the bytes the writer wrote
    config, out = tmp_path / "config.json", tmp_path / "payload"
    config.write_text("{}\n")
    reads, real_open = [], builtins.open

    def recording_open(file, mode="r", *args, **kwargs):
        if not set(mode) & set("wax+"):
            reads.append(str(file))
        return real_open(file, mode, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(builtins, "open", recording_open)
        patch.setattr("io.open", recording_open)  # what pathlib opens files by
        assert main(RUNS[command] + ["--config", str(config), "--out", str(out)]) == 0
    inputs = [str(GOLDEN_INPUTS[name]) for name in cli.COMMANDS[command].reads]
    assert sorted(path for path in reads if path not in _MEMORY_FILES) == sorted(
        [str(config), *inputs])
    manifest = json.loads(Path(f"{out}.manifest.json").read_text())
    assert manifest["payload_sha256"] == hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("argv, code, message", [
    (["simulate-envelope", "--n", "5", "--m", "5"], 2,
     "usage error: --out is required for simulate-envelope"),
    (["simulate-envelope", "--n", "abc", "--m", "5", "--out", "{out}"], 2,
     "usage error: --n: invalid literal for int() with base 10: 'abc'"),
    (["predict", "--scores", str(DATA / "golden_scores.csv"),
      "--envelope", str(DATA / "golden_envelope.json"), "--mode", "VA",
      "--fcp", "maybe", "--out", "{out}"], 2,
     "usage error: --fcp: expected on/off, got 'maybe'"),
    (["synth", "--n", "5", "--m", "5", "--config", "{config}", "--out", "{out}"], 4,
     "config must be a JSON object"),
], ids=["missing-flag", "bad-int", "bad-on-off", "config-list"])
def test_flag_resolution_refusals(tmp_path, capsys, argv, code, message):
    config = tmp_path / "list.json"
    config.write_text("[1, 2]")
    out = tmp_path / "out"
    argv = [arg.format(out=out, config=config) for arg in argv]
    assert main(argv) == code
    assert message in capsys.readouterr().err
    assert sorted(path.name for path in tmp_path.iterdir()) == ["list.json"]
