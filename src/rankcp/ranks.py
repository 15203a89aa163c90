"""Rank arithmetic and the ranking-problem data model.

Ranks are 1-based and count equality: the rank of ``y`` in a bag ``D`` is
``#{z in D : y >= z}``.  This is the wire convention used by every module in
the package.  A strict total order (no exact duplicates) is required wherever
ranks must be invertible; ties raise :class:`TiesDetected` instead of being
jittered silently, and :func:`break_ties` offers a deterministic opt-in
resolution.

This module owns the input rules the other modules apply, so each is written
once: the ordering of a value vector (:func:`_rank_rows`, the package's one
argsort of a value row, which also refuses NaN and ties), the rule for VA
ranker outputs (:func:`rank_va_outputs`: finite and tie-free), whole numbers,
the ranker-mode vocabulary (:func:`check_mode`) and item ids
(:func:`unique_ids`: no id listed twice, the rule of a
:class:`RankingProblem`'s ``ids`` and of the ids of the tables ``io`` reads).
A rank enters as an array through :func:`as_ranks` (the calibration ranks and
RA outputs of a :class:`RankingProblem`, the columns of
``conformal.RankSets``, the bounds of an ``envelope.Envelope`` and the ranks
of ``Envelope.bounds_for_ranks``, ``conformal.scores_at`` and
``targets.calibration_sets``); ``io.read_scores`` applies it to the RA outputs
of a table itself, so a bad one is a usage error.  The same function holds the
one range rule for ranks and indices: given ``top``, a value outside ``[1,
top]`` raises :class:`~rankcp.errors.RankOutOfRange` (an ``InvalidInput``),
worded ``<name> must lie in [1, <top>], got <v>``.  Its sites are the RA
outputs of a :class:`RankingProblem` and the ranks of ``conformal.scores_at``
(``n+m``), the bounds of an ``envelope.Envelope`` (``n+m``), the ranks of
``Envelope.bounds_for_ranks`` (``n``), the end columns of an
``envelope.SortedRankSample`` (``n+m``), ``conformal.calibrate``'s ``k`` (the
number of scores) and ``conformal.proxy_score_va``'s ``lo`` and ``hi`` (the
number of values); no other function tests a rank against a bound by its least
or greatest value.  A whole number given alone goes through :func:`as_count`,
the rule's one-value case, which also refuses a value below a floor: every
size and index of the package (``n``, ``m``, ``K``, ``k``, ``reps``, ``d``,
``k_top``, ``n_plus_m``) and the ranks of the scalar scores of ``conformal``.
Seeds keep ``streams.as_seed``'s stricter rule, since ``streams`` cannot
import this module.  A probability level (``alpha``, ``beta``, ``delta``,
``alpha_bar``, ``beta_bar``) goes through :func:`as_level`, which refuses what
is not one real number (:func:`_as_number`) and a value outside its interval.
An array of real numbers goes through :func:`as_values`, the value rule, which
reads integers and floats as float64, each element of an object array by
:func:`_as_number`, and refuses a boolean, a string, ``None``, a ragged list
and a number of dimensions the caller does not serve: the values of
:func:`break_ties` and :func:`ranks_within`, the VA outputs and ``truth`` of a
:class:`RankingProblem`, ``conformal.proxy_score_va``'s ``all_values``,
``conformal.calibrate``'s scores, the threshold value of
``conformal.predict_sets``, and the float path of :func:`as_ranks` itself; no
other function reads an input as floats.  A real number given alone goes
through :func:`as_number`, the value rule's one-value case, always finite:
``evaluate``'s noise levels, ``Envelope``'s ``param`` and ``mc_meta.slack``
and ``proxy_score_va``'s ``value``.  The value rule is also the one finite rule:
``finite`` refuses NaN and ±inf (the noise levels, ``param``,
``mc_meta.slack``, ``proxy_score_va``'s ``value`` and ``all_values``, the VA
outputs of :func:`rank_va_outputs` and the values of :func:`break_ties`), and
``nonnegative`` refuses NaN and a value below 0 but lets +inf pass (the noise
levels, ``mc_meta.slack``, ``conformal.calibrate``'s scores and the threshold
of ``conformal.predict_sets``, which is one of them: the VA gap of far-apart
outputs overflows to +inf, a score all the same).  No other module tests an
input for finiteness or sign.  ``evaluate.fcp`` and
``conformal.RankSets.contains`` read true ranks by :func:`as_ranks` with
``top=math.inf``: a rank above every set is missed, and one below 1, which no
item holds, is refused (``[1, inf)``). Ranks and order statistics have no
scalar functions: :func:`ranks_within` ranks every element of a vector, and
the ``r``-th smallest VA output of a problem is its ``sorted_outputs[r - 1]``.

A rule that refuses one element of an array says which: the error's ``at``
holds its flat position, or, for a repeat (a tie, a calibration rank or an
item id given twice), the positions of both, found by :func:`_first_repeat`,
the package's one repeat search.  ``io`` turns them into the lines of a file.

Vector operations work along the last axis, and :func:`tied_rows`,
:func:`ranks_within` and :class:`RankingProblem` also accept a leading batch
axis: a stack of independent rows, each checked and ranked on its own.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidDelta, InvalidInput, RankOutOfRange, TiesDetected
from .streams import stream

ItemId = str

RA = "RA"
VA = "VA"


def _sorted_has_ties(ordered: np.ndarray):
    """Per row of sorted values: an equal neighbour pair, or two NaNs (sorted last)."""
    right, left = ordered[..., 1:], ordered[..., :-1]
    tied = (right == left) | (np.isnan(right) & np.isnan(left))
    return tied.any(axis=-1)


def tied_rows(values: np.ndarray):
    """Per row of ``values``, whether it holds an exact duplicate (or two NaNs)."""
    return _sorted_has_ties(np.sort(values, axis=-1))


def check_mode(mode: str, name: str = "mode") -> None:
    """Refuse a ranker output type other than RA or VA, naming the parameter ``name``."""
    if mode not in (RA, VA):
        raise InvalidInput(f"{name} must be {RA!r} or {VA!r}")


def whole_numbers(values: np.ndarray) -> np.ndarray:
    """Where the float array ``values`` holds a whole number: not a fraction, NaN or ±inf."""
    return (np.trunc(values) == values) & np.isfinite(values)


def _as_array(values, name: str) -> np.ndarray:
    """``values`` as an array, of the boolean dtype where a list or tuple holds a boolean.

    numpy reads ``[True, 2]`` as int64, so the elements of a list or tuple are
    looked at, once, beside the one conversion; an array is taken as it is.
    A ragged list, which numpy cannot read, raises :class:`InvalidInput`
    naming ``name``.
    """
    try:
        arr = np.asarray(values)
    except ValueError:  # numpy's "inhomogeneous shape"
        raise InvalidInput(f"{name} must be a rectangular array, not a ragged list") from None
    if isinstance(values, (list, tuple)) and arr.dtype != bool:
        flat = values if arr.ndim == 1 else np.asarray(values, dtype=object).ravel()
        if {bool, np.bool_} & set(map(type, flat)):
            return arr.astype(bool)
    return arr


def _where(items, j) -> str:
    """`` for item ...``, naming the item of flat index ``j``, or nothing without ``items``."""
    return "" if items is None else f" for item {items[j % len(items)]!r}"


def as_ranks(values, name: str = "ranks", items=None, top: float | None = None) -> np.ndarray:
    """``values`` as int64; a value that is not a whole number is refused, not truncated.

    The one rule for ranks and indices.  An integer array passes without a
    scan, and an int64 one without a copy.  A boolean is not a number here
    and is refused (``True`` is no count of 1), also inside a list or tuple
    of integers, which numpy would read as int64.  Any other numbers are
    read as floats: NaN, ±inf, a fraction or a magnitude of 2**63 or more
    (which int64 cannot hold; an int beyond the float range too) raises
    :class:`InvalidInput` naming ``name`` and, where the caller names the
    items of the last axis, the item (a whole number is worded ``must be
    below 2**63``, or ``must be above -2**63`` where negative).  Where
    ``top`` is given, a value outside ``[1, top]`` raises
    :class:`RankOutOfRange` in the same terms (``top=math.inf`` refuses only
    a value below 1); one ``min()``/``max()`` pass tests the range, and the
    value is looked up only on failure.
    """
    arr = _as_array(values, name)
    if arr.dtype != bool and np.can_cast(arr.dtype, np.int64):  # integers need no scan
        ranks = arr.astype(np.int64, copy=False)
    else:
        noun = "integers" if arr.ndim else "an integer"
        as_float = as_values(arr, name, noun=noun)  # a huge int reads as ±inf
        whole = whole_numbers(as_float)
        bad = np.flatnonzero(~(whole & (np.abs(as_float) < 2.0**63)))
        if bad.size:
            j = bad[0]
            big = whole.flat[j] or isinstance(arr.flat[j], numbers.Integral)
            bound = "below 2**63" if as_float.flat[j] > 0 else "above -2**63"
            raise InvalidInput(f"{name} must be {bound if big else noun}, "
                               f"got {arr.flat[j]}{_where(items, j)}", at=(j,))
        ranks = as_float.astype(np.int64)
    if top is not None and ranks.size and (ranks.min() < 1 or ranks.max() > top):
        j = np.flatnonzero((ranks < 1) | (ranks > top))[0]
        span = f"[1, {top}]" if top < math.inf else "[1, inf)"
        raise RankOutOfRange(f"{name} must lie in {span}, got {ranks.flat[j]}"
                             f"{_where(items, j)}", at=(j,))
    return ranks


def as_count(value, name: str, least: int | None = None, top: int | None = None) -> int:
    """``value`` as an int: the one-value case of :func:`as_ranks`, for a size or an index.

    The one rule for a whole number given alone: a numpy integer or a whole
    float is read as the Python int it holds, and a fraction, NaN, ±inf or a
    magnitude of 2**63 or more raises :class:`InvalidInput` naming ``name``,
    as does a value below ``least``; an index outside ``[1, top]`` raises
    :class:`RankOutOfRange`.
    """
    count = as_ranks(value, name, top=top)
    if count.ndim:
        raise InvalidInput(f"{name} must be one number, got {value}")
    if least is not None and count < least:
        raise InvalidInput(f"need {name} >= {least}, got {name}={count}")
    return int(count)


def _as_number(value, name: str) -> float:
    """``value``, one real number (a 0-d array holding one too), as a float.

    A boolean (``True`` is no level of 1), a string, ``None`` and an array
    of any shape but 0-d raise :class:`InvalidInput` naming ``name``.  A
    number beyond the float range (a huge int) reads as ±inf.
    """
    number = value[()] if isinstance(value, np.ndarray) and not value.ndim else value
    if isinstance(number, (bool, np.bool_)) or not isinstance(number, numbers.Real):
        raise InvalidInput(f"{name} must be a number, got {value!r}")
    try:
        return float(number)
    except OverflowError:  # an int beyond the float range; math.copysign overflows too
        return math.inf if number > 0 else -math.inf


def as_number(value, name: str, nonnegative: bool = False) -> float:
    """``value`` as a finite float: the one-value case of :func:`as_values`.

    What is not one real number is refused as :func:`_as_number` refuses
    it, and NaN, ±inf and, with ``nonnegative``, a value below 0 as
    :func:`as_values` refuses them.
    """
    return float(as_values(_as_number(value, name), name, finite=True,
                           nonnegative=nonnegative))


def as_values(values, name: str, ndims: tuple[int, ...] | None = None,
              noun: str | None = None, finite: bool = False,
              nonnegative: bool = False) -> np.ndarray:
    """``values`` as float64: the one rule for an array of real numbers.

    An integer or float array is read as it is, a float64 one without a
    copy, and each element of an object array by :func:`_as_number` (an int
    beyond the float range reads as ±inf).  A boolean (``True`` is no score
    of 1), a string, ``None`` and a ragged list raise :class:`InvalidInput`
    naming ``name`` (``<name> must be <noun>, got bool``, where ``noun`` is
    by default ``numbers``, or ``a number`` for a 0-d value), and so does a
    number of dimensions outside ``ndims``: ``(1,)`` for a vector, ``(1,
    2)`` for a vector or a ``(rows, length)`` stack of vectors.

    The finite rule: ``finite`` refuses NaN and ±inf, and ``nonnegative``
    NaN and a value below 0 (+inf passes).  The first refused element
    raises :class:`InvalidInput` worded ``<name> must be finite``,
    ``nonnegative`` or ``finite and nonnegative, got <v>``, with its flat
    position in ``at``.
    """
    arr = _as_array(values, name)
    if arr.dtype.kind not in "iufO":
        noun = noun or ("numbers" if arr.ndim else "a number")
        raise InvalidInput(f"{name} must be {noun}, got {arr.dtype}")
    arr = (arr.astype(float, copy=False) if arr.dtype.kind != "O"
           else np.reshape([_as_number(v, name) for v in arr.flat], arr.shape))
    if ndims is not None and arr.ndim not in ndims:
        shape = "one-dimensional" if ndims == (1,) else "a vector or a stack of vectors"
        raise InvalidInput(f"{name} must be {shape}")
    if finite or nonnegative:
        ok = np.isfinite(arr) if finite else arr >= 0  # False for NaN
        if finite and nonnegative:
            ok &= arr >= 0
        if not ok.all():
            j = np.argmin(ok)
            rule = ("finite and nonnegative" if finite and nonnegative
                    else "finite" if finite else "nonnegative")
            raise InvalidInput(f"{name} must be {rule}, got {arr.flat[j]}", at=(j,))
    return arr


def as_level(value, name: str, positive: bool = False) -> float:
    """``value`` as a float: the one rule for a probability level.

    A level lies in ``[0, 1)``, or in ``(0, 1)`` where ``positive``.  What is
    not one real number (:func:`_as_number`) raises :class:`InvalidInput`,
    and NaN or a number outside the interval :class:`InvalidDelta`, naming
    ``name``.
    """
    level = _as_number(value, name)
    if not (0.0 < level < 1.0 if positive else 0.0 <= level < 1.0):  # False for nan
        raise InvalidDelta(f"{name}={value} outside " + ("(0, 1)" if positive else "[0, 1)"))
    return level


def _rank_rows(arr: np.ndarray, name: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each row of ``arr`` in increasing order, each element's 1-based rank, and the order.

    One argsort per call: a NaN, which has no rank, raises
    :class:`InvalidInput`, the sorted neighbours are checked for ties (raising
    :class:`TiesDetected`), both naming ``name``, and the ranks are the
    inverse permutation of the order, which is returned as the argsort gave it.
    """
    order = np.argsort(arr, axis=-1)
    ordered = np.take_along_axis(arr, order, axis=-1)
    if np.isnan(ordered[..., -1:]).any():  # argsort puts NaNs last
        raise InvalidInput(f"{name} contain NaN, which has no rank",
                           at=(np.argmax(np.isnan(arr)),))
    if np.any(_sorted_has_ties(ordered)):
        raise TiesDetected(f"{name} contain exact duplicates; see break_ties",
                           at=_first_repeat(arr.ravel().tolist(), arr.shape[-1]))
    return ordered, _inverse(order), order


def _inverse(order: np.ndarray) -> np.ndarray:
    """The 1-based ranks of the permutation ``order``, row by row."""
    ranks = np.empty(order.shape, dtype=np.int64)
    np.put_along_axis(ranks, order, np.arange(1, order.shape[-1] + 1), axis=-1)
    return ranks


def ranks_within(values, name: str = "values") -> np.ndarray:
    """Rank of each element within its own tie-free vector, which holds no NaN.

    Returns a permutation of ``1..len(values)`` as int64; for a
    ``(rows, length)`` stack, one permutation per row.  Errors name the
    values ``name``.
    """
    return _rank_rows(as_values(values, name, ndims=(1, 2)), name)[1]


def rank_va_outputs(outputs: np.ndarray, name: str = "VA ranker outputs"):
    """The rule for VA ranker outputs: finite and tie-free along the last axis.

    Returns :func:`_rank_rows` of the float array ``outputs``: each row in
    increasing order, the rank of each element and the argsort order.  The
    outputs are read by :func:`as_values` with ``finite``, and a tie raises
    :class:`TiesDetected`, naming ``name``.
    """
    return _rank_rows(as_values(outputs, name, finite=True), name)


def _first_repeat(values, width: int = 0) -> tuple[int, int] | None:
    """``(i, j)``, ``i < j``, where ``values[j]`` is the first to equal an earlier value.

    The package's one repeat search, in order over the sequence ``values``.
    With a ``width``, ``values`` is a flat run of rows of that length, and a
    value repeats only within its row.  ``None`` where no value repeats.
    """
    seen = {}
    for i, value in enumerate(values):
        key = (i // width, value) if width else value
        if key in seen:
            return seen[key], i
        seen[key] = i
    return None


def unique_ids(ids, name: str = "item ids") -> None:
    """The one item-id rule: no id of the sequence ``ids`` is listed twice.

    A repeat raises :class:`InvalidInput` naming ``name`` and the id, with
    the positions of its first two listings in ``at``.  The set size is
    tested on every call, and :func:`_first_repeat` runs only to locate a
    repeat.
    """
    if len(set(ids)) != len(ids):
        first, second = _first_repeat(ids)
        raise InvalidInput(f"{name} must be unique, got {ids[second]!r} twice",
                           at=(first, second))


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def break_ties(values, seed: int) -> np.ndarray:
    """Deterministic opt-in tie resolution.

    Orders the values, tied groups by a seeded random permutation, then
    sweeps the sorted sequence and raises each value that does not exceed
    its predecessor to the next float above the predecessor.  The steps are
    whole ulps, so rounding cannot absorb them: the output is tie-free and
    the order of non-tied values is preserved exactly.  Returns a copy and
    never mutates the input.  The values must be finite: no step parts two
    equal infinities, and NaN has no order.
    """
    arr = as_values(values, "values", ndims=(1,), finite=True)
    order = np.lexsort((stream(seed, "tie-break").permutation(arr.size), arr))
    swept = arr[order].tolist()
    for i in range(1, len(swept)):
        if swept[i] <= swept[i - 1]:
            swept[i] = math.nextafter(swept[i - 1], math.inf)
    out = np.empty_like(arr)
    out[order] = swept
    return out


def _default_ids(n: int, m: int) -> list[ItemId]:
    return [f"c{i}" for i in range(1, n + 1)] + [f"t{j}" for j in range(1, m + 1)]


@dataclass
class RankingProblem:
    """Calibration relative ranks, test items, and black-box ranker outputs.

    The sizes ``n >= 1`` and ``m >= 0`` are read by :func:`as_count`, so a
    numpy integer or a whole float is stored as a Python int and a fraction
    is refused.  ``calib_ranks`` must be a permutation of ``1..n``.  In RA
    mode the ranker outputs are predicted pooled ranks (integers in
    ``[1, n+m]``, repeats allowed); in VA mode they are real scores whose order induces the
    predicted ranking (ties rejected, same policy as for ``truth``).
    ``truth`` is optional and used for evaluation only; it must hold no NaN.
    The VA outputs (stored as a float64 copy) and ``truth`` are read by the
    value rule, :func:`as_values`, so a boolean or a string among them
    raises :class:`InvalidInput`.

    Validation ranks each row once, and the layers read the result from
    four read-only arrays instead of sorting again: ``sorted_outputs``, each
    row of VA outputs in increasing order (``None`` in RA mode);
    ``predicted_ranks``, the pooled rank the ranker gives each item (the RA
    outputs, or the ranks of the VA outputs within their row);
    ``test_order``, the test items' indices ``0..m-1`` in increasing order of
    their VA outputs, ``(..., m)``, taken from the same argsort (``None`` in
    RA mode); and ``true_ranks``, the pooled ranks of ``truth`` (``None``
    without truth).
    They are not recomputed, so build a new problem rather than edit
    ``ranker_outputs`` or ``truth`` in place.

    A *batch* of problems of the same sizes stacks them along a leading axis:
    ``calib_ranks`` is ``(rows, n)`` and ``ranker_outputs`` (and ``truth``)
    ``(rows, n+m)``.  Every row is validated on its own, and the item ids are
    shared by all rows.
    """

    n: int
    m: int
    calib_ranks: np.ndarray
    ranker_mode: str
    ranker_outputs: np.ndarray
    truth: np.ndarray | None = None
    ids: list[ItemId] | None = None

    def __post_init__(self):
        self.n, self.m = as_count(self.n, "n", least=1), as_count(self.m, "m", least=0)
        total = self.n + self.m
        check_mode(self.ranker_mode, "ranker_mode")
        outputs = _as_array(self.ranker_outputs, f"{self.ranker_mode} ranker outputs")
        lead = outputs.shape[:1] if outputs.ndim == 2 else ()
        ranks = as_ranks(self.calib_ranks, "calib_ranks")
        if ranks.shape != lead + (self.n,):
            raise InvalidInput("calib_ranks must be a permutation of 1..n")
        if not np.array_equal(
            np.sort(ranks, axis=-1), np.broadcast_to(np.arange(1, self.n + 1), ranks.shape)
        ):
            outside = np.flatnonzero((ranks < 1) | (ranks > self.n))[:1]
            # n ranks in [1, n] that make no permutation hold a repeat
            at = outside if outside.size else _first_repeat(ranks.ravel().tolist(), self.n)
            got = (f"{ranks.flat[at[0]]} outside [1, {self.n}]" if outside.size
                   else f"{ranks.flat[at[1]]} twice")
            raise InvalidInput(f"calib_ranks must be a permutation of 1..n, got {got}", at=at)
        self.calib_ranks = ranks

        if outputs.shape != lead + (total,) or not outputs.size:
            raise DimensionMismatch(
                f"ranker_outputs must have length n+m={total}, got {outputs.shape}"
            )
        self.sorted_outputs = self.test_order = self.true_ranks = None
        if self.ranker_mode == RA:
            ranks = as_ranks(self.ranker_outputs, "RA ranker outputs", top=total)
            self.ranker_outputs = ranks
            self.predicted_ranks = _frozen(ranks.view())
        else:
            self.ranker_outputs = as_values(outputs, "VA ranker outputs").copy()
            self.sorted_outputs, self.predicted_ranks, order = map(
                _frozen, rank_va_outputs(self.ranker_outputs))
            # each row's order lists its m test items, at n..n+m-1, in rank order
            self.test_order = _frozen(order[order >= self.n].reshape(lead + (self.m,)) - self.n)

        if self.truth is not None:
            t = as_values(self.truth, "truth")
            if t.shape != outputs.shape:
                raise DimensionMismatch(f"truth must have length n+m={total}")
            self.true_ranks = _frozen(ranks_within(t, "truth"))
            self.truth = t

        if self.ids is not None:
            if len(self.ids) != total:
                raise DimensionMismatch("ids must have length n+m")
            unique_ids(self.ids)
        self._item_ids = (
            list(self.ids) if self.ids is not None else _default_ids(self.n, self.m)
        )

    @property
    def total(self) -> int:
        return self.n + self.m

    @property
    def item_ids(self) -> list[ItemId]:
        return list(self._item_ids)

    @property
    def test_ids(self) -> list[ItemId]:
        return self._item_ids[self.n :]

    @property
    def calib_outputs(self) -> np.ndarray:
        return self.ranker_outputs[..., : self.n]

    @property
    def test_outputs(self) -> np.ndarray:
        return self.ranker_outputs[..., self.n :]
