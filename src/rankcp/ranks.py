"""Rank arithmetic and the ranking-problem data model.

Ranks are 1-based and count equality: the rank of ``y`` in a bag ``D`` is
``#{z in D : y >= z}``.  This is the wire convention used by every module in
the package.  A strict total order (no exact duplicates) is required wherever
ranks must be invertible; ties raise :class:`TiesDetected` instead of being
jittered silently, and :func:`break_ties` offers a deterministic opt-in
resolution.

This module owns the input rules the other modules apply, so each is written
once: the ordering of a value vector (:func:`_rank_rows`, one argsort that
also refuses NaN and ties), the rule for VA ranker outputs
(:func:`rank_va_outputs`: finite and tie-free), whole-number ranks
(:func:`as_rank`) and the ranker-mode vocabulary (:func:`check_mode`).  The
scalar scores of ``conformal`` read their order statistics through these
rules, as :class:`RankingProblem` does for the array path.

Vector operations work along the last axis, and :func:`has_ties`,
:func:`ranks_within` and :class:`RankingProblem` also accept a leading batch
axis: a stack of independent rows, each checked and ranked on its own.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidInput,
    RankOutOfRange,
    TiesDetected,
)
from .streams import stream

ItemId = str

RA = "RA"
VA = "VA"


def _as_float_vector(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise InvalidInput(f"{name} must be one-dimensional")
    return arr


def _as_float_rows(values, name: str) -> np.ndarray:
    """A vector, or a ``(rows, length)`` stack of vectors, as floats."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim not in (1, 2):
        raise InvalidInput(f"{name} must be a vector or a stack of vectors")
    return arr


def _sorted_has_ties(ordered: np.ndarray):
    """Per row of sorted values: an equal neighbour pair, or two NaNs (sorted last)."""
    right, left = ordered[..., 1:], ordered[..., :-1]
    tied = (right == left) | (np.isnan(right) & np.isnan(left))
    return tied.any(axis=-1)


def has_ties(values):
    """True if the vector contains an exact duplicate (NaNs count as equal).

    For a ``(rows, length)`` stack, a boolean per row.
    """
    tied = _sorted_has_ties(np.sort(np.atleast_1d(values), axis=-1))
    return bool(tied) if tied.ndim == 0 else tied


def check_mode(mode: str, name: str = "mode") -> None:
    """Refuse a ranker output type other than RA or VA, naming the parameter ``name``."""
    if mode not in (RA, VA):
        raise InvalidInput(f"{name} must be {RA!r} or {VA!r}")


def as_rank(r) -> int:
    """``r`` as an int; a value that is not a whole number is refused, not truncated."""
    if not (isinstance(r, numbers.Real) and math.isfinite(r) and r == int(r)):
        raise InvalidInput(f"ranks must be integers, got {r}")
    return int(r)


def _refuse_nan(values: np.ndarray, name: str) -> None:
    if np.isnan(values).any():
        raise InvalidInput(f"{name} contain NaN, which has no rank")


def rank_of(y: float, bag) -> int:
    """Rank of ``y`` in a bag: the number of elements ``z`` with ``y >= z``.

    Ranges over ``[0, len(bag)]``; membership implies a rank of at least 1.
    The bag may hold ties, but neither it nor ``y`` may be NaN.
    """
    arr = _as_float_vector(bag, "bag")
    if arr.size == 0:
        raise InvalidInput("bag must be nonempty")
    y = float(y)
    _refuse_nan(np.append(arr, y), "y and bag")
    return int(np.count_nonzero(y >= arr))


def value_at_rank(r: int, bag) -> float:
    """The element of rank ``r`` (the r-th smallest) in a tie-free bag without NaN.

    Inverse of :func:`rank_of`: ``rank_of(value_at_rank(r, bag), bag) == r``.
    """
    arr = _as_float_vector(bag, "bag")
    r = as_rank(r)
    if not 1 <= r <= arr.size:
        raise RankOutOfRange(f"rank {r} outside [1, {arr.size}]")
    return float(_rank_rows(arr, "bag")[0][r - 1])


def _rank_rows(arr: np.ndarray, name: str) -> tuple[np.ndarray, np.ndarray]:
    """Each row of ``arr`` in increasing order, and the 1-based rank of each element.

    One argsort per call: a NaN, which has no rank, raises
    :class:`InvalidInput`, the sorted neighbours are checked for ties (raising
    :class:`TiesDetected`), both naming ``name``, and the ranks are the
    inverse permutation of the order.
    """
    order = np.argsort(arr, axis=-1)
    ordered = np.take_along_axis(arr, order, axis=-1)
    _refuse_nan(ordered[..., -1:], name)  # argsort puts NaNs last
    if np.any(_sorted_has_ties(ordered)):
        raise TiesDetected(f"{name} contain exact duplicates; see break_ties")
    ranks = np.empty(arr.shape, dtype=np.int64)
    np.put_along_axis(ranks, order, np.arange(1, arr.shape[-1] + 1), axis=-1)
    return ordered, ranks


def ranks_within(values, name: str = "values") -> np.ndarray:
    """Rank of each element within its own tie-free vector, which holds no NaN.

    Returns a permutation of ``1..len(values)`` as int64; for a
    ``(rows, length)`` stack, one permutation per row.  Errors name the
    values ``name``.
    """
    return _rank_rows(_as_float_rows(values, name), name)[1]


def rank_va_outputs(outputs: np.ndarray, name: str = "VA ranker outputs"):
    """The rule for VA ranker outputs: finite and tie-free along the last axis.

    Returns :func:`_rank_rows` of the float array ``outputs``: each row in
    increasing order and the rank of each element.  A non-finite output
    raises :class:`InvalidInput` and a tie :class:`TiesDetected`, naming
    ``name``.
    """
    if not np.all(np.isfinite(outputs)):
        raise InvalidInput(f"{name} must be finite")
    return _rank_rows(outputs, name)


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
    arr = _as_float_vector(values, "values")
    if not np.all(np.isfinite(arr)):
        raise InvalidInput("break_ties needs finite values")
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

    ``calib_ranks`` must be a permutation of ``1..n``.  In RA mode the ranker
    outputs are predicted pooled ranks (integers in ``[1, n+m]``, repeats
    allowed); in VA mode they are real scores whose order induces the
    predicted ranking (ties rejected, same policy as for ``truth``).
    ``truth`` is optional and used for evaluation only; it must hold no NaN.

    Validation ranks each row once, and the layers read the result from
    three read-only arrays instead of sorting again: ``sorted_outputs``, each
    row of VA outputs in increasing order (``None`` in RA mode);
    ``predicted_ranks``, the pooled rank the ranker gives each item (the RA
    outputs, or the ranks of the VA outputs within their row); and
    ``true_ranks``, the pooled ranks of ``truth`` (``None`` without truth).
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
        if self.n < 1 or self.m < 0:
            raise InvalidInput("need n >= 1 and m >= 0")
        total = self.n + self.m
        outputs = np.asarray(self.ranker_outputs)
        lead = outputs.shape[:1] if outputs.ndim == 2 else ()
        ranks = np.asarray(self.calib_ranks, dtype=np.int64)
        if ranks.shape != lead + (self.n,) or not np.array_equal(
            np.sort(ranks, axis=-1), np.broadcast_to(np.arange(1, self.n + 1), ranks.shape)
        ):
            raise InvalidInput("calib_ranks must be a permutation of 1..n")
        self.calib_ranks = ranks

        check_mode(self.ranker_mode, "ranker_mode")
        if outputs.shape != lead + (total,) or not outputs.size:
            raise DimensionMismatch(
                f"ranker_outputs must have length n+m={total}, got {outputs.shape}"
            )
        as_float = outputs.astype(float)
        self.sorted_outputs = self.true_ranks = None
        if self.ranker_mode == RA:
            if not np.all(as_float == np.round(as_float)):
                raise InvalidInput("RA ranker outputs must be integers")
            # range first, on the floats: a cast of 1e20 to int64 is undefined
            if as_float.min() < 1 or as_float.max() > total:
                raise InvalidInput(f"RA ranker outputs must lie in [1, {total}]")
            as_int = as_float.astype(np.int64)
            self.ranker_outputs = as_int
            self.predicted_ranks = _frozen(as_int.view())
        else:
            self.ranker_outputs = as_float
            self.sorted_outputs, self.predicted_ranks = map(
                _frozen, rank_va_outputs(as_float))

        if self.truth is not None:
            t = np.asarray(self.truth, dtype=float)
            if t.shape != outputs.shape:
                raise DimensionMismatch(f"truth must have length n+m={total}")
            self.true_ranks = _frozen(_rank_rows(t, "truth")[1])
            self.truth = t

        if self.ids is not None:
            if len(self.ids) != total:
                raise DimensionMismatch("ids must have length n+m")
            if len(set(self.ids)) != total:
                raise InvalidInput("ids must be unique")
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
