"""Rank arithmetic and the ranking-problem data model.

Ranks are 1-based and count equality: the rank of ``y`` in a bag ``D`` is
``#{z in D : y >= z}``.  This is the wire convention used by every module in
the package.  A strict total order (no exact duplicates) is required wherever
ranks must be invertible; ties raise :class:`TiesDetected` instead of being
jittered silently, and :func:`break_ties` offers a deterministic opt-in
resolution.
"""

from __future__ import annotations

import math
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


def has_ties(values) -> bool:
    """True if the vector contains an exact duplicate."""
    arr = np.asarray(values).ravel()
    return np.unique(arr).size < arr.size


def check_no_ties(values, name: str = "values") -> None:
    """Raise :class:`TiesDetected` if the vector has exact duplicates."""
    if has_ties(values):
        raise TiesDetected(f"{name} contain exact duplicates; see break_ties")


def rank_of(y: float, bag) -> int:
    """Rank of ``y`` in a bag: the number of elements ``z`` with ``y >= z``.

    Ranges over ``[0, len(bag)]``; membership implies a rank of at least 1.
    """
    arr = _as_float_vector(bag, "bag")
    if arr.size == 0:
        raise InvalidInput("bag must be nonempty")
    return int(np.count_nonzero(float(y) >= arr))


def value_at_rank(r: int, bag) -> float:
    """The element of rank ``r`` (the r-th smallest) in a tie-free bag.

    Inverse of :func:`rank_of`: ``rank_of(value_at_rank(r, bag), bag) == r``.
    """
    arr = _as_float_vector(bag, "bag")
    if not 1 <= int(r) <= arr.size:
        raise RankOutOfRange(f"rank {r} outside [1, {arr.size}]")
    check_no_ties(arr, "bag")
    return float(np.partition(arr, int(r) - 1)[int(r) - 1])


def ranks_within(values) -> np.ndarray:
    """Rank of each element within its own tie-free vector.

    Returns a permutation of ``1..len(values)`` as int64.
    """
    arr = _as_float_vector(values, "values")
    check_no_ties(arr, "values")
    ranks = np.empty(arr.size, dtype=np.int64)
    ranks[np.argsort(arr)] = np.arange(1, arr.size + 1)
    return ranks


def break_ties(values, seed: int) -> np.ndarray:
    """Deterministic opt-in tie resolution.

    Orders the values, tied groups by a seeded random permutation, then
    sweeps the sorted sequence and raises each value that does not exceed
    its predecessor to the next float above the predecessor.  The steps are
    whole ulps, so rounding cannot absorb them: the output is tie-free and
    the order of non-tied values is preserved exactly.  Returns a copy and
    never mutates the input.
    """
    arr = _as_float_vector(values, "values")
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
    ``truth`` is optional and used for evaluation only.
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
        ranks = np.asarray(self.calib_ranks, dtype=np.int64)
        if ranks.shape != (self.n,) or not np.array_equal(
            np.sort(ranks), np.arange(1, self.n + 1)
        ):
            raise InvalidInput("calib_ranks must be a permutation of 1..n")
        self.calib_ranks = ranks

        if self.ranker_mode not in (RA, VA):
            raise InvalidInput(f"ranker_mode must be {RA!r} or {VA!r}")
        outputs = np.asarray(self.ranker_outputs)
        if outputs.shape != (total,):
            raise DimensionMismatch(
                f"ranker_outputs must have length n+m={total}, got {outputs.shape}"
            )
        if self.ranker_mode == RA:
            as_float = outputs.astype(float)
            if not np.all(as_float == np.round(as_float)):
                raise InvalidInput("RA ranker outputs must be integers")
            as_int = as_float.astype(np.int64)
            if as_int.min() < 1 or as_int.max() > total:
                raise InvalidInput(f"RA ranker outputs must lie in [1, {total}]")
            self.ranker_outputs = as_int
        else:
            as_float = outputs.astype(float)
            if not np.all(np.isfinite(as_float)):
                raise InvalidInput("VA ranker outputs must be finite")
            check_no_ties(as_float, "VA ranker outputs")
            self.ranker_outputs = as_float

        if self.truth is not None:
            t = _as_float_vector(self.truth, "truth")
            if t.shape != (total,):
                raise DimensionMismatch(f"truth must have length n+m={total}")
            check_no_ties(t, "truth")
            self.truth = t

        if self.ids is not None:
            if len(self.ids) != total:
                raise DimensionMismatch("ids must have length n+m")
            if len(set(self.ids)) != total:
                raise InvalidInput("ids must be unique")

    @property
    def total(self) -> int:
        return self.n + self.m

    @property
    def item_ids(self) -> list[ItemId]:
        return list(self.ids) if self.ids is not None else _default_ids(self.n, self.m)

    @property
    def calib_ids(self) -> list[ItemId]:
        return self.item_ids[: self.n]

    @property
    def test_ids(self) -> list[ItemId]:
        return self.item_ids[self.n :]

    @property
    def calib_outputs(self) -> np.ndarray:
        return self.ranker_outputs[: self.n]

    @property
    def test_outputs(self) -> np.ndarray:
        return self.ranker_outputs[self.n :]
