"""Alternative prediction targets derived from full-rank sets.

Three targets beyond the pooled rank of a test item:

* calibration items: the envelope intervals themselves are simultaneous
  prediction sets (zero false coverage with probability ``1 - delta``);
* a test item's rank among the test items only, obtained by subtracting
  counts of calibration envelopes below the full-set edges;
* membership in the top ``k_top`` of the pooled ranking, by selecting every
  test item whose set meets ``[1, k_top]``.

All three work on the columns of :class:`RankSets`.
"""

from __future__ import annotations

import numpy as np

from .conformal import RankSets
from .envelope import Envelope
from .errors import DimensionMismatch, EmptyPredictionSet, InvalidInput
from .ranks import ItemId, _default_ids, as_count, as_ranks


def calibration_sets(
    env: Envelope, calib_ranks, ids: list[ItemId] | None = None
) -> RankSets:
    """Envelope interval of each calibration item, as full-rank sets.

    All ``n`` sets cover their items' pooled ranks simultaneously with
    probability at least ``1 - delta`` (minus Monte-Carlo slack).
    """
    ranks = as_ranks(calib_ranks, "calib_ranks")
    if ranks.shape != (env.n,):
        raise DimensionMismatch(f"need {env.n} calibration ranks, got {ranks.shape}")
    lo, hi = env.bounds_for_ranks(ranks)
    if ids is None:
        ids = _default_ids(env.n, 0)
    elif len(ids) != env.n:
        raise DimensionMismatch("ids must match the number of calibration items")
    return RankSets(items=ids, lo=lo, hi=hi)


def test_only_set(sets: RankSets, env: Envelope) -> RankSets:
    """Convert full-rank sets of test items into test-only rank sets.

    With ``a, b`` a full set's edges, subtract the number of calibration items
    guaranteed below: ``[a - N_minus, b - N_plus]`` where
    ``N_plus = #{r : upper[r] <= a}`` and ``N_minus = #{r : lower[r] <= b}``,
    clipped to ``[1, m]`` (the true test-only rank always lies there, so
    clipping cannot lose it).  Both counts are ``searchsorted`` calls on the
    nondecreasing envelope bounds.  Marginally valid at the same level as the
    full set whenever the envelope holds.

    Raises :class:`EmptyPredictionSet` when a converted set is empty: the
    envelope then rules out every rank in that item's full set.
    """
    if sets.kind != "full":
        raise InvalidInput("test_only_set expects full-rank sets")
    n_plus = np.searchsorted(env.upper, sets.lo, side="right")
    n_minus = np.searchsorted(env.lower, sets.hi, side="right")
    lo = np.maximum(sets.lo - n_minus, 1)
    hi = np.minimum(sets.hi - n_plus, env.m)
    empty = np.flatnonzero(lo > hi)
    if empty.size:
        j = empty[0]  # a flat index: batch sets are (rows, m) columns
        raise EmptyPredictionSet(
            f"test-only set of item {sets.items[j % len(sets.items)]!r} is empty: the "
            f"envelope rules out every rank of its full set "
            f"[{sets.lo.flat[j]}, {sets.hi.flat[j]}]")
    return RankSets(items=sets.items, lo=lo, hi=hi, kind="test_only")


def topk_candidates(sets: RankSets, k_top: int) -> np.ndarray:
    """Boolean mask of the test items whose full-rank set meets ``[1, k_top]``.

    A test item of the true top ``k_top`` is left out only where its set
    misses its true rank.  Of the true top ``k_top``, ``k_top * m / (n + m)``
    are test items in expectation and the calibration items hold the rest, so
    with marginal sets at level ``alpha`` the selected items overlap the true
    top ``k_top`` by at least ``k_top * m / (n + m) - alpha * m`` in
    expectation.  The mask is monotone (nested) in ``k_top``.  Batch sets give
    one mask row per problem.
    """
    k_top = as_count(k_top, "k_top", least=0)
    if sets.kind != "full":
        raise InvalidInput("topk_candidates expects full-rank sets")
    return sets.lo <= k_top
