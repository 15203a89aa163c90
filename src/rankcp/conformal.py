"""Conformity scores, proxy scores, thresholds, and rank prediction sets.

The conformity score of an item at a candidate pooled rank ``r`` measures the
ranker's error there:

* RA mode (ranker emits ranks): ``|r - predicted_rank|``.
* VA mode (ranker emits values): ``|sorted_outputs[r - 1] - output|``, the
  gap between the item's output and the ``r``-th smallest output, the one it
  would need to sit at rank ``r``.

True scores of calibration items are not computable (their pooled ranks are
unknown), so each is replaced by its *proxy*: the maximum score over the
item's envelope interval, attained at the interval edges for both score
families.  Calibrating on the k-th smallest proxy score with
``k = ceil((1 - alpha + delta)(n + 1))`` yields marginally valid sets at level
``1 - alpha`` whenever the envelope holds at level ``1 - delta``.

The stages pass plain arrays: :func:`proxy_scores` returns the scores, and
:func:`calibrate`, the one path to a :class:`Threshold`, takes any score
array (the oracle arm passes the true scores).  :func:`predict_sets` returns
the prediction sets of all test items as one :class:`RankSets`, int64
``lo``/``hi`` columns; indexing it gives :class:`RankSet`, a plain
``NamedTuple`` view of a single row, which is not validated again.  The
scores of :func:`calibrate`, the values of :func:`proxy_score_va` and the
threshold value :func:`predict_sets` reads go through ``ranks.as_values``,
the one rule for real-valued arrays, and the ranks of
:meth:`RankSets.contains` through ``ranks.as_ranks``.

:func:`scores_at`, :func:`proxy_scores` and :func:`predict_sets` also take a
batch :class:`RankingProblem` (problems stacked along a leading axis) and
then return ``(rows, n)`` scores and ``(rows, m)`` set columns, and
:func:`calibrate` gives ``(rows, n)`` scores a per-row threshold.  Each row
equals the result of the same call on that problem alone.

:func:`fcp_calibration` instead picks ``k`` so that the false coverage
proportion over the m test items stays below ``alpha_bar`` with probability at
least ``1 - beta_bar - delta``.  The vector of conformal p-values of test
scores among calibration scores follows a universal distribution; the one
order statistic that decides FCP control has a negative-hypergeometric law,
so ``k`` is computed exactly rather than simulated.

The scalar scores :func:`score_ra`, :func:`proxy_score_ra` and
:func:`proxy_score_va` are kept for the closed-form checks of the API (a VA
score at one rank ``r`` is ``proxy_score_va(r, r, ...)``); ``ranks`` owns
the rules they apply, so they refuse what the array path refuses: a rank
that is not a whole number or, in :func:`proxy_score_va`, lies outside the
values (``ranks.as_count``, the one-value case of the rule that
:class:`RankSets` and :func:`scores_at` apply), and VA values
that are not finite or hold ties (the item's own value must be finite
too).  :func:`calibrate` is the one order-statistic selection here; every
other ordering is read from ``ranks``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .envelope import Envelope, _ceil_count
from .errors import DimensionMismatch, InfeasibleLevel, InvalidInput
from .ranks import (RA, ItemId, RankingProblem, _as_array, _as_number, as_count, as_level,
                    as_ranks, as_values, rank_va_outputs)

MARGINAL = "marginal"
FCP_CONTROLLED = "fcp_controlled"

# Paper-default levels: miscoverage alpha, FCP exceedance budget beta,
# envelope level delta.
DEFAULT_ALPHA = 0.1
DEFAULT_BETA = 0.25
DEFAULT_DELTA = 0.02

SET_KINDS = ("full", "test_only")


@dataclass
class FcpCalibration:
    """Result of the exact FCP threshold selection."""

    k: int
    t_hat: float
    alpha_bar: float
    beta_bar: float
    delta: float


@dataclass
class Threshold:
    """Calibrated score threshold: the k-th smallest calibration score.

    ``value`` is a float, or for a batch problem a ``(rows,)`` array holding
    each row's own k-th smallest score.
    """

    k: int
    value: float | np.ndarray
    alpha: float | None = None


class RankSet(NamedTuple):
    """Row ``j`` of a :class:`RankSets`: item ``item``'s set ``[lo, hi]`` of ``size`` ranks.

    Only indexing and iterating a :class:`RankSets` build one; the columns
    were validated there.
    """

    item: ItemId
    lo: int
    hi: int
    kind: str
    size: int


@dataclass(eq=False)
class RankSets:
    """Prediction sets ``[lo[j], hi[j]]`` of many items, held as int64 columns.

    ``items[j]`` names row ``j``; ``kind``, shared by all rows, is
    ``"full"`` (rank among all n+m items) or ``"test_only"`` (rank among the
    m test items).  ``lo`` and ``hi`` must be whole numbers with
    ``1 <= lo <= hi``, checked once, on construction, by the rank rule of
    :func:`~rankcp.ranks.as_ranks` (an integer column needs no scan); a list
    column is turned into an array once, and its shape checked before any
    message names an item.
    ``len``, integer indexing and iteration give :class:`RankSet` views of
    single rows, for API use; library code works on the columns.

    The sets of a batch problem are ``(rows, len(items))`` columns, one row
    per problem, with the item names shared; ``len`` is then the number of
    items and the :class:`RankSet` views are not available.
    """

    items: list[ItemId]
    lo: np.ndarray
    hi: np.ndarray
    kind: str = "full"

    def __post_init__(self):
        if self.kind not in SET_KINDS:
            raise InvalidInput(f"unknown set kind {self.kind!r}")
        self.items = list(self.items)
        lo, hi = _as_array(self.lo, "ranks"), _as_array(self.hi, "ranks")
        if (lo.ndim not in (1, 2) or lo.shape[-1] != len(self.items)
                or hi.shape != lo.shape):
            raise DimensionMismatch("need one lo and one hi per item")
        self.lo, self.hi = (as_ranks(edge, "ranks", self.items) for edge in (lo, hi))
        bad = np.flatnonzero((self.lo < 1) | (self.lo > self.hi))
        if bad.size:
            j = bad[0]
            raise InvalidInput(
                f"need 1 <= lo <= hi, got [{self.lo.flat[j]}, {self.hi.flat[j]}] "
                f"for item {self.items[j % len(self.items)]!r}", at=(j,)
            )

    @property
    def size(self) -> np.ndarray:
        return self.hi - self.lo + 1

    def contains(self, ranks) -> np.ndarray:
        """Whether each rank lies in its set; a rank below 1 is refused."""
        ranks = as_ranks(ranks, "ranks", top=math.inf)
        return (self.lo <= ranks) & (ranks <= self.hi)

    def __len__(self) -> int:
        return len(self.items)

    def __getitem__(self, j: int) -> RankSet:
        if self.lo.ndim != 1:
            raise InvalidInput("a batch of sets has no single-item views")
        lo, hi = int(self.lo[j]), int(self.hi[j])
        return RankSet(self.items[j], lo, hi, self.kind, hi - lo + 1)

    def __iter__(self):
        return (self[j] for j in range(len(self)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, RankSets):
            return NotImplemented
        return (self.items, self.kind) == (other.items, other.kind) and bool(
            np.array_equal(self.lo, other.lo) and np.array_equal(self.hi, other.hi)
        )


def score_ra(r: int, predicted_rank: int) -> float:
    """Residual score in RA mode: ``|r - predicted_rank|``."""
    r = as_count(r, "r", least=1)
    return float(abs(r - as_count(predicted_rank, "predicted_rank", least=1)))


def proxy_score_ra(lo: int, hi: int, predicted_rank: int) -> float:
    """Max RA score over ``r in [lo, hi]``; attained at an interval edge."""
    lo, hi = as_count(lo, "lo", least=1), as_count(hi, "hi", least=1)
    if lo > hi:
        raise InvalidInput(f"need lo <= hi, got [{lo}, {hi}]")
    return max(score_ra(lo, predicted_rank), score_ra(hi, predicted_rank))


def proxy_score_va(lo: int, hi: int, value: float, all_values) -> float:
    """Max VA score over ``r in [lo, hi]``.

    The gap is decreasing then increasing as ``r`` sweeps past the value's own
    position, so the maximum sits at an edge; one ordering serves both edges.
    ``all_values`` follow the VA output rule of :func:`rank_va_outputs`, and
    ``value``, the item's own output, must be finite.
    """
    arr = as_values(all_values, "all_values", ndims=(1,))
    lo, hi = as_count(lo, "lo", top=arr.size), as_count(hi, "hi", top=arr.size)
    if lo > hi:
        raise InvalidInput(f"need lo <= hi, got [{lo}, {hi}]")
    if not math.isfinite(_as_number(value, "value")):
        raise InvalidInput(f"value must be finite, got {value}")
    ordered = rank_va_outputs(arr, "all_values")[0]
    return float(max(abs(ordered[lo - 1] - value), abs(ordered[hi - 1] - value)))


def scores_at(problem: RankingProblem, calib_ranks_at) -> np.ndarray:
    """Score ``|at(r) - output|`` of each calibration item at a given pooled rank ``r``.

    The one score kernel.  ``at(r)`` is the output an item needs to sit at
    rank ``r``: ``r`` itself in RA mode, ``problem.sorted_outputs[r - 1]`` in
    VA mode.  The oracle evaluates it at the true pooled ranks and
    :func:`proxy_scores` at the envelope edges.  Batch ranks are ``(rows, n)``.
    """
    ranks = as_ranks(calib_ranks_at, "pooled ranks", top=problem.total)
    if ranks.shape != problem.calib_ranks.shape:
        raise DimensionMismatch("need one rank per calibration item")
    at = (ranks if problem.ranker_mode == RA
          else np.take_along_axis(problem.sorted_outputs, ranks - 1, axis=-1))
    return np.abs(at - problem.calib_outputs).astype(float, copy=False)


def proxy_scores(problem: RankingProblem, env: Envelope) -> np.ndarray:
    """Proxy score of every calibration item under an envelope.

    The larger of :func:`scores_at` at the item's two envelope edges, which
    is the maximum over its whole envelope interval for both score families,
    so it dominates the item's true score whenever the envelope covers the
    item's pooled rank.  Returns ``(n,)`` scores, or ``(rows, n)`` for a batch.
    """
    if (env.n, env.m) != (problem.n, problem.m):
        raise DimensionMismatch(
            f"envelope is ({env.n}, {env.m}) but problem is ({problem.n}, {problem.m})"
        )
    lo, hi = env.bounds_for_ranks(problem.calib_ranks)
    return np.maximum(scores_at(problem, lo), scores_at(problem, hi))


def select_k(alpha: float, delta: float, n: int) -> int:
    """Calibration index ``k = ceil((1 - alpha + delta)(n + 1))``.

    The ceiling is the envelope fits' own, ``envelope._ceil_count``.
    ``delta = 0`` recovers plain split calibration (used by the oracle
    baseline and the naive envelope).  Raises :class:`InfeasibleLevel` when
    ``k > n``: there is no finite k-th order statistic among n scores, so the
    requested levels need a larger calibration set.
    """
    alpha, delta = as_level(alpha, "alpha", positive=True), as_level(delta, "delta")
    if not delta < alpha:
        raise InvalidInput(f"need 0 <= delta < alpha < 1, got alpha={alpha}, delta={delta}")
    n = as_count(n, "n", least=1)
    k = _ceil_count(1.0 - alpha + delta, n + 1)
    if k > n:
        raise InfeasibleLevel(
            f"k={k} exceeds n={n} for alpha={alpha}, delta={delta}; "
            "increase n or alpha (the exact set would be the trivial [1, n+m])"
        )
    return max(1, k)


def calibrate(scores, k: int, alpha: float | None = None) -> Threshold:
    """Threshold at the k-th smallest of ``n`` scores (ties counted with multiplicity).

    ``scores`` is any array-like of ``n`` calibration scores (proxy or true),
    or a ``(rows, n)`` stack whose threshold value is each row's own k-th
    smallest score.  ``k`` comes from :func:`select_k` (marginal validity) or
    :func:`fcp_calibration` (FCP control); the threshold does not depend on
    which.  ``alpha`` is recorded on the threshold as given.
    """
    arr = as_values(scores, "scores", ndims=(1, 2))
    n = arr.shape[-1]
    k = as_count(k, "k", top=n)  # a rank among the n scores
    value = np.partition(arr, k - 1, axis=-1)[..., k - 1]
    return Threshold(k=k, value=float(value) if value.ndim == 0 else value,
                     alpha=alpha)


def _bisect(lo: np.ndarray, hi: np.ndarray, pred) -> np.ndarray:
    """Elementwise smallest ``i`` in ``[lo, hi)`` with ``pred(i)``, else ``hi``.

    ``pred`` maps one index per item to one boolean per item and must be
    monotone (False, then True) on each item's range; ``lo <= hi``.  Each
    round halves every open range, so ``bit_length(max(hi - lo))`` rounds
    on whole arrays suffice.  A closed item (``lo == hi``) keeps its answer,
    and its probe is clipped to ``max(hi) - 1`` so ``pred`` never reads past
    the last index any range reaches.
    """
    last = int(np.max(hi, initial=0)) - 1
    for _ in range(int(np.max(hi - lo, initial=0)).bit_length()):
        mid = (lo + hi) // 2
        ok = pred(np.minimum(mid, last)) | (lo == hi)
        hi = np.where(ok, mid, hi)
        lo = np.where(ok, lo, mid + 1)
    return lo


def _edge_guesses(rows: np.ndarray, needles: np.ndarray, limit: np.ndarray):
    """Guessed VA set edges: ``searchsorted`` of ``v - s`` (left) and ``v + s`` (right).

    ``rows`` is ``(R, L)``, each row increasing; ``needles`` ``(R, k)`` holds
    each row's test outputs ``v``, increasing along the row too, which keeps
    the search local in memory; ``limit`` is each row's threshold ``s``,
    ``(R, 1)``.  Returns two flat indices per needle, near ``b L +
    searchsorted(rows[b], ...)`` for its row ``b``.

    One search serves all rows: every value is shifted by ``-low`` and row
    ``b`` by a further ``2 b (high - low)``, so the rows, laid end to end,
    stay in order and apart, and each probe, clipped to ``[low, high]``
    first, stays within its own row's span.  ``v -/+ s`` and the shifted sums
    round, so the results are guesses, never answers: callers check them.
    Where the shifted layout would overflow (``2 R (high - low)`` not
    finite for ``R`` rows), every value is first scaled by
    ``2**-(3 + R.bit_length())``: a power of two scales exactly, and this
    one keeps every shifted sum finite.
    """
    low, high = rows[:, 0].min(), rows[:, -1].max()
    count = rows.shape[0]
    # Python floats overflow to inf without a warning
    if not math.isfinite(2.0 * count * (float(high) - float(low))):
        scale = 2.0 ** -(3 + count.bit_length())
        rows, needles, limit = rows * scale, needles * scale, limit * scale
        low, high = low * scale, high * scale
    guesses = []
    with np.errstate(over="ignore", invalid="ignore"):
        offset = np.arange(count)[:, None] * (2.0 * (high - low))
        keys = rows - low
        keys += offset
        for probes, side in ((needles - limit, "left"), (needles + limit, "right")):
            np.clip(probes, low, high, out=probes)
            probes -= low
            probes += offset
            guesses.append(np.searchsorted(keys.ravel(), probes.ravel(), side=side))
    return guesses


def _checked_search(guess: np.ndarray, lo: np.ndarray, hi: np.ndarray, pred) -> np.ndarray:
    """:func:`_bisect`'s answer, from a guess that is checked on the predicate itself.

    ``pred(i, at)`` evaluates the predicate at index ``i[j]`` for item
    ``at[j]`` (``at`` is an index array, or ``slice(None)`` for every item).
    The answer is the ``g`` in ``[lo, hi]`` with ``pred`` true at ``g`` (or
    ``g == hi``) and false at ``g - 1`` (or ``g == lo``); the clipped guess
    is kept where it passes, and only the items where it fails are bisected,
    over their full range.
    """
    g = np.clip(guess, lo, hi)
    # the probes at g == hi and at g - 1 == lo - 1 may lie outside the item's
    # range (even at index -1); their answers are masked
    ok = ((g == hi) | pred(np.minimum(g, hi - 1), slice(None))) & (
        (g == lo) | ~pred(g - 1, slice(None)))
    bad = np.flatnonzero(~ok)
    if bad.size:
        g[bad] = _bisect(lo[bad], hi[bad], lambda i: pred(i, bad))
    return g


def predict_sets(problem: RankingProblem, thr: Threshold) -> RankSets:
    """Prediction sets of all test items: the exact sublevel sets of the score.

    RA: ``{r : |r - pred| <= s}``, i.e. ``pred -/+ floor(s)`` clipped to
    ``[1, n+m]``.  VA: ``{r : |sorted[r-1] - v| <= s}`` in float arithmetic.
    ``fl(x - v)`` is monotone in ``x`` and 0 at the item's own output, so this
    is one run of ranks around the item's own rank.  Each edge is guessed by a
    ``searchsorted`` of ``v -/+ s`` in the sorted outputs, then checked
    against the predicate itself: the guessed edge must be in the set and its
    outer neighbour out.  The rounding of ``v -/+ s`` (or of the shifted keys
    of :func:`_edge_guesses`) can move a guess by one or more; an item whose
    guess fails the check is bisected on the predicate over its full range.
    So the sets are exact at any magnitude, with O(n+m) memory.

    VA reads ``problem.sorted_outputs``, each item's own rank from
    ``problem.predicted_ranks`` and the order of its needles from
    ``problem.test_order``, so nothing is sorted here.  For a batch
    problem and its per-row threshold the result has ``(rows, m)`` columns.
    VA then searches all rows at once: the sorted rows are laid end to end and
    each item's edges lie in its own row's span, against its own row's
    threshold.
    """
    value = as_values(thr.value, "threshold")
    if value.shape != problem.calib_ranks.shape[:-1]:
        raise DimensionMismatch("need one threshold per problem of the batch")
    if not np.all(value >= 0):
        raise InvalidInput("threshold must be nonnegative")
    total = problem.total
    # one threshold per row, broadcast against that row's m test items
    per_item = value[..., None]
    if problem.ranker_mode == RA:
        reach = np.floor(np.minimum(per_item, total)).astype(np.int64)
        pred = problem.test_outputs
        lo, hi = np.maximum(pred - reach, 1), np.minimum(pred + reach, total)
    else:
        rows = np.atleast_2d(problem.sorted_outputs)
        ordered = rows.ravel()
        # flat index of the first sorted output of each test item's own row
        start = np.repeat(np.arange(0, ordered.size, total), problem.m)
        own = start + problem.predicted_ranks[..., problem.n :].ravel() - 1
        values = problem.test_outputs.ravel()
        limit = np.broadcast_to(per_item, problem.test_outputs.shape).ravel()

        def within(i, at):
            # outputs far apart overflow to inf, which is outside every threshold
            with np.errstate(over="ignore"):
                return np.abs(ordered[i] - values[at]) <= limit[at]

        # the flat test items in rank order, row by row, so the needles increase
        by_rank = (problem.test_order + np.arange(len(rows))[:, None] * problem.m).ravel()
        low, high = np.empty_like(own), np.empty_like(own)
        low[by_rank], high[by_rank] = _edge_guesses(
            rows, values[by_rank].reshape(len(rows), problem.m), np.atleast_2d(per_item))
        lo = _checked_search(low, start, own, within) - start + 1
        hi = _checked_search(high, own + 1, start + total,
                             lambda i, at: ~within(i, at)) - start
        shape = problem.test_outputs.shape
        lo, hi = lo.reshape(shape), hi.reshape(shape)
    return RankSets(items=problem.test_ids, lo=lo, hi=hi)


def fcp_calibration(
    alpha_bar: float,
    beta_bar: float,
    delta: float,
    n: int,
    m: int,
    K: int | None = None,
    seed: int | None = None,
) -> FcpCalibration:
    """Exact FCP-controlling calibration index.

    With ``a = floor(m alpha_bar) + 1`` and ``j0 = m - a``, the test p-value
    that decides FCP control is fixed by ``X``, the number of calibration
    items below the ``(j0 + 1)``-th smallest test item.  Its law is universal
    (negative hypergeometric):

        P(X = x) = C(x + j0, x) C(n - x + r, n - x) / C(n + m, n),
        r = m - j0 - 1.

    ``x*`` is the largest ``x`` with ``P(X >= x) >= beta_bar``, found by
    summing the tail from ``x = n`` down in exact integers against the exact
    binary value of ``beta_bar``.  The returned index is ``k = min(n, max(1, x*))``
    and ``t_hat = (n + 1 - x*) / (n + 1)`` is the exact ``beta_bar``-quantile
    of that p-value, with no Monte-Carlo error.

    Combined with an envelope at level ``1 - delta``, the resulting sets keep
    the false coverage proportion at most ``alpha_bar`` with probability at
    least ``1 - beta_bar - delta``.  ``K`` and ``seed`` are deprecated and
    ignored; they will be removed in the next release.
    """
    if K is not None or seed is not None:
        warnings.warn("fcp_calibration: K and seed are deprecated and ignored "
                      "(the FCP index is exact)", DeprecationWarning, stacklevel=2)
    alpha_bar = as_level(alpha_bar, "alpha_bar")
    beta_bar = as_level(beta_bar, "beta_bar", positive=True)
    delta = as_level(delta, "delta")
    n, m = as_count(n, "n", least=1), as_count(m, "m", least=1)

    a = min(m, int(math.floor(m * alpha_bar + 1e-9)) + 1)
    j0 = m - a  # the a-th smallest p-value belongs to the a-th largest score
    r = m - j0 - 1
    num, den = beta_bar.as_integer_ratio()  # exactly Fraction(beta_bar)
    # P(X >= x) >= beta_bar  <=>  tail * den >= num * C(n+m, n)
    need = num * math.comb(n + m, n)
    term = math.comb(n + j0, n)  # C(n+m, n) P(X = n)
    tail = 0
    x = n
    while True:
        tail += term
        if tail * den >= need:
            break
        term = term * x * (n - x + 1 + r) // ((x + j0) * (n - x + 1))
        x -= 1
    return FcpCalibration(
        k=min(n, max(1, x)), t_hat=(n + 1 - x) / (n + 1),
        alpha_bar=alpha_bar, beta_bar=beta_bar, delta=delta,
    )
