"""Metrics, synthetic generators, the oracle baseline, and the experiment harness.

The harness repeats an end-to-end pipeline (generate data, build the
envelope, calibrate, predict, score) and reports per-repetition metrics:

* ``fcp``              fraction of test items whose true pooled rank falls
                       outside its prediction set;
* ``relative_length``  mean set size divided by ``n + m``;
* ``oracle_ratio``     relative length divided by that of the *oracle* arm,
                       the same conformal pipeline run with the true (normally
                       unobservable) calibration ranks and no envelope slack.

The harness owns no pipeline stage: its envelope comes from
:func:`rankcp.envelope.build_envelope`, and both arms' thresholds from
:func:`rankcp.conformal.calibrate` (the oracle's on the true scores).

Metrics read the ``lo``/``hi`` columns of :class:`RankSets` directly.
:func:`synthesize_problem` is the one way to draw a synthetic problem: it
takes an integer seed or a 1-D array of them, and the metrics and the oracle
arm take a single problem or a batch (see :class:`RankingProblem`): a batch
gives one row, or one metric value, per problem.

Everything is a pure function of the configuration: each repetition and stage
draws from its own stream derived from ``(master_seed, stage, rep)``, so
adding stages never perturbs earlier ones, and the harness may stack
repetitions into blocks without changing a single number.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields

import numpy as np

from . import conformal
from .conformal import (
    FCP_CONTROLLED,
    MARGINAL,
    RankSets,
    calibrate,
    fcp_calibration,
    predict_sets,
    proxy_scores,
    scores_at,
    select_k,
)
from .envelope import Envelope, build_envelope
from .errors import DimensionMismatch, InvalidInput, MissingTruth
from .ranks import (
    RA,
    RankingProblem,
    break_ties,
    check_mode,
    order_rows,
    ranks_within,
)
from .streams import child_seed, streams
from .targets import topk_candidates

SIGMOID = "sigmoid"
BETA_ADAPTIVE = "beta_adaptive"
DATA_MODELS = (SIGMOID, BETA_ADAPTIVE)

# Noise level of the synthetic generation recipes (their own fixed parameter;
# the experiment's noise_sd drives the toy ranker instead).
DATA_NOISE_SD = 0.07

# Shape parameters a = b of the bimodal beta_adaptive truth.
BETA_SHAPE = 0.04

# Array elements per stacked (reps, n+m) array in a block of repetitions:
# run_experiment stacks max(1, BLOCK_ELEMENTS // (n+m)) reps at a time, so the
# working set of its rep phase is bounded by this constant, not by cfg.reps.
BLOCK_ELEMENTS = 2**16


def _per_row(value):
    """A float for a single problem's 0-d result, the array for a batch."""
    return float(value) if np.ndim(value) == 0 else value


def fcp(sets: RankSets, true_ranks) -> float | np.ndarray:
    """False coverage proportion: the count of missed true ranks over ``len(sets)``.

    For batch sets and ``(rows, m)`` true ranks, one proportion per row.
    """
    if not len(sets):
        raise InvalidInput("need at least one set")
    ranks = np.asarray(true_ranks, dtype=np.int64)
    if ranks.shape != sets.lo.shape:
        raise DimensionMismatch(f"sets are {sets.lo.shape} but true ranks {ranks.shape}")
    return _per_row(np.count_nonzero(~sets.contains(ranks), axis=-1) / len(sets))


def relative_length(sets: RankSets, n_plus_m: int) -> float | np.ndarray:
    """Mean set size divided by the number of items (per row for batch sets)."""
    if not len(sets):
        raise InvalidInput("need at least one set")
    return _per_row(np.mean(sets.size, axis=-1) / n_plus_m)


def _per_seed(seed, tag: str, draw):
    """``draw(stream(seed, tag))``, or for a 1-D array of seeds the stacked results.

    The generators come from :func:`~rankcp.streams.streams`: one generator,
    re-keyed per seed, so ``draw`` must finish with it before the next.
    """
    rows = [draw(gen) for gen in streams(np.atleast_1d(seed), tag)]
    return rows[0] if np.ndim(seed) == 0 else np.stack(rows)


def _check_noise(name: str, value: float) -> None:
    """Refuse a noise level that is negative, infinite or NaN, naming its parameter."""
    if not 0.0 <= value < math.inf:
        raise InvalidInput(f"{name}={value} must be finite and nonnegative")


def _generated(name: str, noise_sd: float, draw, seed, tag: str):
    """``draw()``, checked finite, with exact ties resolved in place, and its order.

    A huge but finite ``noise_sd`` can carry the values to infinity (and
    inf - inf to NaN): numpy's warnings are silenced and :class:`InvalidInput`
    names the noise level as ``name``, the parameter of
    :func:`synthesize_problem` that set it.  Ties are a probability-zero
    event, found on each row's argsort: each tied row is passed through
    :func:`break_ties` with its own seed's ``tag`` stream and argsorted
    again.  Returns the values and each row's argsort, which the caller
    hands on instead of sorting the rows again.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        values = draw()
    if not np.all(np.isfinite(values)):
        raise InvalidInput(f"{name}={noise_sd} makes the generated values non-finite")
    order, tied = order_rows(values)
    rows, orders, seeds = np.atleast_2d(values), np.atleast_2d(order), np.atleast_1d(seed)
    for i in np.flatnonzero(tied):
        rows[i] = break_ties(rows[i], child_seed(int(seeds[i]), tag))
        orders[i] = order_rows(rows[i])[0]
    return values, order


def _truth(data_model: str, total: int, d: int, data_noise_sd: float, seed):
    """``total`` true values of the named model per seed, and their order.

    ``sigmoid``: ``1 / (1 + exp(-w.x))`` with standard Gaussian features and
    weights of dimension ``d``.  ``beta_adaptive``: ``Beta(BETA_SHAPE,
    BETA_SHAPE)``, whose mass piles up near 0 and 1, so mid-ranked items are
    far easier to rank than extreme ones (it exercises the adaptivity of VA
    sets).  Both add Gaussian noise of standard deviation ``data_noise_sd``.
    """
    if data_model == SIGMOID:
        if d < 1:
            raise InvalidInput("need d >= 1")
        tag = "sigmoid"

        def draw(gen: np.random.Generator) -> np.ndarray:
            x = gen.standard_normal((total, d))
            w = gen.standard_normal(d)
            return 1.0 / (1.0 + np.exp(-(x @ w))) + data_noise_sd * gen.standard_normal(total)
    else:
        tag = "beta"

        def draw(gen: np.random.Generator) -> np.ndarray:
            latent = gen.beta(BETA_SHAPE, BETA_SHAPE, total)
            return latent + data_noise_sd * gen.standard_normal(total)

    return _generated("data_noise_sd", data_noise_sd,
                      lambda: _per_seed(seed, f"{tag}-data", draw), seed, f"{tag}-ties")


def _noisy_outputs(truth: np.ndarray, noise_sd: float, seed, mode: str):
    """The toy ranker's outputs for ``truth``, and the order of its values.

    A stand-in for a trained ranker: the truth plus Gaussian noise of
    standard deviation ``noise_sd`` (0 gives the perfect ranker), as values
    in VA mode and as their ranks in RA mode.  A ``(rows, n+m)`` truth takes
    a 1-D array of seeds, one per row.
    """
    size = truth.shape[-1]
    noise = _per_seed(seed, "ranker-noise", lambda gen: gen.standard_normal(size))
    values, order = _generated("noise_sd", noise_sd, lambda: truth + noise_sd * noise,
                               seed, "ranker-ties")
    return (ranks_within(values, order=order) if mode == RA else values), order


def synthesize_problem(
    data_model: str,
    n: int,
    m: int,
    noise_sd: float,
    mode: str,
    seed: int | np.ndarray,
    d: int = 5,
    data_noise_sd: float = DATA_NOISE_SD,
) -> RankingProblem:
    """Generate truth from a named model and rank it with the noisy oracle.

    The one generator of synthetic problems.  ``seed`` is an integer, or a
    1-D array of integer seeds for the batch problem whose row ``i`` equals
    the problem for ``seeds[i]`` alone: each row draws from its own seed's
    streams.  The noise levels, ``mode``, the model and the sizes are
    checked before anything is drawn, and errors name the parameters of
    this function.
    """
    _check_noise("noise_sd", noise_sd)
    _check_noise("data_noise_sd", data_noise_sd)
    check_mode(mode)
    if data_model not in DATA_MODELS:
        raise InvalidInput(f"data_model must be one of {DATA_MODELS}")
    if n < 1 or m < 0 or n + m < 2:
        raise InvalidInput(f"need n >= 1, m >= 0 and n + m >= 2, got n={n}, m={m}")
    if np.ndim(seed) and not np.size(seed):
        raise InvalidInput("seed must hold at least one seed")
    truth, truth_order = _truth(data_model, n + m, d, data_noise_sd, seed)
    ranker_seed = (child_seed(seed, "ranker") if np.ndim(seed) == 0
                   else np.array([child_seed(s, "ranker") for s in seed]))
    outputs, output_order = _noisy_outputs(truth, noise_sd, ranker_seed, mode)
    # the calibration items in the truth's order: that order, restricted
    calib_order = truth_order[truth_order < n].reshape(truth.shape[:-1] + (n,))
    return RankingProblem(
        n=n, m=m, calib_ranks=ranks_within(truth[..., :n], order=calib_order),
        ranker_mode=mode, ranker_outputs=outputs, truth=truth,
        output_order=output_order, truth_order=truth_order,
    )


def oracle_sets(problem: RankingProblem, alpha: float) -> RankSets:
    """Baseline sets from the true calibration scores (requires truth).

    Same pipeline, but scores are evaluated at the true pooled ranks and the
    calibration index drops the envelope shift (``delta = 0``).  The ratio of
    proxy to oracle set lengths isolates the cost of the envelope.  A batch
    problem gives batch sets, each row from its own row's threshold.
    """
    if problem.truth is None:
        raise MissingTruth("oracle baseline needs truth values")
    true_scores = scores_at(problem, problem.true_ranks[..., : problem.n])
    thr = calibrate(true_scores, select_k(alpha, 0.0, problem.n), alpha=alpha)
    return predict_sets(problem, thr)


@dataclass
class ExperimentConfig:
    """Knobs of one repeated experiment.

    ``beta`` is the FCP exceedance budget (the paper-default trio is
    ``alpha=0.1``, ``beta=0.25``, ``delta=0.02``).  ``noise_sd`` is the toy
    ranker's noise.  ``K_env`` is a desk-scale default; raise it for tighter
    envelopes.  ``K_fcp`` is deprecated and ignored (the FCP index is exact)
    and will be removed in the next release.  ``k_top`` defaults to
    ``ceil(0.05 m)``.
    """

    n: int = 200
    m: int = 200
    reps: int = 500
    alpha: float = conformal.DEFAULT_ALPHA
    beta: float = conformal.DEFAULT_BETA
    delta: float = conformal.DEFAULT_DELTA
    mode: str = RA
    envelope_kind: str = "quantile"
    K_env: int = 20_000
    K_fcp: int | None = None
    data_model: str = SIGMOID
    noise_sd: float = 0.07
    master_seed: int = 0
    fcp_mode: str = MARGINAL
    k_top: int | None = None

    def __post_init__(self):
        if self.K_fcp is not None:
            warnings.warn("ExperimentConfig: K_fcp is deprecated and ignored "
                          "(the FCP index is exact)", DeprecationWarning, stacklevel=3)
        if self.n < 1 or self.m < 1 or self.reps < 1:
            raise InvalidInput("need n, m, reps >= 1")
        for name in ("alpha", "beta", "delta"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise InvalidInput(f"{name}={v} outside (0, 1)")
        check_mode(self.mode)
        if self.data_model not in DATA_MODELS:
            raise InvalidInput(f"data_model must be one of {DATA_MODELS}")
        if self.fcp_mode not in (MARGINAL, FCP_CONTROLLED):
            raise InvalidInput(
                f"fcp_mode must be {MARGINAL!r} or {FCP_CONTROLLED!r}"
            )
        if self.k_top is not None and self.k_top < 0:
            raise InvalidInput(f"k_top={self.k_top} must be nonnegative")
        _check_noise("noise_sd", self.noise_sd)
        if self.K_env < 1 and self.envelope_kind in Envelope.MC_KINDS:
            raise InvalidInput(f"K_env={self.K_env} must be at least 1 for a "
                               f"{self.envelope_kind} envelope")

    @property
    def effective_k_top(self) -> int:
        return self.k_top if self.k_top is not None else math.ceil(0.05 * self.m)


@dataclass
class RepResult:
    """Metrics of one repetition (proxy arm plus oracle arm).

    A view of one repetition of :class:`ExperimentReport`'s metric arrays.
    """

    rep: int
    fcp: float
    relative_length: float
    oracle_fcp: float
    oracle_relative_length: float
    oracle_ratio: float
    envelope_covered: bool
    oracle_contained: bool
    topk_overlap: int
    width_mid_quintile: float
    width_extreme_quintile: float


# Names of the per-repetition metrics: the RepResult fields after ``rep``.
METRICS = tuple(f.name for f in fields(RepResult))[1:]

# Long-format report rows of one repetition: (metric, arm, source array).
REPORT_ROWS = (
    ("fcp", "proxy", "fcp"),
    ("relative_length", "proxy", "relative_length"),
    ("oracle_ratio", "proxy", "oracle_ratio"),
    ("envelope_covered", "proxy", "envelope_covered"),
    ("topk_overlap", "proxy", "topk_overlap"),
    ("width_mid_quintile", "proxy", "width_mid_quintile"),
    ("width_extreme_quintile", "proxy", "width_extreme_quintile"),
    ("fcp", "oracle", "oracle_fcp"),
    ("relative_length", "oracle", "oracle_relative_length"),
)


@dataclass
class ExperimentReport:
    """Per-repetition metrics, one array per metric, with aggregation helpers.

    ``metrics[name][rep]`` is metric ``name`` (one of :data:`METRICS`) of
    repetition ``rep``: float arrays, except the boolean ``envelope_covered``
    and ``oracle_contained`` and the integer ``topk_overlap``.
    :attr:`per_rep` gives the same numbers as one :class:`RepResult` per
    repetition.
    """

    config: ExperimentConfig
    k: int
    threshold_meta: conformal.FcpCalibration | None
    metrics: dict[str, np.ndarray]

    @property
    def per_rep(self) -> list[RepResult]:
        columns = [self.metrics[name].tolist() for name in METRICS]
        return [RepResult(rep, *row) for rep, row in enumerate(zip(*columns))]

    def values(self, name: str) -> np.ndarray:
        return np.asarray(self.metrics[name], dtype=float)

    def aggregates(self) -> dict:
        f = self.values("fcp")
        rl = self.values("relative_length")
        ratio = self.values("oracle_ratio")
        q = [0.1, 0.25, 0.5, 0.75, 0.9]
        return {
            "reps": len(f),
            "k": self.k,
            "mean_fcp": float(f.mean()),
            "se_fcp": float(f.std(ddof=1) / math.sqrt(len(f))) if len(f) > 1 else 0.0,
            "fcp_quantiles": {str(p): float(np.quantile(f, p)) for p in q},
            "fcp_exceedance": float(np.mean(f > self.config.alpha)),
            "mean_coverage": float(1.0 - f.mean()),
            "mean_relative_length": float(rl.mean()),
            "mean_oracle_ratio": float(ratio.mean()),
            "envelope_covered_frequency": float(self.values("envelope_covered").mean()),
            "mean_topk_overlap": float(self.values("topk_overlap").mean()),
        }

    def to_rows(self) -> list[tuple[int, str, float, str]]:
        """Long-format rows (rep, metric, value, arm) for external plotting."""
        columns = [self.values(source).tolist() for _, _, source in REPORT_ROWS]
        return [
            (rep, metric, value, arm)
            for rep, values in enumerate(zip(*columns))
            for (metric, arm, _), value in zip(REPORT_ROWS, values)
        ]


def _masked_mean(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Per row, the mean of ``values`` where ``mask`` holds; NaN where it never does."""
    count = np.count_nonzero(mask, axis=-1)
    total = np.where(mask, values, 0.0).sum(axis=-1)
    return np.divide(total, count, out=np.full(count.shape, np.nan), where=count > 0)


def _quintile_widths(
    sets: RankSets, predicted: np.ndarray, total: int
) -> tuple[np.ndarray, np.ndarray]:
    """Mean set size in the middle vs extreme quintiles of predicted rank, per row."""
    widths = sets.size.astype(float)
    quintile = np.minimum(4, (5 * (predicted - 1)) // total)
    return (
        _masked_mean(widths, quintile == 2),
        _masked_mean(widths, (quintile == 0) | (quintile == 4)),
    )


def _block_metrics(
    cfg: ExperimentConfig, env: Envelope, k: int, reps: range
) -> dict[str, np.ndarray]:
    """Metric arrays of the repetitions ``reps``, run as one batch problem."""
    problem = synthesize_problem(
        cfg.data_model, cfg.n, cfg.m, cfg.noise_sd, cfg.mode,
        seed=np.array([child_seed(cfg.master_seed, "rep", rep) for rep in reps]), d=5,
    )
    true_calib, true_test = problem.true_ranks[:, : cfg.n], problem.true_ranks[:, cfg.n :]

    thr = calibrate(proxy_scores(problem, env), k, alpha=cfg.alpha)
    sets = predict_sets(problem, thr)
    osets = oracle_sets(problem, cfg.alpha)

    out = {
        "fcp": fcp(sets, true_test),
        "relative_length": relative_length(sets, problem.total),
        "oracle_fcp": fcp(osets, true_test),
        "oracle_relative_length": relative_length(osets, problem.total),
    }
    out["oracle_ratio"] = out["relative_length"] / out["oracle_relative_length"]
    lo, hi = env.bounds_for_ranks(problem.calib_ranks)
    out["envelope_covered"] = np.all((true_calib >= lo) & (true_calib <= hi), axis=-1)
    out["oracle_contained"] = np.all(
        (sets.lo <= osets.lo) & (sets.hi >= osets.hi), axis=-1
    )
    k_top = cfg.effective_k_top
    out["topk_overlap"] = np.count_nonzero(
        topk_candidates(sets, k_top) & (true_test <= k_top), axis=-1
    )
    out["width_mid_quintile"], out["width_extreme_quintile"] = _quintile_widths(
        sets, problem.predicted_ranks[:, cfg.n :], problem.total
    )
    return out


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Repeat the full pipeline ``cfg.reps`` times and collect metrics.

    The envelope and (in FCP mode) the threshold index are computed once per
    experiment: both depend only on ``(n, m)`` and the levels (the envelope
    also on its Monte-Carlo budget ``K_env``), not on the data, so refitting
    per repetition would only add identical-in-law copies at hundreds of
    times the cost.  The FCP index is exact.  All per-repetition randomness
    (data, ranker noise) is fresh, drawn from the ``(master_seed, "rep",
    rep)`` streams.

    Repetitions run in blocks of ``max(1, BLOCK_ELEMENTS // (n + m))``: each
    block is one batch problem passed once through the same layer functions
    a single problem uses (generation, proxy scores, calibration,
    prediction, the oracle arm and the metrics), so memory is bounded by the
    block, not by ``cfg.reps``.  Each repetition's metrics equal those of
    running its problem alone.

    ``k`` is chosen before the envelope is built, at the level the envelope
    records (0 for ``naive``), so a level no ``k`` can serve is refused
    before anything is simulated.
    """
    level = 0.0 if cfg.envelope_kind == "naive" else cfg.delta
    meta = None
    if cfg.fcp_mode == FCP_CONTROLLED:
        meta = fcp_calibration(cfg.alpha, cfg.beta, level, cfg.n, cfg.m)
        k = meta.k
    else:
        k = select_k(cfg.alpha, level, cfg.n)
    env = build_envelope(
        cfg.envelope_kind, cfg.n, cfg.m, cfg.delta, cfg.K_env,
        child_seed(cfg.master_seed, "envelope"),
    )

    block = max(1, BLOCK_ELEMENTS // (cfg.n + cfg.m))
    blocks = [
        _block_metrics(cfg, env, k, range(start, min(cfg.reps, start + block)))
        for start in range(0, cfg.reps, block)
    ]
    return ExperimentReport(
        config=cfg, k=k, threshold_meta=meta,
        metrics={name: np.concatenate([b[name] for b in blocks]) for name in METRICS},
    )
