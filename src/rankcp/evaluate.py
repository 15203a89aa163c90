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
from .envelope import Envelope, build_envelope, check_envelope_kind
from .errors import DimensionMismatch, InvalidInput, MissingTruth
from .ranks import (
    RA,
    RankingProblem,
    as_count,
    as_level,
    as_number,
    as_ranks,
    break_ties,
    check_mode,
    ranks_within,
    tied_rows,
)
from .streams import as_seed, child_seed, streams
from .targets import topk_candidates

SIGMOID = "sigmoid"
BETA_ADAPTIVE = "beta_adaptive"
DATA_MODELS = (SIGMOID, BETA_ADAPTIVE)

# Noise level of the synthetic generation recipes (their own fixed parameter;
# the experiment's noise_sd drives the toy ranker instead).
DATA_NOISE_SD = 0.07

# Dimension of the sigmoid truth's Gaussian features and weights.
FEATURE_DIM = 5

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

    For batch sets and ``(rows, m)`` true ranks, one proportion per row.  A
    true rank below 1, which no item holds, is refused.
    """
    if not len(sets):
        raise InvalidInput("need at least one set")
    ranks = as_ranks(true_ranks, "true_ranks", top=math.inf)
    if ranks.shape != sets.lo.shape:
        raise DimensionMismatch(f"sets are {sets.lo.shape} but true ranks {ranks.shape}")
    return _per_row(np.count_nonzero(~sets.contains(ranks), axis=-1) / len(sets))


def relative_length(sets: RankSets, n_plus_m: int) -> float | np.ndarray:
    """Mean set size divided by the number of items (per row for batch sets)."""
    if not len(sets):
        raise InvalidInput("need at least one set")
    return _per_row(np.mean(sets.size, axis=-1) / as_count(n_plus_m, "n_plus_m", least=1))


def _check_settings(data_model: str, mode: str, noise_sd: float) -> None:
    """Refuse a data model, ranker mode or ranker noise level no problem is drawn with.

    The one check of these settings, for :func:`synthesize_problem` and
    :class:`ExperimentConfig` alike.
    """
    as_number(noise_sd, "noise_sd", nonnegative=True)
    check_mode(mode)
    if data_model not in DATA_MODELS:
        raise InvalidInput(f"data_model must be one of {DATA_MODELS}")


def _tie_free(values: np.ndarray, name: str, noise_sd: float, seeds, tag: str) -> np.ndarray:
    """The ``(rows, total)`` generated ``values``, checked finite, tied rows broken in place.

    A huge but finite ``noise_sd`` can carry the values to infinity (and
    inf - inf to NaN): :class:`InvalidInput` names the noise level as
    ``name``, the parameter of :func:`synthesize_problem` that set it.  Row
    ``i``, if it holds an exact tie, is passed through :func:`break_ties`
    with the ``tag`` stream of ``seeds[i]``.  Ties are not rare:
    ``beta_adaptive`` with ``data_noise_sd=0`` draws exactly 1.0 for about
    12 % of its items, and the ``beta-ties`` stream then sets those items'
    true order.
    """
    if not np.all(np.isfinite(values)):
        raise InvalidInput(f"{name}={noise_sd} makes the generated values non-finite")
    for i in np.flatnonzero(tied_rows(values)):
        values[i] = break_ties(values[i], child_seed(int(seeds[i]), tag))
    return values


def _truth(gen: np.random.Generator, data_model: str, total: int, d: int,
           data_noise_sd: float) -> np.ndarray:
    """``total`` true values of the named model, drawn from ``gen``.

    ``sigmoid``: ``1 / (1 + exp(-w.x))`` with standard Gaussian features and
    weights of dimension ``d``.  ``beta_adaptive``: ``Beta(BETA_SHAPE,
    BETA_SHAPE)``, whose mass piles up near 0 and 1, so mid-ranked items are
    far easier to rank than extreme ones (it exercises the adaptivity of VA
    sets).  Both add Gaussian noise of standard deviation ``data_noise_sd``.
    """
    if data_model == SIGMOID:
        x = gen.standard_normal((total, d))
        latent = 1.0 / (1.0 + np.exp(-(x @ gen.standard_normal(d))))
    else:
        latent = gen.beta(BETA_SHAPE, BETA_SHAPE, total)
    return latent + data_noise_sd * gen.standard_normal(total)


def synthesize_problem(
    data_model: str,
    n: int,
    m: int,
    noise_sd: float,
    mode: str,
    seed: int | np.ndarray,
    d: int = FEATURE_DIM,
    data_noise_sd: float = DATA_NOISE_SD,
) -> RankingProblem:
    """Generate truth from a named model and rank it with the noisy oracle.

    The one generator of synthetic problems.  ``seed`` is an integer, or a
    1-D array of integer seeds for the batch problem whose row ``i`` equals
    the problem for ``seeds[i]`` alone: each row draws from its own seed's
    streams, and an integer seed gives row 0 of the one-seed batch.  The
    noise levels (finite and nonnegative, by ``ranks.as_number``), ``mode``,
    the model and the sizes are checked before anything is drawn, and errors
    name the parameters of this function.

    The toy ranker stands in for a trained one: the truth plus Gaussian
    noise of standard deviation ``noise_sd`` (0 gives the perfect ranker),
    as values in VA mode and as their ranks in RA mode.
    """
    _check_settings(data_model, mode, noise_sd)
    as_number(data_noise_sd, "data_noise_sd", nonnegative=True)
    n, m = as_count(n, "n", least=1), as_count(m, "m", least=0)
    if n + m < 2:
        raise InvalidInput(f"need n + m >= 2, got n={n}, m={m}")
    seeds = np.atleast_1d(seed)
    if not seeds.size:
        raise InvalidInput("seed must hold at least one seed")
    if data_model == SIGMOID:
        d = as_count(d, "d", least=1)
    tag = "sigmoid" if data_model == SIGMOID else "beta"
    ranker_seeds = [child_seed(s, "ranker") for s in seeds]
    with np.errstate(over="ignore", invalid="ignore"):
        truth = np.stack([_truth(gen, data_model, n + m, d, data_noise_sd)
                          for gen in streams(seeds, f"{tag}-data")])
        truth = _tie_free(truth, "data_noise_sd", data_noise_sd, seeds, f"{tag}-ties")
        noise = np.stack([gen.standard_normal(n + m)
                          for gen in streams(ranker_seeds, "ranker-noise")])
        outputs = _tie_free(truth + noise_sd * noise, "noise_sd", noise_sd,
                            ranker_seeds, "ranker-ties")
    outputs = ranks_within(outputs) if mode == RA else outputs
    if np.ndim(seed) == 0:
        truth, outputs = truth[0], outputs[0]
    return RankingProblem(n=n, m=m, calib_ranks=ranks_within(truth[..., :n]),
                          ranker_mode=mode, ranker_outputs=outputs, truth=truth)


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
    ``ceil(0.05 m)``.  The whole-number fields are read by ``ranks.as_count``
    and ``master_seed`` by ``streams.as_seed``, and all are stored as Python
    ints.
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
        self.n, self.m = as_count(self.n, "n", least=1), as_count(self.m, "m", least=1)
        self.reps = as_count(self.reps, "reps", least=1)
        self.master_seed = as_seed(self.master_seed, "master_seed")
        for name in ("alpha", "beta", "delta"):
            setattr(self, name, as_level(getattr(self, name), name, positive=True))
        _check_settings(self.data_model, self.mode, self.noise_sd)
        if self.fcp_mode not in (MARGINAL, FCP_CONTROLLED):
            raise InvalidInput(
                f"fcp_mode must be {MARGINAL!r} or {FCP_CONTROLLED!r}"
            )
        self.k_top = None if self.k_top is None else as_count(self.k_top, "k_top", least=0)
        check_envelope_kind(self.envelope_kind)
        self.K_env = as_count(self.K_env, "K_env")
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
    widths = sets.size
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
        seed=np.array([child_seed(cfg.master_seed, "rep", rep) for rep in reps]),
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
