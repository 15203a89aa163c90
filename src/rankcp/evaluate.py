"""Metrics, synthetic generators, the oracle baseline, and the experiment harness.

The harness repeats an end-to-end pipeline (generate data, build the
envelope, calibrate, predict, score) and reports per-repetition metrics:

* ``fcp``              fraction of test items whose true pooled rank falls
                       outside its prediction set;
* ``relative_length``  mean set size divided by ``n + m``;
* ``oracle_ratio``     relative length divided by that of the *oracle* arm,
                       the same conformal pipeline run with the true (normally
                       unobservable) calibration ranks and no envelope slack.

Metrics read the ``lo``/``hi`` columns of :class:`RankSets` directly.

Everything is a pure function of the configuration: each repetition and stage
draws from its own stream derived from ``(master_seed, stage, rep)``, so
adding stages never perturbs earlier ones.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import conformal
from .conformal import (
    FCP_CONTROLLED,
    MARGINAL,
    RankSets,
    Threshold,
    calibrate,
    fcp_calibration,
    predict_sets,
    proxy_scores,
    scores_at,
    select_k,
)
from .envelope import (
    Envelope,
    fit_linear_envelope,
    fit_quantile_envelope,
    naive_envelope,
    simulate_sorted_ranks,
    theoretical_envelope,
)
from .errors import DimensionMismatch, InvalidInput, MissingTruth
from .ranks import RA, VA, RankingProblem, break_ties, has_ties, ranks_within
from .streams import child_seed, stream
from .targets import topk_candidates

SIGMOID = "sigmoid"
BETA_ADAPTIVE = "beta_adaptive"
DATA_MODELS = (SIGMOID, BETA_ADAPTIVE)

# Noise level of the synthetic generation recipes (their own fixed parameter;
# the experiment's noise_sd drives the toy ranker instead).
DATA_NOISE_SD = 0.07


def fcp(sets: RankSets, true_ranks) -> float:
    """False coverage proportion: the count of missed true ranks over ``len(sets)``."""
    if not len(sets):
        raise InvalidInput("need at least one set")
    ranks = np.asarray(true_ranks, dtype=np.int64)
    if len(sets) != ranks.size:
        raise DimensionMismatch(f"{len(sets)} sets but {ranks.size} true ranks")
    return int(np.count_nonzero(~sets.contains(ranks))) / len(sets)


def relative_length(sets: RankSets, n_plus_m: int) -> float:
    """Mean set size divided by the number of items."""
    if not len(sets):
        raise InvalidInput("need at least one set")
    return float(np.mean(sets.size)) / n_plus_m


def gen_sigmoid_data(
    n_plus_m: int, d: int = 5, noise_sd: float = DATA_NOISE_SD, seed: int = 0
) -> np.ndarray:
    """Sigmoid regression truth: ``1 / (1 + exp(-w.x)) + noise``.

    Features and weights are standard Gaussian of dimension ``d``; the noise
    is Gaussian with standard deviation ``noise_sd``.  Output is guaranteed
    tie-free (exact collisions, a probability-zero event, are resolved with
    the deterministic tie-break transform).
    """
    if n_plus_m < 2:
        raise InvalidInput("need at least two items")
    if d < 1:
        raise InvalidInput("need d >= 1")
    gen = stream(seed, "sigmoid-data")
    x = gen.standard_normal((n_plus_m, d))
    w = gen.standard_normal(d)
    y = 1.0 / (1.0 + np.exp(-(x @ w))) + noise_sd * gen.standard_normal(n_plus_m)
    if has_ties(y):
        y = break_ties(y, child_seed(seed, "sigmoid-ties"))
    return y


def gen_beta_data(
    n_plus_m: int,
    a: float = 0.04,
    b: float = 0.04,
    noise_sd: float = DATA_NOISE_SD,
    seed: int = 0,
) -> np.ndarray:
    """Bimodal truth: ``Beta(a, b) + noise`` with mass piling up near 0 and 1.

    With the default parameters most latent values sit within 0.1 of an
    endpoint, so mid-ranked items are far easier to rank than extreme ones;
    used to exercise the adaptivity of VA-mode sets.
    """
    if n_plus_m < 2:
        raise InvalidInput("need at least two items")
    gen = stream(seed, "beta-data")
    y = gen.beta(a, b, n_plus_m) + noise_sd * gen.standard_normal(n_plus_m)
    if has_ties(y):
        y = break_ties(y, child_seed(seed, "beta-ties"))
    return y


def noisy_oracle_ranker(
    truth, noise_sd: float, seed: int = 0, mode: str = VA
) -> np.ndarray:
    """Toy stand-in for a trained ranker: the truth plus Gaussian noise.

    VA mode returns the perturbed values; RA mode returns their ranks.
    ``noise_sd = 0`` gives the perfect ranker.
    """
    arr = np.asarray(truth, dtype=float)
    if mode not in (RA, VA):
        raise InvalidInput(f"mode must be {RA!r} or {VA!r}")
    values = arr + noise_sd * stream(seed, "ranker-noise").standard_normal(arr.size)
    if has_ties(values):
        values = break_ties(values, child_seed(seed, "ranker-ties"))
    return ranks_within(values) if mode == RA else values


def make_problem(
    truth, n: int, m: int, mode: str, ranker_outputs, ids=None
) -> RankingProblem:
    """Assemble a :class:`RankingProblem` from truth and ranker outputs."""
    arr = np.asarray(truth, dtype=float)
    if arr.size != n + m:
        raise DimensionMismatch(f"truth must have length n+m={n + m}")
    return RankingProblem(
        n=n, m=m, calib_ranks=ranks_within(arr[:n]),
        ranker_mode=mode, ranker_outputs=ranker_outputs, truth=arr, ids=ids,
    )


def synthesize_problem(
    data_model: str,
    n: int,
    m: int,
    noise_sd: float,
    mode: str,
    seed: int,
    d: int = 5,
    data_noise_sd: float = DATA_NOISE_SD,
) -> RankingProblem:
    """Generate truth from a named model and rank it with the noisy oracle."""
    if data_model == SIGMOID:
        truth = gen_sigmoid_data(n + m, d=d, noise_sd=data_noise_sd, seed=seed)
    elif data_model == BETA_ADAPTIVE:
        truth = gen_beta_data(n + m, noise_sd=data_noise_sd, seed=seed)
    else:
        raise InvalidInput(f"data_model must be one of {DATA_MODELS}")
    outputs = noisy_oracle_ranker(
        truth, noise_sd, seed=child_seed(seed, "ranker"), mode=mode
    )
    return make_problem(truth, n, m, mode, outputs)


def oracle_sets(problem: RankingProblem, alpha: float) -> RankSets:
    """Baseline sets from the true calibration scores (requires truth).

    Same pipeline, but scores are evaluated at the true pooled ranks and the
    calibration index drops the envelope shift (``delta = 0``).  The ratio of
    proxy to oracle set lengths isolates the cost of the envelope.
    """
    if problem.truth is None:
        raise MissingTruth("oracle baseline needs truth values")
    true_calib_ranks = ranks_within(problem.truth)[: problem.n]
    true_scores = scores_at(problem, true_calib_ranks)
    k = select_k(alpha, 0.0, problem.n)
    value = float(np.partition(true_scores, k - 1)[k - 1])
    thr = Threshold(k=k, value=value, alpha=alpha, delta=0.0)
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
    workers: int | None = None

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
        if self.mode not in (RA, VA):
            raise InvalidInput(f"mode must be {RA!r} or {VA!r}")
        if self.data_model not in DATA_MODELS:
            raise InvalidInput(f"data_model must be one of {DATA_MODELS}")
        if self.fcp_mode not in (MARGINAL, FCP_CONTROLLED):
            raise InvalidInput(
                f"fcp_mode must be {MARGINAL!r} or {FCP_CONTROLLED!r}"
            )

    @property
    def effective_k_top(self) -> int:
        return self.k_top if self.k_top is not None else math.ceil(0.05 * self.m)


@dataclass
class RepResult:
    """Metrics of one repetition (proxy arm plus oracle arm)."""

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


@dataclass
class ExperimentReport:
    """Per-repetition metrics with aggregation helpers."""

    config: ExperimentConfig
    k: int
    threshold_meta: conformal.FcpCalibration | None
    envelope_kind: str
    per_rep: list[RepResult] = field(default_factory=list)

    def values(self, name: str) -> np.ndarray:
        return np.asarray([getattr(r, name) for r in self.per_rep], dtype=float)

    def aggregates(self) -> dict:
        f = self.values("fcp")
        rl = self.values("relative_length")
        ratio = self.values("oracle_ratio")
        q = [0.1, 0.25, 0.5, 0.75, 0.9]
        return {
            "reps": len(self.per_rep),
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
        rows: list[tuple[int, str, float, str]] = []
        for r in self.per_rep:
            rows.append((r.rep, "fcp", r.fcp, "proxy"))
            rows.append((r.rep, "relative_length", r.relative_length, "proxy"))
            rows.append((r.rep, "oracle_ratio", r.oracle_ratio, "proxy"))
            rows.append((r.rep, "envelope_covered", float(r.envelope_covered), "proxy"))
            rows.append((r.rep, "topk_overlap", float(r.topk_overlap), "proxy"))
            rows.append((r.rep, "width_mid_quintile", r.width_mid_quintile, "proxy"))
            rows.append(
                (r.rep, "width_extreme_quintile", r.width_extreme_quintile, "proxy")
            )
            rows.append((r.rep, "fcp", r.oracle_fcp, "oracle"))
            rows.append(
                (r.rep, "relative_length", r.oracle_relative_length, "oracle")
            )
        return rows


def build_envelope(
    kind: str, n: int, m: int, delta: float, K: int, seed: int,
    workers: int | None = None,
) -> Envelope:
    """Construct an envelope of the requested kind."""
    if kind == "naive":
        return naive_envelope(n, m)
    if kind == "theoretical":
        return theoretical_envelope(n, m, delta)
    if kind in ("linear", "quantile"):
        sims = simulate_sorted_ranks(n, m, K, seed, workers=workers)
        fit = fit_linear_envelope if kind == "linear" else fit_quantile_envelope
        return fit(sims, delta)
    raise InvalidInput(f"unknown envelope kind {kind!r}")


def _predicted_ranks(problem: RankingProblem) -> np.ndarray:
    if problem.ranker_mode == RA:
        return problem.test_outputs.astype(np.int64)
    return ranks_within(problem.ranker_outputs)[problem.n :]


def _quintile_widths(
    sets: RankSets, predicted: np.ndarray, total: int
) -> tuple[float, float]:
    """Mean set size in the middle vs extreme quintiles of predicted rank."""
    widths = sets.size.astype(float)
    quintile = np.minimum(4, (5 * (predicted - 1)) // total)
    mid = widths[quintile == 2]
    ext = widths[(quintile == 0) | (quintile == 4)]
    return (
        float(mid.mean()) if mid.size else float("nan"),
        float(ext.mean()) if ext.size else float("nan"),
    )


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Repeat the full pipeline ``cfg.reps`` times and collect metrics.

    The envelope and (in FCP mode) the threshold index are computed once per
    experiment: both depend only on ``(n, m)`` and the levels (the envelope
    also on its Monte-Carlo budget ``K_env``), not on the data, so refitting
    per repetition would only add identical-in-law copies at hundreds of
    times the cost.  The FCP index is exact.  All per-repetition randomness
    (data, ranker noise) is fresh.
    """
    env = build_envelope(
        cfg.envelope_kind, cfg.n, cfg.m, cfg.delta, cfg.K_env,
        child_seed(cfg.master_seed, "envelope"), workers=cfg.workers,
    )
    meta = None
    if cfg.fcp_mode == FCP_CONTROLLED:
        meta = fcp_calibration(cfg.alpha, cfg.beta, env.delta, cfg.n, cfg.m)
        k = meta.k
    else:
        k = select_k(cfg.alpha, env.delta, cfg.n)
    k_top = cfg.effective_k_top

    report = ExperimentReport(
        config=cfg, k=k, threshold_meta=meta, envelope_kind=env.kind
    )
    for rep in range(cfg.reps):
        problem = synthesize_problem(
            cfg.data_model, cfg.n, cfg.m, cfg.noise_sd, cfg.mode,
            seed=child_seed(cfg.master_seed, "rep", rep), d=5,
        )
        pooled = ranks_within(problem.truth)
        true_calib, true_test = pooled[: cfg.n], pooled[cfg.n :]

        proxy = proxy_scores(problem, env)
        thr = calibrate(proxy, k, alpha=cfg.alpha, fcp_mode=cfg.fcp_mode, fcp_meta=meta)
        sets = predict_sets(problem, thr)
        osets = oracle_sets(problem, cfg.alpha)

        rep_fcp = fcp(sets, true_test)
        rep_rl = relative_length(sets, problem.total)
        o_fcp = fcp(osets, true_test)
        o_rl = relative_length(osets, problem.total)

        lo, hi = env.bounds_for_ranks(problem.calib_ranks)
        covered = bool(np.all((true_calib >= lo) & (true_calib <= hi)))
        contained = bool(np.all((sets.lo <= osets.lo) & (sets.hi >= osets.hi)))
        overlap = np.count_nonzero(topk_candidates(sets, k_top) & (true_test <= k_top))
        mid_w, ext_w = _quintile_widths(sets, _predicted_ranks(problem), problem.total)

        report.per_rep.append(
            RepResult(
                rep=rep,
                fcp=rep_fcp,
                relative_length=rep_rl,
                oracle_fcp=o_fcp,
                oracle_relative_length=o_rl,
                oracle_ratio=rep_rl / o_rl,
                envelope_covered=covered,
                oracle_contained=contained,
                topk_overlap=int(overlap),
                width_mid_quintile=mid_w,
                width_extreme_quintile=ext_w,
            )
        )
    return report
