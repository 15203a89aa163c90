"""Distribution-free prediction intervals for item ranks.

Wraps any black-box full-ranking algorithm: given the relative ranks of n
calibration items and ranker outputs for all n+m items, builds integer
interval prediction sets for each item's rank among the n+m with marginal
coverage and false-coverage-proportion guarantees, using simulated envelopes
around the unknown pooled ranks of the calibration items.
"""

from .conformal import (
    FCP_CONTROLLED,
    MARGINAL,
    FcpCalibration,
    RankSet,
    RankSets,
    Threshold,
    calibrate,
    fcp_calibration,
    predict_sets,
    proxy_score_ra,
    proxy_score_va,
    proxy_scores,
    score_ra,
    scores_at,
    select_k,
)
from .envelope import (
    DEFAULT_K,
    ENVELOPE_KINDS,
    Envelope,
    MonteCarloMeta,
    SortedRankSample,
    build_envelope,
    envelope_coverage,
    fit_linear_envelope,
    fit_quantile_envelope,
    mc_guarantee_slack,
    naive_envelope,
    simulate_sorted_ranks,
    theoretical_envelope,
)
from .errors import (
    DimensionMismatch,
    EmptyPredictionSet,
    InfeasibleLevel,
    InsufficientSample,
    InvalidData,
    InvalidDelta,
    InvalidInput,
    MissingTruth,
    RankCPError,
    RankOutOfRange,
    SampleTooLarge,
    TiesDetected,
)
from .evaluate import (
    ExperimentConfig,
    ExperimentReport,
    RepResult,
    fcp,
    oracle_sets,
    relative_length,
    run_experiment,
    synthesize_problem,
)
from .ranks import (
    RA,
    VA,
    ItemId,
    RankingProblem,
    break_ties,
    ranks_within,
)
from .targets import calibration_sets, test_only_set, topk_candidates

__version__ = "0.1.0"
