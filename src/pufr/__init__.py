"""Uncertainty-aware post hoc debiasing of ranked lists.

The core re-ranker shifts protected documents up and non-protected
documents down by a multiple of each document's predictive standard
deviation, clamped so no two same-group documents swap. A Laplace
last-layer module estimates those standard deviations for deterministic
rankers; fairness baselines, utility/fairness metrics, and a sweep
harness round out the toolkit.
"""

from .baselines import (
    ConstrainedResult,
    ConstraintConfig,
    MTable,
    compute_m_table,
    constrained_rerank,
    fastar_rerank,
    hungarian_assign,
    unfair_rank,
)
from .core import (
    QueryCandidates,
    Ranking,
    ScoredCandidate,
    assign_groups,
    build_query,
    rank_by_score,
)
from .metrics import (
    RelevanceJudgments,
    TTestResult,
    fairr_at_k,
    ideal_fairr_at_k,
    intersection_counts,
    median_intersections,
    ndcg_at_k,
    nfairr_at_k,
    paired_t_test,
)
from .rerank import (
    PufrConfig,
    adjust_scores,
    compute_sigma_mean,
    pufr_rerank,
    uniform_rerank,
)
from .sweep import (
    METHODS,
    SweepConfig,
    SweepResult,
    TradeoffRecord,
    records_to_csv,
    report_interval_analysis,
    run_sweep,
    select_best_tradeoff,
)
from .synth import SyntheticConfig, generate_synthetic
from .uncertainty import (
    LastLayerPosterior,
    McConfig,
    PredictiveDistribution,
    analytic_predictive,
    estimate_diagonal_fisher,
    predictive_moments,
    sample_last_layers,
    score_query,
    squared_error_gradients,
)

__version__ = "0.1.0"

__all__ = [
    "ScoredCandidate",
    "QueryCandidates",
    "Ranking",
    "build_query",
    "assign_groups",
    "rank_by_score",
    "PufrConfig",
    "adjust_scores",
    "pufr_rerank",
    "uniform_rerank",
    "compute_sigma_mean",
    "LastLayerPosterior",
    "McConfig",
    "PredictiveDistribution",
    "estimate_diagonal_fisher",
    "squared_error_gradients",
    "sample_last_layers",
    "predictive_moments",
    "analytic_predictive",
    "score_query",
    "unfair_rank",
    "MTable",
    "compute_m_table",
    "fastar_rerank",
    "ConstraintConfig",
    "ConstrainedResult",
    "constrained_rerank",
    "hungarian_assign",
    "RelevanceJudgments",
    "TTestResult",
    "ndcg_at_k",
    "fairr_at_k",
    "ideal_fairr_at_k",
    "nfairr_at_k",
    "paired_t_test",
    "intersection_counts",
    "median_intersections",
    "SyntheticConfig",
    "generate_synthetic",
    "METHODS",
    "SweepConfig",
    "TradeoffRecord",
    "SweepResult",
    "run_sweep",
    "records_to_csv",
    "select_best_tradeoff",
    "report_interval_analysis",
    "__version__",
]
