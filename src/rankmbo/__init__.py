"""rankmbo: offline model-based optimization with ranking-first surrogates.

The package trains a small ReLU surrogate on a fixed offline dataset under
three objectives (squared-error regression, global pairwise ranking, and
distribution-aware ranking), searches for designs by projected gradient
ascent over the adapted surrogate, and provides transport-based diagnostics
that quantify how ranking quality degrades away from the data manifold.
"""

__version__ = "0.1.0"

from .tasks import (
    TaskSpec,
    OfflineDataset,
    branin_task,
    quadratic_bowl_task,
    get_task,
    make_offline_dataset,
    normalized_score,
)
from .surrogate import MlpSurrogate, TrainConfig, init_surrogate, zscore_adapt
from .objectives import (
    DarConfig,
    PartitionedDataset,
    RankConfig,
    margin_rank_loss,
    mse_loss,
    partition,
    train_dar,
    train_mse,
    train_rank_global,
    zero_one_rank_loss,
)
from .search import (
    SearchConfig,
    SearchResult,
    SurrogateObjective,
    ascend,
    project_box,
    propose_candidates,
    score_candidates,
)
from .diagnostics import (
    BoundReport,
    EvalPool,
    RankingErrorReport,
    audit_marginal_decomposition,
    audit_mse_to_rank,
    build_ranking_report,
    make_eval_pool,
    ranking_error,
    ranking_error_vs_radius,
    wasserstein1_assignment,
    wasserstein1_sorted,
)

__all__ = [
    "TaskSpec",
    "OfflineDataset",
    "branin_task",
    "quadratic_bowl_task",
    "get_task",
    "make_offline_dataset",
    "normalized_score",
    "MlpSurrogate",
    "TrainConfig",
    "init_surrogate",
    "zscore_adapt",
    "DarConfig",
    "PartitionedDataset",
    "RankConfig",
    "margin_rank_loss",
    "mse_loss",
    "partition",
    "train_dar",
    "train_mse",
    "train_rank_global",
    "zero_one_rank_loss",
    "SearchConfig",
    "SearchResult",
    "SurrogateObjective",
    "ascend",
    "project_box",
    "propose_candidates",
    "score_candidates",
    "BoundReport",
    "EvalPool",
    "RankingErrorReport",
    "audit_marginal_decomposition",
    "audit_mse_to_rank",
    "build_ranking_report",
    "make_eval_pool",
    "ranking_error",
    "ranking_error_vs_radius",
    "wasserstein1_assignment",
    "wasserstein1_sorted",
]
