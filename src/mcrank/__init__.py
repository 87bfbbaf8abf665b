"""Multi-criteria candidate ranking and top-N evaluation.

Ranks items from multi-criteria rating vectors using Pareto dominance
counting, relaxed k-dominance, preference ordering (average ranking,
maximum ranking, global detriment, profit gain) and hybrid major+subsort
composition, and evaluates the resulting recommendations with
cross-validated F1 and NDCG.
"""

from .core import (
    CandidateSet,
    Dataset,
    MethodSpec,
    RatingRecord,
    ScoredList,
    Violation,
    validate_dataset,
)
from .errors import (
    DatasetValidationError,
    DimensionError,
    DomainError,
    EvaluationError,
    McrankError,
    ParseError,
    SplitError,
    TrainingError,
)
from .io import load_model, save_model
from .metrics import ConfusionCounts, GroundTruth, confusion, dcg, f1, ndcg
from .pipeline import (
    ExperimentConfig,
    MetricsReport,
    Protocol,
    ReportCell,
    build_candidates,
    kfold_split,
    run_experiment,
    synth_generate,
)
from .predictor import PredictorModel, TrainConfig, fit, predict_many
from .ranking import (
    average_ranks,
    method_scores,
    rank_candidates,
    score_methods,
    top_n,
)

__version__ = "0.1.0"
