"""Closed-form Mahalanobis metric learning with an ensemble cascade.

The package provides three linear metric learners over the pairwise feature
difference space (rmml, kissme, and a genuine-pair baseline), an ensemble
cascade that stacks grouped metric-learning stages through PSD-clamped
spectral projections, and a verification evaluation harness (equal error
rate and matched/unmatched distance-distribution divergence).
"""

from .cascade import (
    DEFAULT_CASCADE_LAMBDA,
    DEFAULT_STAGES,
    CascadeModel,
    Projection,
    StageModel,
    fit_cascade,
    group_counts,
    load_model,
    mcd,
    save_model,
    transform,
)
from .errors import (
    EcmlError,
    NumericalError,
    SingularCovariance,
    ValidationError,
)
from .evaluation import (
    DEFAULT_BINS,
    EvalReport,
    ScoredPairs,
    build_report,
    cascade_distance,
    compute_eer,
    evaluate,
    kl_divergence,
    load_report,
    save_report,
    score_pairs,
)
from .features import (
    FeatureFile,
    FeatureMatrix,
    PairSet,
    PcaModel,
    apply_pca,
    fit_pca,
    gen_synthetic,
    load_features,
    load_labels,
    load_pairs,
    sample_pairs,
    save_features,
    save_labels,
    save_pairs,
)
from .metrics import (
    DEFAULT_LAMBDA,
    DifferenceStats,
    MetricModel,
    accumulate_stats,
    fit_genuine_baseline,
    fit_kissme,
    fit_rmml,
    make_learner,
    objective,
)

__version__ = "0.1.0"
