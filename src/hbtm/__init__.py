"""Trait-mixture modeling of learner event logs.

Tokens are (event, time-bin, interaction-level) triples; traces are one
student's tokens in one session. The package covers ingestion of raw logs,
a synthetic-data generator with known truth, collapsed Gibbs fitting, and
the downstream clustering / grade-correlation analysis.
"""

from .analysis import (
    AnalysisReport,
    GradeTable,
    KMeansResult,
    PearsonResult,
    TTestResult,
    TraitProfile,
    export_trait,
    kmeans,
    pearson,
    run_analysis,
    trait_profile_to_csv,
    welch_t_test,
)
from .core import (
    Corpus,
    Hyperparams,
    Posterior,
    Schema,
    Token,
    Trace,
    from_one_based,
    greedy_match_traits,
    load_corpus,
    load_schema,
    save_corpus,
    save_schema,
    to_one_based,
    total_variation,
    validate_corpus,
)
from .generator import (
    LabeledCorpus,
    generate,
    joint_log_likelihood,
    sample_params,
    synthetic_schema,
)
from .ingest import (
    ActivityMapping,
    FilterConfig,
    IngestResult,
    MappingRule,
    RawEvent,
    RejectedRow,
    build_corpora,
    discretize_duration,
    discretize_interaction,
    map_activity,
    parse_raw_log,
)
from .sampler import (
    CountConsistencyError,
    FitConfig,
    FitResult,
    ModelState,
    collapsed_log_joint,
    estimate_posterior,
    fit,
    gibbs_sweep,
    init_state,
    load_fit_result,
    reference_sweep,
)

__version__ = "0.1.0"
