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
    export_trait,
    kmeans,
    pearson,
    run_analysis,
    welch_t_test,
)
from .core import (
    Corpus,
    Hyperparams,
    Posterior,
    Schema,
    Token,
    Trace,
    load_corpus,
    load_schema,
    save_corpus,
    save_schema,
    validate_corpus,
)
from .generator import (
    LabeledCorpus,
    generate,
    sample_params,
    synthetic_schema,
)
from .ingest import (
    ActivityMapping,
    FilterConfig,
    IngestResult,
    MappingRule,
    RawEvents,
    RejectedRow,
    build_corpora,
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
