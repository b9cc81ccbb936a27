"""Trait-mixture modeling of learner event logs.

Tokens are (event, time-bin, interaction-level) triples; traces are one
student's tokens in one session. The package covers ingestion of raw logs,
a synthetic-data generator with known truth, collapsed Gibbs fitting, and
the downstream clustering / grade-correlation analysis.

Each public name below is loaded with its submodule on first lookup
(PEP 562), so ``import hbtm`` imports no submodule and a process pays only
for the ones it uses.
"""

import sys

_EXPORTS = {
    "analysis": (
        "AnalysisReport",
        "GradeTable",
        "KMeansResult",
        "PearsonResult",
        "TTestResult",
        "export_trait",
        "kmeans",
        "pearson",
        "run_analysis",
        "welch_t_test",
    ),
    "core": (
        "Corpus",
        "Hyperparams",
        "Posterior",
        "Schema",
        "Token",
        "Trace",
        "load_corpus",
        "load_schema",
        "save_corpus",
        "save_schema",
        "validate_corpus",
    ),
    "generator": (
        "LabeledCorpus",
        "generate",
        "sample_params",
        "synthetic_schema",
    ),
    "ingest": (
        "ActivityMapping",
        "FilterConfig",
        "IngestResult",
        "MappingRule",
        "RawEvents",
        "RejectedRow",
        "build_corpora",
        "map_activity",
        "parse_raw_log",
    ),
    "sampler": (
        "CountConsistencyError",
        "FitConfig",
        "FitResult",
        "ModelState",
        "collapsed_log_joint",
        "estimate_posterior",
        "fit",
        "gibbs_sweep",
        "init_state",
        "load_fit_result",
        "reference_sweep",
    ),
}
# name -> the submodule that defines it
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_SUBMODULE, *_EXPORTS]
__version__ = "0.1.0"


def _submodule(name):
    # __import__ rather than importlib.import_module: -X importtime reports only the former
    __import__(f"{__name__}.{name}")
    return sys.modules[f"{__name__}.{name}"]


def __getattr__(name):
    if name in _EXPORTS:  # importing a submodule binds it here
        return _submodule(name)
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_submodule(_SUBMODULE[name]), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
