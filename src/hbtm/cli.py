"""Command-line front door: ingest, fit, generate, analyze, export-trait.

Every subcommand accepts --config pointing at a JSON file whose keys match
the flag names (dashes as underscores); explicit flags override file values.
Outputs embed the fully resolved configuration and seed. Errors exit nonzero
with a one-line JSON object on stderr; the only other stderr line is the
notice of a process whose compiled library is unavailable, which comes first.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# analysis, generator and ingest are imported by the handlers that use them,
# so a process loads only what its subcommand runs.
from . import core, sampler


def _error_json(kind: str, detail: str) -> str:
    return json.dumps({"error": kind, "detail": detail}, sort_keys=True)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(_error_json("argument error", message), file=sys.stderr)
        raise SystemExit(2)


def _resolve(args: argparse.Namespace, options) -> dict:
    """Merge the option table's defaults, the optional --config file, then explicit flags.

    Values are kept as given (a config file's ``1`` stays ``1``); each command
    converts them where it uses them. A file value must have its option's type,
    where an int also serves a float option and a bool serves neither.
    """
    resolved = {key: default for key, _type, default, _help in options}
    if args.config:
        try:
            file_values = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(f"cannot read config file {args.config}: {exc}") from exc
        if not isinstance(file_values, dict):
            raise TypeError(f"config file {args.config} must hold a JSON object")
        unknown = set(file_values) - set(resolved)
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(sorted(unknown))}")
        for key, kind, _default, _help in options:
            value = file_values.get(key)
            accepted = (int, float) if kind is float else kind
            if key in file_values and (isinstance(value, bool) or not isinstance(value, accepted)):
                raise TypeError(f"config key {key} must be {kind.__name__}, got {value!r}")
        resolved.update(file_values)
    for key in resolved:
        value = getattr(args, key)
        if value is not None:
            resolved[key] = value
    missing = [k for k, v in resolved.items() if v is None]
    if missing:
        raise ValueError(f"missing required options: {', '.join(sorted(missing))}")
    return resolved


def _hyper(resolved: dict) -> core.Hyperparams:
    return core.Hyperparams(
        alpha=float(resolved["alpha"]),
        beta=float(resolved["beta"]),
        gamma=float(resolved["gamma"]),
        delta=float(resolved["delta"]),
    )


# One table per subcommand declares every option once: (key, type, default,
# help). The key is the config-file key and, with dashes for underscores, the
# flag; a None default makes the option required.
_INGEST_OPTIONS = (
    ("raw", str, None, "raw event-log CSV"),
    ("column_map", str, None, "JSON mapping of CSV columns"),
    ("activity_map", str, "", "activity mapping JSON"),
    ("schema", str, "", "schema JSON (default: built-in)"),
    ("min_duration", float, core.DEFAULT_MIN_DURATION_S, None),
    ("max_duration", float, core.DEFAULT_MAX_DURATION_S, None),
    ("out_dir", str, None, "output directory"),
)


def _cmd_ingest(resolved: dict) -> int:
    from . import ingest

    column_map = json.loads(Path(resolved["column_map"]).read_text())
    mapping = (
        ingest.ActivityMapping.load(resolved["activity_map"])
        if resolved["activity_map"]
        else ingest.ActivityMapping.default()
    )
    schema = (
        core.load_schema(resolved["schema"]) if resolved["schema"] else core.Schema.default()
    )
    filt = ingest.FilterConfig(
        min_duration_s=float(resolved["min_duration"]),
        max_duration_s=float(resolved["max_duration"]),
    )

    with open(resolved["raw"], "rb") as fh:
        events, rejects = ingest.parse_raw_log(fh, column_map)
    result = ingest.build_corpora(events, mapping, schema, filt)
    if result.tokenized + result.filtered != len(events):
        raise RuntimeError("conservation violated: parsed != tokenized + filtered")

    bad = [s for s in result.corpora if any(c and c in s for c in ("/", os.sep, os.altsep, "\0"))]
    if bad:  # each session id is part of a file name in out_dir
        raise ValueError(f"session ids cannot name a file: {', '.join(map(repr, sorted(bad)))}")
    out_dir = Path(resolved["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    core.save_schema(schema, out_dir / "schema.json")
    for session, corpus in result.corpora.items():
        core.save_corpus(corpus, out_dir / f"session_{session}.jsonl")
    ingest.write_rejects_csv(rejects, out_dir / "rejects.csv")
    summary = {
        "config": resolved,
        "parsed_rows": len(events) + len(rejects),
        "raw_events": len(events),
        "rejected_rows": len(rejects),
        **result.summary_dict(),
    }
    core.save_json(summary, out_dir / "summary.json")
    written = {f"session_{session}.jsonl" for session in result.corpora}
    for stale in out_dir.glob("session_*.jsonl"):  # left by an earlier ingest
        if stale.name not in written:
            stale.unlink()
    return 0


_HYPER_OPTIONS = (
    ("alpha", float, core.Hyperparams.alpha, None),
    ("beta", float, core.Hyperparams.beta, None),
    ("gamma", float, core.Hyperparams.gamma, None),
    ("delta", float, core.Hyperparams.delta, None),
)

_FIT_OPTIONS = (
    ("corpus", str, None, "corpus JSONL"),
    ("schema", str, "", "schema JSON (default: sibling schema.json)"),
    ("traits", int, None, "number of hidden traits"),
    ("sweeps", int, sampler.FitConfig.sweeps, None),
    ("burn_in", int, sampler.FitConfig.burn_in, None),
    ("stride", int, sampler.FitConfig.sample_stride, None),
    ("seed", int, sampler.FitConfig.seed, None),
    *_HYPER_OPTIONS,
    ("audit_every", int, sampler.FitConfig.audit_every, None),
    ("out", str, None, "fit result JSON"),
)


def _cmd_fit(resolved: dict) -> int:
    corpus_path = Path(resolved["corpus"])
    schema_path = Path(resolved["schema"]) if resolved["schema"] else corpus_path.parent / "schema.json"
    schema = core.load_schema(schema_path)
    corpus = core.load_corpus(corpus_path, schema)
    config = sampler.FitConfig(
        num_traits=int(resolved["traits"]),
        sweeps=int(resolved["sweeps"]),
        burn_in=int(resolved["burn_in"]),
        sample_stride=int(resolved["stride"]),
        seed=int(resolved["seed"]),
        hyper=_hyper(resolved),
        audit_every=int(resolved["audit_every"]),
    )
    result = sampler.fit(corpus, config)
    payload = result.to_json_dict()
    payload["config"] = dict(resolved)
    core.save_json(payload, resolved["out"])
    return 0


_GENERATE_OPTIONS = (
    ("traits", int, None, None),
    ("events", int, 15, None),
    ("time_bins", int, 7, None),
    ("interaction_levels", int, 5, None),
    ("traces", int, None, None),
    ("tokens_per_trace", int, None, None),
    ("seed", int, 0, None),
    *_HYPER_OPTIONS,
    ("out_prefix", str, None, None),
)


def _cmd_generate(resolved: dict) -> int:
    from . import generator

    schema = generator.synthetic_schema(
        int(resolved["events"]), int(resolved["time_bins"]), int(resolved["interaction_levels"])
    )
    hyper = _hyper(resolved)
    seed = int(resolved["seed"])
    num_traces = int(resolved["traces"])
    params = generator.sample_params(
        int(resolved["traits"]), num_traces, schema, hyper, seed
    )
    labeled = generator.generate(
        params, [int(resolved["tokens_per_trace"])] * num_traces, seed, schema
    )
    prefix = Path(resolved["out_prefix"])
    prefix.parent.mkdir(parents=True, exist_ok=True)
    core.save_corpus(labeled.corpus, Path(str(prefix) + ".jsonl"))
    core.save_schema(schema, Path(str(prefix) + ".schema.json"))
    truth = {
        "config": resolved,
        "params": {name: getattr(params, name) for name in ("theta", "phi", "psi", "tau")},
        "assignments": [list(row) for row in labeled.assignments],
    }
    core.save_json(truth, Path(str(prefix) + ".truth.json"))
    return 0


_ANALYZE_OPTIONS = (
    ("model", str, None, "fit result JSON"),
    ("grades", str, None, "grades CSV (trace_id,SA,SFE,FE)"),
    ("threshold", float, 0.05, None),
    ("seed", int, 0, None),
    ("out", str, None, "report JSON"),
)


def _cmd_analyze(resolved: dict) -> int:
    from . import analysis

    fit_result = sampler.load_fit_result(resolved["model"])
    grades = analysis.GradeTable.from_csv(resolved["grades"])
    report = analysis.run_analysis(
        fit_result, grades, threshold=float(resolved["threshold"]), seed=int(resolved["seed"])
    )
    payload = {"config": resolved, **report.to_json_dict()}
    core.save_json(payload, resolved["out"])
    return 0


_EXPORT_OPTIONS = (
    ("model", str, None, "fit result JSON"),
    ("trait", int, None, "1-based trait number"),
    ("event_labels", str, "", "schema JSON supplying event labels"),
    ("out", str, None, "profile CSV"),
)


def _cmd_export_trait(resolved: dict) -> int:
    from . import analysis

    fit_result = sampler.load_fit_result(resolved["model"])
    trait, num_traits = int(resolved["trait"]), fit_result.posterior.num_traits
    if not 1 <= trait <= num_traits:
        raise ValueError(f"trait {trait} outside [1, {num_traits}]")
    labels = None
    if resolved["event_labels"]:
        labels = tuple(core.load_schema(resolved["event_labels"]).event_labels)
    text = analysis.export_trait(
        fit_result.posterior, trait - 1, labels,
        header_comment="config: " + json.dumps(resolved, sort_keys=True),
    )
    core.write_atomic(resolved["out"], text)
    return 0


# name: (handler, help, option table)
_COMMANDS = {
    "ingest": (_cmd_ingest, "raw CSV -> per-session corpora", _INGEST_OPTIONS),
    "fit": (_cmd_fit, "collapsed Gibbs fit of one corpus", _FIT_OPTIONS),
    "generate": (_cmd_generate, "synthesize a labeled corpus with known truth", _GENERATE_OPTIONS),
    "analyze": (_cmd_analyze, "clusters, t-tests and correlations vs grades", _ANALYZE_OPTIONS),
    "export-trait": (_cmd_export_trait, "per-trait distribution profile CSV", _EXPORT_OPTIONS),
}


def build_parser(command: str | None = None) -> _Parser:
    """The parser for every subcommand, or for ``command`` alone when it names one.

    A subcommand's parser reads its arguments the same with or without the
    others beside it; the full tree is needed only for top-level help and errors.
    """
    parser = _Parser(prog="hbtm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_text, options) in _COMMANDS.items():
        if command in _COMMANDS and name != command:
            continue
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON file with option defaults")
        for key, kind, _default, option_help in options:
            p.add_argument("--" + key.replace("_", "-"), dest=key, type=kind, help=option_help)
        p.set_defaults(func=handler, options=options)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return args.func(_resolve(args, args.options))
    except Exception as exc:  # every failure, whatever its type, gets the one-line error
        print(_error_json(type(exc).__name__, str(exc)), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
