"""Command-line front door: ingest, fit, generate, analyze, export-trait.

Every subcommand accepts --config pointing at a JSON file whose keys match
the flag names (dashes as underscores); explicit flags override file values.
Outputs embed the fully resolved configuration and seed. Errors exit nonzero
with a one-line JSON object on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import analysis, core, generator, ingest, sampler


def _error_json(kind: str, detail: str) -> str:
    return json.dumps({"error": kind, "detail": detail}, sort_keys=True)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(_error_json("argument error", message), file=sys.stderr)
        raise SystemExit(2)


def _dump_json(payload: dict, path: Path) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _resolve(args: argparse.Namespace, defaults: dict) -> dict:
    """Merge defaults, the optional --config file, then explicit flags."""
    resolved = dict(defaults)
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            file_values = json.loads(Path(config_path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(f"cannot read config file {config_path}: {exc}") from exc
        unknown = set(file_values) - set(defaults)
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(sorted(unknown))}")
        resolved.update(file_values)
    for key in defaults:
        value = getattr(args, key, None)
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


_INGEST_DEFAULTS = {
    "raw": None,
    "column_map": None,
    "activity_map": "",
    "schema": "",
    "min_duration": 1.0,
    "max_duration": 14000.0,
    "out_dir": None,
}


def _cmd_ingest(args) -> int:
    resolved = _resolve(args, _INGEST_DEFAULTS)
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

    events, rejects = ingest.parse_raw_log(resolved["raw"], column_map)
    result = ingest.build_corpora(events, mapping, schema, filt)
    if result.tokenized + result.filtered != len(events):
        raise RuntimeError("conservation violated: parsed != tokenized + filtered")

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
    _dump_json(summary, out_dir / "summary.json")
    return 0


_FIT_DEFAULTS = {
    "corpus": None,
    "schema": "",
    "traits": None,
    "sweeps": 2000,
    "burn_in": 1000,
    "stride": 10,
    "seed": 0,
    "alpha": 1.0,
    "beta": 0.1,
    "gamma": 0.1,
    "delta": 0.1,
    "audit_every": 0,
    "out": None,
}


def _cmd_fit(args) -> int:
    resolved = _resolve(args, _FIT_DEFAULTS)
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
    _dump_json(payload, Path(resolved["out"]))
    return 0


_GENERATE_DEFAULTS = {
    "traits": None,
    "events": 15,
    "time_bins": 7,
    "interaction_levels": 5,
    "traces": None,
    "tokens_per_trace": None,
    "seed": 0,
    "alpha": 1.0,
    "beta": 0.1,
    "gamma": 0.1,
    "delta": 0.1,
    "out_prefix": None,
}


def _cmd_generate(args) -> int:
    resolved = _resolve(args, _GENERATE_DEFAULTS)
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
        "params": params.to_dict(),
        "assignments": [list(row) for row in labeled.assignments],
    }
    _dump_json(truth, Path(str(prefix) + ".truth.json"))
    return 0


_ANALYZE_DEFAULTS = {
    "model": None,
    "grades": None,
    "threshold": 0.05,
    "seed": 0,
    "out": None,
}


def _cmd_analyze(args) -> int:
    resolved = _resolve(args, _ANALYZE_DEFAULTS)
    fit_result = sampler.load_fit_result(resolved["model"])
    grades = analysis.GradeTable.from_csv(resolved["grades"])
    report = analysis.run_analysis(
        fit_result, grades, threshold=float(resolved["threshold"]), seed=int(resolved["seed"])
    )
    payload = {"config": resolved, **report.to_json_dict()}
    _dump_json(payload, Path(resolved["out"]))
    return 0


_EXPORT_DEFAULTS = {
    "model": None,
    "trait": None,
    "event_labels": "",
    "out": None,
}


def _cmd_export_trait(args) -> int:
    resolved = _resolve(args, _EXPORT_DEFAULTS)
    fit_result = sampler.load_fit_result(resolved["model"])
    labels = None
    if resolved["event_labels"]:
        labels = tuple(core.load_schema(resolved["event_labels"]).event_labels)
    profile = analysis.export_trait(
        fit_result.posterior, core.from_one_based(int(resolved["trait"])), labels
    )
    text = analysis.trait_profile_to_csv(
        profile, header_comment="config: " + json.dumps(resolved, sort_keys=True)
    )
    Path(resolved["out"]).write_text(text)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="hbtm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", parents=[], help="raw CSV -> per-session corpora")
    p.add_argument("--config", help="JSON file with option defaults")
    p.add_argument("--raw", help="raw event-log CSV")
    p.add_argument("--column-map", dest="column_map", help="JSON mapping of CSV columns")
    p.add_argument("--activity-map", dest="activity_map", help="activity mapping JSON")
    p.add_argument("--schema", help="schema JSON (default: built-in)")
    p.add_argument("--min-duration", dest="min_duration", type=float)
    p.add_argument("--max-duration", dest="max_duration", type=float)
    p.add_argument("--out-dir", dest="out_dir", help="output directory")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("fit", help="collapsed Gibbs fit of one corpus")
    p.add_argument("--config")
    p.add_argument("--corpus", help="corpus JSONL")
    p.add_argument("--schema", help="schema JSON (default: sibling schema.json)")
    p.add_argument("--traits", type=int, help="number of hidden traits")
    p.add_argument("--sweeps", type=int)
    p.add_argument("--burn-in", dest="burn_in", type=int)
    p.add_argument("--stride", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--audit-every", dest="audit_every", type=int)
    p.add_argument("--out", help="fit result JSON")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("generate", help="synthesize a labeled corpus with known truth")
    p.add_argument("--config")
    p.add_argument("--traits", type=int)
    p.add_argument("--events", type=int)
    p.add_argument("--time-bins", dest="time_bins", type=int)
    p.add_argument("--interaction-levels", dest="interaction_levels", type=int)
    p.add_argument("--traces", type=int)
    p.add_argument("--tokens-per-trace", dest="tokens_per_trace", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--out-prefix", dest="out_prefix")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("analyze", help="clusters, t-tests and correlations vs grades")
    p.add_argument("--config")
    p.add_argument("--model", help="fit result JSON")
    p.add_argument("--grades", help="grades CSV (trace_id,SA,SFE,FE)")
    p.add_argument("--threshold", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="report JSON")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("export-trait", help="per-trait distribution profile CSV")
    p.add_argument("--config")
    p.add_argument("--model", help="fit result JSON")
    p.add_argument("--trait", type=int, help="1-based trait number")
    p.add_argument("--event-labels", dest="event_labels",
                   help="schema JSON supplying event labels")
    p.add_argument("--out", help="profile CSV")
    p.set_defaults(func=_cmd_export_trait)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # every failure, whatever its type, gets the one-line error
        print(_error_json(type(exc).__name__, str(exc)), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
