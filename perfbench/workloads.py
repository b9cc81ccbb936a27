"""The three workloads: how to build their inputs, the CLI steps they time, and the checks.

All three drive the same pipeline a researcher runs (``ingest`` -> ``fit`` ->
``analyze`` -> ``export-trait`` for every trait of every model), as one
closed-loop client issuing one call after the previous one returns. They differ in input shape and sweep budget,
which moves the cost between layers:

* ``session-fit``: one paper-sized session (115 traces, 200-460 tokens each,
  38,000 tokens) fitted and analyzed at K = 5, 10, 15, 20. The per-token
  sweep dominates.
* ``trace-heavy-fit``: the same order of tokens as 4,000 traces of 10, fitted
  at K = 20 with a snapshot and a count audit after every sweep. Costs that
  scale with the M x K tables (log-joint, snapshots, audit, model JSON,
  k-means over 4,000 mixtures) become real shares.
* ``log-ingest``: a 230,318-row surrogate of the paper's six-session log with
  transients, frozen rows, clamped counts and malformed rows, then one short
  K = 5 fit of the first session. CSV parsing dominates.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import inputs


@dataclass(frozen=True)
class Workload:
    name: str
    build: object  # (out_dir, seed) -> expected counts
    traits: tuple[int, ...]  # one fit per value; each model is analyzed and every trait exported
    sweeps: int
    burn_in: int
    stride: int
    audit_every: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("session-fit",
                 partial(inputs.build_rendered_corpus, traces=115, lo=200, hi=460, total=38000),
                 traits=(5, 10, 15, 20), sweeps=5, burn_in=1, stride=2, audit_every=0),
        Workload("trace-heavy-fit",
                 partial(inputs.build_rendered_corpus, traces=4000, lo=10, hi=10, total=40000),
                 traits=(20,), sweeps=10, burn_in=5, stride=1, audit_every=1),
        Workload("log-ingest", inputs.build_surrogate_log,
                 traits=(5,), sweeps=2, burn_in=1, stride=1, audit_every=0),
    )
}


def build_inputs(w: Workload, out: Path, seed: int) -> dict:
    expected = w.build(out, seed)
    (out / "columns.json").write_text(json.dumps(inputs.COLUMN_MAP))
    (out / "expected.json").write_text(json.dumps(expected))
    return expected


def plan(w: Workload, expected: dict) -> dict:
    """CLI steps with their work sizes and output files, and every file to digest."""
    corpus = f"out/ingest/session_{expected['fit_session']}.jsonl"
    ingested = ["out/ingest/schema.json", "out/ingest/summary.json", "out/ingest/rejects.csv"]
    ingested += [f"out/ingest/session_{s}.jsonl" for s in expected["sessions"]]
    steps = [{"argv": ["ingest", "--raw", "inputs/raw.csv", "--column-map",
                       "inputs/columns.json", "--out-dir", "out/ingest"],
              "outputs": ingested}]
    for k in w.traits:
        steps.append({"argv": ["fit", "--corpus", corpus, "--traits", str(k),
                               "--sweeps", str(w.sweeps), "--burn-in", str(w.burn_in),
                               "--stride", str(w.stride), "--audit-every", str(w.audit_every),
                               "--seed", "1", "--out", f"out/model_k{k}.json"],
                      "k": k, "outputs": [f"out/model_k{k}.json"]})
    for k in w.traits:
        steps.append({"argv": ["analyze", "--model", f"out/model_k{k}.json",
                               "--grades", "inputs/grades.csv", "--out", f"out/report_k{k}.json"],
                      "k": k, "outputs": [f"out/report_k{k}.json"]})
        for trait in range(1, k + 1):
            profile = f"out/trait_k{k}_{trait}.csv"
            steps.append({"argv": ["export-trait", "--model", f"out/model_k{k}.json",
                                   "--trait", str(trait), "--event-labels",
                                   "out/ingest/schema.json", "--out", profile],
                          "k": k, "outputs": [profile]})
    return {"steps": steps, "outputs": [f for step in steps for f in step["outputs"]]}


# --- output checks: each returns a list of problems, empty when the output is right ---


def _check_ingest(w: Workload, run_dir: Path, expected: dict, step: dict) -> list[str]:
    out = run_dir / "out/ingest"
    summary = json.loads((out / "summary.json").read_text())
    problems = []
    want_rejected = sum(expected["rejected"].values())
    checks = {
        "parsed_rows": (summary["parsed_rows"], expected["rows"]),
        "rejected_rows": (summary["rejected_rows"], want_rejected),
        "parsed = raw + rejected": (summary["parsed_rows"],
                                    summary["raw_events"] + summary["rejected_rows"]),
        "raw = tokenized + filtered": (summary["raw_events"],
                                       summary["tokenized"] + summary["filtered"]),
        "filtered": (summary["filtered"], expected["filtered"]),
        "tokenized": (summary["tokenized"], expected["tokens"]),
        "sessions": (summary["sessions"], expected["sessions"]),
        "dropped_traces": (summary["dropped_traces"], []),
        "event_counts total": (sum(summary["event_counts"]), expected["tokens"]),
    }
    with open(out / "rejects.csv", newline="") as fh:
        reasons = Counter(row["reason"] for row in csv.DictReader(fh))
    checks["reject reasons"] = (
        dict(reasons), {r: n for r, n in expected["rejected"].items() if n})
    problems += [f"ingest {name}: got {got!r}, want {want!r}"
                 for name, (got, want) in checks.items() if got != want]
    corpus_path = out / f"session_{expected['fit_session']}.jsonl"
    fit_tokens = sum(len(json.loads(line)["tokens"])
                     for line in corpus_path.read_text().splitlines())
    if fit_tokens != expected["fit_tokens"]:
        problems.append(f"ingest fit session: {fit_tokens} tokens, want {expected['fit_tokens']}")
    golden = run_dir / "inputs/expected_corpus.json"
    if golden.is_file():
        want = json.loads(golden.read_text())
        got = {rec["trace_id"]: rec["tokens"]
               for rec in map(json.loads, corpus_path.read_text().splitlines())}
        if got != want:
            problems.append("ingest: corpus differs from the generated tokens")
    return problems


def _check_fit(w: Workload, run_dir: Path, expected: dict, step: dict) -> list[str]:
    k = step["k"]
    model = json.loads((run_dir / f"out/model_k{k}.json").read_text())
    trace = model["log_joint_trace"]
    diag = model["diagnostics"]
    post = model["posterior"]
    problems = []
    if len(trace) != w.sweeps or not all(math.isfinite(v) for v in trace):
        problems.append(f"fit k{k}: log_joint_trace has {len(trace)} values or a non-finite one")
    if diag["retained_samples"] != (w.sweeps - w.burn_in) // w.stride:
        problems.append(f"fit k{k}: retained_samples {diag['retained_samples']}")
    want_audits = w.sweeps // w.audit_every if w.audit_every else 0
    if diag["audits_passed"] != want_audits:
        problems.append(f"fit k{k}: audits_passed {diag['audits_passed']}, want {want_audits}")
    if len(post["phi"]) != k or any(len(row) != 15 for row in post["phi"]):
        problems.append(f"fit k{k}: phi is not {k} x 15")
    if len(post["theta"]) != expected["fit_traces"] or len(model["trace_ids"]) != len(post["theta"]):
        problems.append(f"fit k{k}: theta rows {len(post['theta'])}, want {expected['fit_traces']}")
    return problems


def _check_analyze(w: Workload, run_dir: Path, expected: dict, step: dict) -> list[str]:
    k = step["k"]
    report = json.loads((run_dir / f"out/report_k{k}.json").read_text())
    problems = []
    if set(report["ttests"]) != {"SA", "SFE", "FE"}:
        problems.append(f"analyze k{k}: t-test blocks {sorted(report['ttests'])}")
    if len(report["correlations"]) != 3 * k:
        problems.append(f"analyze k{k}: {len(report['correlations'])} correlations")
    if sum(report["cluster_sizes"]) != expected["fit_traces"]:
        problems.append(f"analyze k{k}: cluster sizes {report['cluster_sizes']}")
    return problems


def _check_export(w: Workload, run_dir: Path, expected: dict, step: dict) -> list[str]:
    path = step["outputs"][0]
    lines = (run_dir / path).read_text().splitlines()
    kinds = Counter(line.split(",", 1)[0] for line in lines if not line.startswith("#"))
    want = {"kind": 1, "event": 15, "time": 15 * 7, "interaction": 15 * 5}
    return [] if dict(kinds) == want else [f"{path}: row counts {dict(kinds)}"]


_CHECKS = {"ingest": _check_ingest, "fit": _check_fit, "analyze": _check_analyze,
           "export-trait": _check_export}


def check_step(w: Workload, run_dir: Path, expected: dict, step: dict) -> list[str]:
    """Problems with the output of one CLI step; a missing or unreadable file is one."""
    command = step["argv"][0]
    try:
        return _CHECKS[command](w, run_dir, expected, step)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"{command}: unreadable output: {exc!r}"]
