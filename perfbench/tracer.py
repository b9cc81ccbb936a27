"""In-memory span tracing around the calls into hbtm's layers, and per-layer metrics.

Each wrapper replaces the attribute under the name its caller looks up (for
example ``hbtm.sampler.gibbs_sweep``, which ``sampler.fit`` calls as a module
global), so no file under ``src/`` changes. A span is
``[name, start, end, parent, attrs]``; ``parent`` is the index of the span that
was open when this one started. Work a probe does to derive attributes runs
outside the span's timed interval and shows only in the tracing overhead.
"""

from __future__ import annotations

import functools
import statistics
import time


class Tracer:
    """Records nested spans of one single-threaded process."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, *args, probe=None, **kwargs):
        """Call ``fn`` inside a span; ``probe(args)`` returns a callback(result) -> attrs."""
        done = probe(args) if probe else None
        index = len(self.spans)
        record = [name, 0.0, 0.0, self._open[-1] if self._open else None, {}]
        self.spans.append(record)
        self._open.append(index)
        record[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self._open.pop()
        if done:
            record[4].update(done(result))
        return result

    def wrap(self, owner, attr: str, name: str, probe=None) -> None:
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return self.span(name, original, *args, probe=probe, **kwargs)

        self._patched.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


def _sweep_probe(args):
    state = args[0]
    before = list(state.z)

    def done(_result):
        changed = sum(a != b for a, b in zip(before, state.z))
        return {"k": state.num_traits, "tokens": len(before), "changed": changed}

    return done


def _parse_probe(_args):
    def done(result):
        events, rejects = result
        return {"events": len(events), "rejects": len(rejects)}

    return done


def _build_probe(_args):
    def done(result):
        return {"tokenized": result.tokenized, "filtered": result.filtered}

    return done


def instrument(tracer: Tracer) -> None:
    """Wrap every layer boundary the CLI pipeline crosses."""
    from hbtm import analysis, core, ingest, sampler

    tracer.wrap(ingest, "parse_raw_log", "ingest.parse_raw_log", _parse_probe)
    tracer.wrap(ingest, "build_corpora", "ingest.build_corpora", _build_probe)
    tracer.wrap(core, "load_corpus", "core.load_corpus")
    tracer.wrap(sampler, "fit", "sampler.fit")
    tracer.wrap(sampler, "init_state", "sampler.init_state")
    tracer.wrap(sampler, "validate_corpus", "core.validate_corpus")
    tracer.wrap(sampler, "gibbs_sweep", "sampler.gibbs_sweep", _sweep_probe)
    tracer.wrap(sampler, "collapsed_log_joint", "sampler.collapsed_log_joint")
    tracer.wrap(sampler, "estimate_posterior", "core.estimate_posterior")
    tracer.wrap(sampler.ModelState, "count_violations", "sampler.count_violations")
    tracer.wrap(sampler, "load_fit_result", "sampler.load_fit_result")
    tracer.wrap(analysis, "run_analysis", "analysis.run_analysis")
    tracer.wrap(analysis, "kmeans", "analysis.kmeans")
    tracer.wrap(analysis, "export_trait", "analysis.export_trait")


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _quantile(values, q: float) -> float:
    """Nearest-rank quantile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(spans: list[list], untraced_wall_s: float,
                  samples: list[tuple[float, float]]) -> dict[str, float]:
    """Per-layer figures from the spans of the traced repetitions.

    ``*.ms`` is the median duration of one call, ``*.s`` the seconds one
    repetition spends in the layer (median over repetitions), ``*.self_s`` the
    same for self time, which excludes the time covered by child spans, and
    ``*.share`` a layer's part of the repetitions' CLI time. A layer the
    workload never enters reads 0. Times are raw; the median calibration
    sample taken during the traced repetitions tells the host's speed then.
    """
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    rep_of: list[int | None] = [None] * len(spans)
    for i, (name, _start, _end, parent, _attrs) in enumerate(spans):
        if parent is not None:
            child[parent] += dur[i]
            rep_of[i] = rep_of[parent]
        if name == "rep":
            rep_of[i] = i
    reps = [i for i, s in enumerate(spans) if s[0] == "rep"]

    def calls(name):
        return [i for i, s in enumerate(spans) if s[0] == name]

    def per_rep(name, self_time=False):
        totals = {r: 0.0 for r in reps}
        for i in calls(name):
            totals[rep_of[i]] += dur[i] - (child[i] if self_time else 0.0)
        return _median(list(totals.values())) if calls(name) else 0.0

    def total(name):
        return sum(dur[i] for i in calls(name))

    def call_ms(name):
        return _median([dur[i] * 1e3 for i in calls(name)])

    sweeps = calls("sampler.gibbs_sweep")
    metrics: dict[str, float] = {}
    for k in (5, 10, 15, 20):
        at_k = [i for i in sweeps if spans[i][4]["k"] == k]
        tokens = sum(spans[i][4]["tokens"] for i in at_k)
        metrics[f"sampler.gibbs_sweep.us_per_token.k{k}"] = (
            sum(dur[i] for i in at_k) / tokens * 1e6 if tokens else 0.0)
    sweep_ms = [dur[i] * 1e3 for i in sweeps]
    metrics["sampler.gibbs_sweep.ms.p50"] = _quantile(sweep_ms, 0.5)
    metrics["sampler.gibbs_sweep.ms.p90"] = _quantile(sweep_ms, 0.9)
    metrics["sampler.gibbs_sweep.count"] = float(len(sweeps))
    metrics["sampler.collapsed_log_joint.ms"] = call_ms("sampler.collapsed_log_joint")
    metrics["sampler.count_violations.ms"] = call_ms("sampler.count_violations")
    metrics["core.estimate_posterior.ms"] = call_ms("core.estimate_posterior")
    metrics["sampler.init_state.s"] = per_rep("sampler.init_state")
    fit_s = total("cli.fit")
    metrics["sampler.sweep_share"] = total("sampler.gibbs_sweep") / fit_s if fit_s else 0.0
    visits = sum(spans[i][4]["tokens"] for i in sweeps)
    metrics["sampler.reassigned_frac"] = (
        sum(spans[i][4]["changed"] for i in sweeps) / visits if visits else 0.0)
    metrics["core.load_corpus.s"] = per_rep("core.load_corpus")
    metrics["core.validate_corpus.s"] = per_rep("core.validate_corpus")
    for cmd in ("fit", "analyze", "ingest"):
        metrics[f"cli.{cmd}.self_s"] = per_rep(f"cli.{cmd}", self_time=True)
    metrics["analysis.run_analysis.s"] = per_rep("analysis.run_analysis")
    metrics["analysis.kmeans.s"] = per_rep("analysis.kmeans")
    metrics["analysis.export_trait.s"] = per_rep("analysis.export_trait")
    metrics["sampler.load_fit_result.s"] = per_rep("sampler.load_fit_result")

    parses = calls("ingest.parse_raw_log")
    builds = calls("ingest.build_corpora")
    rows = sum(spans[i][4]["events"] + spans[i][4]["rejects"] for i in parses)
    metrics["ingest.parse_raw_log.s"] = per_rep("ingest.parse_raw_log")
    metrics["ingest.parse_raw_log.rows_per_s"] = rows / total("ingest.parse_raw_log") if rows else 0.0
    rep_wall = {r: 0.0 for r in reps}  # the CLI calls of a repetition, not what runs between
    for i, span in enumerate(spans):
        if span[3] in rep_wall:
            rep_wall[span[3]] += dur[i]
    wall = sum(rep_wall.values())
    metrics["analysis.run_analysis.share"] = total("analysis.run_analysis") / wall
    metrics["ingest.parse_raw_log.share"] = total("ingest.parse_raw_log") / wall
    metrics["ingest.build_corpora.s"] = per_rep("ingest.build_corpora")
    metrics["ingest.rows_rejected"] = float(spans[parses[0]][4]["rejects"]) if parses else 0.0
    metrics["ingest.events_filtered"] = float(spans[builds[0]][4]["filtered"]) if builds else 0.0
    metrics["ingest.tokens"] = float(spans[builds[0]][4]["tokenized"]) if builds else 0.0
    metrics["trace.overhead_s"] = _median(list(rep_wall.values())) - untraced_wall_s
    metrics["host.calibration_sample_ms"] = _median(
        [x * 1e3 for t, x in samples if any(spans[r][1] <= t <= spans[r][2] for r in reps)])
    return metrics
