"""Seeded input builders: raw event-log CSVs, grade tables and their expected counts.

Every builder is a pure function of its seed. The fit workloads render a
corpus drawn with ``hbtm.generator.generate`` as raw log rows that ingest
maps back to exactly the generated tokens; the log-ingest workload writes a
messy surrogate of the paper's log with a known number of malformed rows of
each reject reason, so the checks can assert exact counts.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from hbtm import core, generator

HEADER = ("session,student_Id,activity,start_time,end_time,"
          "mouse_wheel,mouse_click_left,mouse_click_right,keystroke")

COLUMN_MAP = {
    "session": "session",
    "student_id": "student_Id",
    "activity": "activity",
    "start_time": "start_time",
    "end_time": "end_time",
    "mouse_clicks": ["mouse_wheel", "mouse_click_left", "mouse_click_right"],
    "keystrokes": "keystroke",
}

# One raw label per event index that the default activity mapping sends there.
EVENT_ACTIVITIES = (
    "Study_Es_1_1", "Deeds_Es_1_1", "Deeds_Es", "Deeds", "TextEditor_Es_1_1",
    "TextEditor_Es", "TextEditor", "Diagram", "Properties", "Study_Materials",
    "FSM_Es_1_1", "FSM_Related", "Aulaweb", "Blank", "Other",
)
# The surrogate log also carries labels that no rule matches (mapped to "Other").
SURROGATE_ACTIVITIES = EVENT_ACTIVITIES + ("Deeds_Es_2_3", "Study_Es_5_2", "NotInTheTaxonomy")

REJECT_REASONS = (
    "bad timestamp",
    "short row",
    "negative duration",
    "bad interaction count",
    "negative interaction count",
)

_EPOCH0 = 1570006800  # 02.10.2019 09:00:00 UTC, the first lab session
_DAY = 86400


class _Stamps:
    """``dd.mm.yyyy HH:MM:SS`` formatting of integer UTC epoch seconds."""

    def __init__(self):
        self._days: dict[int, str] = {}

    def __call__(self, epoch: int) -> str:
        day, rest = divmod(int(epoch), _DAY)
        prefix = self._days.get(day)
        if prefix is None:
            prefix = time.strftime("%d.%m.%Y", time.gmtime(day * _DAY))
            self._days[day] = prefix
        h, rest = divmod(rest, 3600)
        m, s = divmod(rest, 60)
        return f"{prefix} {h:02d}:{m:02d}:{s:02d}"


def _lengths(rng: np.random.Generator, n: int, lo: int, hi: int, total: int) -> list[int]:
    """n lengths in [lo, hi] summing to exactly ``total``."""
    if not n * lo <= total <= n * hi:
        raise ValueError("total outside the reachable range")
    lengths = rng.integers(lo, hi + 1, size=n)
    diff = total - int(lengths.sum())
    while diff:
        j = int(rng.integers(n))
        step = 1 if diff > 0 else -1
        if lo <= lengths[j] + step <= hi:
            lengths[j] += step
            diff -= step
    return [int(v) for v in lengths]


def _split_counts(rng: np.random.Generator, totals: np.ndarray) -> np.ndarray:
    """Split per-row interaction totals over the four count columns."""
    return rng.multinomial(totals, [0.1, 0.35, 0.05, 0.5])


def write_grades(path: Path, trace_ids: list[str], rng: np.random.Generator) -> None:
    sa = rng.integers(0, 6, size=len(trace_ids))
    sfe = rng.uniform(0.0, 10.0, size=len(trace_ids))
    fe = rng.integers(40, 101, size=len(trace_ids))
    lines = ["trace_id,SA,SFE,FE"]
    lines += [f"{tid},{a},{b:.2f},{c}" for tid, a, b, c in zip(trace_ids, sa, sfe, fe)]
    path.write_text("\n".join(lines) + "\n")


def build_rendered_corpus(out: Path, seed: int, traces: int, lo: int, hi: int,
                          total: int, true_traits: int = 8) -> dict:
    """Draw a corpus from ``true_traits`` traits and write it as one session's raw log.

    Each token becomes one clean row whose activity, duration and interaction
    counts fall in the token's event, time bin and level under the default
    mapping and schema, so ingest rebuilds the generated corpus exactly.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
    schema = core.Schema.default()
    lengths = _lengths(rng, traces, lo, hi, total)
    params = generator.sample_params(true_traits, traces, schema, core.Hyperparams(), seed)
    labeled = generator.generate(params, lengths, seed, schema)

    events = np.array([tok.event for tr in labeled.corpus.traces for tok in tr.tokens])
    bins = np.array([tok.time_bin for tr in labeled.corpus.traces for tok in tr.tokens])
    levels = np.array([tok.interaction_level
                       for tr in labeled.corpus.traces for tok in tr.tokens])
    t_edges = np.array(schema.time_bin_edges)
    i_edges = np.array(schema.interaction_bin_edges)
    # durations are whole seconds in (lo, hi] of the bin and never below 1 s
    dur_lo = np.maximum(t_edges[bins].astype(int) + 1, 1)
    durations = rng.integers(dur_lo, t_edges[bins + 1].astype(int) + 1)
    totals = rng.integers(i_edges[levels].astype(int), i_edges[levels + 1].astype(int))
    counts = _split_counts(rng, totals)
    gaps = rng.integers(0, 6, size=len(events))

    stamp = _Stamps()
    rows = [HEADER]
    expected = {}
    j = 0
    for m, n_tokens in enumerate(lengths):
        student = f"st{m + 1:04d}"
        expected[f"{student}_1"] = [
            [t.event, t.time_bin, t.interaction_level]
            for t in labeled.corpus.traces[m].tokens
        ]
        clock = _EPOCH0
        for _ in range(n_tokens):
            end = clock + int(durations[j])
            c = counts[j]
            rows.append(f"1,{student},{EVENT_ACTIVITIES[events[j]]},{stamp(clock)},"
                        f"{stamp(end)},{c[0]},{c[1]},{c[2]},{c[3]}")
            clock = end + int(gaps[j])
            j += 1
    (out / "raw.csv").write_text("\n".join(rows) + "\n")
    (out / "expected_corpus.json").write_text(json.dumps(expected))
    write_grades(out / "grades.csv", list(expected), rng)
    return {
        "rows": total,
        "rejected": {reason: 0 for reason in REJECT_REASONS},
        "filtered": 0,
        "tokens": total,
        "sessions": {"1": traces},
        "fit_session": "1",
        "fit_tokens": total,
        "fit_traces": traces,
    }


def build_surrogate_log(out: Path, seed: int, sessions: int = 6, students: int = 115,
                        total: int = 230318, per_reason: int = 25) -> dict:
    """A paper-sized log with transients, frozen rows, clamped counts and rejects.

    About 8% of rows start and end in the same second (sub-second transients,
    filtered), about 4% last longer than the top time-bin edge (frozen,
    filtered), about 2% carry interaction counts above the top level edge,
    and ``per_reason`` rows are malformed for each reject reason.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(2,)))
    lengths = _lengths(rng, sessions * students, 250, 418, total)
    n = total
    activity = rng.integers(len(SURROGATE_ACTIVITIES), size=n)
    kind = rng.random(n)
    durations = np.exp(rng.uniform(0.0, np.log(3000.0), size=n)).astype(int) + 1
    transient = kind < 0.08
    frozen = (kind >= 0.08) & (kind < 0.12)
    durations[transient] = 0
    durations[frozen] = rng.integers(14001, 20001, size=int(frozen.sum()))
    counts = rng.integers(0, 40, size=(n, 4))
    counts[rng.random(n) < 0.02] += 5000
    gaps = rng.integers(0, 30, size=n)

    bad = rng.choice(n, size=per_reason * len(REJECT_REASONS), replace=False)
    reason_of = {int(row): r for row, r in zip(bad, np.repeat(np.arange(len(REJECT_REASONS)),
                                                              per_reason))}
    filtered = int((transient | frozen).sum()) - sum(
        1 for row in reason_of if transient[row] or frozen[row])

    stamp = _Stamps()
    rows = [HEADER]
    first_session = []
    first_session_tokens = 0
    j = 0
    for s in range(sessions):
        day0 = _EPOCH0 + 7 * _DAY * s
        for st in range(students):
            student = f"st{st + 1:04d}"
            if s == 0:
                first_session.append(f"{student}_1")
            clock = day0
            for _ in range(lengths[s * students + st]):
                end = clock + int(durations[j])
                c = counts[j]
                fields = [str(s + 1), student, SURROGATE_ACTIVITIES[activity[j]],
                          stamp(clock), stamp(end), str(c[0]), str(c[1]), str(c[2]), str(c[3])]
                reason = reason_of.get(j)
                if s == 0 and reason is None and not (transient[j] or frozen[j]):
                    first_session_tokens += 1
                if reason == 0:
                    fields[3] = "31.02.2019 09:00:00"
                elif reason == 1:
                    fields = fields[:5]
                elif reason == 2:
                    fields[4] = stamp(clock - 5)
                elif reason == 3:
                    fields[8] = "n/a"
                elif reason == 4:
                    fields[8] = "-7"
                rows.append(",".join(fields))
                clock = end + int(gaps[j])
                j += 1
    (out / "raw.csv").write_text("\n".join(rows) + "\n")
    write_grades(out / "grades.csv", first_session, rng)
    rejected = len(reason_of)
    return {
        "rows": total,
        "rejected": {r: per_reason for r in REJECT_REASONS},
        "filtered": filtered,
        "tokens": total - rejected - filtered,
        "sessions": {str(s + 1): students for s in range(sessions)},
        "fit_session": "1",
        "fit_tokens": first_session_tokens,
        "fit_traces": students,
    }
