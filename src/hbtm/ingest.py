"""Raw event-log ingestion: CSV rows to per-session token corpora.

Raw activity labels are aggregated into the 15-event taxonomy, durations are
filtered and discretized into time bins, and mouse-plus-keyboard counts are
discretized into interaction levels. Everything here is deterministic and
pure over its inputs; re-running on the same files is byte-identical.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import NamedTuple

from .core import Corpus, Schema, Token, Trace, save_json, write_atomic

OTHER_EVENT_INDEX = 14

_TIMESTAMP_FORMATS = (
    "%d.%m.%Y %H:%M:%S",
    "%d/%m/%Y %H:%M:%S",
    "%Y-%m-%d %H:%M:%S.%f",
    "%Y-%m-%d %H:%M:%S",
)
# the canonical 19-character form of the two day-first patterns above
_DAY_FIRST_STAMP = re.compile(
    r"\d\d([./])\d\d\1\d{4} ([01]\d|2[0-3]):([0-5]\d):([0-5]\d)", re.ASCII)


class RawEvent(NamedTuple):
    """One parsed log row; timestamps are epoch seconds."""

    session: str
    student_id: str
    activity: str
    start_time: float
    end_time: float
    mouse_clicks: int
    keystrokes: int

    @property
    def duration_s(self) -> float:
        return self.end_time - self.start_time

    @property
    def interaction_total(self) -> int:
        return self.mouse_clicks + self.keystrokes


@dataclass(frozen=True, slots=True)
class RejectedRow:
    row_number: int  # 1-based data-row number, header excluded
    reason: str


@dataclass(frozen=True, slots=True)
class MappingRule:
    kind: str  # "exact" or "prefix"
    pattern: str
    event_index: int


@dataclass(frozen=True)
class ActivityMapping:
    """Ordered first-match-wins rules from raw activity labels to event indices."""

    rules: tuple[MappingRule, ...]
    default_index: int = OTHER_EVENT_INDEX

    def __post_init__(self):
        object.__setattr__(self, "rules", tuple(self.rules))
        for rule in self.rules:
            if rule.kind not in ("exact", "prefix"):
                raise ValueError(f"unknown rule kind {rule.kind!r}")
            if rule.event_index < 0:
                raise ValueError("rule event_index must be nonnegative")
        if self.default_index < 0:
            raise ValueError("default_index must be nonnegative")

    @classmethod
    def default(cls) -> "ActivityMapping":
        """Rules for the digital-electronics course logs' activity families.

        Longer patterns are listed before their prefixes so that, e.g., an
        exercise-specific simulator label wins over the bare simulator label.
        """
        rules = (
            MappingRule("prefix", "Study_Es", 0),
            MappingRule("prefix", "Deeds_Es_", 1),
            MappingRule("exact", "Deeds_Es", 2),
            MappingRule("prefix", "Deeds", 3),
            MappingRule("prefix", "TextEditor_Es_", 4),
            MappingRule("exact", "TextEditor_Es", 5),
            MappingRule("prefix", "TextEditor", 6),
            MappingRule("prefix", "Diagram", 7),
            MappingRule("prefix", "Properties", 8),
            MappingRule("prefix", "Study_Materials", 9),
            MappingRule("prefix", "FSM_Es", 10),
            MappingRule("prefix", "FSM", 11),
            MappingRule("prefix", "Aulaweb", 12),
            MappingRule("exact", "Blank", 13),
            MappingRule("prefix", "Other", 14),
        )
        return cls(rules, OTHER_EVENT_INDEX)

    def to_dict(self) -> dict:
        return {
            "rules": [[r.kind, r.pattern, r.event_index] for r in self.rules],
            "default_index": self.default_index,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ActivityMapping":
        rules = tuple(MappingRule(kind, pattern, int(idx)) for kind, pattern, idx in d["rules"])
        return cls(rules, int(d.get("default_index", OTHER_EVENT_INDEX)))

    @classmethod
    def load(cls, path) -> "ActivityMapping":
        return cls.from_dict(json.loads(Path(path).read_text()))

    def save(self, path) -> None:
        save_json(self.to_dict(), path)


@dataclass(frozen=True)
class FilterConfig:
    """Admissible duration window in seconds.

    The defaults drop sub-second transients and anything beyond the top time
    bin edge. A stricter 1200 s cap (drop everything over 20 minutes) is a
    documented variant; with it the top duration bin is never populated.
    """

    min_duration_s: float = 1.0
    max_duration_s: float = 14000.0

    def __post_init__(self):
        if not self.min_duration_s > 0:
            raise ValueError("min_duration_s must be positive")
        if not self.min_duration_s < self.max_duration_s:
            raise ValueError("min_duration_s must be below max_duration_s")


def map_activity(label: str, mapping: ActivityMapping) -> int:
    """First matching rule wins; unmatched labels get the default index."""
    for rule in mapping.rules:
        if rule.kind == "exact":
            if label == rule.pattern:
                return rule.event_index
        elif label.startswith(rule.pattern):
            return rule.event_index
    return mapping.default_index


def discretize_duration(seconds: float, schema: Schema, filt: FilterConfig) -> int | None:
    """Time-bin index for an admitted duration, or None when filtered out.

    Bins are left-open/right-closed between consecutive schema edges. Returns
    None when the duration falls outside the filter window or outside the
    binned range (only possible when the window is wider than the edges).
    """
    if not seconds > 0:
        raise ValueError(f"duration must be positive, got {seconds}")
    if seconds < filt.min_duration_s or seconds > filt.max_duration_s:
        return None
    edges = schema.time_bin_edges
    idx = bisect_left(edges, seconds) - 1
    if idx < 0 or idx >= schema.num_time_bins:
        return None
    return idx


def discretize_interaction(total_count: int, schema: Schema) -> int:
    """Interaction-level index; counts at or above the top edge clamp to the top level.

    Bins are left-closed/right-open; the top edge reads as an observed
    maximum, not a cap, so larger totals land in the highest level.
    """
    if total_count < 0:
        raise ValueError(f"interaction count must be nonnegative, got {total_count}")
    edges = schema.interaction_bin_edges
    idx = bisect_right(edges, total_count) - 1
    top = schema.num_interaction_levels - 1
    if idx < 0:
        return 0
    return min(idx, top)


def _epoch(dt: datetime) -> float:
    # naive stamps are pinned to UTC so results never depend on the host zone
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.timestamp()


@functools.lru_cache(maxsize=1024)
def _day_epoch(date: str) -> float | None:
    """UTC epoch of midnight of a ``dd?mm?yyyy`` date, or None if it is not a valid date."""
    try:
        midnight = datetime(int(date[6:]), int(date[3:5]), int(date[:2]))
    except ValueError:
        return None
    return _epoch(midnight)


def _fast_timestamp(raw: str) -> float | None:
    """Epoch of a canonical ``dd.mm.yyyy HH:MM:SS`` or ``dd/mm/yyyy HH:MM:SS`` stamp.

    Only the exact 19-character forms in ASCII digits, with one date
    separator, a valid date and a clock below 24:00:00, get an answer;
    anything else returns None and goes through the full parser. The answer
    equals strptime's: every term is an integer below 2**53, so the float
    sum is exact.
    """
    match = _DAY_FIRST_STAMP.fullmatch(raw)
    if match is None:
        return None
    day = _day_epoch(raw[:10])
    if day is None:
        return None
    return day + (int(match[2]) * 3600 + int(match[3]) * 60 + int(match[4]))


def _parse_timestamp(raw: str, fmt: str | None) -> float:
    raw = raw.strip()
    if fmt:
        return _epoch(datetime.strptime(raw, fmt))
    value = _fast_timestamp(raw)
    if value is not None:
        return value
    try:
        return _epoch(datetime.fromisoformat(raw))
    except ValueError:
        pass
    for candidate in _TIMESTAMP_FORMATS:
        try:
            return _epoch(datetime.strptime(raw, candidate))
        except ValueError:
            continue
    value = float(raw)  # plain epoch seconds; raises ValueError if not numeric
    if not math.isfinite(value):
        raise ValueError(f"non-finite timestamp {raw!r}")
    return value


def _count_columns(spec) -> list[str]:
    if isinstance(spec, str):
        return [spec]
    return list(spec)


def _unbalanced_quote(row_number: int, cause: Exception | None = None) -> ValueError:
    detail = f" ({cause})" if cause else ""
    return ValueError(
        f"data row {row_number}: a quoted field runs past the end of its line{detail}; "
        "check the row for an unbalanced double quote"
    )


def parse_raw_log(csv_source, column_map: dict) -> tuple[list[RawEvent], list[RejectedRow]]:
    """Read raw events from a CSV with a header row.

    ``column_map`` names the source column for each RawEvent field; the
    ``mouse_clicks`` and ``keystrokes`` entries may name several columns,
    which are summed. An optional ``timestamp_format`` entry supplies a
    strptime pattern. Malformed rows land in the rejects list with a reason
    instead of being dropped; a missing mapped column is a configuration
    error and raises ValueError. Raw logs have no fields that span lines, so
    a row whose quoted field runs past its line (an unbalanced double quote)
    raises ValueError naming that data row, instead of swallowing the rows
    after it.
    """
    required = ("session", "student_id", "activity", "start_time", "end_time",
                "mouse_clicks", "keystrokes")
    missing = [f for f in required if f not in column_map]
    if missing:
        raise ValueError(f"column_map missing entries for: {', '.join(missing)}")
    ts_format = column_map.get("timestamp_format")

    if isinstance(csv_source, (str, Path)):
        fh = open(csv_source, newline="")
        close = True
    else:
        fh = csv_source
        close = False
    try:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            return [], []
        mouse_cols = _count_columns(column_map["mouse_clicks"])
        key_cols = _count_columns(column_map["keystrokes"])
        mapped_cols = (
            [column_map[f] for f in ("session", "student_id", "activity",
                                     "start_time", "end_time")]
            + mouse_cols
            + key_cols
        )
        absent = [c for c in mapped_cols if c not in header]
        if absent:
            raise ValueError(f"mapped columns not in CSV header: {', '.join(absent)}")
        # a repeated header name resolves to its last column, as in csv.DictReader
        index = {name: i for i, name in enumerate(header)}
        i_session, i_student, i_activity, i_start, i_end = (index[c] for c in mapped_cols[:5])
        i_mouse = [index[c] for c in mouse_cols]
        i_keys = [index[c] for c in key_cols]
        need = max(index[c] for c in mapped_cols) + 1

        events: list[RawEvent] = []
        rejects: list[RejectedRow] = []
        row_number = 0
        try:
            for line, row in enumerate(reader, start=reader.line_num + 1):
                if reader.line_num != line:
                    raise _unbalanced_quote(row_number + 1)
                if not row:
                    continue  # blank lines are skipped and not numbered, as in csv.DictReader
                row_number += 1
                if len(row) < need:
                    rejects.append(RejectedRow(row_number, "short row"))
                    continue
                try:
                    start = _parse_timestamp(row[i_start], ts_format)
                    end = _parse_timestamp(row[i_end], ts_format)
                except (ValueError, TypeError):
                    rejects.append(RejectedRow(row_number, "bad timestamp"))
                    continue
                if end < start:
                    rejects.append(RejectedRow(row_number, "negative duration"))
                    continue
                try:
                    mouse = sum(int(float(row[i])) for i in i_mouse)
                    keys = sum(int(float(row[i])) for i in i_keys)
                except (ValueError, OverflowError):
                    rejects.append(RejectedRow(row_number, "bad interaction count"))
                    continue
                if mouse < 0 or keys < 0:
                    rejects.append(RejectedRow(row_number, "negative interaction count"))
                    continue
                events.append(RawEvent(
                    row[i_session].strip(), row[i_student].strip(), row[i_activity].strip(),
                    start, end, mouse, keys,
                ))
        except csv.Error as exc:  # e.g. a runaway quoted field passing the field-size limit
            raise _unbalanced_quote(row_number + 1, exc) from exc
        return events, rejects
    finally:
        if close:
            fh.close()


@dataclass
class IngestResult:
    """Per-session corpora plus the bookkeeping needed for conservation checks.

    For every parsed event: tokenized + filtered == len(raw input). Traces
    whose events were all filtered are dropped and listed.
    """

    corpora: dict[str, Corpus]
    tokenized: int
    filtered: int
    dropped_traces: list[str]
    event_counts: list[int]
    time_bin_counts: list[int]
    interaction_counts: list[int]

    def summary_dict(self) -> dict:
        return {
            "sessions": {s: c.num_traces for s, c in self.corpora.items()},
            "tokenized": self.tokenized,
            "filtered": self.filtered,
            "dropped_traces": list(self.dropped_traces),
            "event_counts": list(self.event_counts),
            "time_bin_counts": list(self.time_bin_counts),
            "interaction_counts": list(self.interaction_counts),
        }


def build_corpora(
    raw: list[RawEvent],
    mapping: ActivityMapping,
    schema: Schema,
    filt: FilterConfig,
) -> IngestResult:
    """Group events into per-session corpora of per-student traces.

    Trace ids are ``<student_id>_<session>``; traces keep file order within
    themselves and appear in order of first appearance. Events outside the
    duration window are filtered; traces left empty are dropped and reported.
    """
    for rule in mapping.rules:
        if rule.event_index >= schema.num_events:
            raise ValueError(
                f"mapping rule {rule.pattern!r} targets event {rule.event_index}, "
                f"schema has only {schema.num_events}"
            )
    if mapping.default_index >= schema.num_events:
        raise ValueError("mapping default_index outside schema")

    # session -> trace_id -> token list; insertion order is first appearance
    per_session: dict[str, dict[str, list[Token]]] = {}
    filtered = 0
    event_counts = [0] * schema.num_events
    time_counts = [0] * schema.num_time_bins
    level_counts = [0] * schema.num_interaction_levels
    event_of: dict[str, int] = {}  # map_activity per distinct label
    token_of: dict[tuple[int, int, int], Token] = {}  # one shared Token per distinct triple

    for session, student_id, activity, start, end, mouse, keys in raw:
        traces = per_session.setdefault(session, {})
        bucket = traces.setdefault(f"{student_id}_{session}", [])
        duration = end - start
        if duration < filt.min_duration_s or duration > filt.max_duration_s:
            filtered += 1
            continue
        t_bin = discretize_duration(duration, schema, filt)
        if t_bin is None:
            filtered += 1
            continue
        e_idx = event_of.get(activity)
        if e_idx is None:
            e_idx = event_of[activity] = map_activity(activity, mapping)
        i_lvl = discretize_interaction(mouse + keys, schema)
        key = (e_idx, t_bin, i_lvl)
        token = token_of.get(key)
        if token is None:
            token = token_of[key] = Token._make(key)
        bucket.append(token)
        event_counts[e_idx] += 1
        time_counts[t_bin] += 1
        level_counts[i_lvl] += 1

    corpora: dict[str, Corpus] = {}
    dropped: list[str] = []
    tokenized = 0
    for session, traces in per_session.items():
        kept = []
        for trace_id, tokens in traces.items():
            if not tokens:
                dropped.append(trace_id)
                continue
            kept.append(Trace(trace_id, tuple(tokens)))
            tokenized += len(tokens)
        if kept:
            corpora[session] = Corpus(schema, tuple(kept))
    return IngestResult(
        corpora=corpora,
        tokenized=tokenized,
        filtered=filtered,
        dropped_traces=dropped,
        event_counts=event_counts,
        time_bin_counts=time_counts,
        interaction_counts=level_counts,
    )


def write_rejects_csv(rejects: list[RejectedRow], path) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["row_number", "reason"])
    for rej in rejects:
        writer.writerow([rej.row_number, rej.reason])
    write_atomic(path, buf.getvalue())
