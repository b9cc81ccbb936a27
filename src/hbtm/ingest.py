"""Raw event-log ingestion: CSV rows to per-session token corpora.

Raw activity labels are aggregated into the 15-event taxonomy, durations are
filtered and discretized into time bins, and mouse-plus-keyboard counts are
discretized into interaction levels. Everything here is deterministic and
pure over its inputs; re-running on the same files is byte-identical.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from datetime import datetime, timezone
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple

from .core import Corpus, FrozenSlots, Schema, Token, Trace, skip_bom, write_atomic

OTHER_EVENT_INDEX = 14

_TIMESTAMP_FORMATS = (
    "%d.%m.%Y %H:%M:%S",
    "%d/%m/%Y %H:%M:%S",
    "%Y-%m-%d %H:%M:%S.%f",
    "%Y-%m-%d %H:%M:%S",
)
# the parts of the canonical 19-character form of the two day-first patterns above
_DATE = re.compile(r"\d\d([./])\d\d\1\d{4}", re.ASCII)
_CLOCKS = {f"{h:02d}:{m:02d}": 3600 * h + 60 * m for h in range(24) for m in range(60)}
_SECONDS = {f"{s:02d}": s for s in range(60)}
_TABLE_LIMIT = 4096  # entries per conversion table; the day-first dates fit with room


class RawEvent(NamedTuple):
    """One parsed log row; timestamps are epoch seconds."""

    session: str
    student_id: str
    activity: str
    start_time: float
    end_time: float
    mouse_clicks: int
    keystrokes: int


@dataclass(frozen=True)
class RejectedRow(FrozenSlots):
    __slots__ = ("row_number", "reason")
    row_number: int  # 1-based data-row number, header excluded
    reason: str


@dataclass(frozen=True)
class MappingRule(FrozenSlots):
    __slots__ = ("kind", "pattern", "event_index")
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


class _Table(dict):
    """Converts each distinct key once with ``convert``; one table serves one call.

    A key whose conversion raises is not stored, so it raises again on every
    lookup. Past ``_TABLE_LIMIT`` entries new keys are converted but not
    stored, so a column of all-distinct texts costs no memory.
    """

    def __init__(self, convert):
        super().__init__()
        self.convert = convert

    def __missing__(self, key):
        value = self.convert(key)
        if len(self) < _TABLE_LIMIT:
            self[key] = value
        return value


def _midnight(date: str) -> float | None:
    """UTC epoch of midnight of a ``dd.mm.yyyy`` or ``dd/mm/yyyy`` date; None for any other text."""
    if _DATE.fullmatch(date) is None:
        return None
    try:
        return _epoch(datetime(int(date[6:]), int(date[3:5]), int(date[:2])))
    except ValueError:
        return None


def _count(text: str) -> int:
    # floor is int's truncation for every non-negative float, so a negative
    # text stays negative: int(float("-0.5")) would read as 0
    return math.floor(float(text))


def _parse_timestamp(raw: str) -> float:
    """Epoch seconds of a stripped stamp in any accepted form; ValueError if none fits."""
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


def _timestamp_reader(fmt: str | None):
    """A stamp parser for one parse call: raw field text to epoch seconds.

    With a strptime pattern every stamp goes through it. Without one, a
    stripped 19-character stamp with a space at index 10 and a colon at
    index 16 is read from its date, ``HH:MM`` and seconds parts: the date
    from a table of this call, the other two from ``_CLOCKS`` and
    ``_SECONDS``. They answer only the ASCII-digit forms of a valid
    ``dd.mm.yyyy`` or ``dd/mm/yyyy`` date, a clock below 24:00 and seconds
    00-59; any other part sends the stamp through the full chain. The
    answer equals strptime's: every term is an integer below 2**53, so the
    float sum is exact.
    """
    if fmt:
        return lambda raw: _epoch(datetime.strptime(raw.strip(), fmt))
    days, clock_of, second_of = _Table(_midnight), _CLOCKS.get, _SECONDS.get

    def read(raw: str) -> float:
        raw = raw.strip()
        if len(raw) == 19 and raw[10] == " " and raw[16] == ":":
            day, hm, s = days[raw[:10]], clock_of(raw[11:16]), second_of(raw[17:])
            if day is not None and hm is not None and s is not None:
                return day + (hm + s)
        return _parse_timestamp(raw)

    return read


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


def parse_raw_log(fh, column_map: dict) -> tuple[list[RawEvent], list[RejectedRow]]:
    """Read raw events from an open text file of CSV with a header row.

    Open the file with ``newline=""``, as ``csv.reader`` expects.
    ``column_map`` names the source column for each RawEvent field; the
    ``mouse_clicks`` and ``keystrokes`` entries may name several columns,
    which are summed. An optional ``timestamp_format`` entry supplies a
    strptime pattern. Malformed rows land in the rejects list with a reason
    instead of being dropped; a row with any count column below zero is
    rejected, even when its group sums to a non-negative total. A missing
    mapped column is a configuration error and raises ValueError. Raw logs
    have no fields that span lines, so a row whose quoted field runs past
    its line (an unbalanced double quote) raises ValueError naming that data
    row, instead of swallowing the rows after it.
    """
    required = ("session", "student_id", "activity", "start_time", "end_time",
                "mouse_clicks", "keystrokes")
    missing = [f for f in required if f not in column_map]
    if missing:
        raise ValueError(f"column_map missing entries for: {', '.join(missing)}")

    reader = csv.reader(skip_bom(fh))
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
    count_cols = [index[c] for c in mouse_cols + key_cols]
    # itemgetter of one index returns the bare field, not a 1-tuple
    count_texts = (itemgetter(*count_cols) if len(count_cols) > 1
                   else lambda row: [row[i] for i in count_cols])
    n_mouse = len(mouse_cols)
    need = max(index[c] for c in mapped_cols) + 1
    read_stamp = _timestamp_reader(column_map.get("timestamp_format"))
    count_of = _Table(_count).__getitem__

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
                start = read_stamp(row[i_start])
                end = read_stamp(row[i_end])
            except (ValueError, TypeError):
                rejects.append(RejectedRow(row_number, "bad timestamp"))
                continue
            if end < start:
                rejects.append(RejectedRow(row_number, "negative duration"))
                continue
            try:
                counts = list(map(count_of, count_texts(row)))
            except (ValueError, OverflowError):
                rejects.append(RejectedRow(row_number, "bad interaction count"))
                continue
            if min(counts, default=0) < 0:
                rejects.append(RejectedRow(row_number, "negative interaction count"))
                continue
            events.append(RawEvent(
                row[i_session].strip(), row[i_student].strip(), row[i_activity].strip(),
                start, end, sum(counts[:n_mouse]), sum(counts[n_mouse:]),
            ))
    except csv.Error as exc:  # e.g. a runaway quoted field passing the field-size limit
        raise _unbalanced_quote(row_number + 1, exc) from exc
    return events, rejects


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
    event_of = _Table(lambda label: map_activity(label, mapping))
    bin_of = _Table(lambda seconds: discretize_duration(seconds, schema, filt))
    level_of = _Table(lambda total: discretize_interaction(total, schema))
    token_of = _Table(Token._make)  # one shared Token per distinct triple

    for session, student_id, activity, start, end, mouse, keys in raw:
        traces = per_session.setdefault(session, {})
        bucket = traces.setdefault(f"{student_id}_{session}", [])
        duration = end - start
        if duration < filt.min_duration_s or duration > filt.max_duration_s:
            filtered += 1
            continue
        t_bin = bin_of[duration]
        if t_bin is None:
            filtered += 1
            continue
        e_idx = event_of[activity]
        i_lvl = level_of[mouse + keys]
        bucket.append(token_of[e_idx, t_bin, i_lvl])
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
