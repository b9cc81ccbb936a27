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
from dataclasses import dataclass, field
from datetime import datetime, timezone
from itertools import chain
from operator import itemgetter
from pathlib import Path

import numpy as np

from . import sampler
from .core import (
    DEFAULT_MAX_DURATION_S,
    DEFAULT_MIN_DURATION_S,
    Corpus,
    FrozenSlots,
    Schema,
    write_atomic,
)

OTHER_EVENT_INDEX = 14

_TIMESTAMP_FORMATS = (  # each holds a ":", which _parse_timestamp relies on
    "%d.%m.%Y %H:%M:%S",
    "%d/%m/%Y %H:%M:%S",
    "%Y-%m-%d %H:%M:%S.%f",
    "%Y-%m-%d %H:%M:%S",
)

_BLOCK_BYTES = 1 << 20  # body bytes per read, about 1 MiB
_ROW_OK, _ROW_BLANK, _ROW_COLUMNS = 1, 2, 6  # as in _sweep.c's hbtm_rows


def _ints(values) -> np.ndarray:
    """``values`` as int64, or as Python ints in an object array when one leaves int64."""
    try:
        return np.asarray(values, np.int64)
    except OverflowError:  # a count text such as 1e30, which the Python reader takes
        return np.asarray(values, object)


@dataclass(slots=True, eq=False)
class RawEvents:
    """Parsed log rows as one array per field, in file order.

    ``session``, ``student_id`` and ``activity`` are int64 codes into
    ``names``, which holds each distinct stripped text once; ``start_time``
    and ``end_time`` are float64 epoch seconds; ``mouse_clicks`` and
    ``keystrokes`` are the count sums, int64, or Python ints in an object
    array when a sum leaves int64. A column given as a list becomes its
    array. Iterating yields each row as a tuple of Python values in field
    order, names as texts; two RawEvents are equal when their rows are.
    """

    names: list[str] = field(default_factory=list)
    session: np.ndarray = field(default_factory=list)
    student_id: np.ndarray = field(default_factory=list)
    activity: np.ndarray = field(default_factory=list)
    start_time: np.ndarray = field(default_factory=list)
    end_time: np.ndarray = field(default_factory=list)
    mouse_clicks: np.ndarray = field(default_factory=list)
    keystrokes: np.ndarray = field(default_factory=list)

    def __post_init__(self):
        self.session, self.student_id, self.activity = (
            np.asarray(codes, np.int64) for codes in (self.session, self.student_id, self.activity))
        self.start_time, self.end_time = (
            np.asarray(stamps, np.float64) for stamps in (self.start_time, self.end_time))
        self.mouse_clicks, self.keystrokes = map(_ints, (self.mouse_clicks, self.keystrokes))

    def __len__(self) -> int:
        return len(self.session)

    def __iter__(self):
        text_of = self.names.__getitem__
        return zip(*(map(text_of, codes.tolist())
                     for codes in (self.session, self.student_id, self.activity)),
                   *(column.tolist() for column in (self.start_time, self.end_time,
                                                    self.mouse_clicks, self.keystrokes)))

    def __eq__(self, other):
        if not isinstance(other, RawEvents):
            return NotImplemented
        return len(self) == len(other) and list(self) == list(other)


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

    min_duration_s: float = DEFAULT_MIN_DURATION_S
    max_duration_s: float = DEFAULT_MAX_DURATION_S

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


def _epoch(dt: datetime) -> float:
    # naive stamps are pinned to UTC so results never depend on the host zone
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.timestamp()


def _count(text: str) -> int:
    # floor is int's truncation for every non-negative float, so a negative
    # text stays negative: int(float("-0.5")) would read as 0
    return math.floor(float(text))


def _parse_timestamp(raw: str) -> float:
    """Epoch seconds of a stripped stamp in any accepted form; ValueError if none fits.

    Every strptime pattern holds a literal ``:``, so a text without one (plain
    epoch seconds, say) goes from ``fromisoformat`` straight to ``float``.
    """
    try:
        return _epoch(datetime.fromisoformat(raw))
    except ValueError:
        pass
    for candidate in _TIMESTAMP_FORMATS if ":" in raw else ():
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

    The stamp is stripped, then read with the strptime pattern ``fmt`` if one
    is given, or else by ``_parse_timestamp``.
    """
    if fmt:
        return lambda raw: _epoch(datetime.strptime(raw.strip(), fmt))
    return lambda raw: _parse_timestamp(raw.strip())


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


_BOM = b"\xef\xbb\xbf"


def _line_end(data: bytes, at: int) -> int:
    """The offset just past the last line end (``\\n`` or ``\\r``) before ``at``; 0 if none."""
    return max(data.rfind(b"\n", 0, at), data.rfind(b"\r", 0, at)) + 1


def _blocks(fh, budget: int):
    """The bytes of a binary file past a leading BOM, as (block, error, offset) triples.

    Each block is what ``fh.read(budget)`` adds to the bytes left over from
    the last one, cut after its last ``\\n``; a line longer than ``budget``
    takes as many reads as it needs, and the last block runs to the end of
    the file. A read that raises OSError ends the blocks with the whole
    lines before it and the error; every other block comes with None.
    ``offset`` is the position of the block's first byte in the file.
    """
    carry, bom, at = b"", True, 0
    while True:
        try:
            chunk = fh.read(budget)
        except OSError as exc:
            yield carry[:_line_end(carry, len(carry))], exc, at
            return
        if isinstance(chunk, str):
            raise TypeError("parse_raw_log reads a binary file: open it with 'rb'")
        data, end = carry + chunk, not chunk
        del chunk  # hold one block and its carry, no more
        if bom:
            if len(data) < len(_BOM) and not end:
                carry = data
                continue
            if data.startswith(_BOM):
                data, at = data[len(_BOM):], len(_BOM)
            bom = False
        if end:
            if data:
                yield data, None, at
            return
        cut = data.rfind(b"\n") + 1
        block, carry = data[:cut], data[cut:]
        del data
        if block:
            yield block, None, at
            at += len(block)


class _Lines:
    """The text lines of ``_blocks``' blocks, split as ``open(newline="")`` splits them.

    ``start`` decodes a block as strict UTF-8 up to the line of its first
    undecodable byte, whose UnicodeDecodeError, naming the byte's offset in
    the file, then takes the place of the block's read error. Iterating
    yields the block's lines, then raises its error, or goes on into the
    lines of the next blocks: a ``csv.reader`` of it reads a quoted field
    past a block's last line, as it would read one past any other line.
    """

    def __init__(self, blocks):
        self.blocks = blocks
        self.lines, self.error, self.end = io.StringIO(), None, 0

    @classmethod
    def of(cls, fh) -> "_Lines":
        """The lines of a binary file, started at its first line, from which csv reads the header."""
        blocks = _blocks(fh, _BLOCK_BYTES)
        first, error, at = next(blocks, (b"", None, 0))
        cut = first.find(b"\n") + 1 or len(first)  # a quoted name may still run on past it
        lines = cls(chain([(first[cut:], error, at + cut)], blocks))
        lines.start(first[:cut], None, at)
        return lines

    def start(self, block: bytes, error: Exception | None, at: int) -> int:
        """Read ``block`` next, then ``error`` if not None; returns the number of its lines.

        ``at`` is the offset of the block's first byte in the file.
        """
        try:
            text = block.decode()
            self.end = at + len(block)
        except UnicodeDecodeError as exc:
            good = _line_end(block, exc.start)
            text, self.end = block[:good].decode(), at + good
            # a whole-file decode would name the file offset; zeros stand for the bytes
            # of the earlier blocks, which are no longer held
            error = UnicodeDecodeError(exc.encoding, bytes(at) + block, at + exc.start,
                                       at + exc.end, exc.reason)
        self.lines, self.error = io.StringIO(text, newline=""), error
        return (text.count("\n") + text.count("\r") - text.count("\r\n")
                + (text[-1:] not in ("", "\n", "\r")))

    def __iter__(self):
        return self

    def __next__(self) -> str:
        while not (line := self.lines.readline()):
            if self.error is not None:
                raise self.error
            block = next(self.blocks, None)
            if block is None:
                raise StopIteration
            self.start(*block)
        return line

    def rest(self) -> tuple[bytes, Exception | None, int]:
        """The started block's unread lines as bytes, the error after them, and their offset."""
        rest = self.lines.read().encode()
        return rest, self.error, self.end - len(rest)


def _plain(block: bytes) -> bool:
    """Whether every line of ``block`` is one CSV record that ``hbtm_rows`` may read.

    That is: ASCII without a double quote or a NUL, and every ``\\r`` part of
    a CRLF line end.
    """
    return (block.isascii() and b'"' not in block and b"\0" not in block
            and (b"\r" not in block or block.count(b"\r") == block.count(b"\r\n")))


def _row_scanner(library, need: int, columns: list[int], n_mouse: int, code_of):
    """A reader of plain body blocks through the compiled ``hbtm_rows``.

    ``columns`` are the field indices of the session, student, activity,
    start and end, then of every count column, mouse columns first. The
    reader takes a block's bytes and its number of lines, and returns each
    line's ``hbtm_rows`` status, the seven field columns of the block (the
    session, student and activity codes, each distinct text decoded and
    passed once through ``code_of``, -1 on a line not answered; the two
    stamps and the two count sums) and the byte offset at which each line
    ends.
    """
    index = np.array(columns, np.int64)
    fields = np.empty(2 * need, np.int64)  # the library's field pointers
    max_line = csv.field_size_limit()  # a longer line may hold a field csv refuses

    def scan(block: bytes, n: int) -> tuple[np.ndarray, list[np.ndarray], np.ndarray]:
        slots = np.empty(1 << (6 * n).bit_length(), np.int64)
        bounds = np.empty(6 * n, np.int64)
        rows, stamps = np.empty((_ROW_COLUMNS, n), np.int64), np.empty((2, n))
        ends = np.empty(n, np.int64)
        distinct = library.hbtm_rows(
            block, len(block), need, max_line, index.ctypes.data, len(columns) - 5, n_mouse,
            fields.ctypes.data, n, slots.ctypes.data, slots.size, bounds.ctypes.data,
            rows.ctypes.data, stamps.ctypes.data, ends.ctypes.data)
        lo_hi = bounds[:2 * distinct].tolist()
        codes = [code_of(block[lo:hi].decode()) for lo, hi in zip(lo_hi[::2], lo_hi[1::2])]
        names = np.array(codes + [-1], np.int64)[rows[1:4]]  # id -1: a line not answered
        return rows[0], [*names, *stamps, *rows[4:]], ends

    return scan


_DTYPES = (np.int64,) * 3 + (np.float64,) * 2 + (np.int64,) * 2  # RawEvents' columns


def _put(column: np.ndarray, index, values) -> np.ndarray:
    """``column`` with ``values`` written at ``index``; Python ints where one leaves int64."""
    try:
        column[index] = values
    except OverflowError:
        column = column.astype(object)
        column[index] = values
    return column


def parse_raw_log(fh, column_map: dict) -> tuple[RawEvents, list[RejectedRow]]:
    """Read raw events from an open binary file of CSV with a header row.

    Open the file with ``open(path, "rb")``, or pass an ``io.BytesIO``. The
    bytes are decoded as strict UTF-8 whatever the locale, and a leading
    byte-order mark is dropped. ``column_map`` names the source column for
    each RawEvents field; the ``mouse_clicks`` and ``keystrokes`` entries
    may name several columns, which are summed. An optional
    ``timestamp_format`` entry supplies a strptime pattern. Malformed rows
    land in the rejects list with a reason instead of being dropped; a row
    with any count column below zero is rejected, even when its group sums
    to a non-negative total. A missing mapped column is a configuration
    error and raises ValueError. Raw logs have no fields that span lines,
    so a row whose quoted field runs past its line (an unbalanced double
    quote) raises ValueError naming that data row, instead of swallowing
    the rows after it. On the file's last line, an unclosed quote ends with
    the file and its row is read as it stands (a short row, say). An
    undecodable byte raises UnicodeDecodeError, which names the byte's
    offset in the file, and a failed read OSError, once every line before
    the one it lies in has been parsed, so a row with a runaway quote before
    it is the error raised.

    The body is read in one loop over blocks of about ``_BLOCK_BYTES``
    bytes, each cut after its last line end. The compiled library's
    ``hbtm_rows`` answers a plain block's rows into arrays from its bytes,
    with CRLF line ends read as LF, and declines every other line to
    ``csv.reader`` and ``take``, the Python reader, whose values are written
    into the block's arrays in place; only the declined lines and each
    distinct name are decoded. Any other block (one that is not ASCII or
    holds a double quote, a bare carriage return or a NUL), as every block
    with a ``timestamp_format`` or without the library, is decoded and
    split into lines as ``open(newline="")`` splits them, and read by
    ``csv.reader`` and ``take`` whole; the next block is tried again. The
    Python reader reads each stamp with ``timestamp_format`` or else through
    ``_parse_timestamp``, and each count through ``_count``, with no
    shortcut for any form. The results and errors are the same either way.
    The returned columns are numpy arrays, so no Python object is made per
    answered row.
    """
    required = ("session", "student_id", "activity", "start_time", "end_time",
                "mouse_clicks", "keystrokes")
    missing = [f for f in required if f not in column_map]
    if missing:
        raise ValueError(f"column_map missing entries for: {', '.join(missing)}")

    source = _Lines.of(fh)
    header = next(csv.reader(source), None)
    rejects = []
    if header is None:
        return RawEvents(), rejects
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
    fmt = column_map.get("timestamp_format")
    read_stamp = _timestamp_reader(fmt)
    codes: dict[str, int] = {}  # each distinct name text and its code, in code order

    def code_of(text: str) -> int:
        return codes.setdefault(text, len(codes))

    def take(row_number: int, row: list[str]) -> tuple | None:
        """One non-blank row's values in RawEvents' field order, or None for a reject."""
        if len(row) < need:
            rejects.append(RejectedRow(row_number, "short row"))
            return None
        try:
            start = read_stamp(row[i_start])
            end = read_stamp(row[i_end])
        except (ValueError, TypeError):
            rejects.append(RejectedRow(row_number, "bad timestamp"))
            return None
        if end < start:
            rejects.append(RejectedRow(row_number, "negative duration"))
            return None
        try:
            counts = list(map(_count, count_texts(row)))
        except (ValueError, OverflowError):
            rejects.append(RejectedRow(row_number, "bad interaction count"))
            return None
        if min(counts, default=0) < 0:
            rejects.append(RejectedRow(row_number, "negative interaction count"))
            return None
        return (code_of(row[i_session].strip()), code_of(row[i_student].strip()),
                code_of(row[i_activity].strip()), start, end,
                sum(counts[:n_mouse]), sum(counts[n_mouse:]))

    library = None if fmt else sampler._library()
    scan = library and _row_scanner(library, need, [i_session, i_student, i_activity, i_start,
                                                    i_end, *count_cols], n_mouse, code_of)
    parts = [[np.empty(0, dtype)] for dtype in _DTYPES]  # each column's blocks, in file order
    row_number = 0  # the data rows before the one being read
    try:
        for block, error, offset in chain([source.rest()], source.blocks):
            if scan and block and _plain(block):
                # numpy counts bytes about 5x faster than bytes.count; the kernel finds the lines
                n = (int(np.count_nonzero(np.frombuffer(block, np.uint8) == ord("\n")))
                     + (block[-1:] != b"\n"))
                status, columns, ends = scan(block, n)
                kept = status == _ROW_OK
                at = np.flatnonzero(~kept)
                lines = [block[lo:hi].decode() for lo, hi in zip(
                    np.r_[0, ends][at].tolist(), ends[at].tolist())]
                declined = at.tolist()
            else:
                n = source.start(block, error, offset)
                error = source.error  # an undecodable byte comes before any later read error
                kept, columns = np.zeros(n, bool), [np.empty(n, t) for t in _DTYPES]
                lines, declined = chain(source.lines, source), range(n)
            reader = csv.reader(lines)
            base, blanks, taken = row_number, 0, {}
            for line, j in enumerate(declined, start=1):
                row_number = base + j - blanks
                try:
                    row = next(reader)
                except (OSError, UnicodeDecodeError) as exc:  # read on into a read error
                    raise _unbalanced_quote(row_number + 1) from exc
                if reader.line_num != line:
                    raise _unbalanced_quote(row_number + 1)
                if not row:  # blank lines are skipped and not numbered, as in csv.DictReader
                    blanks += 1
                elif (values := take(row_number + 1, row)) is not None:
                    taken[j] = values
            row_number = base + n - blanks
            if taken:
                at = list(taken)
                kept[at] = True
                columns = list(map(_put, columns, [at] * 7, zip(*taken.values())))
            for part, column in zip(parts, columns):
                part.append(column[kept])
            if error is not None:
                raise error
    except csv.Error as exc:  # e.g. a runaway quoted field passing the field-size limit
        raise _unbalanced_quote(row_number + 1, exc) from exc
    columns = []
    for part in parts:  # one column at a time, its blocks freed once joined
        columns.append(np.concatenate(part))
        part.clear()
    return RawEvents(list(codes), *columns), rejects


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


def _time_bins(duration: np.ndarray, schema: Schema, filt: FilterConfig) -> np.ndarray:
    """Each duration's time bin, left-open and right-closed; -1 outside the window or the edges."""
    if np.isnan(duration).any():
        raise ValueError("duration must be positive, got nan")
    bins = np.full(len(duration), -1, np.int64)
    for edge in schema.time_bin_edges:  # the edges below each duration, less one
        bins += duration > edge
    bins[(duration < filt.min_duration_s) | (duration > filt.max_duration_s)
         | (bins >= schema.num_time_bins)] = -1
    return bins


def _levels(mouse: np.ndarray, keys: np.ndarray, schema: Schema, keep: np.ndarray) -> np.ndarray:
    """Each row's interaction level over the exact integer total ``mouse + keys``.

    Levels are left-closed and right-open, and a total at or above the top
    edge takes the top level. A total reaches a float edge e exactly when it
    reaches ceil(e), so the level is the number of ceilings reached among the
    edges between the first and the last. A total of a kept row below zero
    raises ValueError.
    """
    total = mouse + keys
    if total.dtype == object or (((mouse ^ total) & (keys ^ total)) < 0).any():  # past int64
        total = mouse.astype(object) + keys
    negative = keep & (total < 0)
    if negative.any():
        raise ValueError(f"interaction count must be nonnegative, got {total[negative][0]}")
    levels = np.zeros(len(total), np.int64)
    for edge in schema.interaction_bin_edges[1:-1]:  # numpy compares int64 with any int exactly
        levels += total >= math.ceil(edge)
    return levels


def _groups(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows sorted by ``key``, in file order within a key, and where each key's run starts."""
    order = np.argsort(key, kind="stable")
    grouped = key[order]
    return order, np.flatnonzero(np.r_[True, grouped[1:] != grouped[:-1]][:len(key)])


def _traces(raw: RawEvents, keep: np.ndarray) -> tuple[np.ndarray, ...]:
    """The kept rows in trace order, and each trace's session code, student code and length.

    Rows are grouped by (session, student), in file order within a group;
    traces come in order of their session's first row, then of their own.
    A trace none of whose rows is kept has length 0.
    """
    n = len(raw)
    order, starts = _groups(raw.session * len(raw.names) + raw.student_id)
    first = order[starts]
    session_first = np.full(len(raw.names), n, np.int64)
    np.minimum.at(session_first, raw.session[first], first)
    rank = np.lexsort((first, session_first[raw.session[first]]))
    # each group's kept rows are a slice of the kept rows in group order; the
    # slices laid out in rank order give every trace's rows in turn
    kept = keep[order]
    cut = np.r_[0, np.cumsum(kept)]
    lo, lengths = cut[starts][rank], np.diff(cut[np.r_[starts, n]])[rank]
    at = np.cumsum(lengths) - lengths  # where each trace's rows start in the output
    rows = order[kept][np.arange(lengths.sum()) + np.repeat(lo - at, lengths)]
    return rows, raw.session[first[rank]], raw.student_id[first[rank]], lengths


def build_corpora(
    raw: RawEvents,
    mapping: ActivityMapping,
    schema: Schema,
    filt: FilterConfig,
) -> IngestResult:
    """Group events into per-session corpora of per-student traces.

    Trace ids are ``<student_id>_<session>``; traces keep file order within
    themselves, and sessions and the traces within each appear in order of
    their first row. An event is filtered when its duration lies outside
    the filter window or the time-bin edges; traces left empty are dropped
    and reported. Time bins are left-open and right-closed between
    consecutive edges. Interaction levels are left-closed and right-open
    over the exact integer total of mouse clicks and keystrokes, and a total
    at or above the top edge takes the top level.

    Works on ``raw``'s columns: each distinct activity label goes through
    ``map_activity`` once, one stable sort groups the rows into traces, and
    each session is a corpus of columns, so no Python object is made per
    token. The corpora build their ``traces`` when first read, with one
    Token per distinct triple shared by all of them.
    """
    for rule in mapping.rules:
        if rule.event_index >= schema.num_events:
            raise ValueError(
                f"mapping rule {rule.pattern!r} targets event {rule.event_index}, "
                f"schema has only {schema.num_events}"
            )
    if mapping.default_index >= schema.num_events:
        raise ValueError("mapping default_index outside schema")

    n, names = len(raw), raw.names
    time_bins = _time_bins(raw.end_time - raw.start_time, schema, filt)
    keep = time_bins >= 0
    # grouped before the levels are made, so the temporaries of the two are never
    # alive at once: that keeps ingest's peak memory down
    rows, sessions, students, lengths = _traces(raw, keep)
    labels = np.flatnonzero(np.bincount(raw.activity, minlength=len(names))).tolist()
    event_of = np.zeros(len(names), np.int64)
    event_of[labels] = [map_activity(names[label], mapping) for label in labels]
    levels = _levels(raw.mouse_clicks, raw.keystrokes, schema, keep)

    # a session's traces are one run in trace order; its nonempty ones make its corpus
    sessions, students, sizes = sessions.tolist(), students.tolist(), lengths.tolist()
    trace_ids = [f"{names[student]}_{names[session]}"
                 for session, student in zip(sessions, students)]
    ends = np.r_[np.flatnonzero(np.diff(sessions)) + 1, len(sessions)].tolist()
    bounds, shared = [0, *np.cumsum(sizes).tolist()], {}
    corpora, dropped = {}, []
    tallies = [np.zeros(size, np.int64) for size in (
        schema.num_events, schema.num_time_bins, schema.num_interaction_levels)]
    for begin, end in zip([0, *ends[:-1]], ends):
        traces = [g for g in range(begin, end) if sizes[g]]
        dropped += [trace_ids[g] for g in range(begin, end) if not sizes[g]]
        if not traces:
            continue
        part = rows[bounds[begin]:bounds[end]]
        codes = np.empty((len(part), 3), np.int64)  # each token's event, time bin and level
        codes[:, 0] = event_of[raw.activity[part]]
        codes[:, 1] = time_bins[part]
        codes[:, 2] = levels[part]
        for tally, column in zip(tallies, codes.T):
            tally += np.bincount(column, minlength=len(tally))
        corpora[names[sessions[begin]]] = Corpus._of_columns(
            schema, tuple(trace_ids[g] for g in traces), lengths[traces], codes, shared)
    return IngestResult(
        corpora=corpora,
        tokenized=len(rows),
        filtered=n - len(rows),
        dropped_traces=dropped,
        event_counts=tallies[0].tolist(),
        time_bin_counts=tallies[1].tolist(),
        interaction_counts=tallies[2].tolist(),
    )


def write_rejects_csv(rejects: list[RejectedRow], path) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["row_number", "reason"])
    for rej in rejects:
        writer.writerow([rej.row_number, rej.reason])
    write_atomic(path, buf.getvalue())
