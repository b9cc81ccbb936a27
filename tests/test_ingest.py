import gc
import io
import math
import sys
from datetime import datetime, timedelta, timezone
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hbtm import (
    ActivityMapping,
    Corpus,
    FilterConfig,
    RawEvents,
    Schema,
    Token,
    Trace,
    build_corpora,
    map_activity,
    parse_raw_log,
)
from hbtm import ingest, sampler
from hbtm.core import DEFAULT_EVENT_LABELS, save_json
from hbtm.ingest import (
    _TIMESTAMP_FORMATS,
    _count,
    _epoch,
    _parse_timestamp,
    _timestamp_reader,
)

from conftest import (
    discretize_duration,
    discretize_interaction,
    raw_events,
    reference_build_corpora,
)

COLUMN_MAP = {
    "session": "session",
    "student_id": "student",
    "activity": "activity",
    "start_time": "start",
    "end_time": "end",
    "mouse_clicks": ["wheel", "left_click", "right_click"],
    "keystrokes": "keys",
}

HEADER = "session,student,activity,start,end,wheel,left_click,right_click,keys\n"


def csv_of(rows):
    return io.BytesIO((HEADER + "".join(r + "\n" for r in rows)).encode())


def _rows(rejects):
    return [(r.row_number, r.reason) for r in rejects]


def raw(session="1", student="s1", activity="Deeds", start=0.0, dur=10.0, mouse=1, keys=1):
    """One event row in RawEvents' field order."""
    return (session, student, activity, start, start + dur, mouse, keys)


def test_raw_events_hold_one_array_per_field_and_iterate_as_rows():
    events = RawEvents(["1", "s1", "Deeds", "2", "s2", "Blank"], [0, 3], [1, 4], [2, 5],
                       [5.0, 0.0], [12.5, 3.0], [2, 0], [3, 1])
    assert len(events) == 2 and len(RawEvents()) == 0
    assert list(events) == [raw(start=5.0, dur=7.5, mouse=2, keys=3),
                            raw("2", "s2", "Blank", 0.0, 3.0, 0, 1)]
    assert events == raw_events(events) and events != raw_events(list(events)[:1])
    assert [column.dtype for column in (events.session, events.start_time, events.keystrokes)] \
        == [np.int64, np.float64, np.int64]
    assert events.end_time[0] - events.start_time[0] == 7.5
    # a count sum past int64 keeps its exact value in an object array
    big = RawEvents(["1"], [0], [0], [0], [0.0], [1.0], [10**20], [0])
    assert big.mouse_clicks.dtype == object and list(big)[0][5] == 10**20
    with pytest.raises(AttributeError):
        events.note = []


# --- activity mapping ------------------------------------------------------


def test_map_exercise_specific_simulator_label():
    mapping = ActivityMapping.default()
    assert map_activity("Deeds_Es_2_1", mapping) == 1


def test_map_unmatched_label_goes_to_other():
    mapping = ActivityMapping.default()
    assert map_activity("randomstring", mapping) == 14


def test_map_prefix_rule_for_lms():
    mapping = ActivityMapping.default()
    assert map_activity("Aulaweb", mapping) == 12
    assert map_activity("Aulaweb_forum", mapping) == 12


def test_map_rule_precedence():
    mapping = ActivityMapping.default()
    assert map_activity("Deeds_Es", mapping) == 2  # exact, not the Deeds prefix
    assert map_activity("Deeds", mapping) == 3
    assert map_activity("TextEditor_Es_4_2", mapping) == 4
    assert map_activity("TextEditor_Es", mapping) == 5
    assert map_activity("TextEditor", mapping) == 6
    assert map_activity("FSM_Es_5_1", mapping) == 10
    assert map_activity("FSM_Related", mapping) == 11
    assert map_activity("Study_Materials", mapping) == 9
    assert map_activity("Study_Es_1_1", mapping) == 0
    assert map_activity("Blank", mapping) == 13
    assert map_activity("Other", mapping) == 14


def test_mapping_round_trip(tmp_path):
    mapping = ActivityMapping.default()
    path = tmp_path / "map.json"
    save_json(mapping.to_dict(), path)
    assert ActivityMapping.load(path) == mapping


# --- discretization --------------------------------------------------------


@pytest.mark.parametrize(
    "seconds,expected",
    [
        (9.0, 0),  # right-closed: 9 s stays in the first bin
        (9.0001, 1),
        (45.0, 3),
        (600.0, 4),
        (1200.0, 5),
        (14000.0, 6),
        (1.0, 0),
    ],
)
def test_discretize_duration_bins(seconds, expected):
    assert discretize_duration(seconds, Schema.default(), FilterConfig()) == expected


def test_discretize_duration_filters():
    schema = Schema.default()
    filt = FilterConfig()
    assert discretize_duration(0.5, schema, filt) is None
    assert discretize_duration(14000.1, schema, filt) is None


def test_discretize_duration_twenty_minute_variant():
    filt = FilterConfig(max_duration_s=1200.0)
    schema = Schema.default()
    assert discretize_duration(1200.0, schema, filt) == 5
    assert discretize_duration(1201.0, schema, filt) is None


def test_discretize_duration_rejects_nonpositive():
    with pytest.raises(ValueError):
        discretize_duration(0.0, Schema.default(), FilterConfig())
    with pytest.raises(ValueError):
        discretize_duration(-3.0, Schema.default(), FilterConfig())


def test_duration_bins_partition_admitted_range():
    # every admitted duration lands in exactly one left-open right-closed bin
    schema = Schema.default()
    filt = FilterConfig()
    edges = schema.time_bin_edges
    rng = np.random.default_rng(7)
    samples = list(rng.uniform(filt.min_duration_s, filt.max_duration_s, 500)) + list(edges[1:])
    for s in samples:
        matches = [
            t for t in range(schema.num_time_bins) if edges[t] < s <= edges[t + 1]
        ]
        assert len(matches) == 1
        assert discretize_duration(s, schema, filt) == matches[0]


@pytest.mark.parametrize(
    "count,expected",
    [(0, 0), (1, 0), (2, 1), (3, 2), (5, 2), (6, 3), (15, 3), (16, 4), (4778, 4)],
)
def test_discretize_interaction_bins(count, expected):
    assert discretize_interaction(count, Schema.default()) == expected


def test_discretize_interaction_clamps_above_top_edge():
    assert discretize_interaction(4779, Schema.default()) == 4
    assert discretize_interaction(5000, Schema.default()) == 4


def test_discretize_interaction_rejects_negative():
    with pytest.raises(ValueError):
        discretize_interaction(-1, Schema.default())


edge_lists = st.lists(st.integers(0, 20000), min_size=2, max_size=7, unique=True).map(sorted)


@settings(max_examples=150, deadline=None)
@given(edge_lists, st.data())
def test_duration_bins_are_left_open_right_closed(edges, data):
    schema = Schema(("e",), edges, (0, 1))
    filt = FilterConfig(min_duration_s=1e-3, max_duration_s=30000.0)
    near_edge = st.sampled_from(edges).flatmap(lambda e: st.sampled_from(
        [e, math.nextafter(e, -math.inf), math.nextafter(e, math.inf)]))
    seconds = data.draw(st.floats(filt.min_duration_s, filt.max_duration_s) | near_edge)
    if not seconds > 0:
        return
    got = discretize_duration(seconds, schema, filt)
    if not filt.min_duration_s <= seconds <= filt.max_duration_s:
        assert got is None
    elif not edges[0] < seconds <= edges[-1]:
        assert got is None
    else:
        assert edges[got] < seconds <= edges[got + 1]


@settings(max_examples=150, deadline=None)
@given(edge_lists, st.integers(0, 10**6) | st.sampled_from([0, 1, 4778, 4779, 10**30]))
def test_interaction_levels_clamp_at_top(edges, count):
    schema = Schema(("e",), (0, 1), edges)
    top = schema.num_interaction_levels - 1
    got = discretize_interaction(count, schema)
    if count >= edges[top]:
        assert got == top  # the top level also takes every count above the last edge
    elif count < edges[1]:
        assert got == 0
    else:
        assert edges[got] <= count < edges[got + 1]


# --- CSV parsing -----------------------------------------------------------


def test_parse_empty_file_with_header():
    events, rejects = parse_raw_log(csv_of([]), COLUMN_MAP)
    assert events == RawEvents() and rejects == []


def test_parse_reads_a_quoted_first_header_field_after_a_byte_order_mark():
    quoted = '"session"' + HEADER[len("session"):]
    row = "1,s1,Deeds,100,110,2,3,4,5\n"
    got = parse_raw_log(io.BytesIO(("\ufeff" + quoted + row).encode()), COLUMN_MAP)
    assert got == parse_raw_log(io.BytesIO((HEADER + row).encode()), COLUMN_MAP)
    assert len(got[0]) == 1 and got[1] == []


def test_parse_sums_interaction_columns():
    events, rejects = parse_raw_log(
        csv_of(["1,s1,Deeds,100,110,2,3,4,5"]), COLUMN_MAP
    )
    assert rejects == []
    assert events.mouse_clicks.tolist() == [9]
    assert events.keystrokes.tolist() == [5]
    assert events.end_time[0] - events.start_time[0] == 10.0


def test_parse_reads_a_lone_count_column():
    column_map = {**COLUMN_MAP, "mouse_clicks": []}
    rows = ["1,s1,Deeds,100,110,2,3,4,5", "1,s1,Deeds,100,110,2,3,4,x",
            "1,s1,Deeds,100,110,2,3,4,-5"]
    events, rejects = parse_raw_log(csv_of(rows), column_map)
    assert (events.mouse_clicks.tolist(), events.keystrokes.tolist()) == ([0], [5])
    assert _rows(rejects) == [(2, "bad interaction count"), (3, "negative interaction count")]


def test_parse_rejects_any_negative_count_column_and_truncates_the_rest():
    # a group sum of 2 would hide the -3; int(float("-0.5")) would read as 0
    rows = ["1,s1,Deeds,100,110,-3,5,0,1", "1,s1,Deeds,100,110,0,0,0,-0.5",
            "1,s1,Deeds,100,110,0.9,5,0,7.9", "1,s1,Deeds,100,110,-0,0,0,-0.0"]
    events, rejects = parse_raw_log(csv_of(rows), COLUMN_MAP)
    assert (events.mouse_clicks.tolist(), events.keystrokes.tolist()) == ([5, 0], [7, 0])
    assert _rows(rejects) == [(1, "negative interaction count"), (2, "negative interaction count")]


def test_parse_rejects_negative_duration():
    events, rejects = parse_raw_log(
        csv_of(["1,s1,Deeds,200,100,0,0,0,0"]), COLUMN_MAP
    )
    assert len(events) == 0
    assert len(rejects) == 1
    assert rejects[0].row_number == 1
    assert rejects[0].reason == "negative duration"


def test_parse_rejects_bad_timestamp():
    _, rejects = parse_raw_log(csv_of(["1,s1,Deeds,notatime,100,0,0,0,0"]), COLUMN_MAP)
    assert rejects[0].reason == "bad timestamp"


def test_parse_rejects_short_row():
    events, rejects = parse_raw_log(csv_of(["1,s1,Deeds,100"]), COLUMN_MAP)
    assert len(events) == 0
    assert rejects[0].reason == "short row"


def test_parse_accepts_datetime_strings():
    events, rejects = parse_raw_log(
        csv_of(["1,s1,Deeds,2014-11-26 14:14:19,2014-11-26 14:14:29.500000,0,0,0,0"]),
        COLUMN_MAP,
    )
    assert rejects == []
    assert events.end_time[0] - events.start_time[0] == pytest.approx(10.5)


def test_parse_missing_mapped_column_is_config_error():
    with pytest.raises(ValueError, match="keys_typo"):
        parse_raw_log(csv_of([]), {**COLUMN_MAP, "keystrokes": "keys_typo"})


def test_parse_missing_map_entry_is_config_error():
    broken = dict(COLUMN_MAP)
    del broken["activity"]
    with pytest.raises(ValueError, match="activity"):
        parse_raw_log(csv_of([]), broken)


@pytest.mark.parametrize("start,end", [
    ("nan", "nan"), ("0", "inf"), ("-inf", "5"), ("5", "Infinity"), ("NaN", "10"),
])
def test_parse_rejects_non_finite_timestamps(start, end):
    events, rejects = parse_raw_log(csv_of([f"1,s1,Deeds,{start},{end},0,0,0,0"]), COLUMN_MAP)
    assert len(events) == 0
    assert _rows(rejects) == [(1, "bad timestamp")]


@pytest.mark.parametrize("count", ["1e400", "inf", "-inf", "-1e400"])
def test_parse_rejects_overflowing_counts(count):
    rows = [f"1,s1,Deeds,0,10,{count},0,0,0", f"1,s1,Deeds,0,10,0,0,0,{count}"]
    events, rejects = parse_raw_log(csv_of(rows), COLUMN_MAP)
    assert len(events) == 0
    assert _rows(rejects) == [(1, "bad interaction count"), (2, "bad interaction count")]


# --- timestamps: the compiled reader's day-first form and the full chain ------


def _full_chain(raw, fmt):
    """Reference: the full parser chain, without the finite check."""
    raw = raw.strip()
    if fmt:
        return _epoch(datetime.strptime(raw, fmt))
    try:
        return _epoch(datetime.fromisoformat(raw))
    except ValueError:
        pass
    for candidate in _TIMESTAMP_FORMATS:
        try:
            return _epoch(datetime.strptime(raw, candidate))
        except ValueError:
            continue
    return float(raw)


def _outcome(parse, *args):
    try:
        return repr(parse(*args))
    except (ValueError, TypeError, OverflowError):
        return "error"


def _finite(outcome):
    """Non-finite epochs are rejected, not returned."""
    if outcome != "error" and not math.isfinite(float(outcome)):
        return "error"
    return outcome


# Values that each part of a canonical day-first stamp may be swapped for.
# Arabic-Indic digits pass strptime's \d but not the compiled reader's ASCII digits.
_ODD_PARTS = {
    "day": ["00", "29", "30", "31", "32", "7", " 7", "\u0660\u0667"],
    "month": ["00", "02", "04", "13", "2", "\u0660\u0662"],
    "year": ["0000", "1900", "2000", "2019", "2020", "19", "\u0662\u0660\u0661\u0669"],
    "hour": ["24", "25", "7", "\u0660\u0667"],
    "minute": ["60", "5"],
    "second": ["60", "61", "5", "\u0660\u0665"],
    "sep": [".", "/", "-"],
    "sep2": [".", "/", "-"],
    "middle": ["  ", "T", "\t"],
    "left": [" ", "\t", "\n"],
    "right": [" ", "\t", "\n"],
}


# built once: building a strategy anew for each draw costs more than the draw itself
_ANY_DATETIMES = st.datetimes(datetime(1, 1, 1), datetime(9999, 12, 31, 23, 59, 59))
_ODD_PART_SETS = st.sets(st.sampled_from(sorted(_ODD_PARTS)), max_size=3)
_ODD_PART_VALUES = {part: st.sampled_from(values) for part, values in _ODD_PARTS.items()}


@st.composite
def day_first_stamps(draw):
    """A canonical ``dd?mm?yyyy HH:MM:SS`` stamp with up to three parts swapped for odd ones."""
    dt = draw(_ANY_DATETIMES)
    sep = draw(st.sampled_from("./"))
    p = dict(day=f"{dt.day:02d}", month=f"{dt.month:02d}", year=f"{dt.year:04d}",
             hour=f"{dt.hour:02d}", minute=f"{dt.minute:02d}", second=f"{dt.second:02d}",
             sep=sep, sep2=sep, middle=" ", left="", right="")
    for part in draw(_ODD_PART_SETS):
        p[part] = draw(_ODD_PART_VALUES[part])
    return (f"{p['left']}{p['day']}{p['sep']}{p['month']}{p['sep2']}{p['year']}{p['middle']}"
            f"{p['hour']}:{p['minute']}:{p['second']}{p['right']}")


timestamp_strings = day_first_stamps() | st.text(max_size=24) | st.sampled_from([
    "nan", "-inf", "inf", "1e400", "0", "1570006817.5", "2019-10-02 09:00:17",
    "2019-10-02 09:00:17.250000", "2019-10-02T09:00:17+02:00", "",
])
timestamp_formats = st.sampled_from([None, "", "%d.%m.%Y %H:%M:%S", "%d/%m/%Y %H:%M:%S",
                                     "%Y-%m-%d %H:%M:%S"])


@settings(max_examples=1500, deadline=None)
@given(timestamp_strings, timestamp_formats)
@example("31.02.2019 09:00:00", None)
@example("29.02.2019 09:00:00", None)
@example("29.02.2020 09:00:00", "%d.%m.%Y %H:%M:%S")
@example("31.04.2020 09:00:00", None)  # a leap year adds a day to February alone
@example("30.02.2020 09:00:00", None)
@example("00.10.2019 09:00:00", None)
@example("02/10/2019 24:00:00", None)
@example("02.10.2019 09:00:60", None)
@example("2.10.2019 9:00:17", None)
@example(" 02.10.2019 09:00:17\t", None)
@example("  02.10.2019 09:00:17 ", None)
@example("\u0660\u0662.10.2019 09:00:17", None)
@example("02.10.2019 09:00:17", "%d/%m/%Y %H:%M:%S")
def test_timestamp_fast_path_matches_full_chain(raw, fmt):
    # the other fields of each row are plain, so the stamps alone decide it; with one line per
    # block, every plain line goes to the compiled reader's read_stamp
    column_map = COLUMN_MAP if fmt is None else {**COLUMN_MAP, "timestamp_format": fmt}
    pairs = [(raw, "31.12.9999 23:59:59"), ("01.01.0001 00:00:00", raw), (raw, raw)]
    text = HEADER + "".join(f"1,s1,Deeds,{start},{end},1,2,3,4\n" for start, end in pairs)
    got = _parsed(text, column_map, budget=1)
    assert got == _parsed(text, column_map, library=False)
    if any(c in raw for c in ',"\r\n'):
        return  # the stamp is not one field of one line; the readers agreeing is the test
    events, rejects = [], []
    for row_number, (start, end) in enumerate(pairs, start=1):
        s, e = (_finite(_outcome(_full_chain, stamp, fmt)) for stamp in (start, end))
        if "error" in (s, e):
            rejects.append((row_number, "bad timestamp"))
        elif float(e) < float(s):
            rejects.append((row_number, "negative duration"))
        else:
            events.append(("1", "s1", "Deeds", float(s), float(e), 6, 4))
    assert (list(got[0]), _rows(got[1])) == (events, rejects)


def test_count_reads_a_text_as_int_of_float_does():
    for text in ["7", " 7", "7.9", "1e400", "nan", "-3", "inf", "n/a", "", "-0", "12 "]:
        assert _outcome(_count, text) == _outcome(lambda t: int(float(t)), text), text


@settings(max_examples=300, deadline=None)
@given(_ANY_DATETIMES, st.sampled_from("./"))
def test_fast_path_answers_every_canonical_stamp(dt, sep):
    raw = _day_first(dt, sep)
    want = _full_chain(raw, None)
    assert repr(_timestamp_reader(None)(raw)) == repr(want)
    assert repr(_timestamp_reader(f"%d{sep}%m{sep}%Y %H:%M:%S")(raw)) == repr(want)
    library = sampler._library()
    if library is None:
        pytest.skip("no compiled library")
    scan = ingest._row_scanner(library, 9, list(range(9)), 3, lambda text: 0)
    status, columns, _ = scan(f"1,s1,Deeds,{raw},{raw},1,2,3,4".encode(), 1)
    assert status.tolist() == [ingest._ROW_OK]
    assert [repr(column.tolist()[0]) for column in columns[3:5]] == [repr(want)] * 2


def test_fast_path_values():
    read = _timestamp_reader(None)
    assert read("02.10.2019 09:00:17") == 1570006817.0
    assert read("02/10/2019 09:00:17") == 1570006817.0
    assert read("29.02.2020 23:59:59") == 1583020799.0
    text = HEADER + ("1,s1,Deeds,02.10.2019 09:00:17,02/10/2019 09:00:17,1,2,3,4\n"
                     "1,s1,Deeds,29.02.2020 23:59:59,29.02.2020 23:59:59,1,2,3,4\n")
    events, rejects = _parsed(text)
    assert rejects == []
    assert [(e[3], e[4]) for e in events] == [(1570006817.0, 1570006817.0),
                                              (1583020799.0, 1583020799.0)]


@pytest.mark.parametrize("raw", [
    "02.10/2019 09:00:17",  # mixed separators
    "02.10.2019T09:00:17",
])
def test_fast_path_declines_other_shapes(raw):
    # the full chain reads neither shape, so an answer could only come from the compiled reader
    with pytest.raises(ValueError):
        _timestamp_reader(None)(raw)
    events, rejects = _parsed(HEADER + f"1,s1,Deeds,{raw},{raw},1,2,3,4\n")
    assert len(events) == 0 and _rows(rejects) == [(1, "bad timestamp")]


def test_only_the_rows_the_library_declines_reach_the_python_stamp_parser():
    if sampler._library() is None:
        pytest.skip("no compiled library")
    clean = HEADER + "".join(f"{n % 3 + 1},s{n % 5},Deeds,02.10.2019 09:00:{n % 60:02d},"
                             f"02/10/2019 10:00:00,1,2,3,{n}\n" for n in range(50))
    # one row of each reject reason, and a row the compiled reader declines but Python takes;
    # each holds the stamps Python reads, up to the one that fails
    declined = [
        ("1,s1,Deeds,02.10.2019 09:00:17", []),
        ("1,s1,Deeds,31.02.2019 09:00:17,02.10.2019 09:00:27,1,2,3,4", ["31.02.2019 09:00:17"]),
        ("1,s1,Deeds,02.10.2019 09:00:17,02.10.2019 09:00:07,1,2,3,4",
         ["02.10.2019 09:00:17", "02.10.2019 09:00:07"]),
        ("1,s1,Deeds,02.10.2019 09:00:17,02.10.2019 09:00:27,1,2,3,n/a",
         ["02.10.2019 09:00:17", "02.10.2019 09:00:27"]),
        ("1,s1,Deeds,02.10.2019 09:00:17,02.10.2019 09:00:27,1,-2,3,4",
         ["02.10.2019 09:00:17", "02.10.2019 09:00:27"]),
        ("2,s2,Aulaweb,02/10/2019 09:00:18,02/10/2019 09:00:28,007,1_0,0,1",
         ["02/10/2019 09:00:18", "02/10/2019 09:00:28"]),
    ]
    mixed = clean + "".join(row + "\n" + clean.split("\n")[n + 1] + "\n"
                            for n, (row, _) in enumerate(declined))
    for text, want in [(clean, []), (mixed, [s for _, stamps in declined for s in stamps])]:
        with mock.patch.object(ingest, "_parse_timestamp", wraps=_parse_timestamp) as parse:
            got = _parsed(text)
        assert [call.args[0] for call in parse.call_args_list] == want
        assert got == _parsed(text, library=False)
    assert _rows(got[1]) == [(51, "short row"), (53, "bad timestamp"),
                             (55, "negative duration"), (57, "bad interaction count"),
                             (59, "negative interaction count")]


# Texts without a colon, which skip the strptime patterns: plain numbers, and the
# traps among them. Python 3.11 reads 8 digits as an ISO basic date and 8 digits, any
# character and 2 or 4 more as a date and a time; float takes "_" and non-ASCII digits.
_DECIMAL_TRAPS = ["20191002", "20191002.12", "20191002123", "2019100212345", "20191002T12",
                  "2019-10-02", "2019W401", "1570006817", "1570006817.5", "1_570_006_817",
                  "\u0661\u0665\u0667\u0660", "\uff11\uff15", "nan", "NaN", "-inf", "Infinity",
                  "1e400", "-1e400", "+5", ".5", "5.", "-0", "0x10", "1e5", "١٢٣.٤", ""]
_DECIMAL_SHAPE = r"[+-]?[0-9_]{0,12}(\.[0-9]{0,6})?([eE][+-]?[0-9]{1,3})?[T.]?[0-9]{0,4}"
decimal_texts = (st.integers(-10**13, 10**13).map(str) | st.floats().map(repr)
                 | st.from_regex(_DECIMAL_SHAPE, fullmatch=True) | st.sampled_from(_DECIMAL_TRAPS))


@settings(max_examples=1000, deadline=None)
@given(decimal_texts)
def test_stamps_without_a_colon_read_as_the_full_chain_reads_them(raw):
    want = _finite(_outcome(_full_chain, raw, None))
    assert _outcome(_parse_timestamp, raw) == want
    assert _outcome(_timestamp_reader(None), raw) == want


def test_plain_epoch_seconds_skip_the_strptime_patterns():
    with mock.patch.object(ingest, "datetime", wraps=datetime) as patched:
        assert _parse_timestamp("1570006817.5") == 1570006817.5
        assert _parse_timestamp("20191002") == 1569974400.0  # an ISO basic date
    assert not patched.strptime.called


# --- csv.DictReader parity ---------------------------------------------------


def test_parse_empty_file():
    assert parse_raw_log(io.BytesIO(b""), COLUMN_MAP) == (RawEvents(), [])


def test_parse_refuses_a_text_file():
    with pytest.raises(TypeError, match="binary file"):
        parse_raw_log(io.StringIO(HEADER), COLUMN_MAP)


def test_parse_blank_lines_are_skipped_and_not_numbered():
    text = HEADER + "\n".join([
        "1,s1,Deeds,0,10,0,0,0,0",
        "",
        "1,s1,Deeds,x,10,0,0,0,0",
        "",
        "",
        "1,s1,Deeds,0",
        " ",  # whitespace is a one-field row, not a blank line
        "1,s1,Deeds,0,10,0,0,0,0",
    ]) + "\n\n"
    events, rejects = parse_raw_log(io.BytesIO(text.encode()), COLUMN_MAP)
    assert len(events) == 2
    assert _rows(rejects) == [(2, "bad timestamp"), (3, "short row"), (4, "short row")]


def test_parse_duplicate_header_name_resolves_to_last_column():
    text = HEADER.rstrip("\n") + ",keys,activity\n" + "\n".join([
        "1,s1,Deeds,0,10,0,0,0,4,7,Aulaweb",
        "1,s1,Deeds,0,10,0,0,0,4,7",  # lacks the last activity column
    ]) + "\n"
    events, rejects = parse_raw_log(io.BytesIO(text.encode()), COLUMN_MAP)
    assert [row[2::4] for row in events] == [("Aulaweb", 7)]
    assert _rows(rejects) == [(2, "short row")]


def test_parse_ignores_extra_fields():
    events, rejects = parse_raw_log(csv_of(["1,s1,Deeds,0,10,1,2,3,4,extra,,more"]), COLUMN_MAP)
    assert rejects == []
    assert (events.mouse_clicks.tolist(), events.keystrokes.tolist()) == ([6], [4])


def test_parse_short_rows_keep_their_numbers():
    rows = ["1,s1,Deeds,0,10,0,0,0", "1", "1,s1,Deeds,0,10,0,0,0,0", ","]
    events, rejects = parse_raw_log(csv_of(rows), COLUMN_MAP)
    assert len(events) == 1
    assert _rows(rejects) == [(1, "short row"), (2, "short row"), (4, "short row")]


def test_parse_unbalanced_quote_names_the_row_where_it_opened():
    closed = '1,s1,"Deeds, quoted",0,10,0,0,0,0'
    events, rejects = parse_raw_log(csv_of([closed]), COLUMN_MAP)
    assert rejects == [] and [row[2] for row in events] == ["Deeds, quoted"]
    # blank lines are not numbered, so the runaway quote opens in data row 2
    rows = [closed, "", '1,s1,"Deeds,0,10,0,0,0,0', "1,s1,Deeds,0,10,0,0,0,0"]
    with pytest.raises(ValueError, match="data row 2: .* unbalanced double quote"):
        parse_raw_log(csv_of(rows), COLUMN_MAP)
    # on the last line an unclosed quote ends with the file, and its row is read as it stands
    events, rejects = parse_raw_log(csv_of([closed, '1,s1,"Deeds,0,10,0,0,0,0']), COLUMN_MAP)
    assert len(events) == 1 and _rows(rejects) == [(2, "short row")]


# --- corpus building -------------------------------------------------------


def test_everything_filtered_drops_trace():
    result = build_corpora(
        raw_events([raw(dur=0.5)]), ActivityMapping.default(), Schema.default(), FilterConfig()
    )
    assert result.corpora == {}
    assert result.filtered == 1
    assert result.dropped_traces == ["s1_1"]


def test_minimal_grouping_two_students():
    events = raw_events([raw(student="s1"), raw(student="s2")])
    result = build_corpora(
        events, ActivityMapping.default(), Schema.default(), FilterConfig()
    )
    assert list(result.corpora) == ["1"]
    corpus = result.corpora["1"]
    assert corpus.num_traces == 2
    assert [len(t) for t in corpus.traces] == [1, 1]
    assert [t.trace_id for t in corpus.traces] == ["s1_1", "s2_1"]


def test_sessions_split_into_separate_corpora():
    events = raw_events([raw(session="1"), raw(session="2"), raw(session="1", student="s2")])
    result = build_corpora(
        events, ActivityMapping.default(), Schema.default(), FilterConfig()
    )
    assert sorted(result.corpora) == ["1", "2"]
    assert result.corpora["1"].num_traces == 2
    assert result.corpora["2"].num_traces == 1


def test_tokens_keep_file_order():
    events = raw_events([
        raw(activity="Deeds", start=50.0, dur=20.0),
        raw(activity="Aulaweb", start=0.0, dur=5.0),
    ])
    result = build_corpora(
        events, ActivityMapping.default(), Schema.default(), FilterConfig()
    )
    tokens = result.corpora["1"].traces[0].tokens
    assert [t.event for t in tokens] == [3, 12]  # file order, not time order


def test_conservation_and_determinism(rng):
    # random mix of good, transient, frozen and malformed rows
    rows = []
    for i in range(300):
        kind = rng.integers(4)
        start = float(rng.uniform(0, 1000))
        if kind == 0:
            rows.append(f"1,s{rng.integers(5)},Deeds_Es_1_1,{start},{start + rng.uniform(1.5, 100)},1,2,0,4")
        elif kind == 1:
            rows.append(f"2,s{rng.integers(5)},TextEditor,{start},{start + 0.2},0,0,0,0")
        elif kind == 2:
            rows.append(f"1,s{rng.integers(5)},Blank,{start},{start + 99999},0,0,0,1")
        else:
            rows.append(f"2,s{rng.integers(5)},Other,{start},bogus,0,0,0,0")
    events, rejects = parse_raw_log(csv_of([r for r in rows]), COLUMN_MAP)
    result = build_corpora(events, ActivityMapping.default(), Schema.default(), FilterConfig())
    assert len(events) + len(rejects) == 300
    assert result.tokenized + result.filtered == len(events)
    assert result.tokenized == sum(c.num_tokens for c in result.corpora.values())
    assert sum(result.event_counts) == result.tokenized
    assert sum(result.time_bin_counts) == result.tokenized
    assert sum(result.interaction_counts) == result.tokenized

    events2, rejects2 = parse_raw_log(csv_of([r for r in rows]), COLUMN_MAP)
    result2 = build_corpora(events2, ActivityMapping.default(), Schema.default(), FilterConfig())
    assert events2 == events and rejects2 == rejects
    assert result2.corpora == result.corpora
    assert result2.summary_dict() == result.summary_dict()


# row kind -> (row template over start s and end e, expected fate)
_ROW_KINDS = {
    "token": ("1,{st},Deeds_Es_1_1,{s},{e},1,0,0,2", "token"),
    "transient": ("2,{st},TextEditor,{s},{s},0,0,0,0", "filtered"),
    "frozen": ("1,{st},Blank,{s},{frozen},0,0,0,1", "filtered"),
    "nan": ("2,{st},Other,nan,{e},0,0,0,0", "bad timestamp"),
    "bogus": ("1,{st},Other,{s},bogus,0,0,0,0", "bad timestamp"),
    "short": ("1,{st},Deeds,{s}", "short row"),
    "backwards": ("1,{st},Deeds,{e},{s},0,0,0,0", "negative duration"),
    "overflow": ("1,{st},Deeds,{s},{e},1e400,0,0,0", "bad interaction count"),
    "negative": ("2,{st},Deeds,{s},{e},0,-3,0,0", "negative interaction count"),
    "blank": ("", None),
}
_STAMPS = (
    lambda t: str(t),
    lambda t: datetime.fromtimestamp(t, timezone.utc).strftime("%d.%m.%Y %H:%M:%S"),
    lambda t: datetime.fromtimestamp(t, timezone.utc).strftime("%d/%m/%Y %H:%M:%S"),
    lambda t: datetime.fromtimestamp(t, timezone.utc).strftime("%Y-%m-%d %H:%M:%S"),
)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(sorted(_ROW_KINDS)), st.integers(0, 3),
                          st.integers(1_500_000_000, 1_600_000_000), st.integers(1, 14000),
                          st.sampled_from(range(len(_STAMPS)))), max_size=40))
def test_ingest_conservation_on_random_logs(rows):
    lines, fates = [], []
    for kind, student, start, duration, style in rows:
        template, fate = _ROW_KINDS[kind]
        stamp = _STAMPS[style]
        lines.append(template.format(st=f"s{student}", s=stamp(start), e=stamp(start + duration),
                                     frozen=stamp(start + 14000 + duration)))
        if fate is not None:
            fates.append(fate)
    events, rejects = parse_raw_log(csv_of(lines), COLUMN_MAP)
    result = build_corpora(events, ActivityMapping.default(), Schema.default(), FilterConfig())
    assert len(events) + len(rejects) == len(fates)  # parsed = raw + rejected
    assert result.tokenized + result.filtered == len(events)  # raw = tokenized + filtered
    assert result.tokenized == fates.count("token")
    assert result.filtered == fates.count("filtered")
    assert _rows(rejects) == [(i, fate) for i, fate in enumerate(fates, start=1)
                              if fate not in ("token", "filtered")]


def _corpora_with_fresh_tokens(events, mapping, schema, filt):
    """Per-session corpora built with a new Token for every kept event."""
    per_session = {}
    for session, student_id, activity, start, end, mouse, keys in events:
        tokens = per_session.setdefault(session, {}).setdefault(f"{student_id}_{session}", [])
        duration = end - start
        if not filt.min_duration_s <= duration <= filt.max_duration_s:
            continue
        t_bin = discretize_duration(duration, schema, filt)
        if t_bin is not None:
            tokens.append(Token(map_activity(activity, mapping), t_bin,
                                discretize_interaction(mouse + keys, schema)))
    corpora = {}
    for session, traces in per_session.items():
        kept = tuple(Trace(tid, tuple(tokens)) for tid, tokens in traces.items() if tokens)
        if kept:
            corpora[session] = Corpus(schema, kept)
    return corpora


@settings(max_examples=100, deadline=None)
@given(st.lists(st.builds(
    raw,
    session=st.sampled_from("12"),
    student=st.sampled_from(["s1", "s2", "s3"]),
    activity=st.sampled_from(["Deeds", "Deeds_Es_1_1", "Aulaweb", "Blank", "unmapped"]),
    start=st.floats(0, 1e6),
    dur=st.sampled_from([0.5, 1.0, 9.0, 14000.0, 20000.0]) | st.floats(0.01, 20000),
    mouse=st.integers(0, 40),
    keys=st.integers(0, 6000),
), max_size=60))
def test_build_corpora_shares_one_token_per_distinct_triple(events):
    schema, mapping, filt = Schema.default(), ActivityMapping.default(), FilterConfig()
    result = build_corpora(raw_events(events), mapping, schema, filt)
    assert result.corpora == _corpora_with_fresh_tokens(events, mapping, schema, filt)
    tokens = [tok for c in result.corpora.values() for t in c.traces for tok in t.tokens]
    assert len({id(tok) for tok in tokens}) == len(set(tokens))
    assert len(set(tokens)) <= (
        schema.num_events * schema.num_time_bins * schema.num_interaction_levels)


_SCHEMAS = [
    Schema.default(),
    # interaction edges past int64, a fraction, and 2**62 + 1024, the double after 2**62:
    # only exact integer totals bin right (2**62 + 1023 rounds up to it as a float)
    Schema(DEFAULT_EVENT_LABELS, (0.0, 1.0, 9.5, 600.0),
           (0.0, 2.5, 2.0**62, 2.0**62 + 1024, 2.0**63, 1e19, 1e20, 1e30)),
    Schema(DEFAULT_EVENT_LABELS, (0.5, 9.0, 15.0, 14000.0, 20000.0), (1.0, 16.0, 4779.0)),
]
_FILTERS = [FilterConfig(), FilterConfig(max_duration_s=1200.0),
            FilterConfig(min_duration_s=0.25, max_duration_s=30000.0)]
# exact rules, prefix rules and labels that no rule takes
_LABELS = ["Deeds_Es", "Deeds_Es_3_1", "Deeds", "Blank", "Blankety", "TextEditor_Es", "zzz", ""]
# counts that int64 holds, then counts past it (the Python reader takes each)
_INT64_COUNTS = ["0", "1", "2", "3", "6", "15", "16", "1023", "1024", "4778", "4779", "7.9",
                 "4611686018427387904"]
_BIG_COUNTS = ["99999999999999999999", "9223372036854775807", "1e19"]


def _duration_pools(schema, filt):
    """Whole-second durations for day-first rows, and durations on and beside each mark."""
    marks = [*schema.time_bin_edges, filt.min_duration_s, filt.max_duration_s]
    whole = sorted({int(m) for m in marks if m == int(m) and 0 <= m < 40000} | {0, 1, 2})
    near = [x for m in marks for x in (m, math.nextafter(m, -math.inf), math.nextafter(m, math.inf))
            if x >= 0]
    return st.sampled_from(whole), st.sampled_from(near) | st.floats(0, 3e4)


# binning_logs' strategies, built once as raw_log_texts' are
_BIN_SCHEMAS, _BIN_FILTERS = st.sampled_from(_SCHEMAS), st.sampled_from(_FILTERS)
_DURATION_POOLS = {(schema, filt): _duration_pools(schema, filt)
                   for schema in _SCHEMAS for filt in _FILTERS}
# the int64 counts alone can still overflow int64 when summed
_COUNT_POOLS = st.sampled_from([st.sampled_from(_INT64_COUNTS),
                                st.sampled_from(_INT64_COUNTS + _BIG_COUNTS)])
_BIN_ROWS, _DAY_FIRST = st.integers(0, 30), st.booleans()
_BIN_SESSIONS = st.sampled_from(["1", "2", "1_2"])
_BIN_STUDENTS = st.sampled_from(["s1", "a", "a_1", "s2"])
_BIN_LABELS = st.sampled_from(_LABELS)
_BIN_STARTS = st.datetimes(datetime(2019, 1, 1), datetime(2020, 12, 31))
_EPOCH_STARTS = st.sampled_from([0.0, 0.0, 1570006817.0, 0.1])


@st.composite
def binning_logs(draw):
    """A raw log with durations on and beside every bin edge and filter bound, and huge counts.

    Returns the text, the schema and the filter. Day-first stamps take the
    compiled reader's path, epoch seconds the Python reader's; an epoch row
    starting at 0 has exactly its drawn duration.
    """
    schema, filt = draw(_BIN_SCHEMAS), draw(_BIN_FILTERS)
    whole, near = _DURATION_POOLS[schema, filt]
    counts = draw(_COUNT_POOLS)
    lines = []
    for _ in range(draw(_BIN_ROWS)):
        names = [draw(_BIN_SESSIONS), draw(_BIN_STUDENTS), draw(_BIN_LABELS)]
        if draw(_DAY_FIRST):
            start = draw(_BIN_STARTS)
            end = start + timedelta(seconds=draw(whole))
            stamps = [_day_first(start, "."), _day_first(end, "/")]
        else:
            start = draw(_EPOCH_STARTS)
            stamps = [repr(start), repr(start + draw(near))]
        lines.append(",".join(names + stamps + [draw(counts) for _ in range(4)]) + "\n")
    return HEADER + "".join(lines), schema, filt


@settings(max_examples=200, deadline=None)
@given(binning_logs(), st.integers(1, 400))
def test_build_corpora_equals_the_per_row_builder(log, budget):
    text, schema, filt = log
    mapping = ActivityMapping.default()
    results = []
    for library, block_chars in [(True, None), (True, budget), (False, None)]:
        raw, _ = _parsed(text, library=library, budget=block_chars)
        result = build_corpora(raw, mapping, schema, filt)
        assert result == reference_build_corpora(raw, mapping, schema, filt)
        tokens = [tok for c in result.corpora.values() for t in c.traces for tok in t.tokens]
        assert len({id(tok) for tok in tokens}) == len(set(tokens))
        results.append(result)
    assert results[0] == results[1] == results[2]


@pytest.mark.parametrize("schema", _SCHEMAS)
@pytest.mark.parametrize("filt", _FILTERS)
def test_build_corpora_equals_the_per_row_builder_on_every_edge(schema, filt):
    # each bin edge and filter bound, one ulp either side, as epoch stamps from 0
    marks = [*schema.time_bin_edges, filt.min_duration_s, filt.max_duration_s]
    durations = [x for m in marks for x in (m, math.nextafter(m, -math.inf),
                                            math.nextafter(m, math.inf)) if x >= 0]
    # totals 2**62 + 1022 to 2**62 + 1025 sit on both sides of the double after 2**62
    text = HEADER + "".join(
        f"{n % 3},s{n % 4},{_LABELS[n % len(_LABELS)]},0,{d!r},"
        f"{2**62 if n % 5 else n},0,{n % 3},{1022 + n % 2}\n" for n, d in enumerate(durations))
    mapping = ActivityMapping.default()
    for library in (True, False):
        raw, rejects = _parsed(text, library=library)
        assert rejects == [] and len(raw) == len(durations)
        assert build_corpora(raw, mapping, schema, filt) == reference_build_corpora(
            raw, mapping, schema, filt)


def test_build_corpora_bins_exact_integer_totals_past_int64():
    schema, mapping, filt = _SCHEMAS[1], ActivityMapping.default(), FilterConfig()
    counts = [(2**62, 1023), (2**62, 1024), (2**62, 2**62 - 1), (3, 0), (2**62, 2**62),
              (2**63 - 1, 1), (10**19, 0), (10**20, 10**20)]
    # int64 sums, then int64 columns whose sums overflow, then Python ints
    for rows in (counts[:4], counts[:6], counts):
        events = raw_events([raw(mouse=mouse, keys=keys) for mouse, keys in rows])
        result = build_corpora(events, mapping, schema, filt)
        assert result == reference_build_corpora(events, mapping, schema, filt)
        assert [t.interaction_level for t in result.corpora["1"].traces[0].tokens] == [
            discretize_interaction(mouse + keys, schema) for mouse, keys in rows]
    assert events.mouse_clicks.dtype == object
    assert [discretize_interaction(m + k, schema) for m, k in counts] == [2, 3, 3, 1, 4, 4, 5, 6]


def test_trace_ids_with_underscores_stay_apart_by_session():
    # student a_1 in session 2 and student a in session 1_2 are both trace a_1_2
    events = [raw(session="2", student="a_1"), raw(session="1_2", student="a"),
              raw(session="2", student="a_1", dur=20.0), raw(session="1_2", student="b", dur=0.5),
              raw(session="2", student="a", dur=0.5)]
    schema, mapping, filt = Schema.default(), ActivityMapping.default(), FilterConfig()
    result = build_corpora(raw_events(events), mapping, schema, filt)
    assert result.corpora == _corpora_with_fresh_tokens(events, mapping, schema, filt)
    assert list(result.corpora) == ["2", "1_2"]
    assert [(t.trace_id, len(t)) for t in result.corpora["2"].traces] == [("a_1_2", 2)]
    assert [(t.trace_id, len(t)) for t in result.corpora["1_2"].traces] == [("a_1_2", 1)]
    assert result.dropped_traces == ["a_2", "b_1_2"]
    assert (result.tokenized, result.filtered) == (3, 2)


def test_mapping_outside_schema_rejected():
    mapping = ActivityMapping((), default_index=99)
    with pytest.raises(ValueError):
        build_corpora(raw_events([raw()]), mapping, Schema.default(), FilterConfig())


def test_filter_config_validation():
    with pytest.raises(ValueError):
        FilterConfig(min_duration_s=0.0)
    with pytest.raises(ValueError):
        FilterConfig(min_duration_s=10.0, max_duration_s=5.0)


# --- the compiled row reader against the Python reader ------------------------


class _FailingFile(io.BytesIO):
    """A binary file whose reads stop at byte ``at``, where the next read raises OSError."""

    def __init__(self, data: bytes, at: int):
        super().__init__(data)
        self.at = at

    def read(self, size=-1):
        left = self.at - self.tell()
        if left <= 0:
            raise OSError(5, "Input/output error")
        return super().read(left if size is None or size < 0 else min(size, left))


def _parsed(data, column_map=COLUMN_MAP, library=True, budget=None, fail_at=None):
    """parse_raw_log's events and rejects, its ValueError's text, or its read error's type and
    what it names, for a file of ``data`` (a str is UTF-8 encoded) whose reads fail at byte
    ``fail_at`` if that is given."""
    data = data.encode() if isinstance(data, str) else data
    fh = io.BytesIO(data) if fail_at is None else _FailingFile(data, fail_at)
    with mock.patch.object(ingest, "_BLOCK_BYTES", budget or ingest._BLOCK_BYTES), \
            mock.patch.object(sampler, "_library", sampler._library if library else lambda: None):
        try:
            return parse_raw_log(fh, column_map)
        except UnicodeDecodeError as exc:  # its position is the byte's offset in the file
            return "UnicodeDecodeError", exc.reason, exc.start, exc.object[exc.start:exc.end]
        except OSError as exc:
            return "OSError", str(exc)
        except ValueError as exc:
            return str(exc)


def _day_first(dt, sep):
    return (f"{dt.day:02d}{sep}{dt.month:02d}{sep}{dt.year:04d} "
            f"{dt.hour:02d}:{dt.minute:02d}:{dt.second:02d}")


_ODD_STAMPS = ["02.10.2019 24:00:00", "31.02.2019 09:00:00", "29.02.2019 09:00:00",
               "29.02.2020 09:00:00", "02.10/2019 09:00:17", "01.01.0000 00:00:00",
               "31.12.9999 23:59:59", "nan", "1570006817.5", "2019-10-02 09:00:17", "", "x"]
_NAMES = ["1", "2", "s1", "s2", "Deeds", "Aulaweb", "Study_Es_1_1", "", "a b"]
_COUNTS = ["0", "7", "12", "007", " 7 ", "1e400", "-0.5", "1_0", "-3", "-0", "", "n/a",
           "1.5", "inf", "999999999999999", "9999999999999999", "99999999999999999999"]
# each of these declines its block to csv.reader; the blocks after it go back to hbtm_rows
_ODDITIES = ['"Deeds, quoted"', '"Deeds', 'De"eds', "Déeds", "De\0eds", "Deeds\r", " "]
_PADS = ["", "", "", " ", "  ", "\t"]
_COLUMN_MAPS = [COLUMN_MAP, {**COLUMN_MAP, "mouse_clicks": []},
                {**COLUMN_MAP, "mouse_clicks": ["wheel", "wheel"], "keystrokes": ["keys"]}]
_HEADERS = [HEADER, HEADER.rstrip("\n") + ",keys,activity\n", HEADER.rstrip("\n") + ",extra\n",
            HEADER.replace("\n", "\r\n")]


# raw_log_texts' strategies, built once as day_first_stamps' are
_KINDS = st.sampled_from(["plain"] * 4 + ["odd"] * 3 + ["blank", "short", "long"])
_BLANK_LINES = st.sampled_from(["", "", " "])
_STARTS = (st.datetimes(datetime(2019, 1, 1), datetime(2020, 12, 31))
           | st.datetimes(datetime(1, 1, 1), datetime(9999, 12, 31, 23, 59, 59)))
_STEPS = st.sampled_from([0, 1, 9, 600, 20000, -1])
_SEP_PAIRS = st.sampled_from(["..", "//", "./"])
_NAME_FIELDS, _PLAIN_COUNTS = st.sampled_from(_NAMES), st.sampled_from(_COUNTS[:3])
_FIELD_INDICES = st.integers(0, 8)  # a row has nine fields before it is cut or lengthened
_ODD_FIELDS = ([_NAME_FIELDS] * 3 + [st.sampled_from(_ODD_STAMPS)] * 2
               + [st.sampled_from(_COUNTS)] * 4)  # by field index
_PAD_TEXTS = st.sampled_from(_PADS)
_EXTRA_FIELDS = st.lists(st.sampled_from(["", "x", "9"]), min_size=1, max_size=4)


@st.composite
def raw_log_texts(draw):
    """A raw log over ``HEADER``'s columns: mostly plain rows, some odd, perhaps a few oddities."""
    lines = []
    for _ in range(draw(st.integers(0, 25))):
        kind = draw(_KINDS)
        if kind == "blank":
            lines.append(draw(_BLANK_LINES))
            continue
        start = draw(_STARTS)
        end = start + draw(_STEPS) * timedelta(seconds=1) \
            if datetime(1, 1, 2) < start < datetime(9999, 12, 30) else start
        seps = draw(_SEP_PAIRS)
        fields = [draw(_NAME_FIELDS) for _ in range(3)]
        fields += [_day_first(start, seps[0]), _day_first(end, seps[1])]
        fields += [draw(_PLAIN_COUNTS) for _ in range(4)]
        if kind == "odd":
            at = draw(_FIELD_INDICES)
            fields[at] = draw(_ODD_FIELDS[at])
        fields = [draw(_PAD_TEXTS) + f + draw(_PAD_TEXTS) for f in fields]
        if kind == "short":
            fields = fields[:draw(_FIELD_INDICES)]
        elif kind == "long":
            fields += draw(_EXTRA_FIELDS)
        lines.append(",".join(fields))
    for _ in range(draw(st.integers(0, 3)) if lines else 0):
        at = draw(st.integers(0, len(lines) - 1))
        odd = draw(st.sampled_from(_ODDITIES))
        lines[at] = odd + "," + lines[at] if draw(st.booleans()) else lines[at] + odd
    ending = "\r\n" if lines and draw(st.integers(0, 9)) == 0 else "\n"
    text = ending.join(lines) + draw(st.sampled_from([ending, ""]))
    return draw(st.sampled_from(_HEADERS)) + text


# each row valid but for its end stamp or last count, which only Python may answer or refuse
_BOUNDARIES = HEADER + "".join(
    f"1,s1,Deeds,{start},{end},1,2,3,{count}\n" for start, end, count in [
        ("01.01.2019 00:00:00", "02.10.2019 24:00:00", "1"),
        ("01.01.2019 00:00:00", "02.10.2019 23:60:00", "1"),
        ("01.01.2019 00:00:00", "02.10.2019 23:59:60", "1"),
        ("01.01.2019 00:00:00", "29.02.2019 09:00:00", "1"),
        ("01.01.2019 00:00:00", "29.02.2020 09:00:00", "1"),
        ("01.01.2019 00:00:00", "29.02.2100 09:00:00", "1"),
        ("01.01.2019 00:00:00", "29.02.2000 09:00:00", "1"),
        ("01.01.2019 00:00:00", "31.04.2019 09:00:00", "1"),
        ("01.01.2019 00:00:00", "00.10.2019 09:00:00", "1"),
        ("01.01.2019 00:00:00", "02.13.2019 09:00:00", "1"),
        ("01.01.2019 00:00:00", "02.00.2019 09:00:00", "1"),
        ("01.01.0000 00:00:00", "31.12.9999 23:59:59", "1"),
        ("01.01.0001 00:00:00", "31.12.9999 23:59:59", "1"),
        ("01.01.2019 00:00:00", "02.10.2019 09:00:00", "999999999999999"),
        ("01.01.2019 00:00:00", "02.10.2019 09:00:00", "9999999999999999"),
        ("01.01.2019 00:00:00", "02.10.2019 09:00:00", "9007199254740993"),
        ("01.01.2019 00:00:00", "02.10.2019 09:00:00", "٩"),
    ])
_EVERY_REASON = HEADER + "\n".join([
    "1,s1,Deeds,02.10.2019 09:00:17,02.10.2019 09:00:27,1,2,3,4",
    "1,s1,Deeds,02.10.2019 09:00:17",
    "1,s1,Deeds,31.02.2019 09:00:17,02.10.2019 09:00:27,1,2,3,4",
    "1,s1,Deeds,02.10.2019 09:00:17,02.10.2019 09:00:07,1,2,3,4",
    "1,s1,Deeds,02.10.2019 09:00:17,02.10.2019 09:00:27,1,2,3,n/a",
    "1,s1,Deeds,02.10.2019 09:00:17,02.10.2019 09:00:27,1,-2,3,4",
    "",
    "2, s2 ,Aulaweb,02/10/2019 09:00:17 , 02/10/2019 09:00:27,007, 1_0 ,0,9999999999999999",
    '1,s1,"Deeds",02.10.2019 09:00:17,02.10.2019 09:00:27,1,2,3,4',
]) + "\n"


@settings(max_examples=250, deadline=None)
@given(raw_log_texts(), st.sampled_from(_COLUMN_MAPS), st.integers(1, 200))
@example(_BOUNDARIES, COLUMN_MAP, 1)
@example(_EVERY_REASON, COLUMN_MAP, 1)
@example(_EVERY_REASON, COLUMN_MAP, 150)
@example(HEADER + "1,s1,Deeds,0,10,0,0,0,0\n" * 3 + '1,s1,"Deeds,0,10,0,0,0,0\n' + "x\n",
         COLUMN_MAP, 30)
def test_the_compiled_reader_parses_like_the_python_reader_at_any_block_size(text, column_map,
                                                                          budget):
    want = _parsed(text, column_map, library=False)
    assert _parsed(text, column_map) == want
    assert _parsed(text, column_map, budget=budget) == want


def test_every_reject_reason_and_the_python_only_forms_read_alike_with_the_library():
    events, rejects = _parsed(_EVERY_REASON, budget=1)
    assert _rows(rejects) == [(2, "short row"), (3, "bad timestamp"), (4, "negative duration"),
                              (5, "bad interaction count"), (6, "negative interaction count")]
    assert list(events) == [
        ("1", "s1", "Deeds", 1570006817.0, 1570006827.0, 6, 4),
        # float() rounds a 16-digit count, which the library therefore declines
        ("2", "s2", "Aulaweb", 1570006817.0, 1570006827.0, 17, 10**16),
        ("1", "s1", "Deeds", 1570006817.0, 1570006827.0, 6, 4),
    ]


def test_the_compiled_reader_answers_plain_rows_and_declines_the_rest():
    library = sampler._library()
    if library is None:
        pytest.skip("no compiled library")
    lines = [b"1,s1, Deeds ,02.10.2019 09:00:17,02/10/2019 09:00:27,1,2,3, 4 \r\n", b"\n",
             b"1,s1,Deeds,02.10.2019 09:00:17,02.10.2019 09:00:27,1,2,3,4.0\n",
             b"1,s1,Deeds,02.10.2019 09:00:17,02.10.2019 09:00:27,1,2,3\n",
             b"2,s1,Deeds,29.02.2020 23:59:59,31.12.9999 23:59:59,0,0,0,999999999999999"]
    codes = {}
    scan = ingest._row_scanner(library, 9, list(range(9)), 3,
                               lambda text: codes.setdefault(text, len(codes)))
    status, columns, ends = scan(b"".join(lines), len(lines))
    assert status.tolist() == [ingest._ROW_OK, ingest._ROW_BLANK, 0, 0, ingest._ROW_OK]
    assert ends.tolist() == np.cumsum([len(line) for line in lines]).tolist()
    names = list(codes) + [None]  # code -1: a line not answered
    rows = [(*(names[c] for c in row[:3]), *row[3:]) for row in zip(*(c.tolist() for c in columns))]
    assert rows[0] == ("1", "s1", "Deeds", 1570006817.0, 1570006827.0, 6, 4)
    assert rows[1] == rows[2] == (None, None, None, 0.0, 0.0, 0, 0)
    assert rows[4] == ("2", "s1", "Deeds", _epoch(datetime(2020, 2, 29, 23, 59, 59)),
                       _epoch(datetime(9999, 12, 31, 23, 59, 59)), 0, 999999999999999)
    assert list(codes) == ["1", "s1", "Deeds", "2"]


def test_a_quoted_field_declines_only_its_block_and_crlf_line_ends_stay_compiled():
    if sampler._library() is None:
        pytest.skip("no compiled library")
    rows = [f"{n % 3 + 1},s{n % 5},Deeds,02.10.2019 09:00:{n % 60:02d},02.10.2019 10:00:00,"
            f"1,2,3,{n}\n" for n in range(100, 130)]
    budget = 10 * len(rows[0])  # three blocks of ten lines
    quoted = HEADER + rows[0].replace("Deeds", '"Deeds, quoted"') + "".join(rows[1:])
    crlf = (HEADER + "".join(rows)).replace("\n", "\r\n")
    scanner = ingest._row_scanner
    # a block ends at the last line end of each read of the budget, so the header
    # shortens the first block and the last holds the two rows left
    for text, answered_per_block in [(quoted, [10, 10, 2]), (crlf, [8, 10, 10, 2])]:
        answered = []

        def counting_scanner(*args):
            scan = scanner(*args)

            def counted(block, n):
                status, columns, ends = scan(block, n)
                answered.append(int((status == ingest._ROW_OK).sum()))
                return status, columns, ends

            return counted

        with mock.patch.object(ingest, "_row_scanner", counting_scanner):
            events, rejects = _parsed(text, budget=budget)
        assert answered == answered_per_block
        assert len(events) == 30 and rejects == []
        assert (events, rejects) == _parsed(text, library=False)


def test_parsing_plain_rows_makes_no_python_object_per_row():
    if sampler._library() is None:
        pytest.skip("no compiled library")
    rows = 20_000
    text = HEADER + "".join(
        f"{n % 6 + 1},s{n % 97},Deeds_Es_{n % 7},02.10.2019 09:{n % 60:02d}:17,"
        f"02.10.2019 10:00:{n % 60:02d},{n % 9},{n},1,{n * 7}\n" for n in range(rows))
    parse_raw_log(io.BytesIO(text.encode()), COLUMN_MAP)  # the first call's one-off work
    fh = io.BytesIO(text.encode())
    gc.collect()
    before = sys.getallocatedblocks()
    events, rejects = parse_raw_log(fh, COLUMN_MAP)
    gc.collect()
    grown = sys.getallocatedblocks() - before
    assert len(events) == rows and rejects == []
    assert grown < rows / 20, f"{grown} blocks kept for {rows} rows"


# rows like tests/test_cli.py's RAW_PIECES, over HEADER's columns; none is an error to read
_RAW_ROWS = [
    b"1,s1,Deeds,02.10.2019 09:00:17,02.10.2019 09:00:47,1,2,3,5",
    b"2,s2,Aulaweb,02/10/2019 09:00:17,02/10/2019 09:01:17, 3 ,007,0,1",
    b"1,s2,Deeds_Es_1_1,0,30,1,1,1,5", b"1,s1,Deeds,x,30,1,1,1,5", b"1,s1,Deeds,30,0,1,1,1,5",
    b"1,s1,Deeds,0,30,1e400,1,1,5", b"1,s1", b",,,,,,,,", b"", b"1,s1,De\0eds,0,30,1,1,1,5",
    b'1,s1,"Deeds, quoted",0,30,1,1,1,5', b"1,s\xc3\xa9,Deeds,0,30,1,1,1,5",
    b"1,s1,De\xef\xbb\xbfeds,0,30,1,1,1,5",  # a byte-order mark inside a row is a character
    b"1,s1,Deeds,0,30,1,1,1,5\r1,s2,Deeds,0,30,1,1,1,5",  # a bare CR ends a line
]
_RUNAWAY = b'1,s1,"Deeds,0,30,1,1,1,5'
_UNDECODABLE = b"1,s\xff,Deeds,0,30,1,1,1,5"


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(_RAW_ROWS), max_size=14), st.lists(st.tuples(
           st.integers(0, 14), st.sampled_from([_RUNAWAY, _UNDECODABLE])), max_size=3),
       st.sampled_from([b"\n", b"\r\n"]), st.booleans(), st.booleans(),
       st.none() | st.integers(0, 16), st.integers(1, 80) | st.integers(1, 2000))
@example([_RUNAWAY, _UNDECODABLE], [], b"\n", False, True, None, 1)
@example([_RAW_ROWS[0], _RUNAWAY, _RAW_ROWS[0]], [], b"\r\n", True, False, 2, 3)
@example([_UNDECODABLE, _RUNAWAY, _RAW_ROWS[-1]], [], b"\n", True, True, None, 7)
def test_read_errors_and_runaway_quotes_raise_at_the_earliest_offending_line(
        rows, offenders, ending, bom, final_ending, failing, budget):
    for at, row in offenders:
        rows.insert(min(at, len(rows)), row)
    head = (b"\xef\xbb\xbf" if bom else b"") + HEADER.encode().replace(b"\n", ending)
    raw = head + ending.join(rows) + (ending if final_ending and rows else b"")
    starts = np.cumsum([len(head)] + [len(row) + len(ending) for row in rows]).tolist()
    failing = failing if failing is not None and failing < len(rows) else None
    fail_at = None if failing is None else starts[failing]  # a read fails at that row's start

    got = _parsed(raw, fail_at=fail_at)
    assert _parsed(raw, fail_at=fail_at, library=False) == got
    assert _parsed(raw, fail_at=fail_at, budget=budget) == got
    assert _parsed(raw, fail_at=fail_at, library=False, budget=budget) == got

    # the first offending line: an undecodable byte, a read that fails at its start, or a
    # quoted field that runs on into a line after it; blank lines are not numbered
    data_rows, want = 0, None
    for i, row in enumerate(rows):
        if i == failing:
            want = ("OSError", "[Errno 5] Input/output error")
        elif row == _UNDECODABLE:
            want = ("UnicodeDecodeError", "invalid start byte", raw.index(b"\xff"), b"\xff")
        elif row == _RUNAWAY and starts[i + 1] < len(raw):
            want = f"data row {data_rows + 1}: "
        if want:
            break
        data_rows += sum(1 for line in row.split(b"\r") if line)
    if want is None:
        assert isinstance(got[0], RawEvents)
    elif isinstance(want, str):
        assert isinstance(got, str) and got.startswith(want), (got, want)
    else:
        assert got == want


@pytest.mark.parametrize("budget", [None, 1])
def test_a_read_error_after_an_earlier_error_in_its_block_comes_second(tmp_path, budget):
    # the undecodable byte lies past the first 8 KiB, but inside the first block; the
    # runaway quote before it is the error to report
    raw = tmp_path / "raw.csv"
    raw.write_bytes(HEADER.encode() + b'1,s1,"Deeds,0,10,0,0,0,0\n1,s1,Deeds",0,10,0,0,0,0\n'
                    + b"1,s1,Deeds,0,10,0,0,0,0\n" * 1000 + b"1,s\xff,Deeds,0,10,0,0,0,0\n")
    with mock.patch.object(ingest, "_BLOCK_BYTES", budget or ingest._BLOCK_BYTES):
        with open(raw, "rb") as fh, pytest.raises(ValueError, match="data row 1: "):
            parse_raw_log(fh, COLUMN_MAP)
        # past the quote, the read error is raised when its line is reached
        raw.write_bytes(raw.read_bytes().replace(b'"', b""))
        with open(raw, "rb") as fh, pytest.raises(UnicodeDecodeError):
            parse_raw_log(fh, COLUMN_MAP)


@pytest.mark.parametrize("budget", [None, 1])
def test_an_undecodable_byte_is_named_by_its_offset_in_the_file(budget):
    # in the body's first block, or with one line per block in its third
    rows = HEADER.encode() + b"1,s1,Deeds,0,10,0,0,0,0\n1,s\xff,Deeds,0,10,0,0,0,0\n"
    for data in (rows, b"\xef\xbb\xbf" + rows):
        at = data.index(b"\xff")
        for library in (True, False):
            with mock.patch.object(ingest, "_BLOCK_BYTES", budget or ingest._BLOCK_BYTES), \
                    mock.patch.object(sampler, "_library",
                                      sampler._library if library else lambda: None), \
                    pytest.raises(UnicodeDecodeError) as raised:
                parse_raw_log(io.BytesIO(data), COLUMN_MAP)
            assert str(raised.value) == (
                f"'utf-8' codec can't decode byte 0xff in position {at}: invalid start byte")
