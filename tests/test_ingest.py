import io
import math
from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hbtm import (
    ActivityMapping,
    Corpus,
    FilterConfig,
    RawEvent,
    Schema,
    Token,
    Trace,
    build_corpora,
    discretize_duration,
    discretize_interaction,
    map_activity,
    parse_raw_log,
)
from hbtm.core import save_json
from hbtm.ingest import (
    _CLOCKS,
    _SECONDS,
    _TIMESTAMP_FORMATS,
    _count,
    _epoch,
    _midnight,
    _Table,
    _timestamp_reader,
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
    return io.StringIO(HEADER + "".join(r + "\n" for r in rows))


def _rows(rejects):
    return [(r.row_number, r.reason) for r in rejects]


def raw(session="1", student="s1", activity="Deeds", start=0.0, dur=10.0, mouse=1, keys=1):
    return RawEvent(session, student, activity, start, start + dur, mouse, keys)


def test_raw_event_is_an_immutable_record():
    ev = RawEvent(session="1", student_id="s1", activity="Deeds", start_time=5.0,
                  end_time=12.5, mouse_clicks=2, keystrokes=3)
    assert ev == raw(start=5.0, dur=7.5, mouse=2, keys=3)
    assert ev.end_time - ev.start_time == 7.5
    assert ev.mouse_clicks + ev.keystrokes == 5
    with pytest.raises(AttributeError):
        ev.session = "2"
    with pytest.raises(AttributeError):
        ev.note = ""


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
    assert events == [] and rejects == []


def test_parse_reads_a_quoted_first_header_field_after_a_byte_order_mark():
    quoted = '"session"' + HEADER[len("session"):]
    row = "1,s1,Deeds,100,110,2,3,4,5\n"
    got = parse_raw_log(io.StringIO("\ufeff" + quoted + row), COLUMN_MAP)
    assert got == parse_raw_log(io.StringIO(HEADER + row), COLUMN_MAP)
    assert len(got[0]) == 1 and got[1] == []


def test_parse_sums_interaction_columns():
    events, rejects = parse_raw_log(
        csv_of(["1,s1,Deeds,100,110,2,3,4,5"]), COLUMN_MAP
    )
    assert rejects == []
    assert events[0].mouse_clicks == 9
    assert events[0].keystrokes == 5
    assert events[0].mouse_clicks + events[0].keystrokes == 14
    assert events[0].end_time - events[0].start_time == 10.0


def test_parse_reads_a_lone_count_column():
    column_map = {**COLUMN_MAP, "mouse_clicks": []}
    rows = ["1,s1,Deeds,100,110,2,3,4,5", "1,s1,Deeds,100,110,2,3,4,x",
            "1,s1,Deeds,100,110,2,3,4,-5"]
    events, rejects = parse_raw_log(csv_of(rows), column_map)
    assert [(e.mouse_clicks, e.keystrokes) for e in events] == [(0, 5)]
    assert _rows(rejects) == [(2, "bad interaction count"), (3, "negative interaction count")]


def test_parse_rejects_any_negative_count_column_and_truncates_the_rest():
    # a group sum of 2 would hide the -3; int(float("-0.5")) would read as 0
    rows = ["1,s1,Deeds,100,110,-3,5,0,1", "1,s1,Deeds,100,110,0,0,0,-0.5",
            "1,s1,Deeds,100,110,0.9,5,0,7.9", "1,s1,Deeds,100,110,-0,0,0,-0.0"]
    events, rejects = parse_raw_log(csv_of(rows), COLUMN_MAP)
    assert [(e.mouse_clicks, e.keystrokes) for e in events] == [(5, 7), (0, 0)]
    assert _rows(rejects) == [(1, "negative interaction count"), (2, "negative interaction count")]


def test_parse_rejects_negative_duration():
    events, rejects = parse_raw_log(
        csv_of(["1,s1,Deeds,200,100,0,0,0,0"]), COLUMN_MAP
    )
    assert events == []
    assert len(rejects) == 1
    assert rejects[0].row_number == 1
    assert rejects[0].reason == "negative duration"


def test_parse_rejects_bad_timestamp():
    _, rejects = parse_raw_log(csv_of(["1,s1,Deeds,notatime,100,0,0,0,0"]), COLUMN_MAP)
    assert rejects[0].reason == "bad timestamp"


def test_parse_rejects_short_row():
    events, rejects = parse_raw_log(csv_of(["1,s1,Deeds,100"]), COLUMN_MAP)
    assert events == []
    assert rejects[0].reason == "short row"


def test_parse_accepts_datetime_strings():
    events, rejects = parse_raw_log(
        csv_of(["1,s1,Deeds,2014-11-26 14:14:19,2014-11-26 14:14:29.500000,0,0,0,0"]),
        COLUMN_MAP,
    )
    assert rejects == []
    assert events[0].end_time - events[0].start_time == pytest.approx(10.5)


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
    assert events == []
    assert _rows(rejects) == [(1, "bad timestamp")]


@pytest.mark.parametrize("count", ["1e400", "inf", "-inf", "-1e400"])
def test_parse_rejects_overflowing_counts(count):
    rows = [f"1,s1,Deeds,0,10,{count},0,0,0", f"1,s1,Deeds,0,10,0,0,0,{count}"]
    events, rejects = parse_raw_log(csv_of(rows), COLUMN_MAP)
    assert events == []
    assert _rows(rejects) == [(1, "bad interaction count"), (2, "bad interaction count")]


# --- timestamp fast path ---------------------------------------------------


def _full_chain(raw, fmt):
    """Reference: the full parser chain, without the fast path or the finite check."""
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
# Arabic-Indic digits pass strptime's \d but not the ASCII-only fast path.
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


@st.composite
def day_first_stamps(draw):
    """A canonical ``dd?mm?yyyy HH:MM:SS`` stamp with up to three parts swapped for odd ones."""
    dt = draw(st.datetimes(datetime(1, 1, 1), datetime(9999, 12, 31, 23, 59, 59)))
    sep = draw(st.sampled_from("./"))
    p = dict(day=f"{dt.day:02d}", month=f"{dt.month:02d}", year=f"{dt.year:04d}",
             hour=f"{dt.hour:02d}", minute=f"{dt.minute:02d}", second=f"{dt.second:02d}",
             sep=sep, sep2=sep, middle=" ", left="", right="")
    for part in draw(st.sets(st.sampled_from(sorted(_ODD_PARTS)), max_size=3)):
        p[part] = draw(st.sampled_from(_ODD_PARTS[part]))
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
@example("00.10.2019 09:00:00", None)
@example("02/10/2019 24:00:00", None)
@example("02.10.2019 09:00:60", None)
@example("2.10.2019 9:00:17", None)
@example(" 02.10.2019 09:00:17\t", None)
@example("\u0660\u0662.10.2019 09:00:17", None)
@example("02.10.2019 09:00:17", "%d/%m/%Y %H:%M:%S")
def test_timestamp_fast_path_matches_full_chain(raw, fmt):
    want = _finite(_outcome(_full_chain, raw, fmt))
    assert _outcome(_timestamp_reader(fmt), raw) == want


@settings(max_examples=300, deadline=None)
@given(st.lists(day_first_stamps(), max_size=40), st.randoms(use_true_random=False))
def test_shared_timestamp_tables_match_full_chain_stamp_by_stamp(stamps, rng):
    # repeats make later stamps hit table entries that earlier ones stored, odd ones included
    stamps = stamps + rng.sample(stamps, len(stamps))
    read = _timestamp_reader(None)
    got = [_outcome(read, raw) for raw in stamps]
    assert got == [_finite(_outcome(_full_chain, raw, None)) for raw in stamps]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(["7", " 7", "7.9", "1e400", "nan", "-3", "inf", "n/a", "",
                                 "-0", "12 "]), max_size=30))
def test_shared_count_table_matches_int_of_float_text_by_text(texts):
    count_of = _Table(_count).__getitem__
    got = [_outcome(count_of, text) for text in texts]
    assert got == [_outcome(lambda t: int(float(t)), text) for text in texts]


@settings(max_examples=300, deadline=None)
@given(st.datetimes(datetime(1, 1, 1), datetime(9999, 12, 31, 23, 59, 59)),
       st.sampled_from("./"))
def test_fast_path_answers_every_canonical_stamp(dt, sep):
    raw = (f"{dt.day:02d}{sep}{dt.month:02d}{sep}{dt.year:04d} "
           f"{dt.hour:02d}:{dt.minute:02d}:{dt.second:02d}")
    want = _full_chain(raw, None)
    day, hm, s = _stamp_parts(raw)
    assert repr(day + (hm + s)) == repr(want)
    assert repr(_timestamp_reader(None)(raw)) == repr(want)
    assert repr(_timestamp_reader(f"%d{sep}%m{sep}%Y %H:%M:%S")(raw)) == repr(want)


def _stamp_parts(raw):
    """The date, clock and seconds values the fast path reads for one stamp."""
    return _midnight(raw[:10]), _CLOCKS.get(raw[11:16]), _SECONDS.get(raw[17:])


def test_fast_path_values():
    read = _timestamp_reader(None)
    assert read("02.10.2019 09:00:17") == 1570006817.0
    assert read("02/10/2019 09:00:17") == 1570006817.0
    assert read("29.02.2020 23:59:59") == 1583020799.0
    assert _stamp_parts("02.10.2019 09:00:17") == (1569974400.0, 32400, 17)


@pytest.mark.parametrize("raw", [
    "02.10/2019 09:00:17",  # mixed separators
    "02.10.2019T09:00:17",
])
def test_fast_path_declines_other_shapes(raw):
    # the full chain reads neither shape, so an answer could only come from the fast path
    with pytest.raises(ValueError):
        _timestamp_reader(None)(raw)


# --- csv.DictReader parity ---------------------------------------------------


def test_parse_empty_file():
    assert parse_raw_log(io.StringIO(""), COLUMN_MAP) == ([], [])


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
    events, rejects = parse_raw_log(io.StringIO(text), COLUMN_MAP)
    assert len(events) == 2
    assert _rows(rejects) == [(2, "bad timestamp"), (3, "short row"), (4, "short row")]


def test_parse_duplicate_header_name_resolves_to_last_column():
    text = HEADER.rstrip("\n") + ",keys,activity\n" + "\n".join([
        "1,s1,Deeds,0,10,0,0,0,4,7,Aulaweb",
        "1,s1,Deeds,0,10,0,0,0,4,7",  # lacks the last activity column
    ]) + "\n"
    events, rejects = parse_raw_log(io.StringIO(text), COLUMN_MAP)
    assert [(e.keystrokes, e.activity) for e in events] == [(7, "Aulaweb")]
    assert _rows(rejects) == [(2, "short row")]


def test_parse_ignores_extra_fields():
    events, rejects = parse_raw_log(csv_of(["1,s1,Deeds,0,10,1,2,3,4,extra,,more"]), COLUMN_MAP)
    assert rejects == []
    assert (events[0].mouse_clicks, events[0].keystrokes) == (6, 4)


def test_parse_short_rows_keep_their_numbers():
    rows = ["1,s1,Deeds,0,10,0,0,0", "1", "1,s1,Deeds,0,10,0,0,0,0", ","]
    events, rejects = parse_raw_log(csv_of(rows), COLUMN_MAP)
    assert len(events) == 1
    assert _rows(rejects) == [(1, "short row"), (2, "short row"), (4, "short row")]


def test_parse_unbalanced_quote_names_the_row_where_it_opened():
    closed = '1,s1,"Deeds, quoted",0,10,0,0,0,0'
    events, rejects = parse_raw_log(csv_of([closed]), COLUMN_MAP)
    assert rejects == [] and events[0].activity == "Deeds, quoted"
    # blank lines are not numbered, so the runaway quote opens in data row 2
    rows = [closed, "", '1,s1,"Deeds,0,10,0,0,0,0', "1,s1,Deeds,0,10,0,0,0,0"]
    with pytest.raises(ValueError, match="data row 2: .* unbalanced double quote"):
        parse_raw_log(csv_of(rows), COLUMN_MAP)


# --- corpus building -------------------------------------------------------


def test_everything_filtered_drops_trace():
    result = build_corpora(
        [raw(dur=0.5)], ActivityMapping.default(), Schema.default(), FilterConfig()
    )
    assert result.corpora == {}
    assert result.filtered == 1
    assert result.dropped_traces == ["s1_1"]


def test_minimal_grouping_two_students():
    events = [raw(student="s1"), raw(student="s2")]
    result = build_corpora(
        events, ActivityMapping.default(), Schema.default(), FilterConfig()
    )
    assert list(result.corpora) == ["1"]
    corpus = result.corpora["1"]
    assert corpus.num_traces == 2
    assert [len(t) for t in corpus.traces] == [1, 1]
    assert [t.trace_id for t in corpus.traces] == ["s1_1", "s2_1"]


def test_sessions_split_into_separate_corpora():
    events = [raw(session="1"), raw(session="2"), raw(session="1", student="s2")]
    result = build_corpora(
        events, ActivityMapping.default(), Schema.default(), FilterConfig()
    )
    assert sorted(result.corpora) == ["1", "2"]
    assert result.corpora["1"].num_traces == 2
    assert result.corpora["2"].num_traces == 1


def test_tokens_keep_file_order():
    events = [
        raw(activity="Deeds", start=50.0, dur=20.0),
        raw(activity="Aulaweb", start=0.0, dur=5.0),
    ]
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
    for ev in events:
        tokens = per_session.setdefault(ev.session, {}).setdefault(
            f"{ev.student_id}_{ev.session}", [])
        duration = ev.end_time - ev.start_time
        if not filt.min_duration_s <= duration <= filt.max_duration_s:
            continue
        t_bin = discretize_duration(duration, schema, filt)
        if t_bin is not None:
            tokens.append(Token(map_activity(ev.activity, mapping), t_bin,
                                discretize_interaction(ev.mouse_clicks + ev.keystrokes, schema)))
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
    result = build_corpora(events, mapping, schema, filt)
    assert result.corpora == _corpora_with_fresh_tokens(events, mapping, schema, filt)
    tokens = [tok for c in result.corpora.values() for t in c.traces for tok in t.tokens]
    assert len({id(tok) for tok in tokens}) == len(set(tokens))
    assert len(set(tokens)) <= (
        schema.num_events * schema.num_time_bins * schema.num_interaction_levels)


def test_mapping_outside_schema_rejected():
    mapping = ActivityMapping((), default_index=99)
    with pytest.raises(ValueError):
        build_corpora([raw()], mapping, Schema.default(), FilterConfig())


def test_filter_config_validation():
    with pytest.raises(ValueError):
        FilterConfig(min_duration_s=0.0)
    with pytest.raises(ValueError):
        FilterConfig(min_duration_s=10.0, max_duration_s=5.0)
