import contextlib
import csv
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import hbtm
from hbtm.cli import _COMMANDS, build_parser, main

RAW_HEADER = "session,student,activity,start,end,wheel,click,keys\n"

COLUMN_MAP = {
    "session": "session",
    "student_id": "student",
    "activity": "activity",
    "start_time": "start",
    "end_time": "end",
    "mouse_clicks": ["wheel", "click"],
    "keystrokes": "keys",
}


def write_raw_csv(path, rows):
    path.write_text(RAW_HEADER + "".join(r + "\n" for r in rows))


def write_column_map(path):
    path.write_text(json.dumps(COLUMN_MAP))


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture
def generated(tmp_path):
    prefix = tmp_path / "syn"
    code = run([
        "generate", "--traits", 2, "--events", 4, "--time-bins", 3,
        "--interaction-levels", 2, "--traces", 6, "--tokens-per-trace", 8,
        "--seed", 5, "--out-prefix", prefix,
    ])
    assert code == 0
    return prefix


def test_generate_outputs_and_determinism(tmp_path):
    prefix = tmp_path / "a"
    argv = ["generate", "--traits", 3, "--traces", 4, "--tokens-per-trace", 5,
            "--seed", 1, "--out-prefix", prefix]
    outputs = (prefix.with_suffix(".jsonl"),
               tmp_path / "a.schema.json",
               tmp_path / "a.truth.json")
    assert run(argv) == 0
    first = [p.read_bytes() for p in outputs]
    assert run(argv) == 0
    assert [p.read_bytes() for p in outputs] == first
    truth = json.loads(outputs[2].read_text())
    assert truth["config"]["seed"] == 1
    assert len(truth["params"]["theta"]) == 4
    assert len(truth["assignments"]) == 4


def test_generate_default_dims_match_standard_schema(tmp_path):
    prefix = tmp_path / "d"
    assert run(["generate", "--traits", 2, "--traces", 2, "--tokens-per-trace", 3,
                "--seed", 0, "--out-prefix", prefix]) == 0
    schema = json.loads((tmp_path / "d.schema.json").read_text())
    assert len(schema["event_labels"]) == 15
    assert len(schema["time_bin_edges"]) == 8
    assert len(schema["interaction_bin_edges"]) == 6


def test_generate_zero_traces_fails(tmp_path, capsys):
    code = run(["generate", "--traits", 2, "--traces", 0, "--tokens-per-trace", 3,
                "--seed", 0, "--out-prefix", tmp_path / "x"])
    assert code != 0
    err = json.loads(capsys.readouterr().err.strip())
    assert "error" in err


def test_generate_with_an_infinite_concentration_is_a_json_error_and_writes_no_file(
        tmp_path, capsys):
    code = run(["generate", "--traits", 2, "--traces", 2, "--tokens-per-trace", 3,
                "--alpha", "inf", "--out-prefix", tmp_path / "o" / "g"])
    assert code == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "ValueError"
    assert err["detail"].startswith("alpha must be at least ")
    assert list(tmp_path.iterdir()) == []


def test_fit_and_rerun_byte_identical(tmp_path, generated):
    out = tmp_path / "m.json"
    argv = [
        "fit", "--corpus", generated.with_suffix(".jsonl"),
        "--schema", str(generated) + ".schema.json",
        "--traits", 2, "--sweeps", 12, "--burn-in", 6, "--stride", 2,
        "--seed", 3, "--out", out,
    ]
    assert run(argv) == 0
    first = out.read_bytes()
    assert run(argv) == 0
    assert out.read_bytes() == first
    model = json.loads(out.read_text())
    assert model["config"]["seed"] == 3
    assert model["config"]["traits"] == 2
    assert len(model["posterior"]["theta"]) == 6
    assert len(model["posterior"]["theta"][0]) == 2
    assert len(model["log_joint_trace"]) == 12


def test_fit_rejects_burn_in_past_sweeps(tmp_path, generated, capsys):
    code = run([
        "fit", "--corpus", generated.with_suffix(".jsonl"),
        "--schema", str(generated) + ".schema.json",
        "--traits", 2, "--sweeps", 5, "--burn-in", 5, "--out", tmp_path / "m.json",
    ])
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ValueError"


def test_fit_rejects_non_integer_token_components(tmp_path, generated, capsys):
    corpus = tmp_path / "c.jsonl"
    corpus.write_text('{"trace_id":"a","tokens":[[1.7,true,"3"]]}\n')
    code = run([
        "fit", "--corpus", corpus, "--schema", str(generated) + ".schema.json",
        "--traits", 2, "--out", tmp_path / "m.json",
    ])
    assert code == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "ValueError"
    assert f"{corpus}:1: malformed trace record" in err["detail"]
    assert not (tmp_path / "m.json").exists()


def test_ingest_end_to_end(tmp_path):
    raw = tmp_path / "raw.csv"
    write_raw_csv(raw, [
        "1,s1,Deeds_Es_1_1,0,30,1,1,5",
        "1,s1,TextEditor,40,41.5,0,1,3",
        "1,s2,Aulaweb,0,12,2,0,0",
        "2,s1,Blank,0,700,0,0,20",
        "1,s3,Other,0,0.4,0,0,0",
        "2,s2,Deeds,5,bogus,0,0,0",
    ])
    cmap = tmp_path / "cols.json"
    write_column_map(cmap)
    out_dir = tmp_path / "out"
    code = run(["ingest", "--raw", raw, "--column-map", cmap, "--out-dir", out_dir])
    assert code == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["parsed_rows"] == 6
    assert summary["rejected_rows"] == 1
    assert summary["raw_events"] == 5
    assert summary["tokenized"] == 4
    assert summary["filtered"] == 1
    assert summary["sessions"] == {"1": 2, "2": 1}
    assert summary["dropped_traces"] == ["s3_1"]
    assert summary["config"]["min_duration"] == 1.0
    assert (out_dir / "session_1.jsonl").exists()
    assert (out_dir / "session_2.jsonl").exists()
    rejects = (out_dir / "rejects.csv").read_text().splitlines()
    assert rejects[0] == "row_number,reason"
    assert rejects[1] == "6,bad timestamp"
    schema = json.loads((out_dir / "schema.json").read_text())
    assert len(schema["event_labels"]) == 15


def test_ingest_rejects_non_finite_timestamps_and_overflowing_counts(tmp_path):
    raw = tmp_path / "raw.csv"
    write_raw_csv(raw, [
        "1,s1,Deeds,nan,nan,1,1,5",
        "1,s1,Deeds,0,inf,1,1,5",
        "1,s1,Deeds,0,30,1e400,1,5",
        "1,s1,Deeds,0,30,1,1,inf",
        "1,s1,Aulaweb,0,12,2,0,0",
    ])
    cmap = tmp_path / "cols.json"
    write_column_map(cmap)
    out_dir = tmp_path / "out"
    assert run(["ingest", "--raw", raw, "--column-map", cmap, "--out-dir", out_dir]) == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert (summary["rejected_rows"], summary["raw_events"], summary["filtered"]) == (4, 1, 0)
    assert (out_dir / "rejects.csv").read_text().splitlines() == [
        "row_number,reason", "1,bad timestamp", "2,bad timestamp",
        "3,bad interaction count", "4,bad interaction count",
    ]


def test_ingest_rejects_every_row_with_a_negative_count_column(tmp_path):
    raw = tmp_path / "raw.csv"
    write_raw_csv(raw, [
        "1,s1,Deeds,0,30,-3,5,0",
        "1,s1,Deeds,0,30,0,0,-0.5",
        "1,s1,Deeds,0,30,1.9,0,2.5",
        "1,s1,Deeds,0,30,0,0,-7",
    ])
    cmap = tmp_path / "cols.json"
    write_column_map(cmap)
    out_dir = tmp_path / "out"
    assert run(["ingest", "--raw", raw, "--column-map", cmap, "--out-dir", out_dir]) == 0
    assert (out_dir / "rejects.csv").read_text().splitlines() == [
        "row_number,reason", "1,negative interaction count", "2,negative interaction count",
        "4,negative interaction count",
    ]
    summary = json.loads((out_dir / "summary.json").read_text())
    assert (summary["raw_events"], summary["interaction_counts"]) == (1, [0, 0, 1, 0, 0])


@pytest.mark.parametrize("num_rows", [3, 3000])
def test_ingest_unbalanced_quote_is_json_error(tmp_path, capsys, num_rows):
    raw = tmp_path / "raw.csv"
    write_raw_csv(raw, ['1,s1,"Deeds,0,30,1,1,5'] + [
        f"1,student_{i:04d},TextEditor_Es_{i:04d},0,30,1,1,5" for i in range(2, num_rows + 1)
    ])
    if num_rows > 3:  # the runaway field then passes csv's field-size limit
        assert raw.stat().st_size > csv.field_size_limit()
    cmap = tmp_path / "cols.json"
    write_column_map(cmap)
    code = run(["ingest", "--raw", raw, "--column-map", cmap, "--out-dir", tmp_path / "o"])
    assert code == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "ValueError"
    assert err["detail"].startswith("data row 1: ")
    assert "unbalanced double quote" in err["detail"]
    assert not (tmp_path / "o").exists()


def test_ingest_missing_column_names_it(tmp_path, capsys):
    raw = tmp_path / "raw.csv"
    write_raw_csv(raw, ["1,s1,Deeds,0,30,1,1,5"])
    cmap = tmp_path / "cols.json"
    cmap.write_text(json.dumps({**COLUMN_MAP, "keystrokes": "missing_col"}))
    code = run(["ingest", "--raw", raw, "--column-map", cmap, "--out-dir", tmp_path / "o"])
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert "missing_col" in err["detail"]


def test_ingest_rerun_byte_identical(tmp_path):
    raw = tmp_path / "raw.csv"
    write_raw_csv(raw, ["1,s1,Deeds_Es_1_1,0,30,1,1,5", "1,s2,Aulaweb,0,12,2,0,0"])
    cmap = tmp_path / "cols.json"
    write_column_map(cmap)
    out_dir = tmp_path / "out"
    argv = ["ingest", "--raw", raw, "--column-map", cmap, "--out-dir", out_dir]
    names = ("summary.json", "session_1.jsonl", "schema.json", "rejects.csv")
    assert run(argv) == 0
    first = [(out_dir / n).read_bytes() for n in names]
    assert run(argv) == 0
    assert [(out_dir / n).read_bytes() for n in names] == first


def test_a_reingest_removes_the_session_files_of_the_earlier_ingest(tmp_path):
    raw, cmap, out_dir = tmp_path / "raw.csv", tmp_path / "cols.json", tmp_path / "out"
    write_column_map(cmap)
    argv = ["ingest", "--raw", raw, "--column-map", cmap, "--out-dir", out_dir]
    write_raw_csv(raw, ["1,s1,Deeds,0,30,1,1,5", "2,s1,Deeds,0,30,1,1,5"])
    assert run(argv) == 0
    assert (out_dir / "session_2.jsonl").exists()
    (out_dir / "notes.txt").write_text("not an ingest output\n")
    write_raw_csv(raw, ["1,s1,Deeds,0,30,1,1,5"])
    assert run(argv) == 0
    assert json.loads((out_dir / "summary.json").read_text())["sessions"] == {"1": 1}
    assert sorted(p.name for p in out_dir.iterdir()) == [
        "notes.txt", "rejects.csv", "schema.json", "session_1.jsonl", "summary.json"]


@pytest.mark.parametrize("session", ["x/../../escaped", "a\0b"])
def test_ingest_refuses_a_session_id_that_is_not_a_file_name(tmp_path, capsys, session):
    raw, cmap, out_dir = tmp_path / "raw.csv", tmp_path / "cols.json", tmp_path / "out"
    write_column_map(cmap)
    write_raw_csv(raw, ["1,s1,Deeds,0,30,1,1,5", f"{session},s1,Deeds,0,30,1,1,5"])
    (out_dir / "session_x").mkdir(parents=True)
    (out_dir / "summary.json").write_text("an earlier summary\n")
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    assert run(["ingest", "--raw", raw, "--column-map", cmap, "--out-dir", out_dir]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert json.loads(line) == {"error": "ValueError",
                                "detail": f"session ids cannot name a file: {session!r}"}
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before


def test_a_byte_order_mark_before_a_csv_header_changes_no_output(tmp_path, generated):
    model = fit_small_model(tmp_path, generated)
    raw, cmap, grades = tmp_path / "raw.csv", tmp_path / "cols.json", tmp_path / "grades.csv"
    out_dir, report = tmp_path / "out", tmp_path / "report.json"
    write_column_map(cmap)
    texts = {raw: RAW_HEADER + "1,s1,Deeds,0,30,1,1,5\n2,s2,Aulaweb,0,12,2,0,0\n",
             grades: "trace_id,SA,SFE,FE\n"
             + "".join(f"trace_{m:04d},{m % 5},{m / 2},{50 + m}\n" for m in range(6))}
    commands = (["ingest", "--raw", raw, "--column-map", cmap, "--out-dir", out_dir],
                ["analyze", "--model", model, "--grades", grades, "--out", report])

    def outputs(mark):
        for path, text in texts.items():
            path.write_text(mark + text)
        shutil.rmtree(out_dir, ignore_errors=True)
        assert [run(argv) for argv in commands] == [0, 0]
        return {p.name: p.read_bytes() for p in [*out_dir.iterdir(), report]}

    assert outputs("\ufeff") == outputs("")


def fit_small_model(tmp_path, generated, out_name="model.json"):
    out = tmp_path / out_name
    assert run([
        "fit", "--corpus", generated.with_suffix(".jsonl"),
        "--schema", str(generated) + ".schema.json",
        "--traits", 2, "--sweeps", 12, "--burn-in", 6, "--stride", 2,
        "--seed", 3, "--out", out,
    ]) == 0
    return out


def test_analyze_end_to_end(tmp_path, generated):
    model = fit_small_model(tmp_path, generated)
    grades = tmp_path / "grades.csv"
    grades.write_text(
        "trace_id,SA,SFE,FE\n"
        + "".join(f"trace_{m:04d},{m % 5},{m / 2},{50 + m}\n" for m in range(6))
    )
    out = tmp_path / "report.json"
    argv = ["analyze", "--model", model, "--grades", grades, "--out", out]
    assert run(argv) == 0
    report = json.loads(out.read_text())
    assert report["config"]["threshold"] == 0.05
    assert set(report["ttests"]) == {"SA", "SFE", "FE"}
    assert len(report["correlations"]) == 2 * 3
    assert sorted(report["cluster_labels"]) == sorted(f"trace_{m:04d}" for m in range(6))

    first = out.read_bytes()
    assert run(argv) == 0
    assert out.read_bytes() == first


def test_analyze_rejects_a_model_whose_trace_ids_repeat(tmp_path, generated, capsys):
    model = fit_small_model(tmp_path, generated)
    payload = json.loads(model.read_text())
    payload["trace_ids"][1] = payload["trace_ids"][0]
    model.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    grades = tmp_path / "grades.csv"
    grades.write_text("trace_id,SA,SFE,FE\n"
                      + "".join(f"trace_{m:04d},{m % 5},{m / 2},{50 + m}\n" for m in range(6)))
    out = tmp_path / "report.json"
    assert run(["analyze", "--model", model, "--grades", grades, "--out", out]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert json.loads(line) == {"error": "ValueError",
                                "detail": "fit trace_id 'trace_0000' is repeated"}
    assert not out.exists()


def test_analyze_disjoint_ids(tmp_path, generated, capsys):
    model = fit_small_model(tmp_path, generated)
    grades = tmp_path / "grades.csv"
    grades.write_text("trace_id,SA,SFE,FE\nnobody,1,1,1\n")
    code = run(["analyze", "--model", model, "--grades", grades, "--out", tmp_path / "r.json"])
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert "empty join" in err["detail"]


def test_export_trait_one_based(tmp_path, generated):
    model = fit_small_model(tmp_path, generated)
    out = tmp_path / "trait.csv"
    assert run(["export-trait", "--model", model, "--trait", 2, "--out", out]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# config:")
    assert lines[1] == "kind,event_label,bin_index,probability"
    event_rows = [ln for ln in lines if ln.startswith("event,")]
    assert len(event_rows) == 4  # generated corpus has 4 event types
    assert len([ln for ln in lines if ln.startswith("time,")]) == 4 * 3
    assert len([ln for ln in lines if ln.startswith("interaction,")]) == 4 * 2


def test_export_trait_out_of_range(tmp_path, generated, capsys):
    model, out = fit_small_model(tmp_path, generated), tmp_path / "t.csv"
    for trait in (0, -1, 3):  # the model has 2 traits
        code = run(["export-trait", "--model", model, "--trait", trait, "--out", out])
        assert code == 1
        assert json.loads(capsys.readouterr().err.strip()) == {
            "error": "ValueError", "detail": f"trait {trait} outside [1, 2]"}
        assert not out.exists()


def test_unknown_flag_is_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        run(["generate", "--traits", 2, "--no-such-flag", 7])
    assert excinfo.value.code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "argument error"



def _parse_outcome(parse, argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        parse(argv)
    out, err = capsys.readouterr()
    return excinfo.value.code, out, err


@pytest.mark.parametrize("argv", [
    [], ["--help"], ["--bogus"], ["fitt"], ["fitt", "--help"],
    *([name, flag] for name in _COMMANDS for flag in ("--help", "--bogus")),
])
def test_help_and_argument_errors_match_the_full_parser(argv, capsys):
    # main builds only the invoked subcommand's parser; what it prints must not change
    full = _parse_outcome(build_parser().parse_args, argv, capsys)
    assert _parse_outcome(main, argv, capsys) == full
    assert full[1] or full[2]

def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps({
        "traits": 2, "traces": 3, "tokens_per_trace": 4, "seed": 9,
        "out_prefix": str(tmp_path / "from_file"),
    }))
    assert run(["generate", "--config", cfg]) == 0
    assert (tmp_path / "from_file.jsonl").exists()

    # flag overrides the file value
    assert run(["generate", "--config", cfg, "--out-prefix", tmp_path / "flagged"]) == 0
    assert (tmp_path / "flagged.jsonl").exists()
    truth = json.loads((tmp_path / "flagged.truth.json").read_text())
    assert truth["config"]["seed"] == 9
    assert truth["config"]["out_prefix"] == str(tmp_path / "flagged")


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps({"traits": 2, "bogus_key": 1}))
    code = run(["generate", "--config", cfg])
    assert code == 1
    assert "bogus_key" in json.loads(capsys.readouterr().err.strip())["detail"]


@pytest.mark.parametrize("text", ["[]", '["traits"]', "3"])
def test_config_file_that_is_not_an_object_is_json_error(tmp_path, capsys, text):
    cfg = tmp_path / "gen.json"
    cfg.write_text(text)
    assert run(["generate", "--config", cfg]) == 1
    assert json.loads(capsys.readouterr().err.strip()) == {
        "error": "TypeError", "detail": f"config file {cfg} must hold a JSON object"}


def test_config_value_of_wrong_type_is_json_error(tmp_path, generated, capsys):
    cfg = tmp_path / "fit.json"
    cfg.write_text(json.dumps({
        "corpus": str(generated.with_suffix(".jsonl")),
        "schema": str(generated) + ".schema.json",
        "traits": [1], "out": str(tmp_path / "m.json"),
    }))
    assert run(["fit", "--config", cfg]) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "TypeError"


@pytest.mark.parametrize("command, bad, key", [
    ("generate", {"tokens_per_trace": 4.0}, "tokens_per_trace"),
    ("fit", {"traits": 2.7, "seed": True, "sweeps": 4.9}, "traits"),
    ("analyze", {"threshold": True}, "threshold"),
    ("export-trait", {"trait": "1"}, "trait"),
    ("ingest", {"raw": 7}, "raw"),
])
def test_config_file_value_of_the_wrong_type_is_refused(tmp_path, generated, capsys,
                                                        command, bad, key):
    model = fit_small_model(tmp_path, generated)
    grades, raw, cmap = tmp_path / "grades.csv", tmp_path / "raw.csv", tmp_path / "cols.json"
    grades.write_text("trace_id,SA,SFE,FE\n"
                      + "".join(f"trace_{m:04d},{m % 5},{m / 2},{50 + m}\n" for m in range(6)))
    write_raw_csv(raw, ["1,s1,Deeds,0,30,1,1,5"])
    write_column_map(cmap)
    out = tmp_path / "out"
    valid = {
        "generate": {"traits": 2, "traces": 3, "tokens_per_trace": 4,
                     "out_prefix": str(out / "syn")},
        "fit": {"corpus": str(generated.with_suffix(".jsonl")),
                "schema": str(generated) + ".schema.json", "traits": 2, "sweeps": 4,
                "burn_in": 2, "stride": 1, "alpha": 1, "out": str(out / "m.json")},
        "analyze": {"model": str(model), "grades": str(grades), "threshold": 0.1,
                    "out": str(out / "report.json")},
        "export-trait": {"model": str(model), "trait": 1, "out": str(out / "trait.csv")},
        "ingest": {"raw": str(raw), "column_map": str(cmap), "min_duration": 1,
                   "out_dir": str(out)},
    }[command]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(valid))
    out.mkdir()
    assert run([command, "--config", cfg]) == 0
    shutil.rmtree(out)
    capsys.readouterr()

    cfg.write_text(json.dumps({**valid, **bad}))
    assert run([command, "--config", cfg]) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "TypeError"
    assert err["detail"].startswith(f"config key {key} must be ")
    assert not out.exists()


def test_fit_with_underflowing_hyperparameters_is_json_error(tmp_path, capsys):
    prefix = tmp_path / "tiny"
    assert run(["generate", "--traits", 3, "--traces", 4, "--tokens-per-trace", 5,
                "--out-prefix", prefix]) == 0
    code = run([
        "fit", "--corpus", prefix.with_suffix(".jsonl"), "--schema", str(prefix) + ".schema.json",
        "--traits", 6, "--alpha", 1e-120, "--beta", 1e-120, "--gamma", 1e-120,
        "--delta", 1e-120, "--out", tmp_path / "m.json",
    ])
    assert code == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "ValueError"
    assert "hyperparameters are too small" in err["detail"]
    assert not (tmp_path / "m.json").exists()


def _typed(config):
    return {key: (type(value).__name__, value) for key, value in config.items()}


def test_every_subcommand_embeds_its_full_config_with_the_defaults(tmp_path):
    prefix = tmp_path / "syn"
    assert run(["generate", "--traits", 2, "--traces", 6, "--tokens-per-trace", 4,
                "--out-prefix", prefix]) == 0
    truth = json.loads((tmp_path / "syn.truth.json").read_text())
    assert _typed(truth["config"]) == _typed({
        "traits": 2, "events": 15, "time_bins": 7, "interaction_levels": 5, "traces": 6,
        "tokens_per_trace": 4, "seed": 0, "alpha": 1.0, "beta": 0.1, "gamma": 0.1,
        "delta": 0.1, "out_prefix": str(prefix),
    })

    corpus, model = str(prefix) + ".jsonl", tmp_path / "m.json"
    schema = str(prefix) + ".schema.json"
    assert run(["fit", "--corpus", corpus, "--schema", schema, "--traits", 2,
                "--out", model]) == 0
    assert _typed(json.loads(model.read_text())["config"]) == _typed({
        "corpus": corpus, "schema": schema, "traits": 2, "sweeps": 2000, "burn_in": 1000,
        "stride": 10, "seed": 0, "alpha": 1.0, "beta": 0.1, "gamma": 0.1, "delta": 0.1,
        "audit_every": 0, "out": str(model),
    })

    grades, report = tmp_path / "grades.csv", tmp_path / "report.json"
    grades.write_text("trace_id,SA,SFE,FE\n"
                      + "".join(f"trace_{m:04d},{m % 5},{m / 2},{50 + m}\n" for m in range(6)))
    assert run(["analyze", "--model", model, "--grades", grades, "--out", report]) == 0
    assert _typed(json.loads(report.read_text())["config"]) == _typed({
        "model": str(model), "grades": str(grades), "threshold": 0.05, "seed": 0,
        "out": str(report),
    })

    profile = tmp_path / "trait.csv"
    assert run(["export-trait", "--model", model, "--trait", 1, "--out", profile]) == 0
    header = profile.read_text().splitlines()[0]
    assert header.startswith("# config: ")
    assert _typed(json.loads(header[len("# config: "):])) == _typed({
        "model": str(model), "trait": 1, "event_labels": "", "out": str(profile),
    })

    raw, cmap, out_dir = tmp_path / "raw.csv", tmp_path / "cols.json", tmp_path / "ingested"
    write_raw_csv(raw, ["1,s1,Deeds,0,30,1,1,5"])
    write_column_map(cmap)
    assert run(["ingest", "--raw", raw, "--column-map", cmap, "--out-dir", out_dir]) == 0
    assert _typed(json.loads((out_dir / "summary.json").read_text())["config"]) == _typed({
        "raw": str(raw), "column_map": str(cmap), "activity_map": "", "schema": "",
        "min_duration": 1.0, "max_duration": 14000.0, "out_dir": str(out_dir),
    })


def test_config_file_values_are_embedded_as_written(tmp_path, generated):
    out = tmp_path / "m.json"
    cfg = tmp_path / "fit.json"
    cfg.write_text(json.dumps({
        "corpus": str(generated.with_suffix(".jsonl")),
        "schema": str(generated) + ".schema.json",
        "traits": 2, "sweeps": 4, "burn_in": 2, "stride": 1, "alpha": 1, "out": str(out),
    }))
    assert run(["fit", "--config", cfg]) == 0
    model = json.loads(out.read_text())
    assert _typed(model["config"])["alpha"] == ("int", 1)
    assert _typed(model["diagnostics"]["config"]["hyper"])["alpha"] == ("float", 1.0)


def test_a_failed_rename_leaves_every_output_as_it_was(tmp_path, generated, monkeypatch, capsys):
    grades = tmp_path / "grades.csv"
    grades.write_text("trace_id,SA,SFE,FE\n"
                      + "".join(f"trace_{m:04d},{m % 5},{m / 2},{50 + m}\n" for m in range(6)))
    raw, cmap = tmp_path / "raw.csv", tmp_path / "cols.json"
    write_raw_csv(raw, ["1,s1,Deeds,0,30,1,1,5"])
    write_column_map(cmap)
    model = tmp_path / "model.json"
    runs = [  # (first run, flags a rerun adds to write new bytes over its outputs)
        (["generate", "--traits", 2, "--traces", 6, "--tokens-per-trace", 8,
          "--out-prefix", generated], ["--seed", 6]),
        (["fit", "--corpus", generated.with_suffix(".jsonl"),
          "--schema", str(generated) + ".schema.json", "--traits", 2, "--sweeps", 12,
          "--burn-in", 6, "--stride", 2, "--out", model], ["--seed", 4]),
        (["analyze", "--model", model, "--grades", grades, "--out", tmp_path / "report.json"],
         ["--seed", 1]),
        (["export-trait", "--model", model, "--trait", 1, "--out", tmp_path / "trait.csv"],
         ["--trait", 2]),
        (["ingest", "--raw", raw, "--column-map", cmap, "--out-dir", tmp_path / "ingested"],
         ["--min-duration", 2]),
    ]
    for argv, _ in runs:
        assert run(argv) == 0
    capsys.readouterr()
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}

    def failing_replace(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(os, "replace", failing_replace)
    for argv, change in runs:
        assert run(argv + change) == 1
        assert json.loads(capsys.readouterr().err.strip()) == {
            "error": "OSError", "detail": "rename failed"}
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before


def test_a_subnormal_hyperparameter_is_a_json_error_in_a_fresh_process(tmp_path, generated):
    # a fresh process, as a user runs it: in-process, pytest would turn the
    # log-gamma RuntimeWarning of a subnormal concentration into an error
    cfg, out = tmp_path / "cfg.json", tmp_path / "m.json"
    cfg.write_text(json.dumps({"alpha": 1e-320}))
    src = str(Path(hbtm.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    done = subprocess.run(
        [sys.executable, "-m", "hbtm.cli", "fit", "--config", str(cfg),
         "--corpus", str(generated.with_suffix(".jsonl")),
         "--schema", str(generated) + ".schema.json", "--traits", "2", "--sweeps", "3",
         "--burn-in", "0", "--stride", "1", "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 1
    lines = done.stderr.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "ValueError"
    assert err["detail"].startswith("alpha must be at least ")
    assert not out.exists()


NO_SCIPY = r"""
import sys
import hbtm.cli
raw, cmap, out_dir, prefix, model, trait = sys.argv[1:]
assert hbtm.cli.main(["ingest", "--raw", raw, "--column-map", cmap, "--out-dir", out_dir]) == 0
assert hbtm.cli.main(["generate", "--traits", "2", "--traces", "3", "--tokens-per-trace", "4",
                      "--out-prefix", prefix]) == 0
assert hbtm.cli.main(["export-trait", "--model", model, "--trait", "1", "--out", trait]) == 0
print(sorted(name for name in sys.modules if name.partition(".")[0] == "scipy"))
"""


def test_ingest_generate_and_export_trait_never_import_scipy(tmp_path, generated):
    # scipy's import is most of a short command's process time; only fit and analyze call it
    model = fit_small_model(tmp_path, generated)
    raw, cmap = tmp_path / "raw.csv", tmp_path / "cols.json"
    write_raw_csv(raw, ["1,s1,Deeds_Es_1_1,0,30,1,1,5", "1,s1,TextEditor,40,41.5,0,1,3"])
    write_column_map(cmap)
    src = str(Path(hbtm.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    done = subprocess.run(
        [sys.executable, "-c", NO_SCIPY, str(raw), str(cmap), str(tmp_path / "out"),
         str(tmp_path / "syn2"), str(model), str(tmp_path / "trait.csv")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["[]"]
    assert (tmp_path / "trait.csv").exists()


@pytest.mark.parametrize("grade, cell", [
    ("SFE", "nan"), ("SFE", "1e400"), ("SFE", "-inf"), ("SA", "nan"), ("FE", "inf"),
])
def test_a_non_finite_grade_is_a_json_error_and_writes_no_report(tmp_path, generated, capsys,
                                                                 grade, cell):
    model = fit_small_model(tmp_path, generated)
    grades = tmp_path / "grades.csv"
    rows = []
    for m in range(6):
        row = {"SA": str(m % 5), "SFE": str(m / 2), "FE": str(50 + m)}
        if m == 3:
            row[grade] = cell
        rows.append(f"trace_{m:04d},{row['SA']},{row['SFE']},{row['FE']}\n")
    grades.write_text("trace_id,SA,SFE,FE\n" + "".join(rows))
    out = tmp_path / "report.json"
    capsys.readouterr()
    assert run(["analyze", "--model", model, "--grades", grades, "--out", out]) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "ValueError"
    assert grade in err["detail"] and "trace_0003" in err["detail"]
    assert not out.exists()


def graded_model(tmp_path, generated):
    model = fit_small_model(tmp_path, generated)
    grades = tmp_path / "grades.csv"
    grades.write_text(
        "trace_id,SA,SFE,FE\n"
        + "".join(f"trace_{m:04d},{m % 5},{m / 2},{50 + m}\n" for m in range(6))
    )
    return model, grades


@pytest.mark.parametrize("threshold", ["nan", "inf", "-inf", "-0.5", "1.5"])
def test_a_threshold_outside_the_unit_interval_is_a_json_error_and_writes_no_report(
        tmp_path, generated, capsys, threshold):
    model, grades = graded_model(tmp_path, generated)
    out = tmp_path / "report.json"
    capsys.readouterr()
    argv = ["analyze", "--model", model, "--grades", grades, f"--threshold={threshold}",
            "--out", out]
    assert run(argv) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "ValueError" and "threshold" in err["detail"]
    assert not out.exists()


@pytest.mark.parametrize("flags, threshold", [([], 0.05), (["--threshold", "0"], 0.0),
                                              (["--threshold", "1"], 1.0)])
def test_a_threshold_in_the_unit_interval_writes_a_strict_json_report(tmp_path, generated,
                                                                      flags, threshold):
    model, grades = graded_model(tmp_path, generated)
    out = tmp_path / "report.json"
    assert run(["analyze", "--model", model, "--grades", grades, *flags, "--out", out]) == 0
    assert json.loads(out.read_text(), parse_constant=_refuse_constant)["threshold"] == threshold


@pytest.fixture(scope="module")
def four_token_corpus(tmp_path_factory):
    prefix = tmp_path_factory.mktemp("surface") / "syn"
    assert run(["generate", "--traits", 2, "--events", 3, "--time-bins", 2,
                "--interaction-levels", 2, "--traces", 2, "--tokens-per-trace", 2,
                "--seed", 8, "--out-prefix", prefix]) == 0
    return prefix


EDGE_FLOATS = (0.0, -1.0, 5e-324, sys.float_info.min, 1e308, math.nan, math.inf, -math.inf)
CONFIG_VALUES = st.one_of(
    st.sampled_from(EDGE_FLOATS),
    st.sampled_from((0.1, 1.0, 3)),  # ordinary values, so that fits succeed too
    st.text(max_size=3), st.booleans(), st.none(),
    st.lists(st.floats(allow_nan=False), max_size=2),
)


def _refuse_constant(name):
    raise ValueError(f"{name} is not strict JSON")


@settings(max_examples=300, deadline=None)
@given(traits=st.integers(-1, 6), sweeps=st.integers(-1, 4), burn_in=st.integers(0, 3),
       stride=st.integers(1, 2),
       hyper=st.dictionaries(st.sampled_from(("alpha", "beta", "gamma", "delta")), CONFIG_VALUES,
                             max_size=2))
@example(traits=2, sweeps=3, burn_in=0, stride=1, hyper={"alpha": 5e-324})
@example(traits=6, sweeps=3, burn_in=0, stride=1, hyper={"gamma": sys.float_info.min})
@example(traits=3, sweeps=2, burn_in=1, stride=1, hyper={"beta": 1e308, "delta": math.inf})
@example(traits=1, sweeps=1, burn_in=0, stride=1, hyper={"alpha": 1e308})  # log joint NaN
def test_every_fit_config_fits_or_is_one_json_error(four_token_corpus, traits, sweeps, burn_in,
                                                    stride, hyper):
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "cfg.json", Path(tmp) / "model.json"
        out.write_bytes(b"an earlier model\n")
        cfg.write_text(json.dumps({
            "corpus": str(four_token_corpus.with_suffix(".jsonl")),
            "schema": str(four_token_corpus) + ".schema.json",
            "traits": traits, "sweeps": sweeps, "burn_in": burn_in, "stride": stride,
            "out": str(out), **hyper,
        }))
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main(["fit", "--config", str(cfg)])
        lines = stderr.getvalue().splitlines()
        event("fit" if code == 0 else "error")
        if code == 0:
            assert lines == []
            model = json.loads(out.read_text(), parse_constant=_refuse_constant)
            assert len(model["log_joint_trace"]) == sweeps
            assert all(math.isfinite(x) for x in model["log_joint_trace"])
        else:
            assert code == 1 and len(lines) == 1
            assert not json.loads(lines[0])["error"].endswith("Warning")
            assert out.read_bytes() == b"an earlier model\n"


# --- model files: the number scanner against json ------------------------------


def _first_number(text, key, new):
    """``text`` with the first number after ``"key": `` replaced by ``new``."""
    match = re.compile(r"-?[0-9][0-9.eE+-]*").search(text, text.index(f'"{key}": '))
    return text[:match.start()] + new + text[match.end():]


def _posterior_member(text):
    """The bounds of ``,\\n  "posterior": {...}`` in a model file as save_json writes it."""
    start = text.index(',\n  "posterior": {')
    return start, text.index("\n  }", start) + len("\n  }")


def _moved_posterior(text, into):
    start, end = _posterior_member(text)
    return into(text[:start] + text[end:], text[start:end])


def _second_posterior(text, before):
    # theta's first and last rows swapped, so using the wrong copy changes every output
    start, end = _posterior_member(text)
    member = text[start:end]
    theta = member.index('"theta": ') + len('"theta": ')
    rows = json.loads(member[theta:member.rindex("]") + 1])
    rows[0], rows[-1] = rows[-1], rows[0]
    other = member[:theta] + json.dumps(rows, indent=2).replace("\n", "\n    ") + "\n  }"
    return text[:start] + (other + member if before else member + other) + text[end:]


# (name, edit of the canonical model text, whether the scanner reads its posterior)
MODEL_EDITS = [
    ("canonical", lambda t: t, True),
    ("nan", lambda t: _first_number(t, "theta", "NaN"), False),
    ("infinity", lambda t: _first_number(t, "phi", "Infinity"), False),
    ("1e400", lambda t: _first_number(t, "psi", "1e400"), False),
    ("integer", lambda t: _first_number(t, "tau", "1"), False),
    ("leading-zero", lambda t: _first_number(t, "theta", "01.5"), False),
    ("bare-fraction", lambda t: _first_number(t, "theta", ".5"), False),
    ("plus-sign", lambda t: _first_number(t, "theta", "+1.0"), False),
    ("trailing-comma", lambda t: t.replace("\n      ]", ",\n      ]", 1), False),
    ("ragged-theta", lambda t: re.sub(r'("theta": \[\n      \[\n        )[^,]*,\s*', r"\1", t),
     False),
    ("empty-theta", lambda t: re.sub(r'"theta": \[.*?\n    \]', '"theta": []', t, flags=re.S),
     False),
    ("duplicate-posterior-after", lambda t: _second_posterior(t, before=False), False),
    ("duplicate-posterior-before", lambda t: _second_posterior(t, before=True), False),
    ("extra-posterior-key", lambda t: t.replace('\n    "phi": ', '\n    "extra": [1.0],\n    "phi": '),
     False),
    ("compact", lambda t: json.dumps(json.loads(t)), False),
    ("crlf", lambda t: t.replace("\n", "\r\n"), False),
    ("crlf-in-config", lambda t: t.replace('\n    "', '\r\n    "', 3), True),
    ("non-ascii-in-config", lambda t: t.replace('"corpus": "', '"corpus": "\u00e9\\u00e9', 1), True),
    ("nul-in-config", lambda t: t.replace('"corpus": "', '"corpus": "\\u0000', 1), False),
    ("escaped-backslash-in-config", lambda t: t.replace('"corpus": "', '"corpus": "\\\\u0000', 1),
     False),
    ("non-stochastic-row", lambda t: _first_number(t, "theta", "0.999"), True),
    ("posterior-nested", lambda t: _moved_posterior(t, lambda rest, p: rest.replace(
        "{", '{\n  "wrapper": {"a": 1.0' + p + "},", 1)), False),
    ("posterior-in-a-string", lambda t: _moved_posterior(t, lambda rest, p: rest.replace(
        "{", '{\n  "wrapper": "a' + p + '",', 1)), False),
    ("posterior-first", lambda t: _moved_posterior(t, lambda rest, p: rest.replace(
        "{", "{" + p + ",", 1)), False),
    ("posterior-alone", lambda t: _moved_posterior(t, lambda rest, p: "{" + p + "\n}\n"), False),
    ("posterior-in-an-array", lambda t: _moved_posterior(t, lambda rest, p: "[1.0" + p + ", 2.0]\n"),
     False),
    ("undecodable-byte-after-posterior", lambda t: t.replace('"trace_0005"', '"trace_0005\udcff"'),
     False),
] + [
    (f"truncated-{fraction}", lambda t, f=fraction: t[:int(len(t) * f)], False)
    for fraction in (0.05, 0.3, 0.6, 0.9, 0.99)
] + [
    ("truncated-in-theta-close", lambda t: t[:t.index("\n  }") + 1], False),
    ("truncated-before-last-brace", lambda t: t.rstrip()[:-1], False),
]


@pytest.mark.parametrize("name, edit, scanned", MODEL_EDITS, ids=[e[0] for e in MODEL_EDITS])
def test_model_files_read_alike_with_and_without_the_scanner(tmp_path, generated, monkeypatch,
                                                            capsys, name, edit, scanned):
    if hbtm.sampler._library() is None:
        pytest.skip("no compiled library")
    model = fit_small_model(tmp_path, generated)
    model.write_bytes(edit(model.read_text()).encode(errors="surrogateescape"))
    assert (hbtm.sampler._scan_fit(model.read_bytes()) is not None) == scanned
    grades = tmp_path / "grades.csv"
    grades.write_text("trace_id,SA,SFE,FE\n"
                      + "".join(f"trace_{m:04d},{m % 5},{m / 2},{50 + m}\n" for m in range(6)))
    report, profile = tmp_path / "report.json", tmp_path / "trait.csv"
    commands = (["analyze", "--model", model, "--grades", grades, "--out", report],
                ["export-trait", "--model", model, "--trait", 2, "--out", profile])

    def outcomes():
        seen = []
        for argv, out in zip(commands, (report, profile)):
            out.unlink(missing_ok=True)
            code = run(argv)
            seen.append((code, capsys.readouterr().err, out.read_bytes() if code == 0 else None))
        return seen

    with_scanner = outcomes()
    with monkeypatch.context() as patch:
        patch.setattr(hbtm.sampler, "_library", lambda: None)
        assert hbtm.sampler._scan_fit(model.read_bytes()) is None
        assert outcomes() == with_scanner
    for code, err, _ in with_scanner:
        assert code == 0 or len(err.splitlines()) == 1
