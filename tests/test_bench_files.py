"""Every BENCH_*.json at the repository root records a perf claim the same way.

A BENCH file holds the alternating parent/change pairs of ``perfbench/run.py``
behind one change: the claim with its win count, the quartiles of both sides
for every end-to-end metric that ``BENCHMARK.json`` declares on every
workload, the machine, and the projected paper-grid time. Where a file times
``sampler.load_fit_result``, ``analysis.run_analysis`` or ``hbtm ingest`` in
process, or each subcommand in a fresh process, each median must follow from
its rounds.
"""

import json
import math
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
END_TO_END = [m["name"] for m in BENCHMARK["end_to_end"]]
BETTER = {m["name"]: m["better"] for m in BENCHMARK["end_to_end"]}
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_the_repository_keeps_bench_files():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_carries_claim_quartiles_machine_and_grid(path):
    bench = json.loads(path.read_text())

    claim = bench["claim"]
    assert claim["workload"] in WORKLOADS
    assert claim["metric"] in END_TO_END
    assert isinstance(claim["pairs"], int) and claim["pairs"] >= 1
    assert isinstance(claim["change_wins"], int) and 0 <= claim["change_wins"] <= claim["pairs"]
    assert isinstance(claim["met"], bool)

    for workload in WORKLOADS:
        metrics = bench["workloads"][workload]["metrics"]
        for metric in END_TO_END:
            for side in ("parent", "change"):
                stats = metrics[metric][side]
                q1, median, q3 = (stats[key] for key in ("q1", "median", "q3"))
                assert all(isinstance(v, (int, float)) and math.isfinite(v) for v in (q1, median, q3))
                assert q1 <= median <= q3, (workload, metric, side)

    assert isinstance(bench["machine"], dict) and bench["machine"]
    assert isinstance(bench["projected_paper_grid"], dict) and bench["projected_paper_grid"]


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_claim_follows_from_the_recorded_quartiles(path):
    """``met``: the change wins 9 pairs in 10 and its median gap exceeds the parent's IQR."""
    bench = json.loads(path.read_text())
    claim = bench["claim"]
    metrics = bench["workloads"][claim["workload"]]["metrics"][claim["metric"]]
    parent, change = metrics["parent"], metrics["change"]
    sign = 1 if BETTER[claim["metric"]] == "higher" else -1
    assert metrics["better"] == BETTER[claim["metric"]]

    assert claim["median_gap"] == pytest.approx(sign * (change["median"] - parent["median"]))
    assert claim["parent_iqr"] == pytest.approx(parent["q3"] - parent["q1"])
    assert claim["change_wins"] == metrics["change_wins"]
    met = (claim["change_wins"] >= 0.9 * claim["pairs"]
           and claim["median_gap"] > claim["parent_iqr"])
    assert claim["met"] is met


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_projected_grid_follows_from_the_traced_us_per_token(path):
    """``sweep_only_s``: 6 sessions x 2000 sweeps x session tokens x the sum over K of µs/token."""
    grid = json.loads(path.read_text())["projected_paper_grid"]
    if "us_per_token" not in grid or "sweep_only_s" not in grid:
        return
    us, seconds = grid["us_per_token"], grid["sweep_only_s"]
    if "parent" in us:
        sides = [(us[side], seconds[side]) for side in ("parent", "change")]
    else:  # one projection for both sides
        sides = [(us, seconds)]
    for per_k, recorded in sides:
        assert recorded == pytest.approx(6 * 2000 * grid["session_tokens"] * sum(per_k.values()) / 1e6)


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_in_process_model_load_medians_follow_from_the_recorded_rounds(path):
    """``in_process_model_load``: each side's median ms per model is the median of its rounds."""
    block = json.loads(path.read_text()).get("in_process_model_load")
    if block is None:
        return
    assert block["every_float_equal"] is True
    for model, sides in block["models"].items():
        for side in ("parent", "change"):
            rounds = sides[side]["ms"]
            assert rounds and sides[side]["median_ms"] == pytest.approx(statistics.median(rounds)), \
                (model, side)


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_in_process_analysis_medians_follow_from_the_recorded_rounds(path):
    """``in_process_analysis``: each side's median ms per model is the median of its rounds."""
    block = json.loads(path.read_text()).get("in_process_analysis")
    if block is None:
        return
    assert block["every_report_equal"] is True
    for model, sides in block["models"].items():
        for side in ("parent", "change"):
            rounds = sides[side]["ms"]
            assert rounds and sides[side]["median_ms"] == pytest.approx(statistics.median(rounds)), \
                (model, side)


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_in_process_ingest_medians_follow_from_the_recorded_rounds(path):
    """``in_process_ingest``: each side's median ms per input is the median of its rounds."""
    block = json.loads(path.read_text()).get("in_process_ingest")
    if block is None:
        return
    assert block["every_output_equal"] is True
    assert sorted(block["inputs"]) == sorted(WORKLOADS)
    for name, sides in block["inputs"].items():
        digests = {sides[side]["output_sha256"] for side in ("parent", "change")}
        assert len(digests) == 1, name
        for side in ("parent", "change"):
            rounds = sides[side]["ms"]
            assert rounds and all(ms > 0 for ms in rounds), (name, side)
            assert sides[side]["median_ms"] == pytest.approx(statistics.median(rounds)), \
                (name, side)


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_fresh_process_medians_cover_every_subcommand_on_both_sides(path):
    """``fresh_process``: each subcommand's median seconds per process is positive, from its rounds."""
    block = json.loads(path.read_text()).get("fresh_process")
    if block is None:
        return
    assert block["bytecode"]
    commands = block["subcommands"]
    assert sorted(commands) == sorted(["fit", "ingest", "analyze", "export-trait", "generate"])
    for command, sides in commands.items():
        for side in ("parent", "change"):
            rounds = sides[side]["s"]
            assert rounds and all(s > 0 for s in rounds), (command, side)
            assert sides[side]["median_s"] == pytest.approx(statistics.median(rounds)), \
                (command, side)
            assert sides[side]["median_s"] > 0
