"""hbtm benchmark: one workload per invocation, every output checked.

    python3 perfbench/run.py --workload session-fit --seed 1 --seconds 25 --trace 0

Builds the workload's inputs from the seed (cached under perfbench/work by
workload and seed, outside any timed region), times set-up in fresh
processes, runs the workload in one fresh worker process, checks every
output, and prints the metrics by name with their units. The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``. ``--workload all``
runs the three workloads in turn. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "work"
SETUP_PROBES = 7
CACHED_SEEDS = 3  # input sets kept per workload
DEADLINE_S = 170.0  # a run must finish within 180 s


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_hbtm() -> None:
    """Import hbtm from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import hbtm
    except ImportError as exc:
        _fail(f"cannot import hbtm from {src}: {exc}")
    if not Path(hbtm.__file__).resolve().is_relative_to(src.resolve()):
        _fail(f"hbtm imported from {hbtm.__file__}, not from {src}")


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def machine_block() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        commit = ""
    src_hash = hashlib.sha256()
    for path in sorted((ROOT / "src/hbtm").rglob("*.py")):
        src_hash.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        src_hash.update(path.read_bytes())
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit or "unknown",
        "src_hbtm_sha256": src_hash.hexdigest(),
    }


def cached_inputs(workload, seed: int) -> tuple[Path, dict]:
    """The run directory for (workload, seed), with its inputs built once."""
    from workloads import build_inputs

    run_dir = WORK / f"{workload.name}-seed{seed}"
    ready = run_dir / "inputs/expected.json"
    if not ready.is_file():
        shutil.rmtree(run_dir, ignore_errors=True)
        staging = WORK / f".staging-{workload.name}-{seed}"
        shutil.rmtree(staging, ignore_errors=True)
        staging.mkdir(parents=True)
        build_inputs(workload, staging, seed)
        run_dir.mkdir(parents=True)
        staging.rename(run_dir / "inputs")
    os.utime(run_dir)
    others = sorted((p for p in WORK.glob(f"{workload.name}-seed*") if p != run_dir),
                    key=lambda p: p.stat().st_mtime, reverse=True)
    for stale in others[CACHED_SEEDS - 1:]:
        shutil.rmtree(stale, ignore_errors=True)
    return run_dir, json.loads(ready.read_text())


def _child(script: str, args: list[str], cwd: Path, started: float) -> None:
    budget = DEADLINE_S - (time.perf_counter() - started)
    try:
        proc = subprocess.run([sys.executable, str(BENCH / script), *args], cwd=cwd,
                              env=_child_env(), timeout=max(budget, 1.0))
    except subprocess.TimeoutExpired:
        _fail(f"{script} did not finish within the {DEADLINE_S:.0f} s deadline")
    if proc.returncode != 0:
        _fail(f"{script} exited with code {proc.returncode}")


def measure_setup(started: float) -> list[float]:
    """Reference-speed seconds of each fresh-process set-up probe."""
    setup_dir = WORK / "setup"
    shutil.rmtree(setup_dir, ignore_errors=True)
    setup_dir.mkdir(parents=True)
    values = []
    for _ in range(SETUP_PROBES):
        _child("setup_probe.py", ["setup.json"], setup_dir, started)
        probe = json.loads((setup_dir / "setup.json").read_text())
        if probe["rc"] != 0:
            _fail("the set-up fit failed")
        values += calibrate.scaled([(0.0, probe["setup_s"])], probe["calib"], [])
    return values


def run_workload(name: str, seed: int, seconds: int, trace: bool, started: float) -> dict:
    from tracer import layer_metrics
    from workloads import WORKLOADS, check_step, plan

    if name not in WORKLOADS:
        _fail(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[name]
    run_dir, expected = cached_inputs(workload, seed)
    setup_s = measure_setup(started)

    the_plan = plan(workload, expected)
    the_plan.update(seconds=seconds, trace=trace)
    (run_dir / "plan.json").write_text(json.dumps(the_plan))
    _child("worker.py", ["plan.json", "result.json"], run_dir, started)
    result = json.loads((run_dir / "result.json").read_text())
    reps = result["reps"] + result.get("traced_reps", [])

    # Every repetition must reproduce the last one byte for byte, and the
    # last one's files must pass the checks.
    steps = the_plan["steps"]
    final = reps[-1]
    problems = []
    verdict = []
    for index, step in enumerate(steps):
        found = [] if final["steps"][index]["rc"] == 0 else [f"{step['argv'][0]}: exit code"]
        found = found or check_step(workload, run_dir, expected, step)
        problems += found
        verdict.append(not found)
    failed = 0
    for rep in reps:
        for index, step in enumerate(steps):
            same = all(rep["digests"][f] == final["digests"][f] for f in step["outputs"])
            if rep["steps"][index]["rc"] != 0 or not same or not verdict[index]:
                failed += 1
    attempted = len(reps) * len(steps)

    def seconds_of(times, command):
        return sum(t for t, st in zip(times, steps) if st["argv"][0] == command)

    def per_rep(fn, scaled=True) -> float:
        """Median over untraced repetitions of fn(step times), at reference speed."""
        values = []
        for rep in result["reps"]:
            if scaled:
                times = calibrate.scaled([(s["t0"], s["s"]) for s in rep["steps"]],
                                         rep["calib"], result["samples"])
            else:
                times = [s["s"] for s in rep["steps"]]
            values.append(fn(times))
        return statistics.median(values)

    fit_work = expected["fit_tokens"] * workload.sweeps * len(workload.traits)
    end_to_end = {
        "setup_s": statistics.median(setup_s),
        "wall_s": per_rep(sum),
        "fit_tokens_per_s": per_rep(lambda t: fit_work / seconds_of(t, "fit")),
        "analyze_s": per_rep(lambda t: seconds_of(t, "analyze") + seconds_of(t, "export-trait")),
        "ingest_rows_per_s": per_rep(lambda t: expected["rows"] / seconds_of(t, "ingest")),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    raw_wall_s = per_rep(sum, scaled=False)
    report = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "repetitions": len(result["reps"]),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "problems": problems,
        "setup_samples_s": setup_s,
        "raw_wall_s": raw_wall_s,
        "digests": final["digests"],
        "end_to_end": end_to_end,
    }
    if trace:
        spans = json.loads((run_dir / "spans.json").read_text())
        layers = layer_metrics(spans, raw_wall_s, result["samples"])
        layers["generator.generate.tokens_per_s"] = generator_rate(seed)
        report["traced_repetitions"] = len(result["traced_reps"])
        report["per_layer"] = layers
    return report


def generator_rate(seed: int, traces: int = 20, tokens: int = 250) -> float:
    """Tokens per second through ``generator.generate`` on a small 8-trait corpus."""
    from hbtm import core, generator

    schema = core.Schema.default()
    params = generator.sample_params(8, traces, schema, core.Hyperparams(), seed)
    t0 = time.perf_counter()
    generator.generate(params, [tokens] * traces, seed, schema)
    return traces * tokens / (time.perf_counter() - t0)


def _print_report(report: dict, units: dict) -> None:
    print(f"== {report['workload']}  seed {report['seed']}  {report['seconds']} s  "
          f"repetitions {report['repetitions']}"
          + (f" + {report['traced_repetitions']} traced" if report["trace"] else ""))
    for metric, value in report["end_to_end"].items():
        print(f"  {metric:<40} {value:>16.6g} {units[metric]}")
    print(f"  {'wall_s unscaled':<40} {report['raw_wall_s']:>16.6g} s")
    print(f"  {'failed_frac':<40} {report['failed_frac']:>16.6g} "
          f"({report['failed']} of {report['attempted']} operations)")
    for metric, value in report.get("per_layer", {}).items():
        print(f"  {metric:<40} {value:>16.6g} {units[metric]}")
    for problem in report["problems"]:
        print(f"  CHECK FAILED: {problem}")
    for path, digest in report["digests"].items():
        print(f"  sha256 {digest} {path}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.perf_counter()
    # One core for the benchmark and its children, so the calibration samples
    # run on the core whose speed they stand for.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    _import_hbtm()
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer"] + spec["end_to_end"]}
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    machine = machine_block()
    print("machine " + json.dumps(machine, sort_keys=True))
    reports = []
    for name in names:
        report = run_workload(name, args.seed, args.seconds, bool(args.trace), started)
        started = time.perf_counter()
        report["machine"] = machine
        _print_report(report, units)
        results = WORK / "results"
        results.mkdir(parents=True, exist_ok=True)
        out = results / f"{name}-seed{args.seed}-trace{args.trace}.json"
        out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        reports.append(report)

    def pick(report):
        source = report["per_layer"] if args.trace else report["end_to_end"]
        return {m: {"value": v, "unit": units[m]} for m, v in source.items()}

    if len(reports) == 1:
        metrics = pick(reports[0])
    else:
        metrics = {f"{r['workload']}.{m}": v for r in reports for m, v in pick(r).items()}
    print(json.dumps({
        "correct": all(r["failed"] == 0 for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
