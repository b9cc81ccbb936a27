"""One workload process: runs ``hbtm.cli.main`` subcommands one after another.

Started by ``run.py`` in a fresh interpreter, with the run directory as the
working directory so every path the outputs embed is relative and the same
on every checkout:

    worker.py PLAN.json OUT.json

It repeats the plan's CLI steps until the time budget is spent (always at
least once). It records each call's start, wall time and exit code, the
calibration points taken before the first call and after every call, the
samples of a calibration thread (see calibrate.py), and the sha256 of every
output file after each repetition. With tracing on, the first half of the
budget runs untraced and the second half inside the tracer; the spans go
to ``spans.json``.
"""

from __future__ import annotations

import hashlib
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import calibrate


def _call(main, argv: list[str]) -> int:
    try:
        return int(main(argv) or 0)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash is a failed operation, not the end of the run
        traceback.print_exc()
        return 1


def _digests(outputs: list[str]) -> dict[str, str | None]:
    found = {}
    for name in outputs:
        path = Path(name)
        found[name] = hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None
    return found


def _repeat(plan: dict, seconds: float, tracer=None) -> list[dict]:
    import hbtm.cli

    reps = []
    begun = time.perf_counter()
    while True:
        shutil.rmtree("out", ignore_errors=True)
        Path("out").mkdir()
        steps = []
        calib = [calibrate.point()]

        def run_steps():
            for step in plan["steps"]:
                argv = step["argv"]
                t0 = time.perf_counter()
                if tracer is None:
                    rc = _call(hbtm.cli.main, argv)
                else:
                    rc = tracer.span(f"cli.{argv[0]}", _call, hbtm.cli.main, argv)
                steps.append({"t0": t0, "s": time.perf_counter() - t0, "rc": rc})
                calib.append(calibrate.point())

        t0 = time.perf_counter()
        if tracer is None:
            run_steps()
        else:
            tracer.span("rep", run_steps)
        rep_s = time.perf_counter() - t0
        reps.append({"steps": steps, "calib": calib, "digests": _digests(plan["outputs"])})
        # stop unless one more repetition ends within half a repetition of the budget
        if time.perf_counter() - begun + rep_s / 2 > seconds:
            return reps


def _run(plan_path: Path, out: Path) -> None:
    plan = json.loads(plan_path.read_text())
    untraced_s = plan["seconds"] / 2 if plan["trace"] else plan["seconds"]
    with calibrate.Sampler() as sampler:
        result = {"reps": _repeat(plan, untraced_s)}
        if plan["trace"]:
            from tracer import Tracer, instrument

            tracer = Tracer()
            instrument(tracer)
            try:
                result["traced_reps"] = _repeat(plan, plan["seconds"] / 2, tracer)
            finally:
                tracer.restore()
            Path("spans.json").write_text(json.dumps(tracer.spans))
    result["samples"] = sampler.samples
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out.write_text(json.dumps(result))


if __name__ == "__main__":
    _run(Path(sys.argv[1]), Path(sys.argv[2]))
