"""Set-up probe, run in a fresh interpreter: import hbtm.cli and run a first tiny fit.

    setup_probe.py OUT.json

Writes the probe's wall time and the calibration points taken just before
and just after it (see calibrate.py). Nothing but ``time`` and ``calibrate``
is imported before the timed region, so every module hbtm needs is loaded
inside it.
"""

import time

import calibrate

before = calibrate.point()
started = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import hbtm.cli  # noqa: E402

with open("schema.json", "w") as fh:
    json.dump(hbtm.core.Schema.default().to_dict(), fh)
with open("setup_corpus.jsonl", "w") as fh:
    fh.write('{"tokens":[[0,0,0],[1,1,1],[2,2,2]],"trace_id":"a"}\n'
             '{"tokens":[[3,3,3],[4,4,4]],"trace_id":"b"}\n')
rc = hbtm.cli.main(["fit", "--corpus", "setup_corpus.jsonl", "--traits", "2", "--sweeps", "2",
                    "--burn-in", "0", "--stride", "1", "--out", "setup_model.json"])
elapsed = time.perf_counter() - started
after = calibrate.point()
with open(sys.argv[1], "w") as fh:
    json.dump({"setup_s": elapsed, "calib": [before, after], "rc": rc}, fh)
