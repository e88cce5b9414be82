"""One round of benchmark jobs in a fresh interpreter.

    python3 perfbench/child.py SPAWN_TIME TRACE CALIBRATION [SPANS_PATH] < jobs.json

SPAWN_TIME is the parent's time.monotonic() just before it started this
process, so setup_s covers interpreter start-up and the toricsums imports.
stdin holds a JSON list of CLI argument lists; an empty list only measures
set-up. Each job is toricsums.cli.main(argv) in this process with stdout
and stderr captured; its time runs from the call into main to its return.
The CALIBRATION loop (a key of CALIBRATIONS) is timed before each job and
after the last one, and the Python loop once after the imports, so the
parent can scale job and set-up times to a reference host speed.
With TRACE = 1 the layer tracer is installed first and, when SPANS_PATH is
given, the raw spans are written there at the end. One JSON object goes to
stdout.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import toricsums.cli  # noqa: E402

READY = time.monotonic()

import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402

import numpy as np  # noqa: E402


def calibrate_python():
    """Seconds for a fixed amount of Fraction and dict arithmetic, the mix of
    reduction and pi-adic code, with the collector off so the heap left by
    earlier jobs does not change it."""
    gc.disable()
    try:
        start = time.perf_counter()
        acc, table = Fraction(0), {}
        for i in range(1, 3000):
            acc += Fraction(i % 97, i % 89 + 1) * Fraction(3, 7)
            key = (i % 61, i % 7)
            table[key] = table.get(key, 0) + i
        return time.perf_counter() - start
    finally:
        gc.enable()


def calibrate_numpy(n=2048):
    """Seconds for one n x n gather, add, mod and bincount over int64 arrays
    of 32 MB, the shape of the counting histogram."""
    idx = np.arange(n, dtype=np.int64)
    table = (idx * 7) % 5
    start = time.perf_counter()
    cells = table[(3 - idx[:, None] - 2 * idx[None, :]) % n]
    np.bincount(((table[:, None] + cells) % 5).ravel(), minlength=5)
    return time.perf_counter() - start


# loop and its median duration on the reference host (seconds)
CALIBRATIONS = {"python": (calibrate_python, 0.023), "numpy": (calibrate_numpy, 0.100)}


def run_job(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = toricsums.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash inside a job fails that job, not the round
            rc = -1
            err.write(traceback.format_exc())
        seconds = time.perf_counter() - start
    return {"seconds": seconds, "rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


def main():
    spawn, traced = float(sys.argv[1]), sys.argv[2] == "1"
    calibrate, reference_s = CALIBRATIONS[sys.argv[3]]
    spans_path = sys.argv[4] if len(sys.argv) > 4 else None
    jobs = json.load(sys.stdin)
    tracer = None
    if traced:
        from tracing import COUNTS, Tracer
        tracer = Tracer()
        tracer.install()
    setup_loop, setup_ref = CALIBRATIONS["python"]
    report = {"setup_s": READY - spawn, "setup_calibration_s": setup_loop(),
              "setup_calibration_ref_s": setup_ref,
              "jobs": [], "calibration_s": [], "calibration_ref_s": reference_s}
    for argv in jobs:
        report["calibration_s"].append(calibrate())
        report["jobs"].append(run_job(argv))
    if jobs:
        report["calibration_s"].append(calibrate())
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        report["layers"] = tracer.layer_metrics()
        report["layer_units"] = {name: COUNTS.get(name, "s") for name in report["layers"]}
        report["span_table"] = tracer.self_times()
        if spans_path:
            names = sorted({s[0] for s in tracer.spans})
            index = {n: i for i, n in enumerate(names)}
            with open(spans_path, "w") as fh:
                json.dump({"fields": ["name", "parent", "start_s", "end_s"], "names": names,
                           "spans": [[index[n], parent, start, end]
                                     for n, parent, start, end in tracer.spans]}, fh)
    json.dump(report, sys.stdout)


if __name__ == "__main__":
    main()
