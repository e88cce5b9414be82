"""Benchmark of the toricsums CLI: counting, connection and Frobenius jobs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it imports toricsums from src/).
A workload is a fixed list of CLI jobs; the seed draws the deformation
residues. The benchmark first starts PROBES interpreters that only import
toricsums (set-up time), then runs whole rounds of the job list, each round
in a fresh interpreter (perfbench/child.py), until S seconds have passed.
Every job's JSON document is checked by perfbench/checks.py after the round.

With --trace 0 the last stdout line reports, as medians over the rounds:
  wall_s       sum over the jobs of the time from the call into
               toricsums.cli.main to its return (imports excluded), each
               job's time scaled to a reference host speed (see below)
  peak_rss_mb  ru_maxrss of the round's interpreter
  setup_s      time from starting an interpreter until toricsums.cli is
               imported (median over probes and rounds), scaled the same
               way by the Python loop timed right after the imports
With --trace 1 every untraced round is followed by a traced one, and the
line reports the per-layer metrics of perfbench/tracing.py (medians of the
traced rounds) with the traced and untraced wall times beside them.
Details go to perfbench/out/.

The speed of a shared host drifts by tens of percent within a minute. Each
round therefore times a fixed calibration loop of the kind of work that
dominates the workload (child.CALIBRATIONS: numpy histogram for count,
Fraction and dict arithmetic for the others) before every job and after the
last; a job's time is multiplied by the loop's reference duration over the
mean of the two loops around it. wall_s thus reads in seconds on a host
where the loop takes its reference duration, its median on the 2-core host
the README describes. The unscaled times are in the detail file, and the
unscaled sums also in the traced run's trace.untraced_wall_s.

A job fails when it exits non-zero or its document fails a check; `failed`
counts them. `correct` is false when a job's document differs between two
rounds of the same run, since every result is meant to be bit-reproducible.
"""

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from checks import Checker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
PROBES = 5
CHILD_TIMEOUT_S = 150
SINGLE_THREADED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
                   "PYTHONHASHSEED": "0"}


def count_jobs(rng):
    """Point counting to the L-polynomial: numpy histogram and the ffield
    tower. The last job meets the Hodge-weight fault for c < d, both above 1,
    and fails its check every time."""
    return [
        ["lpoly", "--family", "2,1,1,1", "--prime", "5", "--lam", str(rng.randrange(1, 5))],
        ["newton", "--family", "1,2,1,1", "--prime", "5", "--lam", str(rng.randrange(1, 5))],
        ["compare-polygons", "--family", "1,1,1,1", "--prime", "17",
         "--lam", str(rng.randrange(1, 17))],
        ["lpoly", "--family", "1,1,1,1", "--prime", "3", "--lam", str(rng.randrange(1, 9)),
         "--atilde", "2"],
        ["compare-polygons", "--family", "1,1,2,5", "--prime", "3",
         "--lam", str(rng.randrange(1, 3))],
    ]


def connection_jobs(rng):
    """Reduction over Q(L): monomial visiting order and RatFunc gcds. The
    families cover the in-box rewrite shapes c = d = 1, c = 1 < d, c, d > 1."""
    return [
        ["connection", "--family", "2,3,1,1"],
        ["connection", "--family", "3,2,1,1"],
        ["connection", "--family", "2,1,1,3"],
        ["connection", "--family", "1,1,3,2"],
        ["reduce", "--family", "1,1,1,2", "--monomial=-4,4", "--ring", "rational"],
        ["reduce", "--family", "1,1,1,2", "--monomial=-4,4", "--ring", "prime",
         "--prime", "5", "--lam", str(rng.randrange(1, 5))],
    ]


def frobenius_jobs(rng):
    """pi-adic Frobenius: PiAdic arithmetic and reduction over pi-adic
    scalars, counting only on small fields."""
    return [
        ["frobenius-check", "--family", "2,1,1,1", "--prime", "3",
         "--lam", str(rng.randrange(1, 3))],
        ["frobenius-check", "--family", "1,2,1,1", "--prime", "3",
         "--lam", str(rng.randrange(1, 3))],
        ["frobenius-check", "--family", "1,1,1,1", "--prime", "7",
         "--lam", str(rng.randrange(1, 7))],
        ["frobenius", "--family", "1,1,1,1", "--prime", "5"],
        ["frobenius", "--family", "1,1,1,1", "--prime", "7"],
    ]


# workload -> (job list from a seeded random.Random, calibration loop)
WORKLOADS = {"count": (count_jobs, "numpy"), "connection": (connection_jobs, "python"),
             "frobenius": (frobenius_jobs, "python")}


def run_child(jobs, calibration="python", traced=False, spans_path=None):
    """Run one round in a fresh interpreter and return its report."""
    env = dict(os.environ, **SINGLE_THREADED)
    cmd = [sys.executable, str(HERE / "child.py"), repr(time.monotonic()),
           "1" if traced else "0", calibration]
    if spans_path is not None:
        cmd.append(str(spans_path))
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(json.dumps(jobs), timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"a round did not finish within {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise SystemExit(f"round interpreter exited with {proc.returncode}:\n{err}")
    return json.loads(out)


def check_round(jobs, report):
    """Per-job problems of one round: exit code, then the document checks."""
    checker = Checker()
    problems = []
    for argv, job in zip(jobs, report["jobs"]):
        if job["rc"] != 0:
            problems.append([f"exit code {job['rc']}: {job['stderr'].strip()[-300:]}"])
            continue
        try:
            doc = json.loads(job["stdout"])
        except json.JSONDecodeError as exc:
            problems.append([f"stdout is not JSON: {exc}"])
            continue
        problems.append(checker.check(argv, doc))
    return problems


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "toricsums" / "cli.py").is_file():
        raise SystemExit(f"no toricsums sources under {ROOT / 'src'}; "
                         "run from the root of a source checkout")

    make_jobs, calibration = WORKLOADS[args.workload]
    jobs = make_jobs(random.Random(args.seed))
    traced = bool(args.trace)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}" + ("-trace" if traced else "")

    run_child([])  # compiles bytecode on a fresh checkout; not measured
    probes = [run_child([]) for _ in range(PROBES)]
    rounds, traced_rounds = [], []
    problems_seen = Counter()
    attempted = failed = 0
    documents = None
    correct = True
    start = time.monotonic()
    while not rounds or time.monotonic() - start < args.seconds:
        batch = [run_child(jobs, calibration)]
        if traced:
            batch.append(run_child(jobs, calibration, traced=True,
                                   spans_path=OUT / f"{stem}-spans.json"))
        for i, report in enumerate(batch):
            docs = [job["stdout"] for job in report["jobs"]]
            if documents is None:
                documents = docs
            elif docs != documents:
                correct = False
                print("job documents differ between rounds", file=sys.stderr)
            for argv, found in zip(jobs, check_round(jobs, report)):
                attempted += 1
                failed += bool(found)
                problems_seen.update((" ".join(argv), problem) for problem in found)
            (traced_rounds if i else rounds).append(report)

    for (job, problem), n in problems_seen.items():
        print(f"FAILED x{n}: {job}: {problem}", file=sys.stderr)

    def walls(reports):
        return [sum(job["seconds"] for job in r["jobs"]) for r in reports]

    def scaled_walls(reports):
        out = []
        for r in reports:
            cal, ref = r["calibration_s"], r["calibration_ref_s"]
            out.append(sum(job["seconds"] * 2 * ref / (before + after)
                           for job, before, after in zip(r["jobs"], cal, cal[1:])))
        return out

    set_ups = probes + rounds + traced_rounds

    def scaled_setups(reports):
        return [r["setup_s"] * r["setup_calibration_ref_s"] / r["setup_calibration_s"]
                for r in reports]

    metrics = {}
    if traced:
        for name in traced_rounds[0]["layers"]:
            metrics[name] = statistics.median(r["layers"][name] for r in traced_rounds)
        traced_wall, wall = statistics.median(walls(traced_rounds)), statistics.median(walls(rounds))
        metrics.update({"trace.wall_s": traced_wall, "trace.untraced_wall_s": wall,
                        "trace.overhead": traced_wall / wall})
        units = dict(traced_rounds[0]["layer_units"], **{
            "trace.wall_s": "s", "trace.untraced_wall_s": "s", "trace.overhead": "ratio"})
    else:
        metrics = {
            "wall_s": statistics.median(scaled_walls(rounds)),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
            "setup_s": statistics.median(scaled_setups(set_ups)),
        }
        units = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "jobs": jobs, "metrics": metrics, "setup_s": scaled_setups(set_ups),
        "unscaled_setup_s": [r["setup_s"] for r in set_ups],
        "rounds": [{"wall_s": w, "unscaled_wall_s": u, "peak_rss_mb": r["peak_rss_mb"],
                    "job_seconds": [j["seconds"] for j in r["jobs"]],
                    "calibration_s": r["calibration_s"]}
                   for w, u, r in zip(scaled_walls(rounds), walls(rounds), rounds)],
    }
    if traced:
        detail["traced_rounds"] = [{"wall_s": w, "layers": r["layers"], "spans": r["span_table"]}
                                   for w, r in zip(walls(traced_rounds), traced_rounds)]
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=1))

    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))


if __name__ == "__main__":
    main()
