"""Tests of the benchmark itself: the output checks reject corrupted job
documents, a smoke round of one job per workload passes them, and the
tracer's counts repeat exactly.

    python3 -m pytest perfbench/tests
"""

import copy
import json
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

from checks import Checker, direct_s1, hodge_slopes  # noqa: E402

SMOKE = [  # one job per workload
    ["lpoly", "--family", "2,1,1,1", "--prime", "5", "--lam", "1"],
    ["connection", "--family", "1,1,3,2"],
    ["frobenius", "--family", "1,1,1,1", "--prime", "5"],
]
EXTRA = [
    ["compare-polygons", "--family", "1,1,1,1", "--prime", "5", "--lam", "2"],
    ["reduce", "--family", "1,1,1,2", "--monomial=-2,2", "--ring", "rational"],
    ["reduce", "--family", "1,1,1,2", "--monomial=-2,2", "--ring", "prime",
     "--prime", "5", "--lam", "3"],
    ["frobenius-check", "--family", "1,1,1,1", "--prime", "3", "--lam", "2"],
]


def run_round(jobs, traced=False):
    out = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), repr(time.monotonic()), "1" if traced else "0",
         "python"],
        input=json.dumps(jobs), capture_output=True, text=True, check=True, timeout=300)
    return json.loads(out.stdout)


@pytest.fixture(scope="module")
def docs():
    report = run_round(SMOKE + EXTRA)
    assert [job["rc"] for job in report["jobs"]] == [0] * len(SMOKE + EXTRA)
    names = [argv[0] + ("-" + argv[5] if argv[0] == "reduce" else "") for argv in SMOKE + EXTRA]
    return {name: json.loads(job["stdout"]) for name, job in zip(names, report["jobs"])}


def problems(doc, before=()):
    checker = Checker()
    for earlier in before:
        assert checker.check(earlier["job"]["argv"], earlier) == []
    return checker.check(doc["job"]["argv"], doc)


def corrupt(doc, edit):
    doc = copy.deepcopy(doc)
    edit(doc["result"])
    return doc


def test_smoke_round_passes_every_check(docs):
    checker = Checker()
    for doc in docs.values():
        assert checker.check(doc["job"]["argv"], doc) == [], doc["job"]["argv"]


def test_hodge_slopes_from_lattice_count():
    assert hodge_slopes((2, 1, 1, 1)) == [0, Fraction(1, 2), 1, Fraction(3, 2), 2]
    assert hodge_slopes((1, 1, 2, 3)) == [0, 1, 1, 1, 1, 2]
    for family in [(1, 1, 2, 5), (2, 3, 1, 1), (1, 1, 3, 2)]:
        slopes = hodge_slopes(family)
        assert sorted(2 - s for s in slopes) == slopes


def test_direct_s1_by_hand():
    # p = 3, L = 1: the four torus points give traces 0, 2, 2, 2, so
    # S_1 = 1 + 3 zeta^2 = -2 - 3 zeta
    assert direct_s1((1, 1, 1, 1), 3, 1) == [-2, -3]


def test_changed_coefficient_is_rejected(docs):
    def edit(r):
        r["coeffs"][2]["coeffs"][0] += 1
    assert any("functional equation" in p for p in problems(corrupt(docs["lpoly"], edit)))


def test_changed_first_coefficient_fails_the_direct_count(docs):
    def edit(r):
        r["coeffs"][1]["coeffs"][0] += 5
    assert any("direct count" in p for p in problems(corrupt(docs["lpoly"], edit)))


def test_wrong_hodge_slope_is_rejected(docs):
    def edit(r):
        r["hodge_slopes"][1] = "1/3"
    assert any("lattice count" in p for p in problems(corrupt(docs["compare-polygons"], edit)))


def test_newton_below_hodge_is_rejected(docs):
    def edit(r):
        r["newton_slopes"] = ["-1/2"] + r["newton_slopes"][1:-1] + ["5/2"]
    found = problems(corrupt(docs["compare-polygons"], edit))
    assert any("below Hodge" in p for p in found)


def test_connection_mismatch_is_rejected(docs):
    def flag(r):
        r["equal"] = False

    def entry(r):
        r["companion"][-1][0] = ["7"]
    assert problems(corrupt(docs["connection"], flag))
    assert any("differ" in p for p in problems(corrupt(docs["connection"], entry)))


def test_prime_ring_reduction_must_match_rational_one(docs):
    def edit(r):
        v = sorted(r["coordinates"])[0]
        r["coordinates"][v] = (r["coordinates"][v] + 1) % 5
    found = problems(corrupt(docs["reduce-prime"], edit), before=[docs["reduce-rational"]])
    assert any("prime-ring coordinate" in p for p in found)
    assert problems(docs["reduce-prime"])  # no rational reduction to compare with


def test_frobenius_check_disagreement_is_rejected(docs):
    def verdict(r):
        r["agrees_to_margin"] = False

    def char_poly(r):
        coords = r["char_poly"][1]["rational_coords"]
        coords[0] = str(Fraction(coords[0]) + 1)

    def lpoly(r):
        r["l_polynomial"][1]["coeffs"][0] += 1

    def margin(r):
        r["margin_certified"] = r["pi_digits_requested"] - 1
    doc = docs["frobenius-check"]
    assert any("agree" in p for p in problems(corrupt(doc, verdict)))
    assert any("agree only" in p for p in problems(corrupt(doc, char_poly)))
    assert any("S_1" in p for p in problems(corrupt(doc, lpoly)))
    assert any("margin" in p for p in problems(corrupt(doc, margin)))


def test_frobenius_series_problems_are_rejected(docs):
    def residual(r):
        r["horizontality"]["variants"]["stated"] = r["margin_certified"] - 1

    def entry(r):
        r["matrix"][0][0][0]["rational_coords"][0] = "1/5"
    doc = docs["frobenius"]
    assert any("horizontality" in p for p in problems(corrupt(doc, residual)))
    assert any("pi-integral" in p for p in problems(corrupt(doc, entry)))


def test_traced_counts_repeat_exactly():
    first, second = run_round(SMOKE, traced=True), run_round(SMOKE, traced=True)
    counts = [name for name, unit in first["layer_units"].items() if unit != "s"]
    assert {n: first["layers"][n] for n in counts} == {n: second["layers"][n] for n in counts}
    layers = first["layers"]
    assert layers["lfunction.exp_sum_calls"] == 5  # degree of (2,1,1,1)
    assert layers["ffield.mul_calls"] > 0 and layers["reduction.steps"] > 0
    assert layers["frobenius.piadic_mul_calls"] > 0 and layers["frobenius.margin"] >= 8
    traced_wall = sum(job["seconds"] for job in first["jobs"])
    assert sum(v for n, v in layers.items() if first["layer_units"][n] == "s") <= traced_wall


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "count", "--seed", "1",
                          "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0 and out.stdout == ""
