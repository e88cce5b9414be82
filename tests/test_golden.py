"""Byte-identity guard: fast commands against stdout recorded in tests/golden/.

Each file holds the exact JSON document a command printed when it was
recorded. A refactor that keeps results must keep these bytes; a change that
means to alter an output re-records the file and says why.
"""

import argparse
from pathlib import Path

import pytest

from toricsums import cli

GOLDEN = Path(__file__).resolve().parent / "golden"

REDUCE = ["reduce", "--family", "1,1,1,2", "--monomial=-4,4"]
COMMANDS = {
    "basis": ["basis", "--family", "1,1,3,2"],
    "hodge": ["hodge", "--family", "2,1,1,3"],
    # face dets 2, 1, -6: ordinary_sufficient is true on two faces, false on one
    "ordinary": ["ordinary", "--family", "2,1,1,3", "--prime", "5"],
    "compare-polygons": ["compare-polygons", "--family", "1,1,1,1", "--prime", "3",
                         "--lam", "1"],
    "ode-solve": ["ode-solve", "--family", "2,1,1,1", "--order", "4"],
    "reduce-rational": REDUCE + ["--ring", "rational"],
    "reduce-prime": REDUCE + ["--ring", "prime", "--prime", "5", "--lam", "3"],
    "reduce-pilambda": REDUCE + ["--ring", "pilambda", "--prime", "5"],
    "connection": ["connection", "--family", "2,1,1,1"],
    # c, d > 1 in-box rewrites, with nontrivial gcds in the solve over Q(L)
    "connection-cd": ["connection", "--family", "1,1,3,2"],
    "gkz": ["gkz", "--family", "2,3,1,1"],
    "frobenius": ["frobenius", "--family", "1,1,1,1", "--prime", "3",
                  "--pi-digits", "3", "--lam-order", "6"],
    "frobenius-check": ["frobenius-check", "--family", "2,1,1,1", "--prime", "3",
                        "--lam", "1", "--pi-digits", "4"],
    # p > 3: PiAdic has p - 1 > 2 coordinates, so pi-power index arithmetic shows
    "frobenius-p5": ["frobenius", "--family", "1,1,1,1", "--prime", "5"],
    "frobenius-check-p7": ["frobenius-check", "--family", "1,1,1,1", "--prime", "7",
                           "--lam", "3"],
    # the heaviest frobenius job: six coordinates, the largest denominators
    "frobenius-p7": ["frobenius", "--family", "1,1,1,1", "--prime", "7"],
    # the longest default series: lam_order 2p + 10 = 32, ten coordinates
    "frobenius-p11": ["frobenius", "--family", "1,1,1,1", "--prime", "11"],
    # a*b > 1 as a series: the monomial basis has no flag to invert
    "frobenius-ab": ["frobenius", "--family", "2,1,1,1", "--prime", "5",
                     "--lam-order", "6"],
    # a*b > 1 at a point
    "frobenius-check-ab": ["frobenius-check", "--family", "1,2,1,1", "--prime", "3",
                           "--lam", "2"],
    # a*b > 1 at p > 3: the flag matrix at the point has a dense inverse
    "frobenius-check-ab-p5": ["frobenius-check", "--family", "2,1,1,1", "--prime", "5",
                              "--lam", "2"],
    # c*d > 1 at a point: the monomial basis needs no flag
    "frobenius-check-cd": ["frobenius-check", "--family", "1,1,1,2", "--prime", "5",
                           "--lam", "2"],
    "lpoly": ["lpoly", "--family", "2,1,1,1", "--prime", "5", "--lam", "1"],
    # several histogram chunks per field, uint8 cells
    "newton": ["newton", "--family", "1,2,1,1", "--prime", "5", "--lam", "2"],
    # 16-bit cells: 3(p - 1) = 264 > 255
    "sums": ["sums", "--family", "1,1,1,1", "--prime", "89", "--lam", "5", "--count", "2"],
    # q = 9 Frobenius orbits of rows, a parameter outside F_3, and c, d > 1
    "sums-atilde": ["sums", "--family", "1,1,2,5", "--prime", "3", "--lam", "5",
                    "--atilde", "2", "--count", "3"],
}


def test_every_golden_file_has_a_command():
    assert {f.stem for f in GOLDEN.glob("*.json")} == set(COMMANDS)


def test_every_subcommand_has_a_golden():
    sub, = (a for a in cli.build_parser()._actions
            if isinstance(a, argparse._SubParsersAction))
    assert {argv[0] for argv in COMMANDS.values()} == set(sub.choices)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_stdout_matches_golden(name, capsys):
    assert cli.main(COMMANDS[name]) == 0
    out, _ = capsys.readouterr()
    assert out == (GOLDEN / f"{name}.json").read_text()
