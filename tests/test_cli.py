"""End-to-end checks of the command line tool."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricsums import cli, frobenius, gkz, lfunction, reduction
from toricsums.cyclotomic import CycloInt
from toricsums.ratfunc import Laurent


def run(capsys, argv):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 0, err
    doc = json.loads(out)
    assert doc["job"]["tool"] == "toricsums"
    assert doc["job"]["argv"] == argv
    assert doc["job"]["version"]
    return doc


def test_main_builds_the_parser_once(capsys, monkeypatch):
    # a known command builds its own parser once per process, and never the
    # full parser of all commands
    real, built = cli.command_parser, []

    def counted(name):
        built.append(name)
        return real(name)

    def unreachable():
        raise AssertionError("a known command built the full parser")

    monkeypatch.setattr(cli, "_parsers", {})
    monkeypatch.setattr(cli, "command_parser", counted)
    monkeypatch.setattr(cli, "build_parser", unreachable)
    for _ in range(3):
        run_json(capsys, ["basis", "--family", "1,1,1,1"])
        run_json(capsys, ["hodge", "--family", "1,1,1,1"])
    assert built == ["basis", "hodge"]


def exit_of(capsys, call):
    with pytest.raises(SystemExit) as info:
        call()
    out, err = capsys.readouterr()
    return info.value.code, out, err


@pytest.mark.parametrize("argv", [
    [name] + tail for name in cli.COMMANDS
    for tail in (["-h"], [], ["--family", "1,1,1,1", "--no-such-option"],
                 ["--family", "1,1,1,1", "--format", "xml"])
] + [[], ["-h"], ["no-such-command"], ["--", "basis", "--family", "1,1,1,1"]], ids=" ".join)
def test_usage_help_and_errors_are_those_of_the_full_parser(capsys, argv):
    expected = exit_of(capsys, lambda: cli.build_parser().parse_args(argv))
    assert exit_of(capsys, lambda: cli.main(argv)) == expected


def test_importing_the_cli_loads_neither_numpy_nor_dataclasses_nor_inspect():
    # numpy is imported when a count runs, so the other commands never load
    # it; the records are plain classes, so no command loads dataclasses or
    # the inspect module it pulls in. The baseline is a bare interpreter
    # started the same way, so modules a site hook loads count on both sides.
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

    def modules(code):
        proc = subprocess.run([sys.executable, "-c", f"import sys{code}; print(*sys.modules)"],
                              capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
                              timeout=60)
        assert proc.returncode == 0, proc.stderr
        return set(proc.stdout.split())

    added = modules(", toricsums.cli") - modules("")
    assert "toricsums.cli" in added
    assert sorted(m for m in added if m.split(".")[0] in ("numpy", "dataclasses", "inspect")) == []


def test_basis_json(capsys):
    doc = run_json(capsys, ["basis", "--family", "1,1,2,3"])
    assert doc["job"]["command"] == "basis"
    res = doc["result"]
    assert res["count"] == 6
    assert [-1, -2] in res["basis"]
    assert res["family"]["degree"] == 6


def test_hodge_json(capsys):
    doc = run_json(capsys, ["hodge", "--family", "1,1,1,1"])
    res = doc["result"]
    assert res["weights"] == ["0", "1", "2"]
    assert res["polygon"]["slopes"] == ["0", "1", "2"]


def test_ordinary_json(capsys):
    doc = run_json(capsys, ["ordinary", "--family", "1,1,1,1", "--prime", "3"])
    res = doc["result"]
    assert res["guaranteed_ordinary"] is True
    assert len(res["faces"]) == 3


def test_sums_hand_value(capsys):
    doc = run_json(capsys, ["sums", "--family", "1,1,1,1", "--prime", "3",
                            "--lam", "1", "--count", "1"])
    s1 = doc["result"]["sums"][0]
    assert s1["k"] == 1
    assert s1["value"]["zeta_p"] == 3
    # S_1 = sum over the 4 torus points of zeta**(x1+x2+1/(x1 x2))
    assert s1["value"]["coeffs"] == [-2, -3]


def test_lpoly_degree(capsys):
    doc = run_json(capsys, ["lpoly", "--family", "1,1,1,1", "--prime", "3",
                            "--lam", "1"])
    res = doc["result"]
    assert res["degree"] == 3
    assert len(res["coeffs"]) == 4
    assert res["coeffs"][0]["coeffs"] == [1, 0]


def test_compare_polygons(capsys):
    doc = run_json(capsys, ["compare-polygons", "--family", "1,1,1,1",
                            "--prime", "3", "--lam", "1"])
    res = doc["result"]
    assert res["equal"] is True
    assert res["newton_dominates_hodge"] is True


def test_reduce_roundtrip(capsys):
    doc = run_json(capsys, ["reduce", "--family", "2,1,1,1",
                            "--monomial", "4,2:3", "--monomial", "0,0"])
    res = doc["result"]
    assert res["verified"] is True
    assert set(res["coordinates"]) <= {"0,0", "1,0", "1,1", "2,0", "2,1"}


def test_reduce_prime_ring(capsys):
    doc = run_json(capsys, ["reduce", "--family", "1,1,1,1",
                            "--monomial", "2,2", "--ring", "prime",
                            "--prime", "5", "--lam", "2"])
    res = doc["result"]
    assert res["verified"] is True
    assert all(isinstance(v, int) for v in res["coordinates"].values())


RINGS = [["--ring", "rational"], ["--ring", "prime", "--prime", "5", "--lam", "2"],
         ["--ring", "pilambda", "--prime", "5"]]


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r[1])
@pytest.mark.parametrize("family, monomial, message", [
    ("1,1,1,2", "-400,400", "monomial -400,400 has weight 1600, over the cap of 200"),
    ("1,1,1,2", "-51,51", "monomial -51,51 has weight 204"),
    ("1,1,1,1", "-201,-201", "monomial -201,-201 has weight 201"),
])
def test_oversized_reduce_monomial_exits_2_before_any_rewrite(capsys, monkeypatch, ring,
                                                               family, monomial, message):
    def unreachable(*args, **kwargs):
        raise AssertionError("a rewrite was begun before the weight cap")

    monkeypatch.setattr(cli, "reduce_to_basis", unreachable)
    code, out, err = run(capsys, ["reduce", "--family", family, "--monomial", "1,1",
                                  f"--monomial={monomial}"] + ring)
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["kind"] == "precondition" and message in error["message"]


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r[1])
@pytest.mark.parametrize("family, monomial", [
    ("1,1,1,2", "-50,50"), ("1,1,1,1", "-200,-200"), ("1,1,3,2", "-600,-400")])
def test_the_reduce_weight_cap_admits_its_boundary(monkeypatch, ring, family, monomial):
    def begun(*args, **kwargs):
        raise AssertionError("a rewrite was begun")

    monkeypatch.setattr(cli, "reduce_to_basis", begun)
    with pytest.raises(AssertionError, match="rewrite was begun"):
        cli.main(["reduce", "--family", family, f"--monomial={monomial}"] + ring)


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r[1])
def test_oversized_reduce_pi_digits_exits_2_before_any_rewrite(capsys, monkeypatch, ring):
    def unreachable(*args, **kwargs):
        raise AssertionError("a rewrite was begun before the pi-digits cap")

    monkeypatch.setattr(cli, "reduce_to_basis", unreachable)
    code, out, err = run(capsys, ["reduce", "--family", "1,1,1,1", "--monomial", "2,2",
                                  "--pi-digits", str(cli.MAX_PI_DIGITS + 1)] + ring)
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["kind"] == "precondition"
    assert error["message"] == "pi_digits 65537 is over the cap of 65536 = 2^16"


def test_the_reduce_pi_digits_cap_admits_its_boundary(monkeypatch):
    def begun(*args, **kwargs):
        raise AssertionError("a rewrite was begun")

    monkeypatch.setattr(cli, "reduce_to_basis", begun)
    with pytest.raises(AssertionError, match="rewrite was begun"):
        cli.main(["reduce", "--family", "1,1,1,1", "--monomial", "2,2", "--ring", "pilambda",
                  "--prime", "3", "--pi-digits", str(cli.MAX_PI_DIGITS)])


def test_a_prime_over_the_cap_exits_2(capsys):
    # 2^40 + 15 is prime; it is refused before any trial division
    code, out, err = run(capsys, ["ordinary", "--family", "1,1,1,1",
                                  "--prime", "1099511627791"])
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["kind"] == "precondition"
    assert error["message"] == "1099511627791 is over the prime cap of 1099511627776 = 2^40"


def test_the_prime_cap_admits_a_prime_below_it(capsys):
    doc = run_json(capsys, ["ordinary", "--family", "1,1,1,1", "--prime", str(2 ** 40 - 87)])
    assert doc["result"]["prime"] == 2 ** 40 - 87


def test_a_pilambda_prime_over_the_cap_exits_2_before_any_pi_adic_value(capsys, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("a pi-adic value was built before the pilambda prime cap")

    monkeypatch.setattr(frobenius.PiAdic, "pi", unreachable)
    monkeypatch.setattr(frobenius.PiAdic, "one", unreachable)
    # 65537 = 2^16 + 1 is the first prime over the cap
    code, out, err = run(capsys, ["reduce", "--family", "1,1,1,1", "--monomial", "2,2",
                                  "--ring", "pilambda", "--prime", "65537"])
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["kind"] == "precondition"
    assert error["message"] == "prime 65537 is over the pilambda cap of 65536 = 2^16"


def test_the_pilambda_prime_cap_admits_a_prime_below_it(capsys):
    doc = run_json(capsys, ["reduce", "--family", "1,1,1,1", "--monomial", "2,2",
                            "--ring", "pilambda", "--prime", "65521", "--pi-digits", "2"])
    assert doc["result"]["verified"] is True
    for coord in doc["result"]["coordinates"].values():
        for c in coord.values():
            assert c["pi_relation"] == "pi^65520 = -65521"
            assert len(c["rational_coords"]) == 65520


# with the cutoff given, no work bound of the splitting product refuses a large p
CAP_ARGS = ["--family", "1,1,1,1", "--lam-order", "0", "--pi-digits", "0", "--cutoff", "0"]


def test_a_frobenius_prime_over_the_cap_exits_2_before_any_pi_adic_value(capsys, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("a pi-adic value was built before the frobenius prime cap")

    monkeypatch.setattr(frobenius.PiAdic, "pi", unreachable)
    monkeypatch.setattr(frobenius.PiAdic, "one", unreachable)
    code, out, err = run(capsys, ["frobenius", "--prime", "65537"] + CAP_ARGS)
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["kind"] == "precondition"
    assert error["message"] == "prime 65537 is over the pi-adic cap of 65536 = 2^16"


def test_the_frobenius_prime_cap_admits_a_prime_below_it(capsys):
    doc = run_json(capsys, ["frobenius", "--prime", "65521"] + CAP_ARGS)
    assert doc["result"]["prime"] == 65521 and doc["result"]["lam_order"] == 0
    assert len(doc["result"]["matrix"]) == 3


@pytest.mark.parametrize("family, degree", [("1,1,64,64", 129), ("10,11,1,1", 131)])
def test_a_family_over_the_degree_cap_exits_2_before_any_work(capsys, monkeypatch,
                                                              family, degree):
    def unreachable(*args, **kwargs):
        raise AssertionError("the flag was begun before the degree cap")

    monkeypatch.setattr(reduction, "flag_columns", unreachable)
    code, out, err = run(capsys, ["connection", "--family", family])
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["kind"] == "precondition"
    assert error["message"] == f"family {family} has degree {degree}, over the cap of 128"


def test_the_degree_cap_admits_its_boundary(capsys):
    doc = run_json(capsys, ["basis", "--family", "1,1,63,64"])
    assert doc["result"]["family"]["degree"] == cli.MAX_DEGREE == 128
    assert doc["result"]["count"] == 128


def test_connection_equals_companion(capsys):
    doc = run_json(capsys, ["connection", "--family", "2,1,1,1"])
    assert doc["result"]["equal"] is True


def test_connection_names_the_row_a_wrong_companion_breaks(capsys, monkeypatch):
    # the flag matrix of (1,1,1,1) is lower triangular with a nonzero
    # diagonal, so a change in the last companion entry shows first in row 2
    real = reduction.companion_matrix

    def perturbed(params):
        rows = real(params)
        rows[-1][-1] = rows[-1][-1] + 1
        return rows

    monkeypatch.setattr(reduction, "companion_matrix", perturbed)
    code, out, err = run(capsys, ["connection", "--family", "1,1,1,1"])
    assert code == 4 and out == ""
    error = json.loads(err)["error"]
    assert error["kind"] == "invariant"
    assert error["message"].startswith("row 2 of F c = t (basis monomial ")


def test_connection_refuses_a_singular_flag(capsys, monkeypatch):
    # with B = 0 every flag class after the first, the class of 1, is zero:
    # F is singular, and the zero companion row still solves F c = t = 0
    real_companion = reduction.companion_matrix

    def zero_connection(params, pi, lam):
        return [[Laurent()] * params.degree for _ in range(params.degree)]

    def zero_last_row(params):
        rows = real_companion(params)
        rows[-1] = [Laurent()] * len(rows)
        return rows

    monkeypatch.setattr(reduction, "basis_connection", zero_connection)
    monkeypatch.setattr(reduction, "companion_matrix", zero_last_row)
    code, out, err = run(capsys, ["connection", "--family", "2,1,1,1"])
    assert code == 4 and out == ""
    error = json.loads(err)["error"]
    assert error["kind"] == "invariant"
    assert error["message"].startswith("the derivative flag is singular")


def test_gkz_operator(capsys):
    doc = run_json(capsys, ["gkz", "--family", "1,1,1,1"])
    res = doc["result"]
    assert res["relation_generator"] == [1, 1, 1]
    assert res["indicial_roots"] == ["0", "0", "0"]


def test_ode_solve(capsys):
    doc = run_json(capsys, ["ode-solve", "--family", "1,1,1,1", "--order", "4"])
    res = doc["result"]
    assert res["count"] == 3
    widths = sorted(s["log_width"] for s in res["solutions"])
    assert widths == [3, 3, 3]


def test_ode_solve_prints_integers_of_any_size(capsys):
    # Python's int-to-str conversion stops at 4300 digits unless told otherwise
    doc = run_json(capsys, ["ode-solve", "--family", "1,1,1,1", "--order", "600"])
    tables = [s["table"] for s in doc["result"]["solutions"]]
    assert max(len(c) for table in tables for row in table for c in row) > 4300


@pytest.mark.parametrize("family, order, message", [
    ("2,1,1,1", "2000", "order 2000 needs order^2 W = 100000000 at summed log width "
     "W = 25, over the cap of 4194304 = 2^22"),
    ("1,1,1,1", "1820", "order 1820 needs order^2 W = 29811600 at summed log width W = 9"),
    ("1,1,1,1", "683", "order 683 needs order^2 W = 4198401"),
    ("2,1,1,1", "410", "order 410 needs order^2 W = 4202500"),
    # one class of width 127: order^2 W = 258064 is under its cap, order V is not
    ("3,31,1,1", "4", "order 4 needs order V = 8193532 at summed cubed class width "
     "V = 2048383, over the cap of 2097152 = 2^21"),
    ("3,31,1,1", "2", "order 2 needs order V = 4096766"),
])
def test_oversized_ode_order_exits_2_before_any_table(capsys, monkeypatch,
                                                      family, order, message):
    def unreachable(*args, **kwargs):
        raise AssertionError("a log-series table was begun before the order cap")

    monkeypatch.setattr(gkz, "_taylor_coefficients", unreachable)
    code, out, err = run(capsys, ["ode-solve", "--family", family, "--order", order])
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["kind"] == "precondition" and message in error["message"]


@pytest.mark.parametrize("family, order", [("1,1,1,1", "682"), ("2,1,1,1", "409"),
                                           ("2,3,1,1", "186"), ("3,31,1,1", "1")])
def test_the_ode_order_cap_admits_its_boundary(monkeypatch, family, order):
    def begun(*args, **kwargs):
        raise AssertionError("a log-series table was begun")

    monkeypatch.setattr(gkz, "_taylor_coefficients", begun)
    with pytest.raises(AssertionError, match="log-series table was begun"):
        cli.main(["ode-solve", "--family", family, "--order", order])


def test_frobenius_low_precision(capsys):
    doc = run_json(capsys, ["frobenius", "--family", "1,1,1,1", "--prime", "3",
                            "--pi-digits", "3", "--lam-order", "6"])
    res = doc["result"]
    assert res["margin_certified"] >= 3
    assert res["horizontality"]["variants"]["stated"] == "zero" or \
        res["horizontality"]["variants"]["stated"] >= res["margin_certified"]


def test_table_format(capsys):
    code, out, err = run(capsys, ["basis", "--family", "1,1,1,1",
                                  "--format", "table"])
    assert code == 0
    assert "count" in out
    assert "{" not in out


def test_bad_family_exits_2(capsys):
    code, out, err = run(capsys, ["basis", "--family", "2,2,1,1"])
    assert code == 2
    assert out == ""
    doc = json.loads(err)
    assert doc["error"]["kind"] == "precondition"


def test_malformed_family_exits_2(capsys):
    code, _, err = run(capsys, ["basis", "--family", "1,2,3"])
    assert code == 2
    assert json.loads(err)["error"]["kind"] == "precondition"


def test_bad_prime_exits_2(capsys):
    code, _, err = run(capsys, ["ordinary", "--family", "1,1,2,1", "--prime", "2"])
    assert code == 2
    assert json.loads(err)["error"]["kind"] == "precondition"


@pytest.mark.parametrize("argv", [
    ["frobenius", "--family", "1,1,1,1"],
    ["frobenius-check", "--family", "1,1,1,1", "--lam", "2"],
    ["reduce", "--family", "1,1,1,1", "--monomial", "2,2", "--ring", "prime", "--lam", "2"],
    ["reduce", "--family", "1,1,1,1", "--monomial", "2,2", "--ring", "pilambda"],
    ["ordinary", "--family", "1,1,1,1"],
])
def test_composite_prime_exits_2(capsys, argv):
    code, out, err = run(capsys, argv + ["--prime", "9"])
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["message"] == "9 is not prime"


@pytest.mark.parametrize("atilde", ["0", "-1"])
def test_atilde_below_one_exits_2(capsys, atilde):
    code, out, err = run(capsys, ["lpoly", "--family", "1,1,1,1", "--prime", "3",
                                  "--lam", "1", "--atilde", atilde])
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["message"] == f"atilde must be >= 1, got {atilde}"


def test_hodge_with_asymmetric_weights_exits_4(capsys):
    code, out, err = run(capsys, ["hodge", "--family", "1,1,2,3"])
    assert code == 4 and out == ""
    doc = json.loads(err)
    assert doc["error"]["kind"] == "invariant"
    assert "(1, 1, 2, 3)" in doc["error"]["message"]


@pytest.mark.parametrize("lam", ["9", "10", "-8"])
def test_subfield_code_out_of_range_exits_2(capsys, lam):
    code, out, err = run(capsys, ["sums", "--family", "1,1,1,1", "--prime", "3",
                                  "--lam", lam, "--atilde", "2", "--count", "1"])
    assert code == 2 and out == ""
    assert "outside [0, 9)" in json.loads(err)["error"]["message"]


def test_largest_subfield_code_runs(capsys):
    doc = run_json(capsys, ["sums", "--family", "1,1,1,1", "--prime", "3",
                            "--lam", "8", "--atilde", "2", "--count", "1"])
    assert doc["result"]["lam"] == 8


def test_prime_field_lam_is_a_residue(capsys):
    # at atilde = 1 the code is read mod p: 10 and 1 are the same residue mod 3
    argv = ["sums", "--family", "1,1,1,1", "--prime", "3", "--count", "2", "--lam"]
    ten = run_json(capsys, argv + ["10"])["result"]["sums"]
    assert ten == run_json(capsys, argv + ["1"])["result"]["sums"]


@pytest.mark.parametrize("count", ["0", "-1"])
def test_count_below_one_exits_2(capsys, count):
    code, out, err = run(capsys, ["sums", "--family", "1,1,1,1", "--prime", "3",
                                  "--lam", "1", "--count", count])
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["message"] == f"count must be >= 1, got {count}"


def test_frobenius_check_refuses_an_oversized_count_first(capsys, monkeypatch):
    # (2,3,1,1) at p = 7 counts S_1..S_6 over F_{7^6} (m = 117648), past the cap
    def unreachable(*args, **kwargs):
        raise AssertionError("the point Frobenius ran before the count cap")

    monkeypatch.setattr(frobenius, "frobenius_at_point", unreachable)
    code, out, err = run(capsys, ["frobenius-check", "--family", "2,3,1,1",
                                  "--prime", "7", "--lam", "2"])
    assert code == 2 and out == ""
    assert "over the cap of 4294967296" in json.loads(err)["error"]["message"]


@pytest.mark.parametrize("family, prime, lam", [("2,1,1,1", "11", "2"), ("1,2,1,1", "13", "3")])
def test_frobenius_check_counts_half_the_sums(capsys, family, prime, lam):
    # degree 5: S_1..S_3 over F_{p^3}; S_5 over F_{p^5} is past the count cap
    doc = run_json(capsys, ["frobenius-check", "--family", family,
                            "--prime", prime, "--lam", lam])
    assert doc["result"]["agrees_to_margin"] is True


# (family, prime, lam, atilde) of degree N, each with S_1..S_h counted, h = N // 2 + 1
CORRUPTIBLE = [("1,1,1,1", "3", "1", "1", 2), ("2,1,1,1", "3", "1", "1", 3),
               ("1,2,1,1", "5", "2", "1", 3), ("1,1,2,1", "3", "2", "1", 3),
               ("1,1,1,1", "17", "3", "1", 2), ("1,1,1,1", "3", "5", "2", 2)]


@pytest.mark.parametrize("family, prime, lam, atilde, k", [
    case[:4] + (k,) for case in CORRUPTIBLE for k in range(1, case[4] + 1)])
def test_a_sum_off_by_p_makes_lpoly_exit_4(capsys, monkeypatch, family, prime, lam, atilde, k):
    real = lfunction.exp_sum

    def corrupted(params, p, lam_code, j, atilde=1):
        s = real(params, p, lam_code, j, atilde)
        return s + CycloInt.from_int(p, p) if j == k else s

    monkeypatch.setattr(lfunction, "exp_sum", corrupted)
    code, out, err = run(capsys, ["lpoly", "--family", family, "--prime", prime,
                                  "--lam", lam, "--atilde", atilde])
    assert code == 4 and out == ""
    assert json.loads(err)["error"]["kind"] == "invariant"


def test_starved_frobenius_exits_3(capsys):
    code, out, err = run(capsys, ["frobenius", "--family", "1,1,1,1",
                                  "--prime", "3", "--pi-digits", "8",
                                  "--cutoff", "3"])
    assert code == 3
    doc = json.loads(err)
    assert doc["error"]["kind"] == "starvation"
    assert doc["error"]["achieved"] < doc["error"]["requested"]


def test_invariant_failure_exits_4(capsys, monkeypatch):
    monkeypatch.setattr(cli, "verify_certificate", lambda *a, **k: False)
    code, _, err = run(capsys, ["reduce", "--family", "1,1,1,1",
                                "--monomial", "2,2"])
    assert code == 4
    assert json.loads(err)["error"]["kind"] == "invariant"


def test_unknown_command_is_a_usage_error():
    with pytest.raises(SystemExit) as info:
        cli.main(["no-such-command"])
    assert info.value.code == 2


def test_series_frobenius_takes_ab_above_one_and_refuses_deeper_poles(capsys):
    # on the monomial basis a*b > 1 needs no flag inverse; c*d > 1 would put
    # fractional powers of L into the series
    doc = run_json(capsys, ["frobenius", "--family", "2,1,1,1", "--prime", "3",
                            "--lam-order", "4"])
    assert doc["result"]["margin_certified"] >= 8
    assert len(doc["result"]["basis"]) == len(doc["result"]["matrix"]) == 5
    code, out, err = run(capsys, ["frobenius", "--family", "1,1,2,1", "--prime", "3"])
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["kind"] == "precondition"
    assert error["message"] == "the series Frobenius needs pole exponents c = d = 1"


@pytest.mark.parametrize("argv, message", [
    (["frobenius-check", "--family", "1,1,1,1", "--prime", "3", "--lam", "1",
      "--pi-digits", "1000000000"],
     "pi**1000000000 needs a splitting cutoff of at least 145, which has 529396 "
     "product terms, over the cap of 524288 = 2^19"),
    # a lift to pi**(10**9) would be a p-adic power of its own size
    (["frobenius-check", "--family", "1,1,1,1", "--prime", "5", "--lam", "2",
      "--pi-digits", "1000000000"], "needs a splitting cutoff of at least 145"),
    (["frobenius", "--family", "1,1,1,1", "--prime", "3", "--pi-digits", "200"],
     "needs a splitting cutoff of at least 145"),
    (["frobenius", "--family", "1,1,1,1", "--prime", "3", "--cutoff", "145"],
     "splitting cutoff 145 has 529396 product terms, over the cap of 524288 = 2^19"),
    (["frobenius", "--family", "1,1,1,1", "--prime", "3", "--lam-order", "1820"],
     "lam_order 1820 needs N^2 (lam_order + 1) = 16389 series terms at N = 3, "
     "over the cap of 16384 = 2^14"),
])
def test_oversized_frobenius_request_exits_2_before_any_product(capsys, monkeypatch,
                                                                argv, message):
    def unreachable(*args, **kwargs):
        raise AssertionError("Frobenius work began before the cutoff cap")

    monkeypatch.setattr(frobenius, "_frobenius_images", unreachable)
    monkeypatch.setattr(frobenius, "teichmuller_lift", unreachable)
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["kind"] == "precondition" and message in error["message"]


@pytest.mark.parametrize("argv", [
    ["frobenius", "--family", "1,1,1,1", "--prime", "3"],
    ["frobenius-check", "--family", "1,1,1,1", "--prime", "3", "--lam", "1"],
    ["reduce", "--family", "1,1,1,1", "--monomial", "2,2", "--ring", "pilambda",
     "--prime", "3"],
])
def test_negative_pi_digits_exits_2(capsys, argv):
    code, out, err = run(capsys, argv + ["--pi-digits", "-2"])
    assert code == 2 and out == ""
    assert "pi_digits must be non-negative" in json.loads(err)["error"]["message"]


def test_the_lam_order_cap_admits_its_boundary(monkeypatch):
    # 9 (1819 + 1) = 16380 series terms at N = 3: the product is begun
    def begun(*args, **kwargs):
        raise AssertionError("the splitting product was begun")

    monkeypatch.setattr(frobenius, "_frobenius_images", begun)
    with pytest.raises(AssertionError, match="splitting product was begun"):
        cli.main(["frobenius", "--family", "1,1,1,1", "--prime", "3",
                  "--lam-order", "1819"])


def test_negative_lam_order_exits_2(capsys):
    code, out, err = run(capsys, ["frobenius", "--family", "1,1,1,1", "--prime", "3",
                                  "--lam-order", "-3"])
    assert code == 2 and out == ""
    assert "lam_order must be non-negative" in json.loads(err)["error"]["message"]


def test_negative_cutoff_exits_2(capsys):
    code, out, err = run(capsys, ["frobenius", "--family", "1,1,1,1", "--prime", "3",
                                  "--pi-digits", "0", "--cutoff", "-4"])
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["message"] == "cutoff must be non-negative"


def test_count_beyond_physical_memory_exits_2(capsys):
    # S_1..S_3 over F_{5^9}: (5**9 - 1)**2, about 3.8e12 torus points, is over
    # the 2^32 cap
    code, out, err = run(capsys, ["lpoly", "--family", "2,1,1,1", "--prime", "5",
                                  "--lam", "1", "--atilde", "3"])
    assert code == 2 and out == ""
    doc = json.loads(err)
    assert doc["error"]["kind"] == "precondition"
    assert "m^2 = 3814693359376" in doc["error"]["message"]
    assert "cap of 4294967296" in doc["error"]["message"]


@pytest.mark.parametrize("argv", [["sums", "--count", "100000"], ["lpoly", "--atilde", "100000"]])
def test_a_huge_field_exponent_is_refused_before_any_power(capsys, argv):
    # from exponent 17 on no field is under the cap, so neither p**(atilde*k)
    # nor m^2 in decimal (about 95,000 digits for 3**100000) is formed
    code, out, err = run(capsys, argv[:1] + ["--family", "1,1,1,1", "--prime", "3",
                                             "--lam", "1"] + argv[1:])
    assert code == 2 and out == ""
    assert len(err) < 1024
    message = json.loads(err)["error"]["message"]
    assert "over the cap of 4294967296" in message and "m^2" not in message


@pytest.mark.parametrize("count, field", [("16", "F_3^16"), ("17", "F_3^17")])
def test_the_exponent_refusal_starts_at_17(capsys, count, field):
    code, out, err = run(capsys, ["sums", "--family", "1,1,1,1", "--prime", "3",
                                  "--lam", "1", "--count", count])
    assert code == 2 and out == ""
    message = json.loads(err)["error"]["message"]
    assert field in message and "over the cap of 4294967296" in message
    assert ("m^2 = 1853020102758400 torus points (m = 43046720)" in message) == (count == "16")


def test_uncertified_point_frobenius_exits_4(capsys, monkeypatch):
    # on the monomial basis the point Frobenius of (4,1,1,1) at p = 3 is
    # pi-integral; on the flag basis it had an entry of order -4
    code, out, _ = run(capsys, ["frobenius-check", "--family", "4,1,1,1",
                                "--prime", "3", "--lam", "1"])
    assert code == 0 and json.loads(out)["result"]["agrees_to_margin"] is True
    # a splitting product scaled by 1/p takes p - 1 digits from every entry,
    # and the unit root entry (0,0) goes negative; a column takes 1/p as the
    # one-term factor it is
    real = frobenius._frobenius_images
    monkeypatch.setattr(frobenius, "_frobenius_images", lambda params, p, cutoff, lam: {
        u: s * frobenius.PiAdic.from_fraction(p, Fraction(1, p))
        for u, s in real(params, p, cutoff, lam).items()})
    code, out, err = run(capsys, ["frobenius-check", "--family", "1,1,1,1",
                                  "--prime", "3", "--lam", "1"])
    assert code == 4 and out == ""
    error = json.loads(err)["error"]
    assert error["kind"] == "invariant"
    assert error["message"].startswith("Frobenius entry (0,0) is not pi-integral (ord -2)")
    assert "p = 3, splitting cutoff 26, reserve 4" in error["message"]


def test_converters_render_exact_values():
    assert cli.ratfunc_json(Laurent()) == {"num": [], "den": ["1"]}
    assert cli.ratfunc_json(Laurent({0: Fraction(-3, 4)})) == {"num": ["-3/4"], "den": ["1"]}
    # L^-2 + 3 = (1 + 3 L^2) / L^2
    assert cli.ratfunc_json(Laurent({-2: Fraction(1), 0: Fraction(3)})) == {
        "num": ["1", "0", "3"], "den": ["0", "0", "1"]}
    assert cli.poly_json(Laurent({1: Fraction(2, 3), 4: Fraction(-5)})) == [
        "0", "2/3", "0", "0", "-5"]
    assert cli.frac_str(-12) == "-12" and cli.frac_str(Fraction(12, 4)) == "3"


# values of a document: strings with quotes, backslashes, control characters,
# non-ASCII, non-BMP and lone surrogate characters; ints past Python's
# default cap of 4300 digits on int-to-str conversion
TEXT = st.text(max_size=6) | st.sampled_from(
    ['"', "\\", "\x00\t\n\x1f\x7f", "é", "\u2028", "\U0001f600", "\ud800", ""])
HUGE = st.builds(lambda n, sign: sign * (10 ** 4400 + n), st.integers(), st.sampled_from((1, -1)))
SCALARS = TEXT | st.booleans() | st.integers() | HUGE


def documents(depth):
    if depth == 0:
        return SCALARS
    inner = documents(depth - 1)
    return SCALARS | st.lists(inner, max_size=4) | st.dictionaries(TEXT, inner, max_size=4)


@settings(max_examples=300, deadline=None)
@given(documents(4))
def test_dumps_writes_the_bytes_of_json_dumps_with_indent(doc):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert cli.dumps(doc) == json.dumps(doc, sort_keys=True, indent=2)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("path", sorted((Path(__file__).parent / "golden").glob("*.json")),
                         ids=lambda p: p.stem)
def test_dumps_reproduces_every_golden_document(path):
    text = path.read_text()
    assert cli.dumps(json.loads(text)) + "\n" == text


@pytest.mark.parametrize("value", [1.5, None, (1, 2), {1: "a"}, {"a": [0, 0.0]}],
                         ids=["float", "None", "tuple", "int key", "nested float"])
def test_dumps_refuses_values_outside_the_document_kinds(value):
    with pytest.raises(TypeError):
        cli.dumps(value)
