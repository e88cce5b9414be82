"""End-to-end checks of the command line tool."""

import json

import pytest

from toricsums import cli, frobenius


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


def test_connection_equals_companion(capsys):
    doc = run_json(capsys, ["connection", "--family", "2,1,1,1"])
    assert doc["result"]["equal"] is True


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


@pytest.mark.parametrize("workers", ["0", "-3"])
@pytest.mark.parametrize("argv", [
    ["sums", "--family", "1,1,1,1", "--prime", "3", "--lam", "1", "--count", "2"],
    ["lpoly", "--family", "1,1,1,1", "--prime", "3", "--lam", "1"],
    ["newton", "--family", "1,1,1,1", "--prime", "3", "--lam", "1"],
    ["compare-polygons", "--family", "1,1,1,1", "--prime", "3", "--lam", "1"],
    ["frobenius-check", "--family", "1,1,1,1", "--prime", "3", "--lam", "1"],
])
def test_workers_below_one_exits_2(capsys, monkeypatch, argv, workers):
    def unreachable(*args, **kwargs):
        raise AssertionError("the point Frobenius ran before the workers check")

    monkeypatch.setattr(frobenius, "frobenius_at_point", unreachable)
    code, out, err = run(capsys, argv + ["--workers", workers])
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["message"] == f"workers must be >= 1, got {workers}"


def test_frobenius_check_refuses_an_oversized_count_first(capsys, monkeypatch):
    # (2,1,1,1) at p = 11 counts over F_{11^5}, past the cap
    def unreachable(*args, **kwargs):
        raise AssertionError("the point Frobenius ran before the count cap")

    monkeypatch.setattr(frobenius, "frobenius_at_point", unreachable)
    code, out, err = run(capsys, ["frobenius-check", "--family", "2,1,1,1",
                                  "--prime", "11", "--lam", "2"])
    assert code == 2 and out == ""
    assert "over the cap of 4294967296" in json.loads(err)["error"]["message"]


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
])
def test_oversized_frobenius_request_exits_2_before_any_product(capsys, monkeypatch,
                                                                argv, message):
    def unreachable(*args, **kwargs):
        raise AssertionError("Frobenius work began before the cutoff cap")

    monkeypatch.setattr(frobenius, "_phi_terms", unreachable)
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
    # F_{5^10}: (5**10 - 1)**2, about 9.5e13 torus points, is over the 2^32 cap
    code, out, err = run(capsys, ["lpoly", "--family", "2,1,1,1", "--prime", "5",
                                  "--lam", "1", "--atilde", "2"])
    assert code == 2 and out == ""
    doc = json.loads(err)
    assert doc["error"]["kind"] == "precondition"
    assert "m^2 = 95367412109376" in doc["error"]["message"]
    assert "cap of 4294967296" in doc["error"]["message"]


def test_uncertified_point_frobenius_exits_4(capsys, monkeypatch):
    # on the monomial basis the point Frobenius of (4,1,1,1) at p = 3 is
    # pi-integral; on the flag basis it had an entry of order -4
    code, out, _ = run(capsys, ["frobenius-check", "--family", "4,1,1,1",
                                "--prime", "3", "--lam", "1"])
    assert code == 0 and json.loads(out)["result"]["agrees_to_margin"] is True
    # a splitting product scaled by 1/p takes p - 1 digits from every entry,
    # and the unit root entry (0,0) goes negative
    real = frobenius._phi_terms
    monkeypatch.setattr(frobenius, "_phi_terms", lambda params, p, cutoff: [
        (k, v, coeff / p) for k, v, coeff in real(params, p, cutoff)])
    code, out, err = run(capsys, ["frobenius-check", "--family", "1,1,1,1",
                                  "--prime", "3", "--lam", "1"])
    assert code == 4 and out == ""
    error = json.loads(err)["error"]
    assert error["kind"] == "invariant"
    assert error["message"].startswith("Frobenius entry (0,0) is not pi-integral (ord -2)")
    assert "p = 3, splitting cutoff 26, reserve 4" in error["message"]
