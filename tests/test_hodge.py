"""Basis boxes, weight gauges, Hodge polygons, ordinarity criteria.

The expected basis sets and weights below were worked out by hand from the
defining inequalities before the implementation existed, so they are
independent of the code under test.
"""

import importlib.util
from fractions import Fraction
from itertools import product
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricsums.errors import InvariantError, PreconditionError
from toricsums.family import FamilyParams
from toricsums.hodge import (
    basis_set,
    hodge_polygon,
    ordinarity_report,
    slope_multiset_ab,
    weight_denominator,
    weight_of,
    weight_profile,
)


def params_strategy():
    def build(a, b, c, d):
        try:
            return FamilyParams(a, b, c, d)
        except PreconditionError:
            return None
    return st.builds(build, st.integers(1, 8), st.integers(1, 8),
                     st.integers(1, 8), st.integers(1, 8)).filter(lambda p: p is not None)


def test_basis_frozen_examples():
    assert basis_set(FamilyParams(1, 1, 1, 1)) == [(0, 0), (1, 0), (1, 1)]
    assert basis_set(FamilyParams(2, 1, 1, 1)) == [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1)]
    assert basis_set(FamilyParams(1, 1, 2, 1)) == [(-1, 0), (0, 0), (1, 0), (1, 1)]
    assert basis_set(FamilyParams(1, 1, 2, 3)) == [
        (-1, -2), (0, -2), (0, -1), (0, 0), (1, 0), (1, 1)]


@settings(max_examples=200, deadline=None)
@given(params_strategy())
def test_basis_count_equals_degree(P):
    assert len(basis_set(P)) == P.degree


def test_weight_frozen_values():
    P = FamilyParams(1, 1, 1, 1)
    assert weight_of(P, (0, 0)) == 0
    assert weight_of(P, (1, 0)) == 1
    assert weight_of(P, (1, 1)) == 2
    Q = FamilyParams(1, 1, 2, 3)
    assert weight_of(Q, (-1, -2)) == 1
    assert weight_of(Q, (0, -1)) == 1
    assert weight_of(Q, (0, -2)) == 2
    R = FamilyParams(2, 1, 1, 1)
    assert weight_of(R, (1, 0)) == Fraction(1, 2)
    assert weight_of(R, (2, 1)) == 2


@settings(max_examples=150, deadline=None)
@given(params_strategy(), st.integers(-12, 12), st.integers(-12, 12))
def test_weight_is_max_of_facet_functionals(P, v1, v2):
    a, b, c, d = P.a, P.b, P.c, P.d
    v = (v1, v2)
    facets = (
        Fraction(v1, a) + Fraction(v2, b),
        Fraction(v1, a) - Fraction((a + c) * v2, a * d),
        Fraction(v2, b) - Fraction((b + d) * v1, b * c),
    )
    assert weight_of(P, v) == max(facets)
    assert weight_of(P, v) >= 0


@settings(max_examples=120, deadline=None)
@given(params_strategy())
def test_weights_clear_their_denominator(P):
    prof = weight_profile(P)
    den = weight_denominator(P)
    assert prof.denominator == den
    for w in prof.weights:
        assert (w * den).denominator == 1
    assert len(prof.weights) == P.degree


def test_hodge_polygon_flagship_slopes():
    assert hodge_polygon(FamilyParams(1, 1, 1, 1)).slopes() == [0, 1, 2]
    assert hodge_polygon(FamilyParams(2, 1, 1, 1)).slopes() == [
        0, Fraction(1, 2), 1, Fraction(3, 2), 2]


CHECKS = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"


def test_hodge_polygon_refuses_exactly_the_families_with_wrong_weights():
    # the benchmark's checker counts Hodge numbers on the lattice points of
    # 2 * triangle (Adolphson-Sperber), independently of the basis
    spec = importlib.util.spec_from_file_location("perfbench_checks", CHECKS)
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    seen = refused = 0
    for a in range(1, 4):
        for b in range(1, 4):
            for c in range(1, 6):
                for d in range(1, 6):
                    try:
                        P = FamilyParams(a, b, c, d)
                    except PreconditionError:
                        continue
                    seen += 1
                    want = checks.hodge_slopes((a, b, c, d))
                    wrong = list(weight_profile(P).weights) != want
                    try:
                        got = hodge_polygon(P).slopes()
                    except InvariantError as exc:
                        assert wrong, P
                        assert str((a, b, c, d)) in str(exc) and "symmetry" in str(exc)
                        refused += 1
                    else:
                        assert not wrong and got == want, P
    assert (seen, refused) == (99, 21)


@pytest.mark.parametrize("a,b", [(1, 1), (2, 1), (3, 2), (5, 3)])
def test_cd1_weights_match_closed_form(a, b):
    P = FamilyParams(a, b, 1, 1)
    assert list(weight_profile(P).weights) == slope_multiset_ab(a, b)


def test_ordinarity_flagship():
    rep = ordinarity_report(FamilyParams(1, 1, 1, 1), 3)
    assert rep.nondegenerate
    assert rep.guaranteed_ordinary
    dets = [f.det for f in rep.faces]
    assert dets == [1, 1, -1]


def test_ordinarity_face_data():
    P = FamilyParams(2, 1, 1, 3)
    rep = ordinarity_report(P, 5)
    dets = {f.name: f.det for f in rep.faces}
    assert dets == {"coordinate": 2, "x2_pole": 1, "x1_pole": -6}
    # (gcd of the entries, |det| / gcd); the coprimality pattern makes the gcd 1
    assert [f.invariant_factors for f in rep.faces] == [(1, 2), (1, 1), (1, 6)]
    # 6 does not divide p - 1 = 4
    assert [f.ordinary_sufficient for f in rep.faces] == [True, True, False]
    assert rep.congruence_modulus == 2 * 1 * 3
    # 5 is not 1 mod 6, so the aggregate congruence guarantee does not apply
    assert rep.gcd_ad == 1
    assert not rep.guaranteed_ordinary
    rep7 = ordinarity_report(P, 7)
    assert rep7.guaranteed_ordinary


def test_every_face_matrix_has_entry_gcd_one():
    # the closed form (1, |det|) of the invariant factors: the entry gcd of
    # each face divides gcd(a, b), gcd(b, c) or gcd(a, c), all 1
    for abcd in product(range(1, 7), repeat=4):
        try:
            P = FamilyParams(*abcd)
        except PreconditionError:
            continue
        for f in ordinarity_report(P, 7).faces:
            assert gcd(*f.matrix[0], *f.matrix[1]) == 1, abcd
            assert f.invariant_factors == (1, abs(f.det)), abcd


def test_ordinarity_rejects_bad_primes():
    with pytest.raises(PreconditionError):
        ordinarity_report(FamilyParams(2, 1, 1, 1), 2)
    with pytest.raises(PreconditionError):
        ordinarity_report(FamilyParams(3, 1, 1, 1), 3)
