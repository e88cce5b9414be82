from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricsums.errors import PreconditionError
from toricsums.exact import (
    RationalPolygon,
    coefficients_from_power_sums,
    fold_mul,
    lower_convex_hull,
    power_sums,
)
from toricsums.family import FamilyParams
from toricsums.ffield import FieldTower
from toricsums.hodge import ordinarity_report

from reference import mul_mod_monic


def _relations():
    """(fold, monic modulus over Z) for pi**(p-1) = -p, zeta**(p-1) =
    -(1 + ... + zeta**(p-2)) and the tower moduli of F_(p^k), each fold the
    one its caller passes. A tower folds with residues c_j = -f_j mod p, so
    its relation over Z is t**k - sum(c_j t**j), the modulus mod p."""
    out = []
    for p in (3, 5, 7, 11):
        out.append((((0, -p),), (p,) + (0,) * (p - 2) + (1,)))
        out.append(([(j, -1) for j in range(p - 1)], (1,) * p))
    for p, k in ((2, 5), (3, 4), (5, 3), (7, 2), (17, 2)):
        tw = FieldTower(p, k)
        modulus = [0] * k + [1]
        for j, c in tw._fold:
            modulus[j] = -c
        assert [g % p for g in modulus] == list(tw.modulus)
        out.append((tw._fold, tuple(modulus)))
    return out


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_relations()), st.data())
def test_fold_mul_is_the_product_reduced_by_long_division(relation, data):
    fold, modulus = relation
    n = len(modulus) - 1
    coords = st.lists(st.integers(-50, 50) | st.just(0), min_size=n, max_size=n)
    xs, ys = data.draw(coords), data.draw(coords)
    assert fold_mul(xs, ys, fold) == mul_mod_monic(xs, ys, modulus)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.fractions(-9, 9, max_denominator=6), max_size=6), st.integers(0, 5))
def test_power_sums_invert_coefficients_from_power_sums(cs, extra):
    # the power sums of 1 + c_1 T + ... + c_n T**n, past the degree too, give
    # back its coefficients, and with c_j = 0 for j > n the ones past it
    coeffs = [Fraction(1)] + cs
    count = len(cs) + extra
    sums = power_sums(coeffs, count)
    assert all(type(s) is Fraction for s in sums)
    back = coefficients_from_power_sums(sums, Fraction(1))
    assert back == coeffs + [0] * extra


def test_hull_drops_interior_and_collinear():
    pts = [(0, 0), (1, 5), (2, 1), (3, 2), (4, 3)]
    hull = lower_convex_hull(pts)
    assert hull.vertices == ((Fraction(0), Fraction(0)), (Fraction(2), Fraction(1)),
                             (Fraction(4), Fraction(3)))


def test_hull_ignores_infinite_points():
    hull = lower_convex_hull([(0, 0), (1, None), (2, 4)])
    assert hull.vertices == ((Fraction(0), Fraction(0)), (Fraction(2), Fraction(4)))


@settings(max_examples=120, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 12), st.integers(-20, 20)), min_size=1, max_size=15))
def test_hull_lies_below_every_point(pts):
    hull = lower_convex_hull(pts)
    lo = hull.vertices[0][0]
    hi = hull.vertices[-1][0]
    for x, y in pts:
        if lo <= x <= hi:
            assert hull.value_at(x) <= y
    slopes = [(y1 - y0) / (x1 - x0) for (x0, y0), (x1, y1)
              in zip(hull.vertices, hull.vertices[1:])]
    assert slopes == sorted(slopes)
    assert len(set(slopes)) == len(slopes)


def test_polygon_slopes_and_domination():
    flat = RationalPolygon(((Fraction(0), Fraction(0)), (Fraction(3), Fraction(0))))
    steep = lower_convex_hull([(0, 0), (1, 0), (2, 1), (3, 3)])
    assert flat.slopes() == [0, 0, 0]
    assert steep.slopes() == [0, 1, 2]
    assert steep.dominates(flat)
    assert not flat.dominates(steep)
    assert steep.dominates(steep)


def test_domination_needs_matching_span():
    a = RationalPolygon(((Fraction(0), Fraction(0)), (Fraction(2), Fraction(0))))
    b = RationalPolygon(((Fraction(0), Fraction(0)), (Fraction(3), Fraction(0))))
    with pytest.raises(PreconditionError):
        a.dominates(b)


def test_snf_face_matrix_style():
    # The Smith invariant factors of the 2x2 face matrices, in the closed form
    # (gcd of entries, |det| / gcd) that ordinarity_report uses.
    def factors(family):
        rep = ordinarity_report(FamilyParams(*family), 7)
        return {f.matrix: f.invariant_factors for f in rep.faces}

    assert factors((3, 5, 1, 1))[((3, 0), (0, 5))] == (1, 15)
    assert factors((1, 1, 1, 1))[((0, -1), (1, -1))] == (1, 1)
    # gcd(a, d) is unconstrained; the face [[a, -c], [0, -d]] still has gcd 1
    assert factors((2, 1, 1, 4))[((2, -1), (0, -4))] == (1, 8)
