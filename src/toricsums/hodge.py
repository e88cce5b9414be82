"""Monomial basis, weight functions and limit polygons for the family.

The Newton polytope of x1**a + x2**b + L/(x1**c x2**d) is the triangle with
vertices (a, 0), (0, b), (-c, -d); the origin is interior. Weights are the
polytope gauge, computed cone by cone with exact rationals.
"""

from collections import Counter
from fractions import Fraction
from math import gcd, lcm

from .errors import InvariantError
from .exact import lower_convex_hull


def rewrite_axis(params, v):
    """The box carve. For v in the box -c < v1 <= a, -d < v2 <= b: None when
    x**v is a basis monomial, else the axis (0 for x1, 1 for x2) of the in-box
    trade by which reduction.reduce_to_basis removes it. In each (c, d) shape
    that choice keeps every descendant of an off-basis box monomial in the
    box, so a reduction's terms stay bounded; reduce_to_basis's max_steps
    turns a rewrite that still fails to finish into an error.
    """
    a, b, c, d = params.a, params.b, params.c, params.d
    v1, v2 = v
    if c > 1 and d > 1:
        if (c - 1) * v2 < (d - 1) * (v1 - a):
            return 0
        return 1 if (c - 1) * (v2 - b) >= (d - 1) * v1 else None
    if c == 1 and d > 1:
        return 0 if v1 == a and v2 <= 0 else None
    # d = 1: the excluded points sit on v2 = b (the box has v1 >= 0 when c = 1)
    return 1 if v2 == b and v1 <= 0 else None


def basis_set(params):
    """Monomial exponents representing the middle cohomology, as a sorted list:
    the params.degree points of the box that rewrite_axis maps to None."""
    pts = [(v1, v2) for v1 in range(1 - params.c, params.a + 1)
           for v2 in range(1 - params.d, params.b + 1) if rewrite_axis(params, (v1, v2)) is None]
    if len(pts) != params.degree:
        raise InvariantError(f"basis has {len(pts)} points, expected {params.degree}")
    return pts


def _cone_index(params, v):
    """Which closed cone of the fan contains v: 0 for the first quadrant,
    1 for the cone spanned by (a, 0) and (-c, -d), 2 for (0, b) and (-c, -d)."""
    c, d = params.c, params.d
    v1, v2 = v
    if v1 >= 0 and v2 >= 0:
        return 0
    if v2 <= 0 and d * v1 >= c * v2:
        return 1
    if v1 <= 0 and c * v2 >= d * v1:
        return 2
    raise InvariantError(f"fan does not cover {v}")  # unreachable


def weight_units(params, v):
    """The integer weight of v: its polytope gauge times weight_denominator(params).

    The gauge is the smallest t >= 0 with v inside t times the triangle; it
    lies in (1/weight_denominator)Z, so this is exact integer arithmetic.
    """
    a, b, c, d = params.a, params.b, params.c, params.d
    v1, v2 = v
    ell = lcm(c, d)
    cone = _cone_index(params, v)
    if cone == 0:
        return (b * v1 + a * v2) * ell
    if cone == 1:
        return (d * v1 - (a + c) * v2) * b * (ell // d)
    return (c * v2 - (b + d) * v1) * a * (ell // c)


def weight_of(params, v):
    """Polytope gauge of v: the smallest t >= 0 with v inside t times the triangle."""
    return Fraction(weight_units(params, v), weight_denominator(params))


def weight_denominator(params):
    return params.a * params.b * lcm(params.c, params.d)


class WeightProfile:
    """weights: ascending Fractions, one per basis monomial."""

    __slots__ = ("denominator", "weights")

    def __init__(self, denominator, weights):
        self.denominator = denominator
        self.weights = weights

    def counts(self):
        return Counter(self.weights)


def weight_profile(params):
    ws = sorted(weight_of(params, v) for v in basis_set(params))
    return WeightProfile(weight_denominator(params), tuple(ws))


def hodge_polygon(params):
    """Lower convex graph whose slopes are the basis weights in ascending order.

    Raises InvariantError unless the sorted weights satisfy the Hodge
    symmetry w_i + w_(N-1-i) = 2: the box basis of some c, d > 1 families
    carries wrong weights, and their polygon would be false.
    """
    ws = weight_profile(params).weights
    if any(w + v != 2 for w, v in zip(ws, reversed(ws))):
        fam = (params.a, params.b, params.c, params.d)
        raise InvariantError(
            f"family {fam}: basis weights break the Hodge symmetry "
            f"w_i + w_(N-1-i) = 2, so they give no Hodge polygon")
    pts = [(Fraction(0), Fraction(0))]
    acc = Fraction(0)
    for i, w in enumerate(ws, start=1):
        acc += w
        pts.append((Fraction(i), acc))
    return lower_convex_hull(pts)


def slope_multiset_ab(a, b):
    """Closed-form limit slope multiset for c = d = 1: all (a*i + b*j)/(a*b)
    with 0 <= i <= b, 0 <= j <= a, with one copy of the value 1 removed."""
    vals = sorted(Fraction(a * i + b * j, a * b) for i in range(b + 1) for j in range(a + 1))
    vals.remove(Fraction(1))
    return vals


_FACE_NAMES = ("coordinate", "x2_pole", "x1_pole")


def _face_matrices(params):
    a, b, c, d = params.a, params.b, params.c, params.d
    return (
        [[a, 0], [0, b]],
        [[0, -c], [b, -d]],
        [[a, -c], [0, -d]],
    )


class FaceReport:
    __slots__ = ("name", "matrix", "det", "invariant_factors", "nondegenerate",
                 "ordinary_sufficient")

    def __init__(self, name, matrix, det, invariant_factors, nondegenerate,
                 ordinary_sufficient):
        self.name = name
        self.matrix = matrix
        self.det = det
        self.invariant_factors = invariant_factors
        self.nondegenerate = nondegenerate
        self.ordinary_sufficient = ordinary_sufficient


class OrdinarityReport:
    __slots__ = ("p", "faces", "nondegenerate", "congruence_modulus", "gcd_ad",
                 "guaranteed_ordinary")

    def __init__(self, p, faces, nondegenerate, congruence_modulus, gcd_ad,
                 guaranteed_ordinary):
        self.p = p
        self.faces = faces
        self.nondegenerate = nondegenerate
        self.congruence_modulus = congruence_modulus
        self.gcd_ad = gcd_ad
        self.guaranteed_ordinary = guaranteed_ordinary


def ordinarity_report(params, p):
    """Facewise diagonal criteria plus the aggregate sufficient condition
    gcd(a, d) = 1 and p = 1 mod a*b*lcm(c, d).

    A face is ordinary-sufficient when p is prime to its det and p - 1 is
    divisible by both invariant factors of its 2x2 matrix M. Those are
    (g, |det| / g) with g the gcd of the four entries; det != 0 since
    a, b, c, d > 0.
    """
    params.check_prime(p)
    faces = []
    for name, M in zip(_FACE_NAMES, _face_matrices(params)):
        det = M[0][0] * M[1][1] - M[0][1] * M[1][0]
        g = gcd(*M[0], *M[1])
        inv = (g, abs(det) // g)
        nondeg = gcd(p, abs(det)) == 1
        ordinary = nondeg and all((p - 1) % f == 0 for f in inv)
        faces.append(FaceReport(name, tuple(tuple(r) for r in M), det, inv, nondeg, ordinary))
    modulus = weight_denominator(params)
    g_ad = gcd(params.a, params.d)
    guaranteed = g_ad == 1 and p % modulus == 1 % modulus
    return OrdinarityReport(
        p=p,
        faces=tuple(faces),
        nondegenerate=all(f.nondegenerate for f in faces),
        congruence_modulus=modulus,
        gcd_ad=g_ad,
        guaranteed_ordinary=guaranteed,
    )
