"""The ramified p-adic scalar ring and the Frobenius structure.

Slow full-precision runs live in the acceptance module; here the same
machinery runs at lower precision plus exact unit tests for the scalars.
"""

from fractions import Fraction
from math import gcd
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from toricsums import frobenius
from toricsums.errors import InvariantError, PreconditionError, StarvationError
from toricsums.family import FamilyParams
from toricsums.frobenius import (
    PiAdic,
    _mat_series_mul,
    _series,
    _series_inverse,
    compare_char_poly_with_lfunction,
    congruent_mod_pi,
    dwork_root,
    embed_cyclotomic,
    frobenius_at_point,
    frobenius_series,
    horizontality_residual,
    ord_ge,
    reciprocal_char_poly,
    splitting_bound,
    splitting_coefficients,
    teichmuller_lift,
)
from toricsums.cyclotomic import CycloInt
from toricsums.ratfunc import Laurent, solve_linear

fracs = st.fractions(min_value=-4, max_value=4, max_denominator=9)


def piadics(p):
    return st.builds(lambda cs: PiAdic(p, tuple(cs)),
                     st.lists(fracs, min_size=p - 1, max_size=p - 1))


@settings(max_examples=100, deadline=None)
@given(piadics(5), piadics(5), piadics(5))
def test_field_axioms_p5(x, y, z):
    assert x * (y + z) == x * y + x * z
    assert (x * y) * z == x * (y * z)
    assert x - x == PiAdic.zero(5)
    if y:
        assert (x / y) * y == x


@settings(max_examples=100, deadline=None)
@given(piadics(5), piadics(5))
def test_ord_is_a_valuation(x, y):
    vx, vy = x.ord_pi(), y.ord_pi()
    vxy = (x * y).ord_pi()
    if vx is None or vy is None:
        assert vxy is None
    else:
        assert vxy == vx + vy
        vsum = (x + y).ord_pi()
        if vsum is not None:
            assert vsum >= min(vx, vy)


def monomials(p):
    """c pi**i with c != 0: the divisors that inverse() takes in closed form."""
    return st.builds(lambda c, i: PiAdic(p, [c if k == i else 0 for k in range(p - 1)]),
                     fracs.filter(bool), st.integers(0, p - 2))


# (monomial, arbitrary element) at one of p = 3, 5, 7
monomial_cases = st.sampled_from([3, 5, 7]).flatmap(
    lambda p: st.tuples(monomials(p), piadics(p)))


def dense_inverse(x):
    """x**-1 from the linear system of multiplication by x on 1, pi, ..., pi**(p-2)."""
    n = x.p - 1
    cols = [(x * PiAdic(x.p, [int(k == j) for k in range(n)])).coeffs for j in range(n)]
    M = [[cols[j][i] for j in range(n)] for i in range(n)]
    return PiAdic(x.p, solve_linear(M, [[1] + [0] * (n - 1)], one=Fraction(1))[0])


@settings(max_examples=150, deadline=None)
@given(monomial_cases)
def test_monomial_inverse_matches_dense_solve(case):
    x, y = case
    assert x * x.inverse() == PiAdic.one(x.p)
    assert y / x == y * dense_inverse(x)


@settings(max_examples=100, deadline=None)
@given(monomial_cases)
def test_results_keep_fraction_coordinates(case):
    x, y = case
    results = [x + y, x - y, -y, x * y, y * x, y / x, 1 / x, x.inverse(),
               y + 1, y - Fraction(1, 2), y * 3, y / 2]
    if y:
        results += [x / y, y.inverse()]
    for r in results:
        assert all(type(c) is Fraction for c in r.coeffs)


def _ord_p(fr, p):
    """p-adic order of a nonzero Fraction."""
    v, num, den = 0, fr.numerator, fr.denominator
    while num % p == 0:
        num, v = num // p, v + 1
    while den % p == 0:
        den, v = den // p, v - 1
    return v


class Ref:
    """Reference model: Q[pi]/(pi**(p-1) + p) on a tuple of p - 1 Fractions,
    with the textbook convolution, a Gauss-Jordan inverse and the digit
    recursion x -> (x - d) / pi."""

    def __init__(self, p, cs):
        self.p, self.cs = p, tuple(Fraction(c) for c in cs)

    def __add__(self, o):
        return Ref(self.p, [x + y for x, y in zip(self.cs, o.cs)])

    def __sub__(self, o):
        return Ref(self.p, [x - y for x, y in zip(self.cs, o.cs)])

    def __mul__(self, o):
        p, n = self.p, self.p - 1
        out = [Fraction(0)] * (2 * n - 1)
        for i, x in enumerate(self.cs):
            for j, y in enumerate(o.cs):
                out[i + j] += x * y
        for k in range(2 * n - 2, n - 1, -1):
            out[k - n] -= p * out[k]
        return Ref(p, out[:n])

    def inverse(self):
        n = self.p - 1
        basis = [Ref(self.p, [int(k == j) for k in range(n)]) for j in range(n)]
        cols = [(self * e).cs for e in basis]
        M = [[cols[j][i] for j in range(n)] + [Fraction(int(i == 0))] for i in range(n)]
        for k in range(n):
            piv = next(i for i in range(k, n) if M[i][k])
            M[k], M[piv] = M[piv], M[k]
            M[k] = [x / M[k][k] for x in M[k]]
            for i in range(n):
                if i != k and M[i][k]:
                    M[i] = [x - M[i][k] * y for x, y in zip(M[i], M[k])]
        return Ref(self.p, [row[n] for row in M])

    def shift_down(self):
        return Ref(self.p, self.cs[1:] + (-self.cs[0] / self.p,))

    def ord_pi(self):
        vs = [i + (self.p - 1) * _ord_p(c, self.p) for i, c in enumerate(self.cs) if c]
        return min(vs, default=None)

    def digits(self, count):
        p, x, out = self.p, self, []
        for _ in range(count):
            c0 = x.cs[0]
            d = c0.numerator * pow(c0.denominator, -1, p) % p
            out.append(d)
            x = (x - Ref(p, [d] + [0] * (p - 2))).shift_down()
        return out


def _coord(p, low=-2):
    # small rationals times a power of p, so that orders of both signs occur;
    # with low = 0 they are p-integral
    b = st.integers(1, 30) if low < 0 else st.integers(1, 30).filter(lambda b: b % p)
    return st.builds(lambda a, b, k: Fraction(a, b) * Fraction(p) ** k,
                     st.integers(-40, 40), b, st.integers(low, 3))


def _dense(p, low=-2):
    return st.lists(_coord(p, low), min_size=p - 1, max_size=p - 1)


def _monomial(p):
    return st.builds(lambda c, i: [c if k == i else 0 for k in range(p - 1)],
                     _coord(p).filter(bool), st.integers(0, p - 2))


# (p, x, y, z, w): x and y dense, z a nonzero monomial, w dense and pi-integral
ref_cases = st.sampled_from([3, 5, 7]).flatmap(
    lambda p: st.tuples(st.just(p), _dense(p), _dense(p), _monomial(p), _dense(p, 0)))


def _assert_canonical(x):
    assert x.den > 0 and gcd(x.den, *x.num) == 1
    assert all(type(c) is int for c in x.num)
    assert all(type(c) is Fraction for c in x.coeffs)


@settings(max_examples=120, deadline=None)
@given(ref_cases, st.integers(0, 8))
def test_piadic_matches_fraction_reference(case, count):
    p, xs, ys, zs, ws = case
    x, y, z = PiAdic(p, xs), PiAdic(p, ys), PiAdic(p, zs)
    rx, ry, rz = Ref(p, xs), Ref(p, ys), Ref(p, zs)

    def const(c):
        return Ref(p, [c] + [0] * (p - 2))

    checks = [
        (x + y, rx + ry), (x - y, rx - ry), (x * y, rx * ry), (-x, const(0) - rx),
        (z.inverse(), rz.inverse()), (x / z, rx * rz.inverse()),
        (z ** -2, (rz * rz).inverse()),
        (x * 3 - Fraction(1, 4), rx * const(3) - const(Fraction(1, 4))),
    ]
    if y:
        checks += [(y.inverse(), ry.inverse()), (x / y, rx * ry.inverse()),
                   (y ** -1, ry.inverse()), (Fraction(2, 3) / y, const(Fraction(2, 3)) * ry.inverse())]
    for got, ref in checks:
        _assert_canonical(got)
        assert got.coeffs == ref.cs
        assert got.ord_pi() == ref.ord_pi()
    # equal values built different ways are equal and hash equal
    for a, b in [((x + y) - y, x), (x * y, y * x), (PiAdic(p, (x * y).coeffs), x * y)]:
        assert a == b and hash(a) == hash(b)
    assert PiAdic(p, ws).digits(count) == Ref(p, ws).digits(count)
    v = x.ord_pi()
    if v is None or v >= 0:
        assert x.digits(count) == rx.digits(count)
    else:
        with pytest.raises(PreconditionError):
            x.digits(count)


def test_reflected_subtraction():
    pi = PiAdic.pi(5)
    assert 1 - pi == PiAdic.one(5) - pi
    assert Fraction(1, 2) - pi == PiAdic.from_fraction(5, Fraction(1, 2)) - pi


def test_pi_generates_p():
    for p in (3, 5, 7):
        pi = PiAdic.pi(p)
        assert pi ** (p - 1) == PiAdic.from_fraction(p, -p)
        assert pi.ord_pi() == 1
        assert PiAdic.from_fraction(p, p).ord_pi() == p - 1


@settings(max_examples=60, deadline=None)
@given(piadics(3), st.integers(1, 6))
def test_digit_expansion_roundtrip(x, m):
    if x.ord_pi() is not None and x.ord_pi() < 0:
        return
    ds = x.digits(m)
    assert all(0 <= d < 3 for d in ds)
    acc = PiAdic.zero(3)
    power = PiAdic.one(3)
    for d in ds:
        acc = acc + power * d
        power = power * PiAdic.pi(3)
    assert congruent_mod_pi(acc, x, m)


def test_digits_reject_nonintegral():
    x = PiAdic.from_fraction(3, Fraction(1, 3))
    with pytest.raises(PreconditionError):
        x.digits(2)


@pytest.mark.parametrize("p", [3, 5])
def test_splitting_coefficient_bound(p):
    E = splitting_coefficients(p, 31)
    for i, e in enumerate(E):
        v = e.ord_pi()
        assert v is None or v >= splitting_bound(p, i)
    assert E[0] == PiAdic.one(p)
    assert E[1] == PiAdic.pi(p)


def test_dwork_root_is_a_root_of_unity():
    for p in (3, 5):
        z, ordz = dwork_root(p, 8)
        total = PiAdic.zero(p)
        power = PiAdic.one(p)
        for _ in range(p):
            total = total + power
            power = power * z
        v = total.ord_pi()
        assert v is None or v >= ordz
        # normalization: z = 1 + pi mod pi**2
        assert congruent_mod_pi(z, PiAdic.one(p) + PiAdic.pi(p), 2)


def test_dwork_root_p3_closed_form():
    z, ordz = dwork_root(3, 10)
    exact = PiAdic(3, (Fraction(-1, 2), Fraction(-1, 2)))
    assert congruent_mod_pi(z, exact, ordz)


def test_embedding_respects_multiplication():
    p = 5
    z, ordz = dwork_root(p, 12)
    x = CycloInt(p, (1, -2, 0, 3))
    y = CycloInt(p, (0, 1, 1, -1))
    lhs = embed_cyclotomic(x * y, z)
    rhs = embed_cyclotomic(x, z) * embed_cyclotomic(y, z)
    assert congruent_mod_pi(lhs, rhs, ordz)


def test_teichmuller_points():
    one, o1 = teichmuller_lift(3, 1, 10)
    minus, o2 = teichmuller_lift(3, 2, 10)
    assert one == PiAdic.one(3) and o1 is None
    assert minus == -PiAdic.one(3) and o2 is None
    t, ot = teichmuller_lift(5, 2, 10)
    assert ot >= 10
    # t**4 = 1 to the certified order: t**5 = t means t**4 acts as 1
    diff = t ** 5 - t
    assert diff.ord_pi() is None or diff.ord_pi() >= ot
    assert t.digits(1) == [2]


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_series_inverse_is_a_two_sided_inverse(data):
    p = data.draw(st.sampled_from([3, 5]))
    n = data.draw(st.integers(1, 3))
    count = data.draw(st.integers(1, 6))
    small = st.lists(st.integers(-3, 3), min_size=p - 1, max_size=p - 1)
    poly = st.lists(small.map(lambda cs: PiAdic(p, cs)), max_size=4)
    F = data.draw(st.lists(st.lists(poly, min_size=n, max_size=n), min_size=n, max_size=n))
    try:
        X = _series_inverse(F, count, p)
    except InvariantError:
        assume(False)
    z, one = PiAdic.zero(p), PiAdic.one(p)
    ident = [[[one if i == j and k == 0 else z for k in range(count)] for j in range(n)]
             for i in range(n)]
    assert _mat_series_mul(X, F, count, p) == ident
    assert _mat_series_mul(F, X, count, p) == ident


def test_series_drops_debris_above_the_floor_only():
    p = 5
    pi, one = PiAdic.pi(p), PiAdic.one(p)
    x = Laurent({-1: pi ** 6, 0: one, 2: one * 3})
    assert _series(x, p, floor_ord=6) == [one, PiAdic.zero(p), one * 3]
    with pytest.raises(InvariantError, match="below the certified floor 7"):
        _series(x, p, floor_ord=7)
    with pytest.raises(InvariantError, match="where a series was expected"):
        _series(x, p)
    assert _series(Laurent(), p) == []
    # a coordinate at a point is its own one-term series
    assert _series(pi, p, floor_ord=0) == [pi]


def test_frobenius_series_shape_and_unit_root():
    P = FamilyParams(1, 1, 1, 1)
    fs = frobenius_series(P, 3, pi_digits=4, lam_order=8)
    assert fs.margin >= 4
    assert len(fs.U) == 3
    # ordinary family: the (0,0) entry is a pi-adic unit series
    assert fs.U[0][0][0].ord_pi() == 0
    for i in range(3):
        for j in range(3):
            for c in fs.U[i][j]:
                v = c.ord_pi()
                assert v is None or v >= 0


def test_horizontality_holds_only_in_stated_shape():
    P = FamilyParams(1, 1, 1, 1)
    fs = frobenius_series(P, 3, pi_digits=4, lam_order=8)
    rep = horizontality_residual(fs, lam_checked=6)
    assert rep.variants["stated"] is None or rep.variants["stated"] >= fs.margin
    assert rep.variants["transposed"] is not None and rep.variants["transposed"] < 2
    assert rep.variants["reversed"] is not None and rep.variants["reversed"] < 2


def test_two_cutoffs_agree_within_margin():
    # empirical support for the truncation certificate: recompute with a
    # deeper cutoff and compare on the overlap
    P = FamilyParams(1, 1, 1, 1)
    a = frobenius_series(P, 3, pi_digits=4, lam_order=6)
    b = frobenius_series(P, 3, pi_digits=4, lam_order=6, cutoff=a.cutoff + 4)
    for i in range(3):
        for j in range(3):
            for ca, cb in zip(a.U[i][j], b.U[i][j]):
                assert congruent_mod_pi(ca, cb, a.margin)


def _valid_family(abcd):
    try:
        return FamilyParams(*abcd)
    except PreconditionError:
        return None


@settings(max_examples=10, deadline=None)
@given(st.tuples(*[st.integers(1, 3)] * 4), st.sampled_from([3, 5, 7]), st.integers(1, 6))
# with no reduction reserve, digits of these two moved below the margin
@example((2, 1, 1, 1), 3, 2)
@example((1, 1, 2, 3), 5, 1)
# cutoff 48 just below E_49: a reserve of 3 fell 2 digits short here
@example((3, 2, 1, 3), 7, 1)
# c = d = 1: the series route too
@example((1, 2, 1, 1), 5, 1)
def test_a_deeper_cutoff_moves_no_digit_below_the_margin(abcd, p, lam):
    params = _valid_family(abcd)
    assume(params is not None and lam < p and (params.a * params.b * params.c * params.d) % p)
    fp = frobenius_at_point(params, p, lam)
    with mock.patch.object(frobenius, "default_cutoff", lambda params, p: fp.cutoff + 10):
        deep = frobenius_at_point(params, p, lam)
    assert deep.cutoff == fp.cutoff + 10
    for row, deep_row in zip(fp.U, deep.U):
        for x, y in zip(row, deep_row):
            assert congruent_mod_pi(x, y, fp.margin)
    if params.c == params.d == 1:
        fs = frobenius_series(params, p, lam_order=4)
        deep = frobenius_series(params, p, lam_order=4, cutoff=fs.cutoff + 10)
        for row, deep_row in zip(fs.U, deep.U):
            for x, y in zip(row, deep_row):
                assert all(congruent_mod_pi(a, b, fs.margin) for a, b in zip(x, y))


def test_deeper_poles_are_rejected_up_front():
    # the series route needs c = d = 1; the point Frobenius, on the monomial
    # basis, certifies deeper poles
    with pytest.raises(PreconditionError):
        frobenius_series(FamilyParams(1, 1, 2, 1), 3, pi_digits=4)
    fp = frobenius_at_point(FamilyParams(1, 1, 2, 1), 3, 1, pi_digits=4)
    assert fp.margin >= 4 and len(fp.U) == 4
    assert all(ord_ge(x, 0) for row in fp.U for x in row)


def test_starvation_is_raised_not_fudged():
    P = FamilyParams(1, 1, 1, 1)
    with pytest.raises(StarvationError) as info:
        frobenius_series(P, 3, pi_digits=8, cutoff=5)
    assert info.value.achieved is not None
    assert info.value.achieved < 8


def test_starvation_at_a_point_names_the_lift(monkeypatch):
    # the default cutoff always covers the request, so at a point only the
    # lift's order can fall short, and raising the cutoff would not help
    monkeypatch.setattr(frobenius, "teichmuller_lift", lambda p, r, t: (PiAdic.one(p), 3))
    with pytest.raises(StarvationError, match="Teichmuller lift to pi\\*\\*3") as info:
        frobenius_at_point(FamilyParams(1, 1, 1, 1), 3, 1, pi_digits=4)
    assert "cutoff" not in str(info.value)
    assert info.value.achieved < info.value.requested == 4


def test_point_frobenius_matches_series_at_teichmuller_one():
    # both routes are on the monomial basis, and the Teichmuller lift of 1 is
    # 1, so the series summed termwise is the point matrix, entry by entry
    for abcd, p, lam_order in [((1, 1, 1, 1), 3, 12), ((2, 1, 1, 1), 3, 8),
                               ((2, 1, 1, 1), 5, 8), ((1, 2, 1, 1), 3, 8),
                               ((1, 2, 1, 1), 5, 8)]:
        params = FamilyParams(*abcd)
        fs = frobenius_series(params, p, pi_digits=4, lam_order=lam_order)
        fp = frobenius_at_point(params, p, 1, pi_digits=4)
        assert fs.basis == fp.basis
        m = min(fs.margin, fp.margin)
        for row, point_row in zip(fs.U, fp.U):
            for entry, y in zip(row, point_row):
                assert congruent_mod_pi(sum(entry, PiAdic.zero(p)), y, m), (abcd, p)


@pytest.mark.parametrize("ab", [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2)],
                         ids=lambda ab: f"a{ab[0]}b{ab[1]}")
def test_series_frobenius_serves_every_simple_pole_family(ab):
    # c = d = 1, a, b <= 3 and gcd(a, b) = 1, at every admissible p < 8
    params = FamilyParams(*ab, 1, 1)
    for p in (3, 5, 7):
        if (ab[0] * ab[1]) % p == 0:
            continue
        fs = frobenius_series(params, p, lam_order=8)
        assert fs.nu0 == frobenius.reduction_reserve(p, fs.cutoff)
        assert all(len(e) == 9 for M in (fs.U, fs.B) for row in M for e in row)
        assert all(ord_ge(c, 0) for row in fs.U for e in row for c in e), (ab, p)
        stated = horizontality_residual(fs).variants["stated"]
        assert stated is None or stated >= fs.margin, (ab, p, stated, fs.margin)


def test_cutoff_cap_admits_144_and_refuses_145():
    # (C + 1)(C + 2)(C + 3)/6 product terms: 518665 at 144, 529396 at 145
    params = FamilyParams(1, 1, 1, 1)
    assert frobenius.splitting_cutoff(params, 3, 0, cutoff=144) == 144
    with pytest.raises(PreconditionError, match="cutoff 145 has 529396 product terms"):
        frobenius.splitting_cutoff(params, 3, 0, cutoff=145)


def test_char_poly_of_identity():
    one = PiAdic.one(3)
    zero = PiAdic.zero(3)
    U = [[one, zero], [zero, one]]
    coeffs = reciprocal_char_poly(U, 3)
    # det(1 - T)**2 = 1 - 2T + T**2
    assert coeffs[0] == one
    assert coeffs[1] == PiAdic.from_fraction(3, -2)
    assert coeffs[2] == one


def test_low_precision_comparison_agrees():
    P = FamilyParams(1, 1, 1, 1)
    rep = compare_char_poly_with_lfunction(P, 3, 2, pi_digits=4)
    assert rep.min_agreement is None or rep.min_agreement >= rep.margin
