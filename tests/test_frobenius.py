"""The ramified p-adic scalar ring and the Frobenius structure.

Slow full-precision runs live in the acceptance module; here the same
machinery runs at lower precision plus exact unit tests for the scalars.
"""

from fractions import Fraction
from itertools import product
from math import gcd
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from toricsums import frobenius
from toricsums.errors import InvariantError, PreconditionError, StarvationError
from toricsums.family import FamilyParams
from toricsums.frobenius import (
    FrobeniusSeries,
    PiAdic,
    _integer_coords,
    _mat_series_mul,
    _series,
    _series_inverse,
    compare_char_poly_with_lfunction,
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
from toricsums.ratfunc import Laurent, add_term, solve_linear
from toricsums.reduction import reduce_to_basis, verify_certificate

from reference import (
    frobenius_images_by_class,
    horizontality_residual_by_piadic,
    reciprocal_char_poly_all_powers,
    splitting_coefficients_by_products,
)

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
               y + PiAdic.one(y.p), y - PiAdic.from_fraction(y.p, Fraction(1, 2)),
               y * 3, y / 2, Fraction(1, 2) * y]
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
            if x:
                for j, y in enumerate(o.cs):
                    out[i + j] += x * y
        for k in range(2 * n - 2, n - 1, -1):
            out[k - n] -= p * out[k]
        return Ref(p, out[:n])

    def inverse(self):
        n = self.p - 1
        basis = [Ref(self.p, [int(k == j) for k in range(n)]) for j in range(n)]
        cols = [(e * self).cs for e in basis]
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


def _integral(p):
    return st.lists(st.integers(-60, 60), min_size=p - 1, max_size=p - 1)


# (p, x, y, z, w, k, j): x and y dense, z a nonzero monomial, w dense and
# pi-integral, k and j integer coordinates (denominator 1). p = 3 takes the
# closed-form product, the others the convolution and fold.
ref_cases = st.sampled_from([3, 5, 7, 11, 13]).flatmap(
    lambda p: st.tuples(st.just(p), _dense(p), _dense(p), _monomial(p), _dense(p, 0),
                        _integral(p), _integral(p)))


def _assert_canonical(x):
    assert x.den > 0 and gcd(x.den, *x.num) == 1
    assert all(type(c) is int for c in x.num)
    assert all(type(c) is Fraction for c in x.coeffs)


@settings(max_examples=120, deadline=None)
@given(ref_cases, st.integers(0, 8))
def test_piadic_matches_fraction_reference(case, count):
    p, xs, ys, zs, ws, ks, js = case
    x, y, z, k, j = (PiAdic(p, cs) for cs in (xs, ys, zs, ks, js))
    rx, ry, rz, rk, rj = (Ref(p, cs) for cs in (xs, ys, zs, ks, js))
    # adding an integral element keeps the denominator: x and xk share one
    xk, rxk = x + k, rx + rk
    assert xk.den == x.den and k.den == j.den == 1

    def const(c):
        return Ref(p, [c] + [0] * (p - 2))

    rz_inv = rz.inverse()
    checks = [
        (x + y, rx + ry), (x - y, rx - ry), (x * y, rx * ry), (-x, const(0) - rx),
        (z.inverse(), rz_inv), (x / z, rx * rz_inv),
        (z ** -2, (rz * rz).inverse()),
        (x * 3 - PiAdic.from_fraction(p, Fraction(1, 4)),
         rx * const(3) - const(Fraction(1, 4))),
        # equal denominators, and a common factor that cancels down to 1
        (x + xk, rx + rxk), (xk - x, rxk - rx), (x - xk, rx - rxk), (xk * x, rxk * rx),
        # denominator 1 on one side or both
        (k + j, rk + rj), (k - j, rk - rj), (k * j, rk * rj), (k * x, rk * rx),
        (x - k, rx - rk), (k * 5, rk * const(5)),
        # a monomial on either side
        (z * x, rz * rx), (x * z, rx * rz), (z + x, rz + rx), (x - z, rx - rz),
        (z * z, rz * rz), (z * k, rz * rk),
    ]
    if y:
        ry_inv = ry.inverse()
        checks += [(y.inverse(), ry_inv), (x / y, rx * ry_inv),
                   (y ** -1, ry_inv), (Fraction(2, 3) / y, const(Fraction(2, 3)) * ry_inv)]
    for got, ref in checks:
        _assert_canonical(got)
        assert got.coeffs == ref.cs
        assert got.ord_pi() == ref.ord_pi()
    # equal values built different ways are equal and hash equal
    for a, b in [((x + y) - y, x), (x * y, y * x), (PiAdic(p, (x * y).coeffs), x * y)]:
        assert a == b and hash(a) == hash(b)
    # cancellation gives the canonical zero, however it is reached
    zero = PiAdic.zero(p)
    for a in (x - x, x + (-x), xk - xk, k - k, k + (-k), z - z):
        assert a.num == (0,) * (p - 1) and a.den == 1
        assert a == zero and hash(a) == hash(zero)
    assert PiAdic(p, ws).digits(count) == Ref(p, ws).digits(count)
    v = x.ord_pi()
    if v is None or v >= 0:
        assert x.digits(count) == rx.digits(count)
    else:
        with pytest.raises(PreconditionError):
            x.digits(count)


X5 = PiAdic(5, [Fraction(1, 3), 2, 0, -1])


@pytest.mark.parametrize("mixed", [
    lambda x: x + 1, lambda x: 1 + x, lambda x: 1 - x, lambda x: x - Fraction(1, 2),
    # sum starts from the int 0
    lambda x: sum([x]),
], ids=["x+1", "1+x", "1-x", "x-1/2", "sum"])
def test_plus_and_minus_take_piadic_operands_only(mixed):
    # the scalar protocol of reduction: + and - among pi-adic values only
    with pytest.raises(TypeError):
        mixed(X5)


def test_times_and_divide_still_take_ints_and_fractions():
    x = X5
    assert x * 2 == x + x and x / 2 * 2 == x and (1 / x) * x == PiAdic.one(5)
    assert Fraction(1, 2) * x == x / 2 == x * Fraction(1, 2)
    assert sum([x, x], PiAdic.zero(5)) == x * 2
    with pytest.raises(ZeroDivisionError):
        x / 0


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
    assert ord_ge(acc - x, m)


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


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_splitting_closed_form_matches_the_product(p):
    # E_i = r_i pi**i with r_i rational: one coordinate, at i mod (p - 1)
    ref = splitting_coefficients_by_products(p, 60)
    for count in range(61):
        assert splitting_coefficients(p, count) == ref[:count]
    for i, e in enumerate(ref):
        assert [k for k, x in enumerate(e.num) if x] == [i % (p - 1)], i


def test_dwork_root_is_a_root_of_unity():
    for p in (3, 5):
        z = dwork_root(p, 8)
        total = PiAdic.zero(p)
        power = PiAdic.one(p)
        for _ in range(p):
            total = total + power
            power = power * z
        v = total.ord_pi()
        assert v is None or v >= 8
        # normalization: z = 1 + pi mod pi**2
        assert ord_ge(z - (PiAdic.one(p) + PiAdic.pi(p)), 2)


def test_dwork_root_p3_closed_form():
    z = dwork_root(3, 10)
    exact = PiAdic(3, (Fraction(-1, 2), Fraction(-1, 2)))
    assert ord_ge(z - exact, 10)


def test_embedding_respects_multiplication():
    p = 5
    z = dwork_root(p, 12)
    x = CycloInt(p, (1, -2, 0, 3))
    y = CycloInt(p, (0, 1, 1, -1))
    lhs = embed_cyclotomic(x * y, z)
    rhs = embed_cyclotomic(x, z) * embed_cyclotomic(y, z)
    assert ord_ge(lhs - rhs, 12)


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
    # on integer coordinates the identity is D_X D_F on the diagonal's first term
    (DX, Xi), (DF, Fi) = _integer_coords(X), _integer_coords(F)
    ident = [[[(DX * DF if i == j and k == 0 else 0,) + (0,) * (p - 2) for k in range(count)]
              for j in range(n)] for i in range(n)]
    assert _mat_series_mul(Xi, Fi, count, p) == ident
    assert _mat_series_mul(Fi, Xi, count, p) == ident


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
    fs = frobenius_series(P, 3, pi_digits=4, lam_order=5)
    rep = horizontality_residual(fs)
    assert rep["stated"] is None or rep["stated"] >= fs.margin
    assert rep["transposed"] is not None and rep["transposed"] < 2
    assert rep["reversed"] is not None and rep["reversed"] < 2


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_horizontality_matches_the_piadic_reference_on_series(data):
    a, b = data.draw(st.sampled_from([(1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2)]))
    p = data.draw(st.sampled_from([q for q in (3, 5, 7) if a * b % q]))
    fs = frobenius_series(FamilyParams(a, b, 1, 1), p, pi_digits=data.draw(st.integers(0, 6)),
                          lam_order=data.draw(st.integers(0, 8)))
    assert horizontality_residual(fs) == horizontality_residual_by_piadic(fs)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_horizontality_matches_the_piadic_reference_on_random_matrices(data):
    p = data.draw(st.sampled_from([3, 5, 7]))
    n, count = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 6))
    # denominators with and without factors of p, and many zero coordinates
    coord = st.builds(Fraction, st.just(0) | st.integers(-9, 9),
                      st.sampled_from([1, 2, p, 2 * p, p * p]))
    value = st.lists(coord, min_size=p - 1, max_size=p - 1).map(lambda cs: PiAdic(p, cs))
    matrix = st.lists(st.lists(st.lists(value, min_size=count, max_size=count),
                               min_size=n, max_size=n), min_size=n, max_size=n)
    U, B = data.draw(matrix), data.draw(matrix)
    if data.draw(st.integers(0, 3)) == 0:
        # U = 0 makes every residual zero
        U = [[[PiAdic.zero(p)] * count for _ in range(n)] for _ in range(n)]
    fs = FrobeniusSeries(p=p, margin=0, cutoff=0, nu0=0, lam_order=count - 1, basis=None,
                         U=U, B=B)
    assert horizontality_residual(fs) == horizontality_residual_by_piadic(fs)


ring_cases = st.sampled_from([3, 5, 7, 11]).flatmap(
    lambda p: st.tuples(st.just(p), _dense(p), _dense(p)))


@settings(max_examples=100, deadline=None)
@example((5, [0, 0, 0, 0], [1, 2, 3, 4]))
@given(ring_cases)
def test_ring_product_is_the_piadic_product(case):
    p, xs, ys = case
    x, y = PiAdic(p, xs), PiAdic(p, ys)
    xy = frobenius._ring_mul(x.num, y.num, p)
    assert all(type(c) is int for c in xy)
    coeffs = tuple(Fraction(c, x.den * y.den) for c in xy)
    assert coeffs == (x * y).coeffs == (Ref(p, xs) * Ref(p, ys)).cs


@settings(max_examples=100, deadline=None)
@example((3, [0, 0]), 1)
@given(st.sampled_from([3, 5, 7, 11]).flatmap(lambda p: st.tuples(st.just(p), _dense(p))),
       st.integers(-40, 40).filter(bool))
def test_integer_order_of_a_scaled_representation_is_ord_pi(case, u):
    p, xs = case
    x = PiAdic(p, xs)
    while u % p == 0:
        u //= p
    # (m x.num) / (m x.den) for m prime to p, then divisible by p and by p**2
    for m in (u, u * p, u * p * p):
        v = frobenius._ord_pi([m * c for c in x.num], p)
        if v is not None:
            v -= (p - 1) * frobenius._ord_p(m * x.den, p)
        assert v == x.ord_pi() == Ref(p, xs).ord_pi()


def test_two_cutoffs_agree_within_margin():
    # empirical support for the truncation certificate: recompute with a
    # deeper cutoff and compare on the overlap
    P = FamilyParams(1, 1, 1, 1)
    a = frobenius_series(P, 3, pi_digits=4, lam_order=6)
    b = frobenius_series(P, 3, pi_digits=4, lam_order=6, cutoff=a.cutoff + 4)
    for i in range(3):
        for j in range(3):
            for ca, cb in zip(a.U[i][j], b.U[i][j]):
                assert ord_ge(ca - cb, a.margin)


def _brute_force_images(params, p, cutoff, lam):
    # every term (k, i, j) of the truncated product, then psi_p
    E = splitting_coefficients(p, cutoff + 1)
    a, b, c, d = params.a, params.b, params.c, params.d
    images = []
    for v1, v2 in frobenius.basis_set(params):
        img, lam_k = {}, lam / lam
        for k in range(cutoff + 1):
            for i in range(cutoff + 1 - k):
                for j in range(cutoff + 1 - k - i):
                    e1, e2 = v1 + i * a - k * c, v2 + j * b - k * d
                    if e1 % p == 0 and e2 % p == 0:
                        add_term(img, (e1 // p, e2 // p), E[k] * E[i] * E[j] * lam_k)
            lam_k = lam_k * lam
        images.append(img)
    return images


def _valid_family(abcd):
    try:
        return FamilyParams(*abcd)
    except PreconditionError:
        return None


def _abcd_cases(primes, extra):
    """(abcd, p, x) for every valid family with a, b, c, d <= 3, every p in
    primes not dividing abcd, and every x in extra(p)."""
    return [(abcd, p, x)
            for abcd in product(range(1, 4), repeat=4) if _valid_family(abcd)
            for p in primes if (abcd[0] * abcd[1] * abcd[2] * abcd[3]) % p
            for x in extra(p)]


# every point residue, and None for the series in L
IMAGE_CASES = _abcd_cases((3, 5, 7), lambda p: [None, *range(1, p)])


def _one_class_per_image(images, params):
    """The class of columns that _frobenius_images returns, as the N classes
    of its images: image k holds entry k of every column."""
    return [{u: y for u, x in images.items() if (y := frobenius._entry(x, k))}
            for k in range(len(frobenius.basis_set(params)))]


def _lams(p, residue):
    """(lam, lam_p) of the series for residue None, else of the point."""
    if residue is None:
        return Laurent({1: PiAdic.one(p)}), Laurent({p: PiAdic.one(p)})
    lift = teichmuller_lift(p, residue, 10)[0]
    return lift, lift


def _check_images(abcd, p, residue, cutoff):
    params = FamilyParams(*abcd)
    lam = _lams(p, residue)[0]
    images = _one_class_per_image(frobenius._frobenius_images(params, p, cutoff, lam), params)
    assert images == _brute_force_images(params, p, cutoff, lam)
    assert images == frobenius_images_by_class(params, p, cutoff, lam)


@pytest.mark.parametrize("abcd, p, residue, cutoff", [
    # the basis pairs (0,0)/(3,0), (1,0)/(4,0), (1,1)/(4,1) share classes mod 3
    ((4, 1, 1, 1), 3, 2, 26),
    ((4, 1, 1, 1), 3, None, 26),
    # c d > 1, at a lift that is not +-1
    ((1, 1, 1, 2), 5, 2, 30),
])
def test_frobenius_images_match_every_product_term(abcd, p, residue, cutoff):
    _check_images(abcd, p, residue, cutoff)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(IMAGE_CASES), st.integers(0, 30))
def test_frobenius_images_match_every_product_term_over_a_draw(case, cutoff):
    _check_images(*case, cutoff)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(IMAGE_CASES), st.integers(0, 30))
# c d > 1, at a lift that is not +-1, and the series
@example(((1, 1, 1, 2), 5, 2), 30)
@example(((2, 1, 1, 1), 3, None), 26)
def test_one_pass_columns_match_each_image_reduced_alone(case, cutoff):
    # the columns share one denominator per monomial through the pass; entry
    # j of the result is what image j gets alone, with its certificate
    abcd, p, residue = case
    params, pi = FamilyParams(*abcd), PiAdic.pi(p)
    lam, lam_p = _lams(p, residue)
    images = frobenius._frobenius_images(params, p, cutoff, lam)
    assert all(type(c) is frobenius.Column for x in images.values()
               for c in (x.terms.values() if residue is None else [x]))
    coords = reduce_to_basis([images], params, pi, lam_p).coords[0]
    basis = frobenius.basis_set(params)
    for j, image in enumerate(_one_class_per_image(images, params)):
        alone = reduce_to_basis(image, params, pi, lam_p)
        assert verify_certificate(image, alone, params, pi, lam_p)
        assert [frobenius._entry(coords[v], j) for v in basis] == [alone.coords[v] for v in basis]


# every (family, p, lam) with a, b, c, d <= 3, p in {3, 5, 7}, p not dividing
# abcd and 1 <= lam < p
DEEPER_CUTOFF_CASES = _abcd_cases((3, 5, 7), lambda p: range(1, p))


@settings(max_examples=10, deadline=None)
@given(st.sampled_from(DEEPER_CUTOFF_CASES))
# with no reduction reserve, digits of these two moved below the margin
@example(((2, 1, 1, 1), 3, 2))
@example(((1, 1, 2, 3), 5, 1))
# cutoff 48 just below E_49: a reserve of 3 fell 2 digits short here
@example(((3, 2, 1, 3), 7, 1))
# c = d = 1: the series route too
@example(((1, 2, 1, 1), 5, 1))
def test_a_deeper_cutoff_moves_no_digit_below_the_margin(case):
    abcd, p, lam = case
    params = FamilyParams(*abcd)
    fp = frobenius_at_point(params, p, lam)
    with mock.patch.object(frobenius, "default_cutoff", lambda params, p: fp.cutoff + 10):
        deep = frobenius_at_point(params, p, lam)
    assert deep.cutoff == fp.cutoff + 10
    for row, deep_row in zip(fp.U, deep.U):
        for x, y in zip(row, deep_row):
            assert ord_ge(x - y, fp.margin)
    if params.c == params.d == 1:
        fs = frobenius_series(params, p, lam_order=4)
        deep = frobenius_series(params, p, lam_order=4, cutoff=fs.cutoff + 10)
        for row, deep_row in zip(fs.U, deep.U):
            for x, y in zip(row, deep_row):
                assert all(ord_ge(a - b, fs.margin) for a, b in zip(x, y))


def test_point_reductions_keep_their_step_counts(monkeypatch):
    # the five images of (2,1,1,1) at p = 3, lam 1, each reduced alone, take
    # the steps measured at commit a82705a, before the rewrite factors were
    # built once per call: a changed factor or visiting order shows here.
    # The point route reduces them in one pass, as one class of columns,
    # which pops the union of their monomials: 278, as measured when that
    # pass was introduced
    real, calls = frobenius.reduce_to_basis, []

    def recorded(*args):
        result = real(*args)
        calls.append((args, result.steps))
        return result

    monkeypatch.setattr(frobenius, "reduce_to_basis", recorded)
    frobenius_at_point(FamilyParams(2, 1, 1, 1), 3, 1)
    [(([images], params, pi, lam), steps)] = calls
    assert steps == 278
    alone = _one_class_per_image(images, params)
    assert [real(img, params, pi, lam).steps for img in alone] == [233, 257, 241, 241, 240]


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
        assert fs.basis == frobenius.basis_set(params) and len(fp.U) == len(fs.basis)
        m = min(fs.margin, fp.margin)
        for row, point_row in zip(fs.U, fp.U):
            for entry, y in zip(row, point_row):
                assert ord_ge(sum(entry, PiAdic.zero(p)) - y, m), (abcd, p)


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
        stated = horizontality_residual(fs)["stated"]
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


def _piadic_matrix(p, n):
    """An n x n PiAdic matrix: integer coordinates, one small denominator an entry."""
    def build(nums, dens):
        entries = [PiAdic(p, [Fraction(c, d) for c in nums[k * (p - 1):(k + 1) * (p - 1)]])
                   for k, d in enumerate(dens)]
        return [entries[i * n:(i + 1) * n] for i in range(n)]
    size = n * n
    return st.builds(build, st.lists(st.integers(-30, 30), min_size=size * (p - 1),
                                     max_size=size * (p - 1)),
                     st.lists(st.integers(1, 9), min_size=size, max_size=size))


# (p, U): a square PiAdic matrix of size 1..6
char_poly_cases = st.sampled_from([3, 5, 7]).flatmap(
    lambda p: st.integers(1, 6).flatmap(
        lambda n: st.tuples(st.just(p), _piadic_matrix(p, n))))


@settings(max_examples=40, deadline=None)
@given(char_poly_cases)
def test_char_poly_from_half_the_powers_matches_all_powers(case):
    p, U = case
    assert reciprocal_char_poly(U, p) == reciprocal_char_poly_all_powers(U, p)


def test_low_precision_comparison_agrees():
    P = FamilyParams(1, 1, 1, 1)
    rep = compare_char_poly_with_lfunction(P, 3, 2, pi_digits=4)
    assert all(v is None or v >= rep.margin for v in rep.agreement)
