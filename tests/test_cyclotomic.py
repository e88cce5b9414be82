"""Arithmetic in Z[zeta_p] on the power basis 1..zeta**(p-2)."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from toricsums.cyclotomic import CycloInt, ord_q, pi_valuation
from toricsums.errors import InvariantError, PreconditionError

from reference import zeta_power


def zeta(p, t=1):
    return zeta_power(p, t)


def test_power_basis_relation():
    # 1 + zeta + ... + zeta**(p-1) = 0
    for p in (3, 5, 7):
        total = CycloInt.from_int(p, 1)
        for t in range(1, p):
            total = total + zeta(p, t)
        assert not total


def test_zeta_has_order_p():
    for p in (3, 5):
        acc = CycloInt.from_int(p, 1)
        for _ in range(p):
            acc = acc * zeta(p)
        assert acc == CycloInt.from_int(p, 1)


coeffs5 = st.lists(st.integers(-9, 9), min_size=4, max_size=4)


@pytest.mark.parametrize("p", [3, 5, 7, 13])
@settings(max_examples=100, deadline=None)
@given(st.data())
def test_ring_axioms(p, data):
    # the fold of zeta**(p-1) depends on p
    coeffs = st.lists(st.integers(-9, 9), min_size=p - 1, max_size=p - 1)
    x, y, z = (CycloInt(p, tuple(data.draw(coeffs))) for _ in range(3))
    assert x * (y + z) == x * y + x * z
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x
    assert x * CycloInt.from_int(p, 1) == x
    assert x + (-x) == CycloInt.zero(p)


@pytest.mark.parametrize("make", [lambda: CycloInt(4, (1, 2, 3)), lambda: CycloInt.zero(9),
                                  lambda: CycloInt.from_int(1, 5)])
def test_every_constructor_refuses_a_composite_p(make):
    with pytest.raises(PreconditionError, match="is not prime"):
        make()


@settings(max_examples=100, deadline=None)
@given(coeffs5, coeffs5, st.integers(-12, 12))
def test_arithmetic_results_are_the_checked_values(xs, ys, j):
    # results skip the constructor's checks, and still hold p - 1 ints
    x, y = CycloInt(5, tuple(xs)), CycloInt(5, tuple(ys))
    for z in (x + y, x - y, -x, x * y, x * j, j * x, (x * 6) / 3, x.conj(), x.times_zeta(j)):
        assert z == CycloInt(5, z.coeffs)
        assert type(z.coeffs) is tuple and all(type(c) is int for c in z.coeffs)


@settings(max_examples=100, deadline=None)
@given(coeffs5, coeffs5, st.integers(-12, 12))
def test_conj_and_rotation_p5(xs, ys, j):
    # conj is the ring automorphism zeta -> zeta**-1; times_zeta is the product
    x, y = CycloInt(5, tuple(xs)), CycloInt(5, tuple(ys))
    assert x.times_zeta(j) == x * zeta(5, j)
    assert (x * y).conj() == x.conj() * y.conj()
    assert (x + y).conj() == x.conj() + y.conj()
    assert x.conj().conj() == x
    assert zeta(5, j).conj() == zeta(5, -j)


def test_pi_valuation_basics():
    p = 5
    one = CycloInt.from_int(p, 1)
    assert pi_valuation(one) == 0
    assert pi_valuation(one - zeta(p)) == 1
    assert pi_valuation(CycloInt.from_int(p, p)) == p - 1
    assert pi_valuation(CycloInt.zero(p)) is None
    assert pi_valuation((one - zeta(p)) * (one - zeta(p, 2))) == 2


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_valuation_counts_factors_of_one_minus_zeta(data):
    p = data.draw(st.sampled_from([3, 5, 7, 11]))
    k = data.draw(st.integers(0, 2 * p))
    x = CycloInt(p, data.draw(st.lists(st.integers(-9, 9), min_size=p - 1, max_size=p - 1)))
    assume(x)
    pi = CycloInt.from_int(p, 1) - zeta(p)
    y = x
    for _ in range(k):
        y = y * pi
    assert pi_valuation(y) == pi_valuation(x) + k


def test_ord_q_normalization():
    # over F_q with q = p**atilde, ord is scaled so ord(q) = 1
    p = 3
    q_elt = CycloInt.from_int(p, 9)
    assert ord_q(q_elt, 1) == Fraction(2)
    assert ord_q(q_elt, 2) == Fraction(1)
    assert ord_q(CycloInt.from_int(p, 3), 1) == Fraction(1)


@settings(max_examples=80, deadline=None)
@given(coeffs5, coeffs5)
def test_valuation_is_multiplicative(xs, ys):
    x = CycloInt(5, tuple(xs))
    y = CycloInt(5, tuple(ys))
    vx, vy, vxy = pi_valuation(x), pi_valuation(y), pi_valuation(x * y)
    if vx is None or vy is None:
        assert vxy is None
    else:
        assert vxy == vx + vy


def test_rational_layer_integrality():
    p = 3
    x = CycloInt(p, (1, 6))
    assert (x * 2) / 2 == x
    assert (x * -3) / 3 == -x
    with pytest.raises(InvariantError):
        x / 2

