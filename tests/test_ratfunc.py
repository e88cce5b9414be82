"""Laurent values as polynomials: long division, gcd and reduced quotients."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from toricsums.ratfunc import Laurent, RatFunc, poly_gcd

coefficients = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
polys = st.dictionaries(st.integers(0, 5), coefficients, max_size=4).map(Laurent)
nonzero_polys = polys.filter(bool)


@settings(max_examples=200, deadline=None)
@given(polys, nonzero_polys)
def test_divmod_is_long_division(a, b):
    q, r = a.divmod(b)
    assert q * b + r == a
    assert r.degree < b.degree


@settings(max_examples=200, deadline=None)
@given(polys, polys, polys)
def test_gcd_is_monic_and_divides_both(f, g, h):
    a, b = f * h, g * h
    d = poly_gcd(a, b)
    if not (a or b):
        assert not d
        return
    assert d.terms[d.degree] == 1
    assert not a.divmod(d)[1] and not b.divmod(d)[1]
    if h:
        assert not d.divmod(h)[1]  # the common factor survives


@settings(max_examples=200, deadline=None)
@given(polys, nonzero_polys, nonzero_polys, nonzero_polys)
def test_equal_quotients_compare_equal(num, den, m, k):
    x, y = RatFunc(num * m, den * m), RatFunc(num * k, den * k)
    assert x == y == RatFunc(num, den)
    assert x.num == y.num and x.den == y.den
    assert x.den.terms[x.den.degree] == 1
    assert poly_gcd(x.num, x.den).degree <= 0
