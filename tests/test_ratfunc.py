"""Laurent values as polynomials: long division and gcd; their num/den rendering."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from toricsums.cli import ratfunc_json
from toricsums.ratfunc import Laurent, poly_gcd

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
@given(st.dictionaries(st.integers(-5, 5), coefficients, max_size=4).map(Laurent))
def test_ratfunc_json_reads_back_as_the_laurent_value(s):
    doc = ratfunc_json(s)
    num, den = (Laurent({e: Fraction(c) for e, c in enumerate(doc[key])})
                for key in ("num", "den"))
    k = den.degree
    assert den == Laurent({k: Fraction(1)})
    assert num == s * den
    assert k == max(0, -min(s.terms, default=0))
    if k:
        assert num.terms.get(0)  # so num and den = L**k are coprime
