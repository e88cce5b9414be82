"""Laurent values as polynomials: long division and gcd; their num/den
rendering; exact division; the exact linear solve."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import det_leibniz
from toricsums.cli import ratfunc_json
from toricsums.errors import InvariantError
from toricsums.ratfunc import Laurent, poly_gcd, solve_linear

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


def test_division_of_int_coefficients_stays_exact():
    # 1 / 2 in Python is the float 0.5; the coefficients must stay rational
    half = Laurent({0: 1, 2: 3}) / 2
    assert half == Laurent({0: Fraction(1, 2), 2: Fraction(3, 2)})
    assert str(half) == "1/2 + 3/2*L^2"
    quarter = Laurent({1: 2}) / Laurent({1: 4})
    assert quarter == Laurent({0: Fraction(1, 2)})
    assert all(type(c) is Fraction for c in [*half.terms.values(), *quarter.terms.values()])


@st.composite
def linear_systems(draw):
    """(A, B): A square of size 1..6 with about half of its entries zero,
    made singular on some draws by a repeated row or a zero column; B zero
    to two right-hand columns."""
    n = draw(st.integers(1, 6))
    entries = st.one_of(coefficients.filter(bool), st.just(Fraction(0)))
    A = [[draw(entries) for _ in range(n)] for _ in range(n)]
    how = draw(st.integers(0, 5))  # 0: repeat a row, 1: zero a column, else as drawn
    if how == 0 and n > 1:
        i, k = draw(st.permutations(range(n)))[:2]
        A[i] = list(A[k])
    elif how == 1:
        j = draw(st.integers(0, n - 1))
        for row in A:
            row[j] = Fraction(0)
    B = draw(st.lists(st.lists(entries, min_size=n, max_size=n), max_size=2))
    return A, B


@settings(max_examples=300, deadline=None)
@given(linear_systems())
def test_solve_linear_refuses_exactly_the_singular_matrices(system):
    A, B = system
    n = len(A)
    if det_leibniz(A) == 0:
        with pytest.raises(InvariantError, match="singular matrix"):
            solve_linear(A, B, one=Fraction(1))
        return
    X = solve_linear(A, B, one=Fraction(1))
    assert len(X) == len(B)
    for x, b in zip(X, B):
        assert [sum((A[i][j] * x[j] for j in range(n)), Fraction(0)) for i in range(n)] == b
