from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricsums import gkz
from toricsums.errors import PreconditionError
from toricsums.family import FamilyParams
from toricsums.gkz import (
    euler_factors,
    formal_solutions,
    indicial_roots,
    leading_kappa,
    picard_fuchs_operator,
    relation_lattice,
)

from reference import apply_operator_to_log_series


def params_strategy():
    def build(a, b, c, d):
        try:
            return FamilyParams(a, b, c, d)
        except PreconditionError:
            return None
    return st.builds(build, st.integers(1, 7), st.integers(1, 7),
                     st.integers(1, 7), st.integers(1, 7)).filter(lambda p: p is not None)


@settings(max_examples=150, deadline=None)
@given(params_strategy())
def test_relation_generator(P):
    assert relation_lattice(P) == (P.b * P.c, P.a * P.d, P.a * P.b)
    assert sum(relation_lattice(P)) == P.degree


def test_operator_hand_example():
    # (2,1,1,1): one block of simple theta times two double blocks gives
    # (1/2) theta**3 (theta - 1)**2 expanded, minus the deformation monomial
    P = FamilyParams(2, 1, 1, 1)
    op = picard_fuchs_operator(P)
    assert op.order == 5
    got = [c.terms for c in op.theta_coeffs]
    assert got[5] == {0: Fraction(1, 2)}
    assert got[4] == {0: Fraction(-1)}
    assert got[3] == {0: Fraction(1, 2)}
    assert got[2] == {}
    assert got[1] == {}
    assert got[0] == {2: Fraction(-1)}
    assert leading_kappa(P) == Fraction(1, 2)


def test_operator_simplest_family():
    # theta**3 - L
    op = picard_fuchs_operator(FamilyParams(1, 1, 1, 1))
    assert [c.terms for c in op.theta_coeffs] == [
        {1: Fraction(-1)}, {}, {}, {0: Fraction(1)}]


@settings(max_examples=100, deadline=None)
@given(params_strategy())
def test_indicial_roots_kill_the_indicial_polynomial(P):
    op = picard_fuchs_operator(P)
    f0 = op.indicial_coefficients()
    for rho in set(indicial_roots(P)):
        val = sum(co * rho ** j for j, co in enumerate(f0))
        assert val == 0
    assert len(indicial_roots(P)) == P.degree


def test_euler_factors_simple():
    assert euler_factors(FamilyParams(2, 3, 1, 1)) == (Fraction(1, 2), Fraction(1, 3))


FORMAL_POOL = [
    FamilyParams(1, 1, 1, 1),
    FamilyParams(2, 1, 1, 1),
    FamilyParams(1, 1, 2, 1),
    FamilyParams(1, 1, 2, 3),
    FamilyParams(3, 2, 1, 1),
]


@pytest.mark.parametrize("P", FORMAL_POOL, ids=lambda P: f"{P.a}{P.b}{P.c}{P.d}")
def test_formal_solutions_satisfy_operator(P):
    order = 2 * P.a * P.b + 3
    sols = formal_solutions(P, order)
    assert len(sols) == P.degree
    for s in sols:
        defects = apply_operator_to_log_series(P, s)
        assert all(all(x == 0 for x in row) for row in defects)


def test_formal_solutions_are_independent_at_initial_positions():
    P = FamilyParams(2, 1, 1, 1)
    sols = formal_solutions(P, 6)
    # the matrix of values at the designated free slots is the identity
    positions = [s.initial_position for s in sols]
    assert len(set(positions)) == len(sols)
    for s in sols:
        for t_pos in positions:
            n, k = t_pos
            expected = 1 if t_pos == s.initial_position else 0
            assert s.table[n][k] == expected


def test_log_free_when_roots_are_simple():
    # (1,1,2,3): block roots {0, 1/2}, {0, 1/3, 2/3}, {0}
    P = FamilyParams(1, 1, 2, 3)
    roots = indicial_roots(P)
    assert roots == [Fraction(0), Fraction(0), Fraction(0),
                     Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)]
    sols = formal_solutions(P, 5)
    by_class = {}
    for s in sols:
        by_class.setdefault(s.rho % 1, []).append(s)
    # the 1/3 and 2/3 classes are singletons: no log terms can appear
    for frac in (Fraction(1, 3), Fraction(2, 3)):
        (s,) = by_class[frac]
        assert s.log_width == 1


@pytest.mark.parametrize("P, order, calls", [
    (FamilyParams(2, 3, 1, 1), 20, 20),  # one class of 11 seeds
    (FamilyParams(2, 1, 1, 3), 6, 18),   # three classes, of widths 5, 2 and 2
], ids=["2311", "2113"])
def test_one_taylor_expansion_per_row_of_each_class(monkeypatch, P, order, calls):
    # every seed of a class shares rho, so row n needs f0 expanded at rho + n once
    expand = gkz._taylor_coefficients
    points = []

    def counted(poly, s):
        points.append(s)
        return expand(poly, s)

    monkeypatch.setattr(gkz, "_taylor_coefficients", counted)
    assert len(gkz.formal_solutions(P, order)) == P.degree
    assert len(points) == len(set(points)) == calls


def test_formal_solutions_rejects_bad_order():
    with pytest.raises(PreconditionError):
        formal_solutions(FamilyParams(1, 1, 1, 1), 0)
