"""The rewrite engine: certificates, linearity, the derivative flag."""

import pytest
from fractions import Fraction
from itertools import product
from math import gcd, lcm
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toricsums import reduction
from toricsums.errors import InvariantError, PreconditionError
from toricsums.ffield import Fp
from toricsums.family import FamilyParams
from toricsums.frobenius import Column, PiAdic, _entry, teichmuller_lift
from toricsums.gkz import companion_matrix
from toricsums.hodge import basis_set
from toricsums.ratfunc import Laurent
from toricsums.reduction import (
    apply_D1,
    apply_D2,
    class_add,
    class_eq,
    class_scale,
    connection_matrix,
    flag_columns,
    flag_representatives,
    reduce_to_basis,
    verify_certificate,
)

PARAMS_POOL = [
    FamilyParams(1, 1, 1, 1),
    FamilyParams(2, 1, 1, 1),
    FamilyParams(1, 1, 2, 1),
    FamilyParams(1, 1, 1, 2),
    FamilyParams(1, 1, 2, 3),
    FamilyParams(3, 2, 1, 1),
    FamilyParams(3, 4, 1, 1),
]

exponents = st.tuples(st.integers(-7, 7), st.integers(-7, 7))


def _valid_families():
    out = []
    for a, b, c, d in product(range(1, 4), range(1, 4), range(1, 6), range(1, 6)):
        try:
            out.append(FamilyParams(a, b, c, d))
        except PreconditionError:
            pass
    return out


# every valid family with a, b <= 3 and c, d <= 5: 99 of them
SMALL_FAMILIES = _valid_families()

# Q[L, 1/L] with pi = 1, the variation setting
L = Laurent({1: Fraction(1)})
ONE = Laurent({0: Fraction(1)})


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(PARAMS_POOL), exponents)
def test_certificate_rational_ring(P, u):
    cls_ = {u: ONE}
    cert = reduce_to_basis(cls_, P, 1, L)
    assert verify_certificate(cls_, cert, P, 1, L)
    assert set(cert.coords) == set(basis_set(P))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(PARAMS_POOL), exponents, st.integers(1, 4))
def test_certificate_prime_field(P, u, lam):
    p = 5
    cls_ = {u: Fp(p, 3)}
    cert = reduce_to_basis(cls_, P, 1, Fp(p, lam))
    assert verify_certificate(cls_, cert, P, 1, Fp(p, lam))


# (family, p) with p not dividing abcd, c d > 1 among them
PIADIC_CASES = [(P, p) for P in PARAMS_POOL for p in (3, 5, 7)
                if (P.a * P.b * P.c * P.d) % p]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(PIADIC_CASES), st.lists(exponents, min_size=1, max_size=3),
       st.integers(1, 12), st.integers(-3, 3), st.booleans())
def test_certificate_piadic_rings(case, us, residue, k, series):
    # the rings of the Frobenius: PiAdic at a Teichmuller point, and Laurent
    # over PiAdic for the series; pi = PiAdic.pi(p) in both
    P, p = case
    pi, one = PiAdic.pi(p), PiAdic.one(p)
    if series:
        lam, one = Laurent({1: one}), Laurent({0: one})
    else:
        lam = teichmuller_lift(p, residue % (p - 1) + 1, 12)[0]
    cls_ = {}
    for i, u in enumerate(us):
        cls_[u] = one * (i + 1) + pi * one * k
    cert = reduce_to_basis(dict(cls_), P, pi, lam)
    assert set(cert.coords) == set(basis_set(P))
    assert verify_certificate(cls_, cert, P, pi, lam)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(PARAMS_POOL), exponents, exponents)
def test_reduction_is_linear(P, u, v):
    x = {u: ONE}
    y = {v: ONE * 2}
    both = reduce_to_basis(class_add(x, y), P, 1, L)
    cx = reduce_to_basis(x, P, 1, L)
    cy = reduce_to_basis(y, P, 1, L)
    merged = class_add(cx.coords, cy.coords)
    assert class_eq(both.coords, merged)


# every valid family with a, b, c, d <= 3
TINY_FAMILIES = [P for P in SMALL_FAMILIES if P.c <= 3 and P.d <= 3]
RINGS = ["rational", "prime", "point", "series"]


def _ring(ring, residue):
    """(pi, lam, unit) for one of the four kinds of scalars: Laurent over
    Fraction with pi = 1, F_7, PiAdic at a Teichmuller point, Laurent over
    PiAdic; the two pi-adic rings take p = 5, which divides no a, b, c, d <= 3."""
    if ring == "rational":
        return 1, L, ONE
    if ring == "prime":
        return 1, Fp(7, residue % 6 + 1), Fp(7, 1)
    pi, one = PiAdic.pi(5), PiAdic.one(5)
    if ring == "series":
        return pi, Laurent({1: one}), Laurent({0: one})
    return pi, teichmuller_lift(5, residue % 4 + 1, 12)[0], one


small_classes = st.dictionaries(exponents, st.integers(-3, 3).filter(bool), max_size=3)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(TINY_FAMILIES), st.sampled_from(RINGS), st.integers(1, 12),
       st.lists(small_classes, min_size=1, max_size=3), st.booleans(),
       st.sampled_from([None, apply_D1, apply_D2]), exponents)
# over F_7 the Euler terms at w = (0, 7), (-7, 3) and (7, 0) are zero: x**(0, 8)
# ladders to w = (0, 7), x**(-8, 1) climbs to w = (-7, 3), and x**(8, 0)
# ladders to w = (7, 0)
@example(FamilyParams(1, 1, 1, 2), "prime", 3,
         [{(0, 8): 1}, {(-8, 1): 2}, {(8, 0): -1}], True, apply_D2, (7, 1))
def test_one_pass_gives_each_class_its_own_coordinates(P, ring, residue, drawn,
                                                       with_empty, D, u):
    # the classes of one pass share its pending monomials, but each gets the
    # coordinates it gets alone; an empty class and a D-image, which
    # cancels to zero, ride along
    pi, lam, unit = _ring(ring, residue)
    classes = [{v: unit * k for v, k in x.items()} for x in drawn]
    if with_empty:
        classes.insert(len(classes) // 2, {})
    if D is not None:
        classes.append(D({u: unit}, P, pi, lam))
    together = reduce_to_basis(classes, P, pi, lam)
    alone = [reduce_to_basis(x, P, pi, lam) for x in classes]
    assert together.coords == [c.coords for c in alone]
    assert together.h1 is None and together.h2 is None
    # the pass pops the union of the monomials the classes pop alone
    assert max(c.steps for c in alone) <= together.steps <= sum(c.steps for c in alone)
    if with_empty:
        assert not any(together.coords[len(drawn) // 2].values())
    if D is not None:
        assert not any(together.coords[-1].values())


def test_zero_euler_terms_are_not_pending():
    # the classes of the example above, over F_7 at L = 3, take 20, 59 and
    # 27 steps alone and 84 in one pass, as measured when the pass was
    # introduced; keeping the zero products at w as pending monomials made
    # them 30, 84, 38 and 119
    P, lam = FamilyParams(1, 1, 1, 2), Fp(7, 3)
    classes = [{(0, 8): Fp(7, 1)}, {(-8, 1): Fp(7, 2)}, {(8, 0): Fp(7, 6)}]
    assert [reduce_to_basis(x, P, 1, lam).steps for x in classes] == [20, 59, 27]
    assert reduce_to_basis(classes, P, 1, lam).steps == 84


def test_the_step_cap_names_the_exponent_it_stops_at():
    # (-7, 7) on (1, 1, 1, 2) reduces in 93 steps; a cap of 0 stops at the
    # class's only monomial, the first one popped
    P, cls_ = FamilyParams(1, 1, 1, 2), {(-7, 7): ONE}
    assert reduce_to_basis(cls_, P, 1, L, max_steps=93).steps == 93
    with pytest.raises(InvariantError, match=r"exceeded 0 steps at exponent \(-7, 7\)"):
        reduce_to_basis(cls_, P, 1, L, max_steps=0)
    with pytest.raises(InvariantError, match=r"exceeded 92 steps at exponent \(-?\d+, -?\d+\)"):
        reduce_to_basis(cls_, P, 1, L, max_steps=92)


def test_the_step_cap_counts_the_steps_of_the_whole_pass():
    # alone the two classes take 93 and 51 steps, together 140; a cap of 93
    # passes each alone but stops the pass at its 94th monomial, (3, -3)
    P = FamilyParams(1, 1, 1, 2)
    classes = [{(-7, 7): ONE}, {(6, -5): ONE * 2}]
    assert [reduce_to_basis(x, P, 1, L, max_steps=93).steps for x in classes] == [93, 51]
    assert reduce_to_basis(classes, P, 1, L).steps == 140
    with pytest.raises(InvariantError, match=r"exceeded 93 steps at exponent \(3, -3\)"):
        reduce_to_basis(classes, P, 1, L, max_steps=93)


def test_heaviest_first_reduces_a_far_monomial_quickly():
    P = FamilyParams(1, 1, 1, 2)
    cls_ = {(-7, 7): ONE}
    cert = reduce_to_basis(cls_, P, 1, L)
    assert cert.steps <= 100
    assert verify_certificate(cls_, cert, P, 1, L)


def _at(x, p, lam):
    """A Laurent polynomial over Q evaluated at L = lam in F_p."""
    out = Fp(p, 0)
    for e, c in x.terms.items():
        out = out + Fp(p, c.numerator) / c.denominator * Fp(p, pow(lam, e, p))
    return out


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(SMALL_FAMILIES),
       st.tuples(st.integers(-8, 8), st.integers(-8, 8)),
       st.sampled_from([7, 11, 101, 10007]), st.integers(1, 10 ** 6))
def test_prime_field_reduction_is_short_and_specializes(P, u, p, lam):
    # p > 5 divides none of the integers a reduction divides by
    lam = lam % (p - 1) + 1
    cls_ = {u: Fp(p, 1)}
    cert = reduce_to_basis(cls_, P, 1, Fp(p, lam))
    assert verify_certificate(cls_, cert, P, 1, Fp(p, lam))
    assert cert.steps <= 300
    generic = reduce_to_basis({u: ONE}, P, 1, L)
    assert cert.coords == {v: _at(s, p, lam) for v, s in generic.coords.items()}


def test_basis_monomials_are_fixed_points():
    for P in PARAMS_POOL:
        for v in basis_set(P):
            cert = reduce_to_basis({v: ONE}, P, 1, L)
            assert cert.h1 == {} and cert.h2 == {}
            assert cert.coords[v] == ONE
            nonzero = [w for w, s in cert.coords.items() if s]
            assert nonzero == [v]


def test_in_box_trades_stay_in_the_box():
    """The invariant hodge.rewrite_axis keeps: every off-basis box monomial
    reduces with all of its D1/D2 cochain inside the box."""
    p, lam = 10007, Fp(10007, 5)
    for P in SMALL_FAMILIES:
        basis = set(basis_set(P))
        box = set(product(range(1 - P.c, P.a + 1), range(1 - P.d, P.b + 1)))
        for u in sorted(box - basis):
            cls_ = {u: Fp(p, 1)}
            cert = reduce_to_basis(cls_, P, 1, lam)
            assert verify_certificate(cls_, cert, P, 1, lam), (P, u)
            assert set(cert.h1) <= box and set(cert.h2) <= box, (P, u)


def test_euler_relations_reduce_to_zero():
    # D1(1) and D2(1) are D-images, so over Q[L, 1/L] (pi = 1) every basis
    # coordinate of their reductions vanishes
    lam = Laurent({1: Fraction(1)})
    one = {(0, 0): lam / lam}
    for P in PARAMS_POOL:
        for D in (apply_D1, apply_D2):
            cert = reduce_to_basis(D(one, P, 1, lam), P, 1, lam)
            assert not any(cert.coords.values()), (P, D.__name__)


def test_scale_distributes_over_class():
    x = {(2, 1): ONE, (0, 3): ONE * 4}
    doubled = class_scale(x, 2)
    assert class_eq(doubled, class_add(x, x))


def test_derivative_operators_on_a_monomial():
    # D1(x1 x2) = x1 x2 + pi (a x1**(1+a) x2 - c L x**((1,1)+mu))
    P = FamilyParams(2, 1, 1, 1)
    out = apply_D1({(1, 1): ONE}, P, 1, L)
    assert class_eq(out, {
        (1, 1): ONE,
        (3, 1): ONE * 2,
        (0, 0): -L,
    })


@pytest.mark.parametrize("tup", [(1, 1, 1, 1), (2, 1, 1, 1), (1, 1, 2, 1)])
def test_connection_equals_companion(tup):
    P = FamilyParams(*tup)
    assert connection_matrix(P) == companion_matrix(P)


def test_flag_columns_triangular_shape():
    # the i-th derivative class has weight filtration level i, so the
    # coordinate matrix against the ordered basis is lower triangular with
    # nonzero diagonal for this family; column j of F is flag j
    P = FamilyParams(1, 1, 1, 1)
    F = flag_columns(P, 3)
    for i in range(3):
        assert F[i][i]
        for j in range(i + 1, 3):
            assert not F[j][i]


@pytest.mark.parametrize("tup", [
    (1, 1, 1, 1), (2, 3, 1, 1), (2, 1, 1, 3), (1, 1, 3, 2), (1, 1, 2, 5)])
def test_flag_columns_match_the_reduced_representatives(tup):
    # the recurrence F_(j+1) = theta F_j + B F_j against a direct reduction
    # of each representative (L d/dL + L x**mu)**j . 1; the families cover
    # all four in-box rewrite shapes
    P = FamilyParams(*tup)
    n = P.degree
    reps = flag_representatives(P, 1, L, n + 1)
    cols = flag_columns(P, n + 1)
    assert len(cols) == len(reps) == n + 1
    for col, r in zip(cols, reps):
        coords = reduce_to_basis(r, P, 1, L).coords
        assert col == [coords[v] for v in basis_set(P)]


@pytest.mark.parametrize("tup", [(2, 1, 1, 1), (1, 1, 3, 2)])
def test_connection_reduces_only_one_monomial_classes(tup, monkeypatch):
    # the flag comes from B, one pass over the classes pi L x**(v + mu), one
    # per basis monomial v, not from reducing the growing flag representatives
    real = reduction.reduce_to_basis
    calls = []

    def recorded(classes, *args):
        calls.append([len(x) for x in classes])
        return real(classes, *args)

    monkeypatch.setattr(reduction, "reduce_to_basis", recorded)
    P = FamilyParams(*tup)
    assert connection_matrix(P) == companion_matrix(P)
    assert calls == [[1] * P.degree]


@pytest.mark.parametrize("tup", [(2, 1, 1, 1), (1, 1, 3, 2), (2, 1, 1, 3)])
def test_every_changed_companion_entry_breaks_a_row(tup, monkeypatch):
    # F is nonsingular, so c is the one solution of F c = t: a changed c_j
    # must fail some row, even though the check forms no product with a zero
    P = FamilyParams(*tup)
    for j in range(P.degree):
        def perturbed(params, j=j):
            rows = companion_matrix(params)
            rows[-1][j] = rows[-1][j] + 1
            return rows

        monkeypatch.setattr(reduction, "companion_matrix", perturbed)
        with pytest.raises(InvariantError, match="^row "):
            connection_matrix(P)


def test_a_flag_singular_at_one_point_only_passes():
    # det [[L, 1], [1, 1]] = L - 1: singular at L = 1, not at L = 2
    reduction._check_nonsingular([[L, ONE], [ONE, ONE]])


def test_a_flag_singular_everywhere_names_every_point_tried():
    # det [[L, L**2], [1, L]] = 0; the row spans are 1 and 1, so S = 2
    with pytest.raises(InvariantError, match=r"det F vanishes at L = 1, \.\.\., 3$"):
        reduction._check_nonsingular([[L, L * L], [ONE, L]])


def _column(entries, m=1):
    """The Column whose entry k is entries[k], PiAdic values of one p, over
    m times their least common denominator."""
    n, den = entries[0].p - 1, m * lcm(*(e.den for e in entries))
    return Column(entries[0].p, [e.num[i] * (den // e.den) for i in range(n) for e in entries],
                  den)


def _rule_factors(pi, lam, one):
    """The scalars reduce_to_basis multiplies class coefficients by, for
    powers 2, 3 and poles 3, 2: to t (ladder), to t (climb), the carries of
    a climb and a ladder, and a trade's Euler factor; then -1, last."""
    to_t = one / (pi * 2)
    return [to_t, one / -(pi * 3 * lam), one * 2 / (3 * lam), lam * 3 / 2,
            to_t * -5 + to_t * -3 / 2 * -4, -one]


def _kind(kind):
    """(x, y, rule factors, entries) for one kind of class coefficient;
    entries(v) lists what v holds, one value at a time."""
    pi, one, z = PiAdic.pi(5), PiAdic.one(5), PiAdic.zero(5)
    lift, series = teichmuller_lift(5, 2, 12)[0], Laurent({1: one})
    a, b = PiAdic(5, [Fraction(1, 3), 2, 0, -1]), PiAdic(5, [0, Fraction(5, 2), 1, 0])
    alone = lambda v: [v]  # noqa: E731
    if kind == "rational":
        return ONE * 2 - L / 3, L * L * Fraction(5, 4) + ONE / L, _rule_factors(1, L, ONE), alone
    if kind == "prime":
        return Fp(7, 2), Fp(7, 5), _rule_factors(1, Fp(7, 3), Fp(7, 1)), alone
    if kind == "point":
        return a, b, _rule_factors(pi, lift, one), alone
    if kind == "series":
        return (Laurent({0: a, 2: b}), Laurent({1: b, 2: a}),
                _rule_factors(pi, series, Laurent({0: one})), alone)
    # y on a denominator 35 times larger than it needs: x + y takes the gcd branch
    x, y = _column([a, b, z]), _column([b, a * pi, a], 35)
    if kind == "column":  # at a point
        return x, y, _rule_factors(pi, lift, one), lambda v: [v.entry(k) for k in range(3)]
    return (Laurent({0: x, 3: y}), Laurent({-1: y, 0: x}),  # the series column
            [Laurent({0: pi, 2: one * 3})] + _rule_factors(pi, series, Laurent({0: one})),
            lambda v: [_entry(v, k) for k in range(3)])


@pytest.mark.parametrize("kind", ["rational", "prime", "point", "series", "column",
                                  "series column"])
def test_every_kind_of_coefficient_keeps_the_scalar_protocol(kind):
    # the reduction asks a class coefficient for + among its kind, * by a
    # rule factor and bool(); a column must give each of its entries what
    # that entry gives alone
    x, y, factors, entries = _kind(kind)
    for v in (x, y):
        assert v and any(entries(v))
        zero = v + v * factors[-1]
        assert not zero and not any(entries(zero))
        for f in factors:
            assert entries(v * f) == [e * f for e in entries(v)]
    assert entries(x + y) == [s + t for s, t in zip(entries(x), entries(y))]
    if type(x).__hash__ is not None and type(x).__eq__ is not object.__eq__:
        assert x + y == y + x and hash(x + y) == hash(y + x)
        assert x * factors[0] != x


def test_a_column_takes_only_one_term_factors():
    # every rule factor is c pi**j / m, one rotation of the column; 1 + pi
    # would be two, which the reduction never asks for
    x = _column([PiAdic.one(5), PiAdic.pi(5)])
    assert [(x * PiAdic.pi(5)).entry(k) for k in range(2)] == [PiAdic.pi(5), PiAdic.pi(5) ** 2]
    with pytest.raises(PreconditionError, match="only factors c pi"):
        x * (PiAdic.one(5) + PiAdic.pi(5))


small_piadics = st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=9),
                         min_size=4, max_size=4).map(lambda cs: PiAdic(5, cs))


@settings(max_examples=40, deadline=None)
@given(st.lists(small_piadics, min_size=1, max_size=4), st.integers(2, 60))
def test_a_scaled_column_gives_the_same_entries_in_lowest_terms(entries, m):
    # the running denominator is never reduced, so m (a multiple of 5 on
    # some draws) stays in it; entry(k) is the one normalisation
    scaled = _column(entries, m)
    assert scaled.den % m == 0
    got = [scaled.entry(k) for k in range(len(entries))]
    assert got == [_column(entries).entry(k) for k in range(len(entries))] == entries
    assert all(gcd(e.den, *e.num) == 1 for e in got)


def test_a_column_compares_only_through_its_entries():
    # one value has many representations, so a column defines neither == nor
    # hash: == is identity, as for any object, and entries are compared
    assert "__eq__" not in vars(Column) and "__hash__" not in vars(Column)
    entries = [PiAdic.one(5), PiAdic.pi(5)]
    x, y = _column(entries), _column(entries, 7)
    assert x == x and x != y
    assert [x.entry(k) for k in range(2)] == [y.entry(k) for k in range(2)]


def _exact_values(kind):
    """Values of one of the four exact kinds of scalar: Laurent over Fraction,
    F_7, PiAdic at p = 5, Laurent over PiAdic."""
    if kind == "prime":
        return st.integers(0, 6).map(lambda n: Fp(7, n))
    if kind == "point":
        return small_piadics
    coefficients = small_piadics if kind == "series" else st.fractions(
        min_value=-4, max_value=4, max_denominator=9)
    return st.dictionaries(st.integers(-2, 2), coefficients, max_size=3).map(Laurent)


@pytest.mark.parametrize("kind", RINGS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_every_exact_kind_is_a_ring(kind, data):
    x, y, z = (data.draw(_exact_values(kind)) for _ in range(3))
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert (x + y) * z == x * z + y * z


@pytest.mark.parametrize("x, divisor, error", [
    (Fp(5, 3), 5, InvariantError),
    (Fp(5, 3), Fp(5, 10), InvariantError),
    (PiAdic.pi(5), 0, ZeroDivisionError),
    (PiAdic.pi(5), PiAdic.zero(5), ZeroDivisionError),
    (L, ONE + L, PreconditionError),
    (Laurent({1: PiAdic.one(5)}), Laurent({0: PiAdic.one(5), 1: PiAdic.pi(5)}),
     PreconditionError),
], ids=["prime-by-int", "prime", "point-by-int", "point", "rational", "series"])
def test_inexact_division_raises_each_kinds_documented_error(x, divisor, error):
    # Fp cannot divide by a multiple of p, PiAdic by zero, and Laurent by
    # anything but a monomial
    with pytest.raises(error):
        x / divisor


def test_prime_ring_reflected_subtraction():
    assert 1 - Fp(5, 2) == Fp(5, 4)
    assert Fp(5, 2) - 1 == Fp(5, 1)


def test_laurent_reflected_subtraction():
    assert 1 - L == ONE - L
    assert Fraction(1, 2) - L == ONE / 2 - L
    assert L - 1 == L - ONE and 1 + L == L + ONE


def test_laurent_divides_only_by_monomials():
    assert (L * L * 3 + L) / (L * 2) == L * Fraction(3, 2) + ONE / 2
    with pytest.raises(PreconditionError):
        ONE / (L + ONE)
