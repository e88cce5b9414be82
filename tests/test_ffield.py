from itertools import islice

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from reference import basis_traces_by_frobenius, embed_subfield_code_by_scan
from toricsums.errors import InvariantError, PreconditionError
from toricsums import reduction
from toricsums.ffield import FieldTower, Fp, _pmod, _pmul, field_tower, find_irreducible


def test_find_irreducible_is_deterministic():
    assert find_irreducible(3, 1) == (0, 1)
    # the chosen polynomial is the least one by coefficient code
    f1 = find_irreducible(3, 2)
    f2 = find_irreducible(3, 2)
    assert f1 == f2


@pytest.mark.parametrize("p,k", [(3, 1), (3, 2), (3, 3), (5, 2), (7, 1)])
def test_every_element_satisfies_x_q_eq_x(p, k):
    tw = FieldTower(p, k)
    for x in map(tw.from_code, range(tw.q)):
        y = x
        for _ in range(k):
            y = tw.frobenius(y)
        assert y == x


def test_field_inverses():
    tw = FieldTower(3, 3)
    seen = 0
    for x in map(tw.from_code, range(tw.q)):
        if x == tw.zero:
            continue
        assert tw.mul(x, tw.inv(x)) == tw.one
        seen += 1
    assert seen == 26


def test_generator_has_full_order():
    tw = FieldTower(3, 2)
    g = tw.generator()
    powers = {tw.to_code(tw.pow(g, e)) for e in range(8)}
    assert len(powers) == 8


@pytest.mark.parametrize("p,k", [(2, 4), (3, 3), (5, 2), (7, 2), (17, 2)])
def test_generator_is_the_least_primitive_element(p, k):
    # orders by walking powers: every smaller nonzero code has order below q - 1
    tw = FieldTower(p, k)

    def order(x):
        cur, n = x, 1
        while cur != tw.one:
            cur, n = tw.mul(cur, x), n + 1
        return n

    code = tw.to_code(tw.generator())
    assert order(tw.from_code(code)) == tw.q - 1
    assert all(order(tw.from_code(c)) < tw.q - 1 for c in range(1, code))


def test_trace_is_frobenius_invariant_and_additive():
    tw = FieldTower(5, 2)
    xs = list(map(tw.from_code, range(tw.q)))
    for x in xs[:10]:
        assert tw.trace(tw.frobenius(x)) == tw.trace(x)
    for x in xs[3:8]:
        for y in xs[11:16]:
            assert tw.trace(tw.add(x, y)) == (tw.trace(x) + tw.trace(y)) % 5


def test_trace_distribution_is_uniform():
    tw = FieldTower(3, 2)
    from collections import Counter
    counts = Counter(tw.trace(x) for x in map(tw.from_code, range(tw.q)))
    assert counts == Counter({0: 3, 1: 3, 2: 3})


def test_subfield_embedding_respects_arithmetic():
    # embed F_9 into F_81 through codes and check multiplicativity
    small = FieldTower(3, 2)
    big = FieldTower(3, 4)
    f = lambda code: big.embed_subfield_code(3, 2, code)
    for xc in range(9):
        for yc in range(3, 6):
            x, y = small.from_code(xc), small.from_code(yc)
            lhs = f(small.to_code(small.mul(x, y)))
            rhs = big.mul(f(xc), f(yc))
            assert lhs == rhs


@pytest.mark.parametrize("p,k,deg", [(2, 2, 2), (2, 4, 2), (2, 6, 2), (2, 6, 3), (3, 2, 2),
                                     (3, 4, 2), (3, 6, 2), (3, 6, 3), (5, 4, 2), (7, 2, 2)])
def test_subfield_embedding_is_the_least_code_root_scan(p, k, deg):
    # the root kept per (tower, deg), found among the powers of the
    # subfield's generator, is the one the scan of every code meets first
    tw = FieldTower(p, k)
    for code in range(p ** deg):
        assert tw.embed_subfield_code(p, deg, code) == embed_subfield_code_by_scan(tw, p, deg, code)


def test_prime_field_embedding_is_identity_on_codes():
    tw = FieldTower(7, 1)
    for n in range(7):
        assert tw.to_code(tw.embed_prime(n)) == n


def test_log_inverts_power():
    tw = FieldTower(3, 2)
    g = tw.generator()
    for e in range(8):
        assert tw.log(tw.pow(g, e)) == e


@st.composite
def field_pairs(draw):
    p = draw(st.sampled_from([2, 3, 5, 7, 17]))
    k = draw(st.integers(1, 6))
    tw = field_tower(p, k)
    x, y = (tw.from_code(draw(st.integers(0, tw.q - 1))) for _ in range(2))
    return tw, x, y


@settings(max_examples=300, deadline=None)
@given(field_pairs())
def test_mul_matches_the_generic_remainder(pair):
    # the fixed-modulus fold gives the remainder of the full product by the
    # modulus, as the generic polynomial division does
    tw, x, y = pair
    ref = _pmod(tw.p, _pmul(tw.p, list(x), list(y)), list(tw.modulus))
    assert tw.mul(x, y) == tuple(ref + [0] * (tw.k - len(ref)))


@pytest.mark.parametrize("p,k", [(p, k) for p in (2, 3, 5, 7, 11, 13, 17)
                                 for k in range(1, 20) if p ** k <= 10 ** 6])
def test_basis_traces_are_the_frobenius_sums(p, k):
    # Newton's identities on the modulus, including k = p where Tr(1) = 0
    tw = FieldTower(p, k)
    assert tw.basis_traces == basis_traces_by_frobenius(tw)


@pytest.mark.parametrize("p,k", [(2, 4), (3, 2), (5, 3), (17, 2)])
def test_field_tower_memo_shares_one_tower_per_field(p, k):
    tw = field_tower(p, k)
    assert field_tower(p, k) is tw and field_tower(p, k + 1) is not tw
    fresh = FieldTower(p, k)
    assert tw.generator() == fresh.generator() and tw.generator() is tw.generator()
    assert tw.basis_traces == fresh.basis_traces


def test_prime_field_values_compare_and_hash_by_residue():
    assert Fp(7, 3) == Fp(7, 3) == Fp(7, 10)
    assert Fp(7, 3) != Fp(7, 4) and Fp(7, 3) != Fp(5, 3) and Fp(7, 3) != 3
    # equal coordinate dicts over F_7 compare equal, and a set keeps one copy
    assert {(0, 1): Fp(7, 3), (2, 0): Fp(7, 6)} == {(0, 1): Fp(7, 10), (2, 0): Fp(7, -1)}
    assert len({Fp(7, 3), Fp(7, 10), Fp(5, 3)}) == 2


def test_prime_field_values_of_different_primes_do_not_combine():
    # F_5 and F_7 share no arithmetic: a silent result would take one p and
    # reduce the other's residue by it
    a, b = Fp(5, 2), Fp(7, 3)
    for op in (a.__add__, a.__radd__, a.__sub__, a.__rsub__, a.__mul__, a.__rmul__,
               a.__truediv__):
        with pytest.raises(PreconditionError, match="mixed prime-field operands"):
            op(b)
    assert a + 3 == 3 + a == Fp(5, 0) and a * Fp(5, 3) == Fp(5, 1)


CERTIFICATE_PRIMES = list(islice(reduction._certificate_primes(), 3))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(CERTIFICATE_PRIMES), st.integers(-2 ** 130, 2 ** 130),
       st.integers(-2 ** 130, 2 ** 130))
def test_division_inverts_multiplication_at_61_bit_primes(P, x, y):
    assume(y % P)
    assert Fp(P, x) / Fp(P, y) * Fp(P, y) == Fp(P, x)
    assert Fp(P, x) / y * y == Fp(P, x)
    with pytest.raises(InvariantError, match="division by a multiple of p"):
        Fp(P, x) / (y * P)
