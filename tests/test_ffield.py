import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricsums.errors import PreconditionError
from toricsums.ffield import FieldTower, Fp, find_irreducible


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


def test_prime_field_embedding_is_identity_on_codes():
    tw = FieldTower(7, 1)
    for n in range(7):
        assert tw.to_code(tw.embed_prime(n)) == n


def test_log_inverts_power():
    tw = FieldTower(3, 2)
    g = tw.generator()
    for e in range(8):
        assert tw.log(tw.pow(g, e)) == e


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
