"""Exact arithmetic in Z[zeta_p] for an odd prime p.

Elements are stored on the power basis 1, zeta, ..., zeta**(p-2) with the
relation 1 + zeta + ... + zeta**(p-1) = 0. The valuation at the prime
pi = 1 - zeta is computed by exact division, never numerically.
"""

from fractions import Fraction

from .errors import InvariantError, PreconditionError
from .exact import require_prime


def _mul_reduce(p, xs, ys):
    """Multiply two coefficient tuples and reduce zeta**(p-1) = -(1+...+zeta**(p-2))."""
    n = p - 1
    out = [0] * (2 * n - 1)
    for i, x in enumerate(xs):
        if not x:
            continue
        for j, y in enumerate(ys):
            out[i + j] += x * y
    for k in range(2 * n - 2, n - 1, -1):
        c = out[k]
        if c:
            out[k] = 0
            base = k - n
            for j in range(n):
                out[base + j] -= c
    return tuple(out[:n])


class CycloInt:
    """Element of Z[zeta_p] on the power basis."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p, coeffs):
        require_prime(p)
        coeffs = tuple(int(c) for c in coeffs)
        if len(coeffs) != p - 1:
            raise PreconditionError(f"need {p - 1} coefficients, got {len(coeffs)}")
        self.p = p
        self.coeffs = coeffs

    @classmethod
    def zero(cls, p):
        return cls(p, (0,) * (p - 1))

    @classmethod
    def from_int(cls, p, n):
        return cls(p, (n,) + (0,) * (p - 2))

    def _like(self, other):
        if not isinstance(other, CycloInt) or other.p != self.p:
            raise PreconditionError("mixed cyclotomic operands")

    def __add__(self, other):
        self._like(other)
        return CycloInt(self.p, tuple(x + y for x, y in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        self._like(other)
        return CycloInt(self.p, tuple(x - y for x, y in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return CycloInt(self.p, tuple(-x for x in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int):
            return CycloInt(self.p, tuple(x * other for x in self.coeffs))
        self._like(other)
        return CycloInt(self.p, _mul_reduce(self.p, self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __truediv__(self, n):
        """Exact division by a nonzero int; InvariantError unless it divides
        every coordinate (the power basis is a Z-basis of Z[zeta_p])."""
        if any(c % n for c in self.coeffs):
            raise InvariantError(f"{self!r} is not divisible by {n} in Z[zeta_p]")
        return CycloInt(self.p, tuple(c // n for c in self.coeffs))

    def _fold(self, full):
        """The element sum full[i] zeta**i, i < p, on the power basis."""
        return CycloInt(self.p, [c - full[-1] for c in full[:-1]])

    def conj(self):
        """Image under zeta -> zeta**-1, complex conjugation in every embedding."""
        full = self.coeffs + (0,)
        return self._fold(full[:1] + full[:0:-1])

    def times_zeta(self, j):
        """self * zeta**j, a rotation of the p coordinates on 1, ..., zeta**(p-1)."""
        full = self.coeffs + (0,)
        j %= self.p
        return self._fold(full[-j:] + full[:-j])

    def __eq__(self, other):
        return isinstance(other, CycloInt) and self.p == other.p and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.p, self.coeffs))

    def __bool__(self):
        return any(self.coeffs)

    def __repr__(self):
        return f"CycloInt(p={self.p}, {list(self.coeffs)})"


def pi_valuation(x):
    """Valuation of x in Z[zeta_p] at the prime (1 - zeta); None for x = 0.

    Normalized so that pi itself has valuation 1 and p has valuation p - 1.
    """
    if not isinstance(x, CycloInt):
        raise PreconditionError("pi_valuation expects a CycloInt")
    if not x:
        return None
    p = x.p
    coeffs = x.coeffs
    v = 0
    while True:
        s = sum(coeffs)
        if s % p:
            return v
        # y * (1 - zeta) = x on the power basis reads x_j = y_j - y_{j-1} + t
        # with t = y_{p-2}; summing over j gives t = sum(x) / p
        t = s // p
        y, prev = [], 0
        for c in coeffs:
            prev = c + prev - t
            y.append(prev)
        coeffs = y
        v += 1


def ord_q(x, atilde):
    """q-adic valuation of x where q = p**atilde; None for zero."""
    v = pi_valuation(x)
    if v is None:
        return None
    return Fraction(v, (x.p - 1) * atilde)
