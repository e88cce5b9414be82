"""Laurent polynomials in the deformation L, and exact linear solves.

Laurent and solve_linear take any exact field elements supporting +, -, *,
/, == and bool (False exactly for zero): fractions.Fraction, ffield.Fp, and
the pi-adic scalar type of the Frobenius computation. Laurent also takes
Python ints wherever no quotient is formed, as the connection check does. Laurent is the scalar of the
reduction engine wherever the deformation stays a variable: the rewrites
divide only by integers, by pi and by L, so every coordinate is a Laurent
polynomial and no gcd is ever needed. No quotient is formed either: the
connection is checked by substitution, and the CLI prints s as s * L**k
over L**k, already in lowest terms.

Laurent is also the one polynomial type: a value with no negative exponent
is a polynomial, with a degree and long division. poly_gcd and
Laurent.divmod have no caller in the package; perfbench/tracing.py wraps
poly_gcd by name, and they go with that wrapper.
"""

from fractions import Fraction

from .errors import InvariantError, PreconditionError


def add_term(acc, key, s):
    """acc[key] += s in a sparse dict of exact values, keeping it free of zeros."""
    if not s:
        return
    t = acc.get(key)
    t = s if t is None else t + s
    if t:
        acc[key] = t
    else:
        acc.pop(key, None)


class Laurent:
    """Laurent polynomial in L: exponent -> nonzero coefficient, immutable.

    Values combine with + - * among themselves and with a coefficient or a
    Python int, which + and - read as a constant term; / also takes a
    coefficient or a Python int. Division is exact and only by monomials
    (or coefficients); anything else raises PreconditionError. theta is the
    Euler derivative L d/dL. On values with no negative exponent, degree and
    divmod are those of polynomials.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        self.terms = {e: c for e, c in dict(terms).items() if c}

    @classmethod
    def _of(cls, terms):
        """Wrap a dict already free of zero coefficients."""
        x = cls.__new__(cls)
        x.terms = terms
        return x

    def __bool__(self):
        return bool(self.terms)

    @property
    def degree(self):
        """Top exponent; -1 for zero."""
        return max(self.terms, default=-1)

    def __eq__(self, other):
        return isinstance(other, Laurent) and self.terms == other.terms

    __hash__ = None

    def __repr__(self):
        return f"Laurent({self.terms!r})"

    def __str__(self):
        parts = []
        for e, c in sorted(self.terms.items()):
            var = "L" if e == 1 else f"L^{e}"
            if e == 0:
                parts.append(str(c))
            else:
                parts.append(var if c == 1 else f"-{var}" if c == -1 else f"{c}*{var}")
        return " + ".join(parts).replace("+ -", "- ") or "0"

    def __add__(self, other):
        if not isinstance(other, Laurent):
            other = Laurent({0: other})
        out = dict(self.terms)
        for e, c in other.terms.items():
            add_term(out, e, c)
        return Laurent._of(out)

    __radd__ = __add__

    def __neg__(self):
        return Laurent._of({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if not isinstance(other, Laurent):
            out = {}
            for e, c in self.terms.items():
                t = c * other
                if t:
                    out[e] = t
            return Laurent._of(out)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                add_term(out, e1 + e2, c1 * c2)
        return Laurent._of(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        shift = 0
        if isinstance(other, Laurent):
            if len(other.terms) != 1:
                raise PreconditionError("can only divide by monomials in the deformation")
            (shift, other), = other.terms.items()
        if isinstance(other, int):  # an int quotient of ints is a Fraction, not a float
            return Laurent._of({e - shift: Fraction(c, other) if isinstance(c, int) else c / other
                                for e, c in self.terms.items()})
        inv = 1 / other
        return Laurent._of({e - shift: c * inv for e, c in self.terms.items()})

    def theta(self):
        return Laurent._of({e: c * e for e, c in self.terms.items() if e})

    def divmod(self, other):
        """(q, r) with self = q * other + r and r of lower degree than other,
        by long division by the leading term of other."""
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        top = other.degree
        inv = 1 / other.terms[top]
        tail = [(e - top, -c) for e, c in other.terms.items() if e != top]
        rem = dict(self.terms)
        quo = {}
        for k in range(self.degree, top - 1, -1):
            c = rem.pop(k, None)
            if c is not None:
                c = c * inv
                quo[k - top] = c
                for e, oc in tail:
                    add_term(rem, k + e, c * oc)
        return Laurent._of(quo), Laurent._of(rem)


def poly_gcd(a, b):
    """Monic gcd of two polynomials over the coefficient field."""
    while b:
        a, b = b, a.divmod(b)[1]
    return a / a.terms[a.degree] if a else a


def solve_linear(A, B, *, one):
    """Solve A X = B by forward elimination and back substitution over an
    exact field.

    A is square (list of lists), B a list of columns-as-lists. Returns X as
    list of columns. Raises InvariantError when A is singular. The pivot of
    column k is its first nonzero entry at or below row k. Each pivot row is
    scaled to a unit pivot and kept by its nonzero entries right of the
    pivot, and only rows with a nonzero multiplier are updated, so no
    product has a zero factor. With no right-hand side the forward pass
    alone decides singularity.
    """
    n = len(A)
    M = [list(row) for row in A]
    cols = [list(col) for col in B]
    for col in cols:
        if len(col) != n:
            raise PreconditionError("right hand side has wrong length")
    tails = []  # row k of the unit upper triangular factor, by its nonzero entries
    for k in range(n):
        piv = next((i for i in range(k, n) if M[i][k]), None)
        if piv is None:
            raise InvariantError("singular matrix in exact solve")
        if piv != k:
            M[k], M[piv] = M[piv], M[k]
            for col in cols:
                col[k], col[piv] = col[piv], col[k]
        inv = one / M[k][k]
        tail = [(j, x * inv) for j, x in enumerate(M[k][k + 1:], k + 1) if x]
        tails.append(tail)
        for col in cols:
            col[k] = col[k] * inv
        for i in range(k + 1, n):
            f = M[i][k]
            if not f:
                continue
            row = M[i]
            for j, y in tail:
                row[j] = row[j] - f * y
            for col in cols:
                if col[k]:
                    col[i] = col[i] - f * col[k]
    for col in cols:
        for k in range(n - 2, -1, -1):
            for j, y in tails[k]:
                if col[j]:
                    col[k] = col[k] - y * col[j]
    return cols
