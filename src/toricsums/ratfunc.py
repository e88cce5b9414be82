"""Polynomials, Laurent polynomials and rational functions in the deformation L.

Laurent and solve_linear take any exact field elements supporting +, -, *,
/, == and bool (False exactly for zero): fractions.Fraction, and the pi-adic
scalar type of the Frobenius computation. Laurent is the scalar of the
reduction engine wherever the deformation stays a variable: the rewrites
divide only by integers, by pi and by L, so every coordinate is a Laurent
polynomial and no gcd is ever needed.

Poly and RatFunc, the reduced quotient of two Poly, carry Fractions only.
They serve the exact solve of the connection matrix over Q(L);
Laurent.to_ratfunc is the one bridge. The pi-adic Frobenius works on
truncated power series instead and never builds a RatFunc.
"""

from itertools import zip_longest

from .errors import InvariantError, PreconditionError


class Poly:
    """Polynomial in one variable, dense coefficient tuple, constant term first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def const(cls, c):
        return cls((c,))

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                parts.append(str(c))
            else:
                var = "L" if k == 1 else f"L^{k}"
                if c == 1:
                    parts.append(var)
                elif c == -1:
                    parts.append(f"-{var}")
                else:
                    parts.append(f"{c}*{var}")
        return " + ".join(parts).replace("+ -", "- ")

    def _zero_coeff(self, other=None):
        if self.coeffs:
            return self.coeffs[0] * 0
        if isinstance(other, Poly) and other.coeffs:
            return other.coeffs[0] * 0
        return 0

    def __add__(self, other):
        z = self._zero_coeff(other)
        return Poly([x + y for x, y in zip_longest(self.coeffs, other.coeffs, fillvalue=z)])

    def __sub__(self, other):
        z = self._zero_coeff(other)
        return Poly([x - y for x, y in zip_longest(self.coeffs, other.coeffs, fillvalue=z)])

    def __neg__(self):
        return Poly([-x for x in self.coeffs])

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return self.scale(other)
        if not self.coeffs or not other.coeffs:
            return Poly()
        z = self.coeffs[0] * 0
        out = [z] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, x in enumerate(self.coeffs):
            if not x:
                continue
            for j, y in enumerate(other.coeffs):
                out[i + j] = out[i + j] + x * y
        return Poly(out)

    def scale(self, c):
        return Poly([x * c for x in self.coeffs])

    def divmod(self, other):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        lead = other.coeffs[-1]
        inv_lead = lead ** 0 / lead
        rem = list(self.coeffs)
        z = other.coeffs[0] * 0
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Poly(), self
        quo = [z] * (dq + 1)
        for k in range(dq, -1, -1):
            c = rem[k + other.degree] * inv_lead
            quo[k] = c
            if c:
                for j, oc in enumerate(other.coeffs):
                    rem[k + j] = rem[k + j] - c * oc
        return Poly(quo), Poly(rem)


def poly_gcd(a, b):
    """Monic gcd over the coefficient field."""
    while not b.is_zero():
        _, r = a.divmod(b)
        a, b = b, r
    if a.is_zero():
        return a
    lead = a.coeffs[-1]
    return a.scale(lead ** 0 / lead)


class RatFunc:
    """Quotient of two Poly, kept reduced with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if den is None:
            den = Poly.const(num.coeffs[0] ** 0) if num.coeffs else None
            if den is None:
                raise PreconditionError("cannot infer a denominator for the zero numerator")
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            lead = den.coeffs[-1]
            den = den.scale(lead ** 0 / lead)
            self.num, self.den = num, Poly.const(den.coeffs[-1])
            return
        g = poly_gcd(num, den)
        if g.degree > 0:
            num, _ = num.divmod(g)
            den, _ = den.divmod(g)
        lead = den.coeffs[-1]
        inv = lead ** 0 / lead
        self.num = num.scale(inv)
        self.den = den.scale(inv)

    def is_zero(self):
        return self.num.is_zero()

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        return isinstance(other, RatFunc) and self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"RatFunc({self.num!r}, {self.den!r})"

    def __str__(self):
        if len(self.den.coeffs) == 1 and self.den.coeffs[0] == 1:
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __add__(self, other):
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other):
        return RatFunc(self.num * other.den - other.num * self.den, self.den * other.den)

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __mul__(self, other):
        if not isinstance(other, RatFunc):
            return RatFunc(self.num.scale(other), self.den)
        return RatFunc(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)


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
    Euler derivative L d/dL.
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
        if isinstance(other, int):
            return Laurent._of({e: c / other for e, c in self.terms.items()})
        shift = 0
        if isinstance(other, Laurent):
            if len(other.terms) != 1:
                raise PreconditionError("can only divide by monomials in the deformation")
            (shift, other), = other.terms.items()
        inv = 1 / other
        return Laurent._of({e - shift: c * inv for e, c in self.terms.items()})

    def theta(self):
        return Laurent._of({e: c * e for e, c in self.terms.items() if e})

    def to_ratfunc(self, one):
        """The same element as a reduced RatFunc; one is the coefficients' unit."""
        low = min(min(self.terms, default=0), 0)
        zero = one * 0
        num = Poly([self.terms.get(e, zero) for e in range(low, max(self.terms, default=0) + 1)])
        return RatFunc(num, Poly([zero] * -low + [one]))


def solve_linear(A, B, *, one):
    """Solve A X = B by Gaussian elimination over an exact field.

    A is square (list of lists), B a list of columns-as-lists. Returns X as
    list of columns. Raises InvariantError when A is singular.
    """
    n = len(A)
    M = [list(row) for row in A]
    cols = [list(col) for col in B]
    for col in cols:
        if len(col) != n:
            raise PreconditionError("right hand side has wrong length")
    for k in range(n):
        piv = next((i for i in range(k, n) if M[i][k]), None)
        if piv is None:
            raise InvariantError("singular matrix in exact solve")
        if piv != k:
            M[k], M[piv] = M[piv], M[k]
            for col in cols:
                col[k], col[piv] = col[piv], col[k]
        inv = one / M[k][k]
        M[k] = [x * inv for x in M[k]]
        for col in cols:
            col[k] = col[k] * inv
        for i in range(n):
            if i == k or not M[i][k]:
                continue
            f = M[i][k]
            M[i] = [x - f * y for x, y in zip(M[i], M[k])]
            for col in cols:
                col[i] = col[i] - f * col[k]
    return [list(col) for col in cols]
