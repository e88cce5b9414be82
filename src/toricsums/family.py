"""Parameters of the deformed Laurent family on the two-torus.

The family under study is

    F(L, x) = x1**a + x2**b + L / (x1**c * x2**d)

on the two dimensional torus, with positive integer exponents (a, b, c, d)
subject to the coprimality pattern below and a deformation parameter L.
"""

from collections import namedtuple
from math import gcd

from .errors import PreconditionError
from .exact import require_prime


class FamilyParams(namedtuple("FamilyParams", "a b c d")):
    """Exponents (a, b, c, d) of the family.

    Required: all positive and

        gcd(a, b) = gcd(a, c) = gcd(b, c) = gcd(b, d) = 1.

    Note gcd(a, d) is unconstrained.
    """

    __slots__ = ()

    def __new__(cls, a, b, c, d):
        self = super().__new__(cls, a, b, c, d)
        for name, v in zip(self._fields, self):
            if not isinstance(v, int) or v <= 0:
                raise PreconditionError(f"exponent {name} must be a positive integer, got {v!r}")
        for n1, n2 in [("a", "b"), ("a", "c"), ("b", "c"), ("b", "d")]:
            g = gcd(getattr(self, n1), getattr(self, n2))
            if g != 1:
                raise PreconditionError(f"gcd({n1}, {n2}) = {g}, expected 1")
        return self

    @property
    def mu(self):
        """Exponent vector of the pole monomial L / (x1**c x2**d)."""
        return (-self.c, -self.d)

    @property
    def degree(self):
        """Dimension of the middle cohomology: a*d + a*b + b*c.

        Equals twice the area of the Newton polytope spanned by
        (a, 0), (0, b) and mu.
        """
        return self.a * self.d + self.a * self.b + self.b * self.c

    def check_prime(self, p):
        """Raise unless p is an admissible characteristic for this family."""
        if p <= 2:
            raise PreconditionError(f"characteristic must be an odd prime > 2, got {p}")
        require_prime(p)
        if (self.a * self.b * self.c * self.d) % p == 0:
            raise PreconditionError(f"p = {p} divides a*b*c*d = {self.a * self.b * self.c * self.d}")
