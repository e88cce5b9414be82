"""Exact helpers: primality, matrix product, rational polygons and the
lower convex hull.

Everything here works over Python ints and fractions.Fraction; no floats.
Matrices are plain lists of lists.
"""

from fractions import Fraction
from math import isqrt

from .errors import PreconditionError


# Trial division takes time about sqrt(n): 0.12 s at 2**40 - 87, 1.1 s at
# 10**14 + 31 (2-core Xeon KVM guest). Larger n are refused before any division.
MAX_PRIME = 2 ** 40


def require_prime(n):
    """Raise PreconditionError unless n is prime (trial division to isqrt(n))
    and at most MAX_PRIME."""
    if n > MAX_PRIME:
        raise PreconditionError(f"{n} is over the prime cap of {MAX_PRIME} = 2^40")
    if n < 2 or any(n % k == 0 for k in range(2, isqrt(n) + 1)):
        raise PreconditionError(f"{n} is not prime")


def mat_mul(A, B):
    if A and B and len(A[0]) != len(B):
        raise PreconditionError("matrix shapes do not match")
    n = len(B[0]) if B else 0
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A] if n else [[] for _ in A]


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


class RationalPolygon:
    """Lower-convex piecewise linear graph given by its vertices.

    Vertices have strictly increasing x and strictly increasing slopes,
    all coordinates Fraction.
    """

    __slots__ = ("vertices",)

    def __init__(self, vertices):
        self.vertices = vertices

    def slopes(self):
        """One slope per unit horizontal step, ascending.

        All vertices must sit at integer x for this expansion to make sense.
        """
        out = []
        for (x0, y0), (x1, y1) in zip(self.vertices, self.vertices[1:]):
            w = x1 - x0
            if w.denominator != 1:
                raise PreconditionError("edge width is not an integer")
            out.extend([(y1 - y0) / w] * int(w))
        return out

    def value_at(self, x):
        x = Fraction(x)
        vs = self.vertices
        if not vs or x < vs[0][0] or x > vs[-1][0]:
            raise PreconditionError(f"x = {x} outside polygon support")
        for (x0, y0), (x1, y1) in zip(vs, vs[1:]):
            if x0 <= x <= x1:
                return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
        return vs[-1][1]

    def dominates(self, other):
        """True when this polygon lies on or above `other` over the shared span."""
        if self.vertices[0][0] != other.vertices[0][0] or self.vertices[-1][0] != other.vertices[-1][0]:
            raise PreconditionError("polygons have different spans")
        xs = sorted({x for x, _ in self.vertices} | {x for x, _ in other.vertices})
        return all(self.value_at(x) >= other.value_at(x) for x in xs)


def lower_convex_hull(points):
    """Lower convex hull of (x, y) points; y may be None meaning +infinity.

    Collinear interior points are dropped so vertex lists are canonical.
    """
    best = {}
    for x, y in points:
        if y is None:
            continue
        x = Fraction(x)
        y = Fraction(y)
        if x not in best or y < best[x]:
            best[x] = y
    if not best:
        raise PreconditionError("no finite points to hull")
    pts = sorted(best.items())
    hull = []
    for pt in pts:
        while len(hull) >= 2 and _cross(hull[-2], hull[-1], pt) <= 0:
            hull.pop()
        hull.append(pt)
    return RationalPolygon(tuple(hull))
