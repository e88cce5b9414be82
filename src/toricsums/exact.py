"""Exact helpers: primality, matrix product, the ring product, Newton's
identities, rational polygons and the lower convex hull.

Everything here works over Python ints and fractions.Fraction; no floats.
Matrices are plain lists of lists. fold_mul is the one product of the rings
Z[t]/(t**n - sum(c_j t**j)) that both routes compute in: Z[zeta_p] and
F_(p^k) when counting, Z[pi]/(pi**(p-1) + p) in Dwork theory. Newton's
identities are written once per direction: power_sums and
coefficients_from_power_sums.
"""

from fractions import Fraction
from functools import reduce
from math import isqrt
from operator import add, mul

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
    """A*B; each entry's sum starts at its first product, since a pi-adic
    value does not add the int 0."""
    if A and B and len(A[0]) != len(B):
        raise PreconditionError("matrix shapes do not match")
    n = len(B[0]) if B else 0
    return [[reduce(add, map(mul, row, col)) for col in zip(*B)] for row in A] if n else [[] for _ in A]


def fold_mul(x, y, fold):
    """x * y in Z[t]/(t**n - sum(c_j t**j)), fold the pairs (j, c_j), for x
    and y the n coordinates on 1, t, ..., t**(n-1): the schoolbook product,
    zero factors skipped, then its terms e t**(n+d), d = n-2 down to 0,
    popped from the top and added back as e t**d sum(c_j t**j). Returns the
    n coordinates as a list."""
    n = len(x)
    ys = [(j, b) for j, b in enumerate(y) if b]
    out = [0] * (2 * n - 1)
    for i, a in enumerate(x):
        if a:
            for j, b in ys:
                out[i + j] += a * b
    for d in range(n - 2, -1, -1):
        e = out.pop()
        if e:
            for j, c in fold:
                out[d + j] += e * c
    return out


def power_sums(coeffs, count):
    """S_1..S_count, S_m = sum alpha**m, from the coefficients
    1, c_1, ..., c_n of prod(1 - alpha T), by Newton's identities

        S_m = -(m c_m + c_1 S_(m-1) + ... + c_(m-1) S_1),  c_j = 0 for j > n.

    Division-free, so exact in any commutative ring; coeffs[0] * 0 is its
    zero."""
    n = len(coeffs) - 1
    sums = []
    for m in range(1, count + 1):
        acc = coeffs[m] * m if m <= n else coeffs[0] * 0
        for j in range(1, min(m, n + 1)):
            acc = acc + coeffs[j] * sums[m - j - 1]
        sums.append(-acc)
    return sums


def coefficients_from_power_sums(sums, one):
    """Coefficients one, c_1, ..., c_n of prod(1 - alpha T) from the power
    sums S_k = sum alpha**k, k = 1..n, by Newton's identities

        m c_m = -(S_1 c_{m-1} + S_2 c_{m-2} + ... + S_m c_0).

    The values' / by an int carries the exactness check, if any.
    """
    coeffs = [one]
    for m in range(1, len(sums) + 1):
        acc = sums[0] * coeffs[m - 1]
        for k in range(2, m + 1):
            acc = acc + sums[k - 1] * coeffs[m - k]
        coeffs.append(-acc / m)
    return coeffs


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
