"""Exact integer and rational linear algebra helpers.

Everything here works over Python ints and fractions.Fraction; no floats.
Matrices are plain lists of lists.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .errors import PreconditionError


def require_prime(n):
    """Raise PreconditionError unless n is prime (trial division to isqrt(n))."""
    if n < 2 or any(n % k == 0 for k in range(2, isqrt(n) + 1)):
        raise PreconditionError(f"{n} is not prime")


def _eye(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(A, B):
    if A and B and len(A[0]) != len(B):
        raise PreconditionError("matrix shapes do not match")
    n = len(B[0]) if B else 0
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A] if n else [[] for _ in A]


def smith_normal_form(M):
    """Return (U, S, V) with U*M*V = S the Smith normal form of M.

    U and V are unimodular; S is diagonal with nonnegative entries and each
    diagonal entry divides the next.
    """
    m = len(M)
    n = len(M[0]) if m else 0
    for row in M:
        if len(row) != n:
            raise PreconditionError("ragged matrix")
    S = [[int(x) for x in row] for row in M]
    U = _eye(m)
    V = _eye(n)

    def swap_rows(i, j):
        S[i], S[j] = S[j], S[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for r in S:
            r[i], r[j] = r[j], r[i]
        for r in V:
            r[i], r[j] = r[j], r[i]

    def add_row(dst, src, k):
        S[dst] = [x + k * y for x, y in zip(S[dst], S[src])]
        U[dst] = [x + k * y for x, y in zip(U[dst], U[src])]

    def add_col(dst, src, k):
        for r in S:
            r[dst] += k * r[src]
        for r in V:
            r[dst] += k * r[src]

    t = 0
    while t < min(m, n):
        piv = None
        for i in range(t, m):
            for j in range(t, n):
                if S[i][j] != 0 and (piv is None or abs(S[i][j]) < abs(S[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, m):
                if S[i][t] != 0:
                    add_row(i, t, -(S[i][t] // S[t][t]))
                    if S[i][t] != 0:
                        # remainder beats the pivot, promote it
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, n):
                if S[t][j] != 0:
                    add_col(j, t, -(S[t][j] // S[t][t]))
                    if S[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
        # enforce divisibility of the whole trailing block by the pivot
        bad = None
        for i in range(t + 1, m):
            if any(S[i][j] % S[t][t] != 0 for j in range(t + 1, n)):
                bad = i
                break
        if bad is not None:
            add_row(t, bad, 1)
            continue
        if S[t][t] < 0:
            S[t] = [-x for x in S[t]]
            U[t] = [-x for x in U[t]]
        t += 1
    return U, S, V


def invariant_factors(M):
    """Nonzero diagonal of the Smith normal form, in divisibility order."""
    _, S, _ = smith_normal_form(M)
    out = [S[i][i] for i in range(min(len(S), len(S[0]) if S else 0))]
    return tuple(x for x in out if x != 0)


def integer_kernel(A):
    """Basis of the integer right kernel of A (full row rank required).

    Each generator is primitive with its first nonzero entry positive.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    U, S, V = smith_normal_form(A)
    rank = sum(1 for i in range(min(m, n)) if S[i][i] != 0)
    if rank < m:
        raise PreconditionError(f"matrix has row rank {rank} < {m}")
    basis = []
    for j in range(rank, n):
        col = [V[i][j] for i in range(n)]
        lead = next(x for x in col if x != 0)
        if lead < 0:
            col = [-x for x in col]
        basis.append(tuple(col))
    return basis


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


@dataclass(frozen=True)
class RationalPolygon:
    """Lower-convex piecewise linear graph given by its vertices.

    Vertices have strictly increasing x and strictly increasing slopes,
    all coordinates Fraction.
    """

    vertices: tuple

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
