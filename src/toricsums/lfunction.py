"""Torus exponential sums and the degree a*d+a*b+b*c L-polynomial.

The sums are exact elements of Z[zeta_p]; the L-polynomial coefficients come
out of the exponential generating identity and are checked to be integral at
every step.
"""

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cyclotomic import CycloInt, ord_q
from .errors import InvariantError, PreconditionError
from .exact import lower_convex_hull
from .ffield import FieldTower, evaluate_family


def check_histogram_fits(p, atilde, k):
    """Refuse a count whose histogram cannot fit in physical memory.

    exp_sum over F_{q^k}, q = p**atilde, builds m x m integer arrays with
    m = q**k - 1; its measured peak is about 24 bytes per cell.
    """
    m = p ** (atilde * k) - 1
    need = 24 * m * m
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise PreconditionError(
            f"counting over F_{p}^{atilde * k} needs about {need / 2 ** 30:.1f} GiB "
            f"for its {m} x {m} histogram, more than the {have / 2 ** 30:.1f} GiB "
            "of physical memory")


def exp_sum(params, p, lam_code, k, atilde=1, workers=1):
    """S_k: sum of zeta_p**Tr(F(lam, x)) over the torus of F_{q^k}, q = p**atilde.

    Runs on the generator power table: x = g**s, so each monomial exponent is
    a multiple of s modulo q**k - 1 and traces come from one precomputed table.
    """
    params.check_prime(p)
    if k < 1:
        raise PreconditionError("k must be >= 1")
    check_histogram_fits(p, atilde, k)
    tower = FieldTower(p, atilde * k)
    m = tower.q - 1
    lam = tower.embed_subfield_code(p, atilde, lam_code)
    if lam == tower.zero:
        raise PreconditionError("deformation value must be nonzero")
    g = tower.generator()
    T = np.empty(m, dtype=np.int64)
    cur = tower.one
    for i in range(m):
        T[i] = tower.trace(cur)
        cur = tower.mul(cur, g)
    L = tower.log(lam)
    a, b, c, d = params.a, params.b, params.c, params.d
    idx = np.arange(m, dtype=np.int64)
    A = T[(a * idx) % m]
    B = T[(b * idx) % m]

    def hist(rows):
        C = T[(L - c * rows[:, None] - d * idx[None, :]) % m]
        tot = (A[rows][:, None] + B[None, :] + C) % p
        return np.bincount(tot.ravel(), minlength=p)

    if workers <= 1:
        counts = hist(idx)
    else:
        chunks = np.array_split(idx, workers)
        with ThreadPoolExecutor(max_workers=workers) as ex:
            counts = sum(ex.map(hist, [ch for ch in chunks if len(ch)]))
    if int(counts.sum()) != m * m:
        raise InvariantError("histogram lost torus points")
    total = CycloInt.zero(p)
    for t in range(p):
        n = int(counts[t])
        if n:
            total = total + n * CycloInt.zeta_power(p, t)
    return total


def exp_sum_direct(params, p, lam_code, k, atilde=1):
    """Same sum by brute enumeration of the torus; cross-check for exp_sum."""
    tower = FieldTower(p, atilde * k)
    lam = tower.embed_subfield_code(p, atilde, lam_code)
    if lam == tower.zero:
        raise PreconditionError("deformation value must be nonzero")
    total = CycloInt.zero(p)
    for c1 in range(1, tower.q):
        x1 = tower.from_code(c1)
        for c2 in range(1, tower.q):
            x2 = tower.from_code(c2)
            t = tower.trace(evaluate_family(tower, params, lam, x1, x2))
            total = total + CycloInt.zeta_power(p, t)
    return total


@dataclass(frozen=True)
class ExpSumSeries:
    params: object
    p: int
    atilde: int
    lam_code: int
    sums: tuple  # CycloInt, sums[i] is S_{i+1}


def exp_sum_series(params, p, lam_code, count, atilde=1, workers=1):
    check_histogram_fits(p, atilde, count)
    sums = tuple(exp_sum(params, p, lam_code, k, atilde, workers) for k in range(1, count + 1))
    return ExpSumSeries(params, p, atilde, lam_code, sums)


@dataclass(frozen=True)
class LPolynomial:
    """Reciprocal characteristic polynomial: coeffs[r] multiplies T**r,
    coeffs[0] = 1, degree = a*d + a*b + b*c."""

    params: object
    p: int
    atilde: int
    lam_code: int
    coeffs: tuple  # CycloInt

    @property
    def degree(self):
        return len(self.coeffs) - 1


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


def l_polynomial(series):
    """Assemble the inverse L-function from exactly degree-many sums.

    Every coefficient of log L lives in Z[zeta_p] only after the exponential;
    integrality of each output coefficient is asserted (CycloInt division by
    m is exact or raises InvariantError), not assumed.
    """
    params = series.params
    n = params.degree
    if len(series.sums) < n:
        raise PreconditionError(f"need {n} sums, got {len(series.sums)}")
    p = series.p
    out = tuple(coefficients_from_power_sums(series.sums[:n], CycloInt.from_int(p, 1)))
    if not out[-1]:
        raise InvariantError("leading coefficient vanished; polynomial degree dropped")
    return LPolynomial(params, p, series.atilde, series.lam_code, out)


def predict_sum(lpoly, k):
    """S_k as forced by the polynomial alone, via the power sum recurrence."""
    A = lpoly.coeffs
    zero = CycloInt.zero(lpoly.p)
    s = [zero]  # s[0] unused
    for i in range(1, k + 1):
        acc = (A[i] if i < len(A) else zero) * (-i)
        for j in range(1, i):
            acc = acc - s[j] * (A[i - j] if i - j < len(A) else zero)
        s.append(acc)
    return s[k]


def newton_polygon(lpoly):
    """Lower hull of (r, ord_q of the T**r coefficient)."""
    pts = []
    for r, c in enumerate(lpoly.coeffs):
        pts.append((Fraction(r), ord_q(c, lpoly.atilde)))
    return lower_convex_hull(pts)
