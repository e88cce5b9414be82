"""Rewrite engine for the twisted de Rham classes of the family.

Classes are finite sums  sum_u  S_u * x**u, stored as dicts from exponents
u in Z^2 to nonzero scalars S_u. The two operators

    D1 = x1 d/dx1 + pi*(a x1**a - c L x**mu)
    D2 = x2 d/dx2 + pi*(b x2**b - d L x**mu)

generate the relations, whose terms _relation lists once. reduce_to_basis
writes a class exactly as a combination of the degree-many basis monomials
plus D1/D2 certificates, by one rule: a climb below the box, a ladder above
it, or an in-box trade on the axis hodge.rewrite_axis names. A list of
classes is reduced in one pass, to coordinates and steps, no certificates.
Each rule's factors are built once per call, from the scalars' own
operations on ints, pi and L, and a step builds its Euler factor once.

The scalar protocol. The constants pi and L, and the rule factors built
from them, support + and - among themselves, * and / by each other and by
Python ints, and bool() False exactly at zero; == and hash, where a kind
has them, compare values. frobenius.PiAdic keeps + and - to exactly that:
an int or Fraction operand raises TypeError, where Laurent and Fp take one
as a constant. A class coefficient needs only + among its kind,
* by a rule factor and bool() as "nonzero". The rewrites divide only by
small integers, by pi and by L, so three kinds of scalar cover every use:
ratfunc.Laurent over Fraction with pi = 1 (the connection), Laurent over
frobenius.PiAdic (the series Frobenius), and fields where L is a number
(ffield.Fp with pi = 1, PiAdic at a Teichmuller point). The fourth kind is
a coefficient only: frobenius.Column, N images on one running denominator
that is never brought to lowest terms, alone at a point, inside Laurent for
the series. One value has many such representations, so a column has no ==
or hash of its own; its entries, canonical PiAdic values, are compared. The
deformation operator also needs S.theta(), which only Laurent has.

connection_matrix solves nothing over Q(L): it checks the GKZ companion
matrix by substitution against the derivative flag built from basis_connection.
Past the reduction of B, the check runs on Python ints: the flag and the
companion row each carry one denominator, and B and F are mostly zero, so
the flag recurrence and the substitution form only products of two nonzero
entries. The nonsingularity of F is decided exactly, at a few integer values
of L, by a certificate mod 61-bit primes: forward elimination alone by the
zero-skipping ratfunc.solve_linear over ffield.Fp.
"""

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import lcm, prod

from .errors import InvariantError
from .ffield import Fp
from .gkz import companion_matrix
from .hodge import basis_set, rewrite_axis, weight_units
from .ratfunc import Laurent, add_term, solve_linear

__all__ = [
    "ReductionCertificate", "apply_D1", "apply_D2", "apply_D_lambda",
    "reduce_to_basis", "verify_certificate", "connection_matrix", "flag_columns",
    "flag_representatives", "basis_connection",
    "class_add", "class_scale", "class_eq",
]


def class_add(x, y):
    out = dict(x)
    for u, s in y.items():
        add_term(out, u, s)
    return out


def class_scale(x, s):
    out = {}
    for u, v in x.items():
        add_term(out, u, v * s)
    return out


def class_eq(x, y):
    return not any(class_add(x, class_scale(y, -1)).values())


def _relation(params, axis, pi, lam):
    """D_i = x_i d/dx_i + pi*(power x_i**power - pole L x**mu), i = axis + 1,
    as the map w -> the three (monomial, coefficient) pairs of D_i x**w: the
    Euler term at w, the power term at w + power e_i, the pole term at w + mu."""
    power, pole = (params.a, params.c) if axis == 0 else (params.b, params.d)
    e1, e2 = (power, 0) if axis == 0 else (0, power)
    (m0, n0), up, down = params.mu, pi * power, -(pi * pole * lam)

    def terms(w):
        m, n = w
        return ((w, w[axis]), ((m + e1, n + e2), up), ((m + m0, n + n0), down))
    return terms


def _apply_D(cls_, params, axis, pi, lam):
    D = _relation(params, axis, pi, lam)
    out = {}
    for w, s in cls_.items():
        for u, coef in D(w):
            add_term(out, u, s * coef)
    return out


def apply_D1(cls_, params, pi, lam):
    return _apply_D(cls_, params, 0, pi, lam)


def apply_D2(cls_, params, pi, lam):
    return _apply_D(cls_, params, 1, pi, lam)


def apply_D_lambda(cls_, params, pi, lam):
    """L d/dL + pi L x**mu, the deformation operator."""
    mu = params.mu
    out = {}
    for (m, n), s in cls_.items():
        add_term(out, (m, n), s.theta())
        add_term(out, (m + mu[0], n + mu[1]), s * pi * lam)
    return out


class ReductionCertificate:
    """input = sum(coords) * basis + D1(h1) + D2(h2), exactly. A pass over a
    list of classes gives the list of their coords and h1 = h2 = None."""

    __slots__ = ("coords", "h1", "h2", "steps")

    def __init__(self, coords, h1, h2, steps):
        self.coords = coords
        self.h1 = h1
        self.h2 = h2
        self.steps = steps


def reduce_to_basis(cls_, params, pi, lam, max_steps=2 * 10 ** 6):
    """Rewrite a class, or a list of classes, into basis coordinates.

    One rule removes each off-basis monomial S x**u: for C x**u a term of
    D_i x**w, add t = S/C to h_i[w] and subtract t D_i x**w. The pair (i, w):
    a climb below the box (u1 <= -c, else u2 <= -d) takes u as the pole term,
    w = u - mu; a ladder above it (u1 > a, else u2 > b) and an in-box trade
    on the axis hodge.rewrite_axis names take u as the power term,
    w = u - a e_1 or u - b e_2. In the box the other relation D_j at w, with
    t' = -t pole_i/pole_j, cancels the pole term, so that term is skipped.
    The box monomials that rewrite_axis maps to None are the coordinates.

    Each rule takes S to t by one factor, 1/(pi power_i) or, for a climb,
    1/(-pi pole_i L), a trade also to t' by -pole_i/(pi power_i pole_j), and
    S to the term that moves by a pi-free carry: power_i/(pole_i L) for a
    climb, pole_i L/power_i for a ladder and pole_i power_j/(pole_j power_i)
    for a trade. The Euler terms at w are integer scalings of t and t', added
    as one factor times S.

    Pending monomials are popped heaviest first: largest
    hodge.weight_units, then largest m, then largest n. A rewrite's terms
    are mostly lighter, so each region of exponents is passed once instead
    of being revisited. `steps` counts the monomials eliminated; a pending
    monomial that cancels before it is popped is not counted.
    Transient division by pi and by L is expected; the scalars must support
    exact division by products of small integers, pi and L.

    A class (a dict) gives its ReductionCertificate. A list of classes is
    reduced in one pass, each pending monomial holding the nonzero
    coefficients of the classes that reach it; `steps` counts the pass, and
    coords is the list of the classes' coordinates, with h1 = h2 = None:
    no caller verifies a certificate for several classes, so none is built.
    """
    a, b, c, d = params.a, params.b, params.c, params.d
    powers, poles = (a, b), (c, d)
    one = lam / lam  # the unit of the scalars
    single = isinstance(cls_, dict)
    classes = [cls_] if single else list(cls_)
    coords, h = [{} for _ in classes], ({}, {}) if single else None
    pending = {}  # exponent -> {class index: its nonzero coefficient}
    for k, x in enumerate(classes):
        for u, s in x.items():
            if s:
                pending.setdefault(u, {})[k] = s
    # keys (-weight, -m, -n); a monomial is pushed when it becomes pending
    heap = [(-weight_units(params, u), -u[0], -u[1]) for u in pending]
    heapify(heap)
    rules = {}

    def factors(kind, axis):
        """The scalars of one rule, built on its first use in this call: the
        factors taking S to t (and t' for a trade), then the carry taking S
        to the moved term."""
        f = rules.get((kind, axis))
        if f is None:
            power, pole = powers[axis], poles[axis]
            if kind == "climb":
                f = (one / -(pi * pole * lam), one * power / (pole * lam))
            elif kind == "ladder":
                f = (one / (pi * power), lam * pole / power)
            else:
                power2, pole2 = powers[1 - axis], poles[1 - axis]
                to_t = one / (pi * power)
                f = (to_t, to_t * -pole / pole2, one * (pole * power2) / (pole2 * power))
            rules[kind, axis] = f
        return f

    def add_pending(u, col, f):
        """pending[u] += f * col, coefficient by coefficient, keeping zeros out."""
        row = pending.get(u)
        if row is None:
            row = pending[u] = {}
            heappush(heap, (-weight_units(params, u), -u[0], -u[1]))
        for k, s in col.items():
            add_term(row, k, s * f)
        if not row:
            del pending[u]  # cancelled: its heap key goes stale

    steps = 0
    while heap:
        key = heappop(heap)
        u = (-key[1], -key[2])
        col = pending.pop(u, None)
        if col is None:
            continue  # cancelled after it was pushed
        steps += 1
        if steps > max_steps:
            raise InvariantError(f"reduction exceeded {max_steps} steps at exponent {u}")
        m, n = u
        if m <= -c or n <= -d:  # climb: u is the pole term, its power term moves
            axis, w = 0 if m <= -c else 1, (m + c, n + d)
            to_t, carry = factors("climb", axis)
            moved = (w[0] + a, w[1]) if axis == 0 else (w[0], w[1] + b)
            euler = to_t * -w[axis]
        else:
            trade = m <= a and n <= b
            axis = rewrite_axis(params, u) if trade else 0 if m > a else 1
            if axis is None:
                for k, s in col.items():
                    add_term(coords[k], u, s)
                continue
            w = (m - a, n) if axis == 0 else (m, n - b)
            if not trade:  # ladder: u is the power term, its pole term moves
                to_t, carry = factors("ladder", axis)
                moved = (w[0] - c, w[1] - d)
                euler = to_t * -w[axis]
            else:  # trade: D_j at w cancels the pole term, and its power term moves
                to_t, to_t2, carry = factors("trade", axis)
                moved = (w[0] + a, w[1]) if axis == 1 else (w[0], w[1] + b)
                euler = to_t * -w[axis] + to_t2 * -w[1 - axis]
                if h is not None:
                    add_term(h[1 - axis], w, col[0] * to_t2)
        if h is not None:
            add_term(h[axis], w, col[0] * to_t)
        if euler:  # t times the Euler terms of D_i (and D_j) x**w leave the class
            add_pending(w, col, euler)
        add_pending(moved, col, carry)
    zero = pi * lam * 0  # every basis monomial gets a coordinate
    for v in basis_set(params):
        for x in coords:
            x.setdefault(v, zero)
    if single:
        return ReductionCertificate(coords=coords[0], h1=h[0], h2=h[1], steps=steps)
    return ReductionCertificate(coords=coords, h1=None, h2=None, steps=steps)


def verify_certificate(cls_, cert, params, pi, lam):
    """Exact check of input = coords + D1(h1) + D2(h2)."""
    recon = class_add(cert.coords, apply_D1(cert.h1, params, pi, lam))
    recon = class_add(recon, apply_D2(cert.h2, params, pi, lam))
    return class_eq(recon, cls_)


def flag_representatives(params, pi, lam, count):
    """Unreduced representatives (L d/dL + pi L x**mu)**i applied to 1."""
    reps = [{(0, 0): lam / lam}]  # the unit of the scalars
    for _ in range(count - 1):
        reps.append(apply_D_lambda(reps[-1], params, pi, lam))
    return reps


def basis_connection(params, pi, lam):
    """Matrix B of the deformation operator on hodge.basis_set: column j holds
    the coordinates of (L d/dL + pi L x**mu) x**v_j = pi L x**(v_j + mu)."""
    basis, (m0, n0) = basis_set(params), params.mu
    cols = reduce_to_basis([{(m + m0, n + n0): pi * lam} for m, n in basis], params, pi, lam).coords
    return [[col[u] for col in cols] for u in basis]


def _common_denominator(values):
    """lcm of the coefficient denominators of Laurent values over Z or Q."""
    return lcm(*(c.denominator for s in values for c in s.terms.values()))


def _cleared(s, m):
    """m * s over Z, for m a multiple of every coefficient denominator of s."""
    return Laurent._of({e: c.numerator * (m // c.denominator) for e, c in s.terms.items()})


def flag_columns(params, count):
    """Basis coordinates over Z[L, 1/L] (pi = 1) of (L d/dL + L x**mu)**j . 1,
    j < count, on one denominator: (delta, F') with flag j = F'_j / delta**j,
    delta the lcm of the coefficient denominators of B (1 whenever
    c = d = 1). The operator commutes with D1 and D2, so
    F_(j+1) = theta F_j + B F_j, which over Z reads
    F'_(j+1) = delta theta F'_j + (delta B) F'_j. Each row of delta B is kept
    by its nonzero entries, and a product is formed only where the entry of
    F'_j is nonzero too."""
    B = basis_connection(params, 1, Laurent({1: Fraction(1)}))
    delta = _common_denominator(b for row in B for b in row)
    rows = [[(j, _cleared(b, delta)) for j, b in enumerate(row) if b] for row in B]
    F = [[Laurent({0: 1}) if v == (0, 0) else Laurent() for v in basis_set(params)]]
    for _ in range(count - 1):
        prev = F[-1]
        F.append([s.theta() * delta + sum((b * prev[j] for j, b in row if prev[j]), Laurent())
                  for s, row in zip(prev, rows)])
    return delta, F


def connection_matrix(params):
    """Matrix of the deformation derivative on the iterated-derivative basis.

    Rows follow the companion convention: row i says theta of period i is
    period i+1 for i < N-1. The last row c, from the GKZ companion matrix,
    is checked by substitution: F c == t for F the first N flag_columns and
    t the last, and F is nonsingular, so c = F**-1 t. Both checks run over
    Z: with kappa the lcm of the denominators of c, F c = t times
    kappa delta**N reads sum_j delta**(N-j) F'_j (kappa c_j) = kappa F'_N. A
    failed check raises InvariantError naming the first row of F c = t that
    fails, or the singular flag. The rows are polynomials in L (Laurent over
    Fraction).
    """
    n = params.degree
    (delta, F), rows = flag_columns(params, n + 1), companion_matrix(params)
    kappa = _common_denominator(rows[-1])
    last = [(j, _cleared(c, kappa) * delta ** (n - j)) for j, c in enumerate(rows[-1]) if c]
    for i, v in enumerate(basis_set(params)):
        if sum((F[j][i] * c for j, c in last if F[j][i]), Laurent()) != F[n][i] * kappa:
            raise InvariantError(
                f"row {i} of F c = t (basis monomial {v}) fails for the last "
                f"row c of the companion matrix")
    _check_nonsingular(F[:n])  # its columns, flag j times delta**j: det F = det F**T
    return rows


_PRIMES = []  # the certificate primes found so far, descending from 2**61 - 1


def _is_prime(n):
    """Miller-Rabin to the bases 2, 3, ..., 37, deterministic for odd
    n < 3.3 * 10**24."""
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for base in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if base % n == 0:
            return True
        x = pow(base, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _certificate_primes():
    """The 61-bit primes in descending order from 2**61 - 1, each found once
    per process and kept. There are about 2**54 of them, far more than any
    certificate reaches."""
    k = 0
    while True:
        if k == len(_PRIMES):
            n = _PRIMES[-1] - 2 if _PRIMES else 2 ** 61 - 1
            while not _is_prime(n):
                n -= 2
            _PRIMES.append(n)
        yield _PRIMES[k]
        k += 1


def _check_nonsingular(F):
    """Raise InvariantError unless det F != 0, for F a square matrix of
    Laurent values over Z or Q. Row i times L**-(its lowest exponent) and
    times the lcm of its denominators is a row of integer polynomials of
    degree at most its exponent span, so det F is a nonzero rational times a
    power of L times det M, M that integer matrix, a polynomial of degree at
    most S, the sum of the spans: det F != 0 exactly when M(L0) is
    nonsingular for one of L0 = 1, ..., S + 1.

    det M(L0) != 0 is decided by a certificate mod primes P, the small-primes
    determinant of von zur Gathen and Gerhard (Modern Computer Algebra,
    ch. 5) used only to decide det != 0. The nonzero entries of M(L0) go mod
    the 61-bit primes of _certificate_primes, in order, to solve_linear with
    no right-hand side, so only its forward elimination runs, and it skips
    every zero multiplier and zero pivot-row entry. The first P where it
    finds no singularity proves det M(L0) != 0. det M(L0) = 0 is declared
    only once the product of the primes tried exceeds twice the Hadamard
    bound on |det M(L0)|."""
    span, rows = 0, []
    for row in F:
        exps = [e for s in row for e in s.terms]
        lo = min(exps, default=0)
        span += max(exps, default=0) - lo
        den = _common_denominator(row)
        rows.append((lo, [_cleared(s, den) for s in row]))
    for x in range(1, span + 2):
        M = [[sum(c * x ** (e - lo) for e, c in s.terms.items()) for s in row] for lo, row in rows]
        tried, hadamard2 = 1, None  # the product of the primes tried; the squared bound
        for P in _certificate_primes():
            try:
                solve_linear([[Fp(P, v) if v else 0 for v in row] for row in M], [], one=Fp(P, 1))
                return
            except InvariantError:
                pass
            tried *= P
            if hadamard2 is None:
                hadamard2 = prod(sum(v * v for v in row) for row in M)
            if tried * tried > 4 * hadamard2:
                break
    raise InvariantError(
        f"the derivative flag is singular: det F vanishes at L = 1, ..., {span + 1}")
