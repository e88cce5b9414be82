"""Torus exponential sums and the degree a*d+a*b+b*c L-polynomial.

The sums are exact elements of Z[zeta_p]; the L-polynomial coefficients come
out of the exponential generating identity and are checked to be integral at
every step. numpy is imported inside the counting functions only, so the
commands that count nothing do not load it.
"""

from fractions import Fraction
from math import isqrt

from .cyclotomic import CycloInt, ord_q
from .errors import InvariantError, PreconditionError
from .exact import coefficients_from_power_sums, lower_convex_hull, power_sums
from .ffield import field_tower


# Rows of the histogram are walked in chunks of about this many cells, so a
# sum holds its length-m tables and one chunk, never an m x m array.
CHUNK_CELLS = 1 << 20

# Work bound: a sum over F_{q^k} visits m * m torus points, m = q**k - 1.
MAX_CELLS = 1 << 32


def check_count_size(p, atilde, k):
    """Refuse a count over F_{q^k}, q = p**atilde, with more than MAX_CELLS
    torus points (m = q**k - 1 above 65536), or with atilde < 1.

    From field exponent 17 on every prime is over the cap (2**17 - 1 >
    65536), so such a count is refused from the exponent alone, before
    p**(atilde*k) is formed."""
    if atilde < 1:
        raise PreconditionError(f"atilde must be >= 1, got {atilde}")
    e = atilde * k
    if e >= 17:
        raise PreconditionError(
            f"counting over F_{p}^{e}: a field exponent of 17 or more puts every prime "
            f"over the cap of {MAX_CELLS} = 2^32 histogram cells")
    m = p ** e - 1
    if m * m > MAX_CELLS:
        raise PreconditionError(
            f"counting over F_{p}^{e} visits m^2 = {m * m} torus points "
            f"(m = {m}), over the cap of {MAX_CELLS} = 2^32 histogram cells")


def trace_table(tower, lam):
    """T[i] = Tr(g**i) for i < m = q - 1, g the canonical generator, and
    L = log_g(lam), for nonzero lam.

    Multiplication by g**B, B = isqrt(m), is a fixed k x k matrix over F_p.
    The first B powers of g are walked by B products in the tower, and the
    matrix's rows are the k products t**j * g**B; each later block of B
    powers is the one before times that matrix, in int64 mod p, so only one
    block is held at a time. Each block's coordinates are dotted with the
    basis traces (read off the modulus), giving T, and with p**j, giving the
    integer encodings; L is the one power whose encoding is lam's.
    """
    import numpy as np

    p, k, m = tower.p, tower.k, tower.q - 1
    g = tower.generator()
    B = isqrt(m)
    block = []
    cur = tower.one
    for _ in range(B):
        block.append(cur)
        cur = tower.mul(cur, g)
    step = np.array([tower.mul(tower.from_code(p ** j), cur) for j in range(k)],
                    dtype=np.int64)
    forms = np.array([tower.basis_traces, [p ** j for j in range(k)]], dtype=np.int64).T
    out = np.empty((-(-m // B) * B, 2), dtype=np.int64)
    blk = np.array(block, dtype=np.int64)
    for i in range(0, len(out), B):
        out[i:i + B] = blk.dot(forms)
        blk = blk.dot(step) % p
    T = out[:m, 0] % p
    hits = np.flatnonzero(out[:m, 1] == tower.to_code(lam))
    if hits.size != 1:
        raise InvariantError(f"{hits.size} powers of the generator equal the parameter")
    return T, int(hits[0])


def orbit_rows(m, q, k):
    """Orbits of s -> q*s on Z/m, m = q**k - 1: orbit size e -> the least
    element of each orbit of that size, ascending."""
    import numpy as np

    s = np.arange(m, dtype=np.int64)
    least = s.copy()
    size = np.full(m, k)
    r = s.copy()
    for i in range(1, k):
        r *= q
        r %= m
        np.minimum(least, r, out=least)
        size[(r == s) & (size == k)] = i
    reps = np.flatnonzero(least == s)
    return {e: reps[size[reps] == e] for e in range(1, k + 1) if k % e == 0}


def exp_sum(params, p, lam_code, k, atilde=1):
    """S_k: sum of zeta_p**Tr(F(lam, x)) over the torus of F_{q^k}, q = p**atilde.

    Runs on the generator power table: x1 = g**s, x2 = g**t with
    m = q**k - 1, so every trace comes from T[i] = Tr(g**i), built by
    `trace_table` with L = log_g(lam), on the tower that `field_tower` shares
    between every sum over one field, so its generator is searched for once.
    The sum is the histogram of A[s] + B[t] + C[s, t], the traces of x1**a,
    x2**b and lam / (x1**c x2**d).

    Since lam lies in F_q, x -> x**q fixes every summand, so (s, t) ->
    (q*s, q*t) permutes the cells and each row s has the histogram of every
    row q*s. Only the least row of each orbit of s -> q*s is binned, in
    chunks of about CHUNK_CELLS cells, and counted e times for an orbit of
    size e: about m*m/k cells in all. Within a chunk

    - C is gathered from T twice over at R[s] + P[t], R = (L - c*s) mod m and
      P = (-d*t) mod m, so no cell is reduced mod m;
    - the three traces are added in the narrowest unsigned dtype that holds
      3(p - 1) and binned unreduced; the bins are folded mod p once.

    The weighted bins must total m*m, which also checks that the orbit sizes
    add up to m. Peak memory is O(m) plus one chunk. A sum of more than
    MAX_CELLS cells is refused up front.
    """
    import numpy as np

    params.check_prime(p)
    if k < 1:
        raise PreconditionError("k must be >= 1")
    check_count_size(p, atilde, k)
    tower = field_tower(p, atilde * k)
    m = tower.q - 1
    lam = tower.embed_subfield_code(p, atilde, lam_code)
    if lam == tower.zero:
        raise PreconditionError("deformation value must be nonzero")
    T, L = trace_table(tower, lam)
    T = T.astype(np.min_scalar_type(3 * (p - 1)))
    a, b, c, d = params.a, params.b, params.c, params.d
    idx = np.arange(m, dtype=np.int64)
    A = T[(a * idx) % m]
    B = T[(b * idx) % m]
    T2 = np.concatenate((T, T))
    R = ((L - c * idx) % m).astype(np.int32)
    P = ((-d * idx) % m).astype(np.int32)
    rows = max(1, CHUNK_CELLS // m)
    chunks = [(e, reps[i:i + rows])
              for e, reps in orbit_rows(m, p ** atilde, k).items()
              for i in range(0, len(reps), rows)]

    def hist(chunk):
        e, s = chunk
        cells = T2[R[s, None] + P]
        cells += A[s, None]
        cells += B
        return e * np.bincount(cells.ravel(), minlength=3 * p)

    counts = sum(map(hist, chunks))
    if int(counts.sum()) != m * m:
        raise InvariantError("histogram lost torus points")
    # sum_t n_t zeta**t has coordinates n_t - n_(p-1) on the power basis
    n = counts.reshape(3, p).sum(axis=0).tolist()
    return CycloInt(p, [x - n[-1] for x in n[:-1]])


class ExpSumSeries:
    """sums: CycloInt, sums[i] is S_{i+1}."""

    __slots__ = ("params", "p", "atilde", "lam_code", "sums")

    def __init__(self, params, p, atilde, lam_code, sums):
        self.params = params
        self.p = p
        self.atilde = atilde
        self.lam_code = lam_code
        self.sums = sums


def exp_sum_series(params, p, lam_code, count, atilde=1):
    if count < 1:
        raise PreconditionError(f"count must be >= 1, got {count}")
    check_count_size(p, atilde, count)
    sums = tuple(exp_sum(params, p, lam_code, k, atilde) for k in range(1, count + 1))
    return ExpSumSeries(params, p, atilde, lam_code, sums)


class LPolynomial:
    """Reciprocal characteristic polynomial over F_q, q = p**atilde:
    coeffs[r], a CycloInt, multiplies T**r, coeffs[0] = 1,
    degree = a*d + a*b + b*c."""

    __slots__ = ("atilde", "coeffs")

    def __init__(self, atilde, coeffs):
        self.atilde = atilde
        self.coeffs = coeffs

    @property
    def degree(self):
        return len(self.coeffs) - 1


def sums_needed(degree):
    """h = floor(N/2) + 1: the sums S_1..S_h that l_polynomial starts from."""
    return degree // 2 + 1


def l_polynomial(series):
    """Assemble the inverse L-function from the first k >= h sums of the
    series, h = sums_needed(N); sums past the N-th are not used.

    Every admissible fiber is nondegenerate: check_prime makes p prime to
    a*b*c*d, so to the edge determinants ab, bc and ad of the Newton
    triangle, the parameter is nonzero, and the origin lies inside the
    triangle. So the reciprocal roots are pure of weight 2 (Denef-Loeser,
    Invent. Math. 106, 1991; Adolphson-Sperber, Annals 130, 1989), and the
    coefficients satisfy the functional equation

        A_(N-s) q**(2s) = A_N conj(A_s),  conj: zeta -> zeta**-1.

    Newton's identities give A_0..A_k. A_N is the one value of the 2p
    values +-zeta**j q**N that satisfies the equation at every s of the
    overlap N - k <= s <= k, and A_(N-s) = A_N conj(A_s) / q**(2s) for
    s < N - k. When every coefficient of the overlap is zero, S_(k+1) is
    counted and the derivation starts over.

    Integrality is asserted, not assumed: the divisions in Newton's
    identities and by q**(2s) here are exact or raise InvariantError, as
    does an overlap that no leading value, or more than one, satisfies.
    """
    params, p = series.params, series.p
    n, h = params.degree, sums_needed(params.degree)
    if len(series.sums) < h:
        raise PreconditionError(f"need {h} sums, got {len(series.sums)}")
    q = p ** series.atilde
    sums = list(series.sums[:n])
    while True:
        A = coefficients_from_power_sums(sums, CycloInt.from_int(p, 1))
        overlap = range(n - len(sums), len(sums) + 1)
        if any(A[s] for s in overlap):
            break
        sums.append(exp_sum(params, p, series.lam_code, len(sums) + 1, series.atilde))
    # A_N = u q**N with u = +-zeta**j: u q**N conj(A_s) = A_(N-s) q**(2s) on the overlap
    pairs = [(A[s].conj() * q ** n, A[n - s] * q ** (2 * s)) for s in overlap]
    units = [(sign, j) for sign in (1, -1) for j in range(p)
             if all(y.times_zeta(j) * sign == x for y, x in pairs)]
    if len(units) != 1:
        raise InvariantError(
            f"{len(units)} leading values +-zeta^j q^{n} satisfy the functional equation "
            f"on A_{overlap.start}..A_{overlap.stop - 1}, expected 1")
    [(sign, j)] = units
    lead = CycloInt.from_int(p, sign * q ** n).times_zeta(j)
    A += [lead * A[s].conj() / q ** (2 * s) for s in reversed(range(n - len(sums)))]
    return LPolynomial(series.atilde, tuple(A))


def count_l_polynomial(params, p, lam_code, atilde=1):
    """The L-polynomial from S_1..S_h, h = sums_needed(N): the count cap is
    checked over F_{q^h}, the largest field counted unless the overlap of
    l_polynomial vanishes."""
    series = exp_sum_series(params, p, lam_code, sums_needed(params.degree), atilde)
    return l_polynomial(series)


def predict_sum(lpoly, k):
    """S_k, k >= 1, as forced by the polynomial alone: power_sums of its
    coefficients."""
    if k < 1:
        raise PreconditionError(f"k must be >= 1, got {k}")
    return power_sums(lpoly.coeffs, k)[-1]


def newton_polygon(lpoly):
    """Lower hull of (r, ord_q of the T**r coefficient)."""
    pts = []
    for r, c in enumerate(lpoly.coeffs):
        pts.append((Fraction(r), ord_q(c, lpoly.atilde)))
    return lower_convex_hull(pts)
