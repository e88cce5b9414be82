"""p-adic Frobenius structure of the family, computed exactly.

Scalars live in Q[pi]/(pi**(p-1) + p), the totally ramified degree p-1
extension generated by the exponential-splitting constant. The chain-level
Frobenius is psi_p composed with multiplication by the splitting product

    PHI = E(L x**mu) E(x1**a) E(x2**b),   E(t) = exp(pi (t - t**p)),

truncated at a certified total degree. Everything downstream of the
truncation is exact; the one analytic input is the coefficient bound
ord_pi E_i >= i (p-1)^2 / p^2, which bounds every dropped term: that part of
the margin is proved. Both routes, the series in L and the Teichmuller
point, run one core on the monomial basis of hodge.basis_set and subtract
one reserve, rho = reduction_reserve, which is measured: it does not
provably cover the pi-digit lost in each ladder step of reduce_to_basis.
flag_data and _series_inverse serve neither route; perfbench/tracing.py
still wraps flag_data by name.
"""

from fractions import Fraction
from math import ceil, comb, gcd, lcm
from operator import add, sub

from .errors import InvariantError, PreconditionError, StarvationError
from .exact import coefficients_from_power_sums, fold_mul, mat_mul
from .hodge import basis_set, weight_of
from .lfunction import check_count_size, count_l_polynomial, sums_needed
from .ratfunc import Laurent, solve_linear
from .reduction import basis_connection, flag_representatives, reduce_to_basis


def _ord_p(n, p):
    """p-adic order of a nonzero int."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


class PiAdic:
    """Element of Q[pi]/(pi**(p-1) + p) on integer coordinates over one
    common denominator.

    The value is sum(num[i] * pi**i for i < p - 1) / den: num is a tuple of
    p - 1 ints and den a positive int, kept in lowest terms, so that den and
    the entries of num have gcd 1 (zero is num = (0, ..., 0), den = 1). The
    form is canonical, so == and hash compare (num, den). The public
    constructor takes rational coordinates and brings them to this form;
    arithmetic builds every result with the one module-level constructor
    `_piadic`, which restores the form with a single gcd pass, skipped when
    the denominator is 1. `coeffs` gives the coordinates on 1, pi, ...,
    pi**(p-2) as Fractions.

    ord_pi is exact: the p-orders of the p-1 coordinates are distinct mod
    p-1, so the minimum over i + (p-1)*ord_p(c_i) is attained once.

    + and - take PiAdic operands only, as the scalar protocol of
    reduction states; * and / also take ints and Fractions, on either side.
    """

    __slots__ = ("p", "num", "den")

    def __init__(self, p, coeffs):
        coeffs = tuple(Fraction(c) for c in coeffs)
        if len(coeffs) != p - 1:
            raise PreconditionError(f"need {p - 1} coordinates, got {len(coeffs)}")
        # the lcm of reduced denominators leaves no common factor
        den = lcm(*(c.denominator for c in coeffs))
        self.p = p
        self.num = tuple(c.numerator * (den // c.denominator) for c in coeffs)
        self.den = den

    @property
    def coeffs(self):
        """The coordinates on 1, pi, ..., pi**(p-2), as Fractions."""
        return tuple(Fraction(x, self.den) for x in self.num)

    @classmethod
    def zero(cls, p):
        return _piadic(p, (0,) * (p - 1), 1)

    @classmethod
    def one(cls, p):
        return cls.from_fraction(p, 1)

    @classmethod
    def from_fraction(cls, p, fr):
        fr = Fraction(fr)
        return _piadic(p, (fr.numerator,) + (0,) * (p - 2), fr.denominator)

    @classmethod
    def pi(cls, p):
        return _piadic(p, (0, 1) + (0,) * (p - 3), 1)

    def _plus(self, other, sign):
        """self + sign * other, sign 1 or -1, for a PiAdic other only."""
        if type(other) is not PiAdic:
            return NotImplemented
        if other.p != self.p:
            raise PreconditionError("mixed pi-adic operands")
        return _piadic(self.p, *_sum(self, other, sign))

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __neg__(self):
        return _piadic(self.p, tuple([-x for x in self.num]), self.den)

    def _scale(self, a, b):
        """self * a / b for ints a and b > 0."""
        return _piadic(self.p, tuple([x * a for x in self.num]), self.den * b)

    def __mul__(self, other):
        if type(other) is not PiAdic:
            if isinstance(other, (int, Fraction)):
                return self._scale(other.numerator, other.denominator)
            return NotImplemented
        p = self.p
        if other.p != p:
            raise PreconditionError("mixed pi-adic operands")
        return _piadic(p, _ring_mul(self.num, other.num, p), self.den * other.den)

    __rmul__ = __mul__

    def inverse(self):
        if not self:
            raise ZeroDivisionError("inverse of zero pi-adic scalar")
        p, n = self.p, self.p - 1
        support = [i for i, c in enumerate(self.num) if c]
        if len(support) == 1:
            # (c/d) pi**i times pi**(p-1-i) d / (-p c) is pi**(p-1) / -p = 1
            i = support[0]
            c, d = self.num[i], self.den
            if c < 0:
                c, d = -c, -d
            out = [0] * n
            if i == 0:
                out[0] = d
                return _piadic(p, tuple(out), c)
            out[n - i] = -d
            return _piadic(p, tuple(out), p * c)
        # den / num, with num * pi**j on integers as the columns of the system
        cols = [_ring_mul(self.num, (0,) * j + (1,) + (0,) * (n - 1 - j), p) for j in range(n)]
        sol = solve_linear(list(zip(*cols)), [[1] + [0] * (n - 1)], one=Fraction(1))[0]
        return PiAdic(p, [x * self.den for x in sol])

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            r = Fraction(other.denominator, other.numerator)
            return self._scale(r.numerator, r.denominator)
        if type(other) is not PiAdic:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return self.inverse() * other

    def __pow__(self, e):
        if e == 0:
            return PiAdic.one(self.p)
        if e < 0:
            return self.inverse() ** (-e)
        result = PiAdic.one(self.p)
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            base = base * base
        return result

    def __bool__(self):
        return any(self.num)

    def __eq__(self, other):
        return (isinstance(other, PiAdic) and self.p == other.p
                and self.den == other.den and self.num == other.num)

    def __hash__(self):
        return hash((self.p, self.num, self.den))

    def __repr__(self):
        return f"PiAdic(p={self.p}, {list(self.coeffs)})"

    def ord_pi(self):
        """Exact valuation in pi units (ord pi = 1, ord p = p - 1); None if zero."""
        v = _ord_pi(self.num, self.p)
        return None if v is None else v - (self.p - 1) * _ord_p(self.den, self.p)

    def digits(self, count):
        """Canonical digit expansion d_0..d_{count-1} with x = sum d_i pi**i
        mod pi**count, digits in [0, p). Requires ord_pi >= 0.

        In lowest terms, when p divides den some coordinate is prime to p,
        and its term has ord_pi at most p - 2 before the division by den. So
        ord_pi < 0 exactly when p divides den."""
        p = self.p
        if self.den % p == 0:
            raise PreconditionError("scalar is not pi-integral")
        # den is prime to p. Coordinates congruent mod p**k give elements
        # congruent mod pi**(k*(p-1)), which share their first count digits.
        mod = p ** (count // (p - 1) + 1)
        inv = pow(self.den, -1, mod)
        a = [x * inv % mod for x in self.num]
        out = []
        for _ in range(count):
            d = a[0] % p
            out.append(d)
            a = a[1:] + [(d - a[0]) // p]
        return out


def _piadic(p, num, den):
    """The PiAdic sum(num[i] * pi**i) / den for a tuple num of p - 1 ints and
    an int den > 0, brought to lowest terms: the one constructor of results.
    A denominator of 1 is already lowest, so it skips the gcd."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = tuple([x // g for x in num])
            den //= g
    x = object.__new__(PiAdic)
    x.p = p
    x.num = num
    x.den = den
    return x


def _sum(x, y, sign):
    """(num, den) of x + sign * y, sign 1 or -1, for two values of integer
    coordinates num over a denominator den, not brought to lowest terms: an
    equal denominator adds the numerators, any other takes the gcd of the
    two denominators only."""
    d1, d2 = x.den, y.den
    if d1 == d2:
        return tuple(map(add if sign > 0 else sub, x.num, y.num)), d1
    g = gcd(d1, d2)
    s, t = d2 // g, sign * (d1 // g)
    return tuple([a * s + b * t for a, b in zip(x.num, y.num)]), d1 * s


class Column:
    """N pi-adic values on one running denominator, the coefficient that
    _frobenius_images gives the reduction: num holds N * (p - 1) ints,
    num[i*N + k] the coordinate of value k on pi**i, over den > 0.

    The reduction only adds columns, multiplies one by a rule factor
    c pi**j / m and asks bool() for "nonzero", so the column is never
    brought to lowest terms: a sum is _sum's, and a product moves
    coordinate i to i + j, folding pi**(p-1) = -p, then scales by c and m.
    entry(k), the canonical PiAdic of value k, is the one normalisation.
    Equal values may have different representations, so a column has no ==
    or hash of its own: compare entries.
    """

    __slots__ = ("p", "num", "den")

    def __init__(self, p, num, den):
        self.p = p
        self.num = num
        self.den = den

    def __add__(self, other):
        return Column(self.p, *_sum(self, other, 1))

    def __mul__(self, other):
        p, num = self.p, self.num
        if type(other) is not PiAdic or other.p != p:
            return NotImplemented
        support = [j for j, c in enumerate(other.num) if c]
        if len(support) != 1:
            raise PreconditionError("a column takes only factors c pi**j / m")
        j = support[0]
        c, cut = other.num[j], len(num) // (p - 1) * (p - 1 - j)
        return Column(p, [x * (-p * c) for x in num[cut:]] + [x * c for x in num[:cut]],
                      self.den * other.den)

    def __bool__(self):
        return any(self.num)

    def entry(self, k):
        """Value k, in lowest terms."""
        return _piadic(self.p, tuple(self.num[k::len(self.num) // (self.p - 1)]), self.den)


def _ring_mul(x, y, p):
    """x * y in Z[pi]/(pi**(p-1) + p) for p - 1 int coordinates x and y on
    1, pi, ..., pi**(p-2), as a tuple of p - 1 ints: fold_mul with
    pi**(p-1) = -p."""
    if p == 3:
        # (x0 + x1 pi)(y0 + y1 pi) with pi**2 = -3
        (x0, x1), (y0, y1) = x, y
        return (x0 * y0 - 3 * x1 * y1, x0 * y1 + x1 * y0)
    return tuple(fold_mul(x, y, ((0, -p),)))


def _ord_pi(num, p):
    """ord_pi of sum(num[i] * pi**i) for p - 1 ints num (None if all are
    zero), exact as in PiAdic; that of num / D is this less
    (p - 1) ord_p(D), whatever D."""
    return min((i + (p - 1) * _ord_p(c, p) for i, c in enumerate(num) if c), default=None)


def _integer_coords(M):
    """(D, ints) for a matrix M of PiAdic power series: D the lcm of the
    denominators, ints M's shape with each value x replaced by its numerator
    x.num scaled by D / x.den, so that x = ints / D."""
    D = lcm(*(x.den for row in M for e in row for x in e))
    return D, [[[x.num if x.den == D else tuple([c * (D // x.den) for c in x.num]) for x in e]
                for e in row] for row in M]


def _entry(x, k):
    """Image k of a reduced coordinate: a column, a Laurent over columns, or
    the zero the reduction gives a basis monomial that no image reaches."""
    if isinstance(x, Laurent):
        return Laurent._of({e: y for e, c in x.terms.items() if (y := c.entry(k))})
    return x.entry(k) if x else x


def _min_ord(values):
    """Least ord_pi over the nonzero values; None when every value is zero."""
    return min((v for v in (x.ord_pi() for x in values) if v is not None), default=None)


def ord_ge(x, m):
    """True when ord_pi(x) >= m (zero counts as infinite order)."""
    v = x.ord_pi()
    return v is None or v >= m


def splitting_coefficients(p, count):
    """Coefficients E_0..E_{count-1} of exp(pi (t - t**p)), exact.

    exp(pi t) exp(-pi t**p) gives E_i = sum_j (-1)**j pi**(i - (p-1) j) /
    ((i - p j)! j!), and (-1)**j pi**(-(p-1) j) = p**-j, so E_i = r_i pi**i
    with r_i = sum_j p**-j / ((i - p j)! j!) rational: one nonzero
    coordinate, at i mod (p - 1). Over i! p**J, J = floor(i/p), r_i has the
    integer numerator sum_j p**(J-j) i! / ((i - p j)! j!).

    Satisfies ord_pi E_i >= i (p-1)^2 / p^2; E_0 = 1, E_1 = pi.
    """
    n = p - 1
    fact = [1]
    for i in range(1, count):
        fact.append(fact[-1] * i)
    out = []
    for i in range(count):
        top = i // p
        r = sum(p ** (top - j) * (fact[i] // (fact[i - p * j] * fact[j]))
                for j in range(top + 1))
        num = [0] * n
        num[i % n] = r * (-p) ** (i // n)
        out.append(_piadic(p, tuple(num), fact[i] * p ** top))
    return out


def _over_one_denominator(E):
    """(C, delta) with E_i = C[i] pi**(i mod (p - 1)) / delta for the
    one-coordinate splitting coefficients E, delta their least common
    denominator."""
    n = E[0].p - 1
    delta = lcm(*(e.den for e in E))
    return [e.num[i % n] * (delta // e.den) for i, e in enumerate(E)], delta


def splitting_bound(p, i):
    """Lower bound for ord_pi of the i-th splitting coefficient."""
    return Fraction(i * (p - 1) ** 2, p * p)


def dwork_root(p, target_ord):
    """Partial sum of E(1): a primitive p-th root of unity mod pi**target_ord.

    The value is congruent to 1 + pi mod pi**2, which matches the valuation
    normalization pi = 1 - zeta up to a unit.
    """
    count = 1
    while splitting_bound(p, count) < target_ord:
        count += 1
    C, delta = _over_one_denominator(splitting_coefficients(p, count + 1))
    n = p - 1
    num = [0] * n
    for i, x in enumerate(C):
        num[i % n] += x
    return _piadic(p, tuple(num), delta)


def embed_cyclotomic(x, zeta_hat):
    """Image of a Z[zeta_p] element under zeta -> zeta_hat, as PiAdic."""
    p = x.p
    acc = PiAdic.zero(p)
    power = PiAdic.one(p)
    for c in x.coeffs:
        if c:
            acc = acc + power * c
        power = power * zeta_hat
    return acc


def teichmuller_lift(p, residue, target_ord):
    """(value, certified pi order) for the Teichmuller representative of a
    unit residue. Exact (order None) for residue +-1."""
    residue %= p
    if residue == 0:
        raise PreconditionError("no Teichmuller lift of zero")
    if residue == 1:
        return PiAdic.one(p), None
    if residue == p - 1:
        return -PiAdic.one(p), None
    k = max(1, ceil(target_ord / (p - 1)))
    val = pow(residue, p ** k, p ** (k + 1))
    return PiAdic.from_fraction(p, val), (k + 1) * (p - 1)


def _series(x, p, floor_ord=None):
    """Laurent over PiAdic -> its coefficient list on L**0, L**1, ...; a
    PiAdic, a coordinate at a point, is its own one-term series.

    Exact data must have no negative exponents. Truncated data may carry
    uncancelled tail debris at negative exponents; with floor_ord set, such
    coefficients are dropped when their order clears the certified floor and
    rejected otherwise.
    """
    if isinstance(x, PiAdic):
        return [x]
    x = x.terms
    if x and min(x) < 0:
        if floor_ord is None:
            raise InvariantError(
                "negative deformation exponent where a series was expected")
        for e, cval in x.items():
            if e < 0 and not ord_ge(cval, floor_ord):
                v = cval.ord_pi()
                raise InvariantError(
                    f"negative deformation exponent {e} with order {v}, "
                    f"below the certified floor {floor_ord}")
        x = {e: cval for e, cval in x.items() if e >= 0}
    z = PiAdic.zero(p)
    return [x.get(e, z) for e in range(max(x, default=-1) + 1)]


def _fit(x, p, count):
    """A power series cut or padded with zeros to exactly count terms."""
    return x[:count] + [PiAdic.zero(p)] * (count - len(x))


def _spread(x, p, count):
    """-p * x(L**p) for a power series x on integer coordinates, to count
    terms: the horizontality residual's p B(L**p), negated for its block."""
    out = [(0,) * (p - 1)] * count
    for k, c in enumerate(x[:(count + p - 1) // p]):
        out[k * p] = tuple([-p * y for y in c])
    return out


def _series_inverse(F, count, p):
    """Inverse of a matrix of power series with invertible constant term, to
    count terms: X_k = F_0**-1 (delta_k0 - sum_{t>=1} F_t X_{k-t})."""
    n = len(F)
    z, one = PiAdic.zero(p), PiAdic.one(p)
    F0 = [[e[0] if e else z for e in row] for row in F]
    F0inv = list(zip(*solve_linear(
        F0, [[one if i == j else z for i in range(n)] for j in range(n)], one=one)))
    X = [[[] for _ in range(n)] for _ in range(n)]
    for k in range(count):
        R = [[one if k == 0 and i == j else z for j in range(n)] for i in range(n)]
        for i in range(n):
            for m, f in enumerate(F[i]):
                for t in range(1, min(k + 1, len(f))):
                    if f[t]:
                        for j in range(n):
                            x = X[m][j][k - t]
                            if x:
                                R[i][j] = R[i][j] - f[t] * x
        for Xrow, row in zip(X, mat_mul(F0inv, R)):
            for x, c in zip(Xrow, row):
                x.append(c)
    return X


def flag_data(params, p, count):
    """Derivative flag over the pi-adic deformation ring: the basis order,
    the representatives, F (column i = basis coordinates of flag i) and the
    structure matrix B (column j = image of flag j), as series matrices; B is
    truncated to count terms."""
    pi, lam = PiAdic.pi(p), Laurent({1: PiAdic.one(p)})
    n = params.degree
    reps = flag_representatives(params, pi, lam, n + 1)
    order = basis_set(params)
    certs = [reduce_to_basis(r, params, pi, lam) for r in reps]
    G = [[_series(c.coords[v], p) for c in certs] for v in order]
    F = [row[:n] for row in G]
    DX, X = _integer_coords(_series_inverse(F, count, p))
    DG, Y = _integer_coords([row[n:] for row in G])
    g = [[[_piadic(p, x, DX * DG) for x in e] for e in row]
         for row in _mat_series_mul(X, Y, count, p)]
    zero = [PiAdic.zero(p)] * count
    one = [PiAdic.one(p)] + zero[1:]
    B = [[one if i == j + 1 else zero for j in range(n - 1)] + g[i] for i in range(n)]
    return order, reps[:n], F, B


def _frobenius_images(params, p, cutoff, lam):
    """psi_p(x**v * PHI) for each basis exponent v, exactly, PHI cut at
    cutoff and taken at the deformation lam: the Laurent L for the series,
    or a Teichmuller lift, a rational integer, at a point. The N images are
    one class whose coefficient at each monomial is a Column, image k
    (of the k-th basis exponent) its entry k; the series holds the columns
    inside Laurent, by L-exponent.

    psi_p keeps the x-exponents with both coordinates divisible by p and
    divides them by p. The term E_k lam**k E_i E_j of PHI has x-exponent
    (i a - k c, j b - k d), so x**v meets it only when i = (k c - v1) / a and
    j = (k d - v2) / b mod p (check_prime makes a and b units mod p). For
    each residue class of the basis mod p, only those (k, i, j) are walked.
    With E_i = C_i pi**(i mod (p-1)) / delta (_over_one_denominator), each
    product is C_k C_i C_j, times lam**k at a point, folded into p - 1 plain
    ints with pi**(p-1) = -p; the series keys it by the L-exponent k. The
    members of a class share these sums, shifted by (v - v') / p, and they
    go straight into the columns, one denominator delta**3 per monomial.
    """
    C, delta = _over_one_denominator(splitting_coefficients(p, cutoff + 1))
    a, b, c, d = params.a, params.b, params.c, params.d
    a_inv, b_inv = pow(a, -1, p), pow(b, -1, p)
    n, den = p - 1, delta ** 3
    series = isinstance(lam, Laurent)
    lift = 1 if series else lam.num[0]
    lam_C = [x * lift ** k for k, x in enumerate(C)]
    basis = basis_set(params)
    N = len(basis)
    classes = {}
    for idx, v in enumerate(basis):
        classes.setdefault((v[0] % p, v[1] % p), []).append(idx)
    cols = {}  # (exponent, k or 0) -> the n * N ints of its column
    for (r1, r2), members in classes.items():
        v1, v2 = basis[members[0]]
        sums = {}  # (x-exponent of the first member's image, k or 0) -> p - 1 ints
        for k, ck in enumerate(lam_C):
            if not ck:
                continue
            for i in range((k * c - r1) * a_inv % p, cutoff + 1 - k, p):
                cki = ck * C[i]
                if not cki:
                    continue
                s = k % n + i % n
                if s >= n:
                    s, cki = s - n, -p * cki
                e1, key = (v1 + i * a - k * c) // p, k if series else 0
                for j in range((k * d - r2) * b_inv % p, cutoff + 1 - k - i, p):
                    t = cki * C[j]
                    if not t:
                        continue
                    sj = s + j % n
                    if sj >= n:
                        sj, t = sj - n, -p * t
                    e = (e1, (v2 + j * b - k * d) // p, key)
                    row = sums.get(e)
                    if row is None:
                        sums[e] = row = [0] * n
                    row[sj] += t
        for idx in members:
            s1, s2 = (basis[idx][0] - v1) // p, (basis[idx][1] - v2) // p
            for (e1, e2, k), row in sums.items():
                if any(row):
                    col = cols.setdefault(((e1 + s1, e2 + s2), k), [0] * (n * N))
                    col[idx::N] = row
    image = {}
    for (u, k), col in cols.items():
        image.setdefault(u, {})[k] = Column(p, col, den)
    return {u: Laurent._of(terms) if series else terms[0] for u, terms in image.items()}


def default_cutoff(params, p):
    wmax = max(weight_of(params, v) for v in basis_set(params))
    return 2 * params.degree + int(ceil(p * wmax))


# Work bound on the splitting product: at cutoff C it has comb(C + 3, 3)
# terms, one per (k, i, j) with k + i + j <= C, which bounds the products
# _frobenius_images forms (only those psi_p keeps). The cap admits C <= 144.
MAX_PHI_TERMS = 1 << 19

# Work bound on the series Frobenius: U and B have N**2 entries of
# lam_order + 1 terms each, and every term is printed and enters the
# horizontality check, so time, memory and output grow with
# N**2 (lam_order + 1). The cap admits lam_order <= 1819 at N = 3, which for
# (1,1,1,1) at p = 3 takes 1.5 s and 74 MB and prints 5.9 MB (2-core Xeon
# KVM guest), and the default 2p + 10 at N = 11, (2,3,1,1), for p <= 61.
MAX_SERIES_TERMS = 1 << 14

# Primes admitted by frobenius_series and by reduce --ring pilambda. A
# pi-adic value carries p - 1 integer coordinates, so time, output and
# memory grow linearly in p. For reduce, (1,1,1,1) x^(2,2) takes 0.22 s,
# 3.3 MB of output and 47 MB peak RSS at p = 65521, the largest prime under
# the cap, and 3.4 s, 51 MB and 600 MB at p = 1,000,003 (2-core AMD EPYC KVM
# guest). The default splitting cutoff is at least 2p, so MAX_PHI_TERMS
# refuses p > 71 unless the caller gives the cutoff.
MAX_PIADIC_PRIME = 2 ** 16


def reduction_reserve(p, cutoff):
    """rho of both Frobenius routes: (p - 1) * floor(log_p cutoff)."""
    k = 0
    while p ** (k + 1) <= cutoff:
        k += 1
    return (p - 1) * k


def _margin(p, cutoff):
    return int(splitting_bound(p, cutoff + 1)) - reduction_reserve(p, cutoff)


def splitting_cutoff(params, p, pi_digits, cutoff=None):
    """The given splitting cutoff, or the least one from default_cutoff whose
    margin covers pi_digits. Either is refused, before any product term is
    built, when the splitting product would pass MAX_PHI_TERMS terms."""
    what = f"splitting cutoff {cutoff}"
    if cutoff is None:
        cutoff = default_cutoff(params, p)
        while _margin(p, cutoff) < pi_digits and comb(cutoff + 3, 3) <= MAX_PHI_TERMS:
            cutoff += 1
        what = f"pi**{pi_digits} needs a splitting cutoff of at least {cutoff}, which"
    elif cutoff < 0:
        raise PreconditionError("cutoff must be non-negative")
    if comb(cutoff + 3, 3) > MAX_PHI_TERMS:
        raise PreconditionError(f"{what} has {comb(cutoff + 3, 3)} product terms, "
                                f"over the cap of {MAX_PHI_TERMS} = 2^19")
    return cutoff


def _frobenius_core(params, p, lam, lam_p, count, pi_digits, cutoff, lift_ord=None):
    """U on the monomial basis, each entry a series of exactly count terms:
    column j holds the basis coordinates at lam_p of psi_p(x**v_j * PHI),
    PHI cut at cutoff and taken at lam. Returns (U, reserve, margin), the
    reserve being reduction_reserve. The series has lam = L, lam_p = L**p; a
    point has count = 1 and lam = lam_p = the lift, whose order lift_ord,
    less the reserve, caps the margin.
    """
    reserve, margin = reduction_reserve(p, cutoff), _margin(p, cutoff)
    limit, advice = f"splitting cutoff {cutoff}", "; raise the cutoff"
    if lift_ord is not None and lift_ord - reserve <= margin:
        margin = lift_ord - reserve
        limit, advice = f"Teichmuller lift to pi**{lift_ord}", ""
    if margin < pi_digits:
        raise StarvationError(
            f"{limit} certifies only pi**{margin}, need pi**{pi_digits}{advice}",
            achieved=margin, requested=pi_digits)
    pi, basis = PiAdic.pi(p), basis_set(params)
    U = [[] for _ in basis]
    images = _frobenius_images(params, p, cutoff, lam)
    coords = reduce_to_basis([images], params, pi, lam_p).coords[0]
    for j in range(len(basis)):
        for i, (row, v) in enumerate(zip(U, basis)):
            row.append(_fit(_series(_entry(coords[v], j), p, floor_ord=pi_digits + reserve),
                            p, count))
            bad = _min_ord(row[j])
            if bad is not None and bad < 0:
                raise InvariantError(
                    f"Frobenius entry ({i},{j}) is not pi-integral (ord {bad}) "
                    f"at p = {p}, splitting cutoff {cutoff}, reserve {reserve}")
    return U, reserve, margin


class FrobeniusSeries:
    """Fields: p; margin, cutoff and nu0 (the reduction reserve rho);
    lam_order; basis, the monomials that index the rows and columns of U and
    B; U, where U[i][j] is a list of PiAdic, entry n the coefficient of
    L**n; and B, of the same shape, the series of the connection matrix.
    """

    __slots__ = ("p", "margin", "cutoff", "nu0", "lam_order", "basis", "U", "B")

    def __init__(self, p, margin, cutoff, nu0, lam_order, basis, U, B):
        self.p = p
        self.margin = margin
        self.cutoff = cutoff
        self.nu0 = nu0
        self.lam_order = lam_order
        self.basis = basis
        self.U = U
        self.B = B


def frobenius_series(params, p, pi_digits=8, lam_order=None, cutoff=None):
    """Frobenius matrix U(L) on the monomial basis, as an exact series in the
    deformation, certified modulo pi**margin with margin >= pi_digits.

    Column j holds the basis coordinates at L**p of psi_p(x**v_j * PHI(L)),
    from the core of frobenius_at_point, with its margin and reserve rho
    (nu0). B is reduction.basis_connection at L, on the same basis. Every
    entry of U and B has lam_order + 1 terms; N**2 (lam_order + 1) above
    MAX_SERIES_TERMS, and p above MAX_PIADIC_PRIME, are refused before any
    work.

    Supported for c = d = 1: deeper poles put fractional powers of the
    deformation into the reduction, which the series ring does not carry.
    frobenius_at_point takes every family at a single deformation value.
    """
    params.check_prime(p)
    if p > MAX_PIADIC_PRIME:
        raise PreconditionError(
            f"prime {p} is over the pi-adic cap of {MAX_PIADIC_PRIME} = 2^16")
    if params.c * params.d != 1:
        raise PreconditionError(
            "the series Frobenius needs pole exponents c = d = 1")
    if pi_digits < 0:
        raise PreconditionError("pi_digits must be non-negative")
    if lam_order is not None and lam_order < 0:
        raise PreconditionError("lam_order must be non-negative")
    if lam_order is None:
        lam_order = 2 * p + 10
    count = lam_order + 1
    n = params.degree
    if n * n * count > MAX_SERIES_TERMS:
        raise PreconditionError(
            f"lam_order {lam_order} needs N^2 (lam_order + 1) = {n * n * count} "
            f"series terms at N = {n}, over the cap of {MAX_SERIES_TERMS} = 2^14")
    cutoff = splitting_cutoff(params, p, pi_digits, cutoff)
    one, pi, basis = PiAdic.one(p), PiAdic.pi(p), basis_set(params)
    lam = Laurent({1: one})
    U, rho, margin = _frobenius_core(
        params, p, lam, Laurent({p: one}), count, pi_digits, cutoff)
    B = [[_fit(_series(s, p), p, count) for s in row]
         for row in basis_connection(params, pi, lam)]
    return FrobeniusSeries(p=p, margin=margin, cutoff=cutoff, nu0=rho,
                           lam_order=lam_order, basis=basis, U=U, B=B)


def _mat_series_mul(A, B, count, p):
    """A*B for matrices of power series on integer coordinates, truncated to
    count terms: each term is p - 1 ints over its matrix's one denominator
    (_integer_coords), and the product is over the product of the two.

    The nonzero terms of every entry are listed once, and each output entry
    sums its _ring_mul products in a sparse dict: zero coefficients form no
    product.
    """
    def nonzero(M):
        return [[[(k, x) for k, x in enumerate(e[:count]) if any(x)] for e in row] for row in M]

    z = (0,) * (p - 1)
    A, B = nonzero(A), nonzero(B)
    out = []
    for row in A:
        out_row = []
        for j in range(len(B[0])):
            acc = {}
            for x, Brow in zip(row, B):
                y = Brow[j]
                for i, a in x:
                    for k, b in y:
                        if i + k >= count:
                            break
                        ab = _ring_mul(a, b, p)
                        s = acc.get(i + k)
                        acc[i + k] = ab if s is None else tuple(map(add, s, ab))
            out_row.append([acc.get(k, z) for k in range(count)])
        out.append(out_row)
    return out


def horizontality_residual(fs):
    """Residual of theta(U) - U*B + p*B(L**p)*U and labeled variants, on
    all lam_order + 1 terms, as a dict from "stated", "transposed" and
    "reversed" to the least ord_pi over the residual's coefficients (None
    for a zero residual).

    The stated shape should vanish to the certified precision; the variants
    (transposed connection matrix, reversed transport) are diagnostics and
    are reported without being silently substituted. U and B go to integer
    coordinates once, over D_U and D_B (_integer_coords), and each residual
    is formed on integers over D_U D_B, with no PiAdic per coefficient: its
    order is the least _ord_pi of a coefficient less (p - 1) ord_p(D_U D_B).
    """
    p = fs.p
    count = fs.lam_order + 1
    (DU, U), (DB, B) = _integer_coords(fs.U), _integer_coords(fs.B)
    thU = [[[tuple([DB * i * c for c in x]) for i, x in enumerate(e)] for e in row]
           for row in U]
    shift = (p - 1) * _ord_p(DU * DB, p)

    def residual_ord(B, left_to_right=True):
        # the residual is theta U less one product of blocks, over D_U D_B:
        # [U, -p B(L**p)] [B; U], or [B, U] [U; -p B(L**p)]
        Bp = [[_spread(e, p, count) for e in row] for row in B]
        left, right = ((U, Bp), (B, U)) if left_to_right else ((B, U), (U, Bp))
        R = _mat_series_mul([a + b for a, b in zip(*left)], right[0] + right[1], count, p)
        # the least p-order of coordinate i over all coefficients is that of
        # their gcd, so one _ord_pi of the p - 1 gcds gives the minimum
        v = _ord_pi([gcd(*xs) for xs in zip(*(
            map(sub, t, r) for rows in zip(thU, R) for es in zip(*rows) for t, r in zip(*es)))], p)
        return None if v is None else v - shift

    return {"stated": residual_ord(B),
            "transposed": residual_ord([list(col) for col in zip(*B)]),
            "reversed": residual_ord(B, False)}


class FrobeniusPoint:
    """Fields: margin, cutoff, nu0 (the reduction reserve rho) and U, a
    PiAdic matrix on the monomial basis."""

    __slots__ = ("margin", "cutoff", "nu0", "U")

    def __init__(self, margin, cutoff, nu0, U):
        self.margin = margin
        self.cutoff = cutoff
        self.nu0 = nu0
        self.U = U


def frobenius_at_point(params, p, lam_residue, pi_digits=8):
    """Frobenius matrix at the Teichmuller point above a unit residue, on the
    monomial basis: column j holds the basis coordinates of
    psi_p(x**v_j * PHI) at the lift, which is its own p-th power, so the
    reduction runs at one number for every (c, d). Every entry must be
    pi-integral, or InvariantError names it.

    margin = floor(splitting_bound(p, cutoff + 1)) - rho, capped by
    lift_ord - rho; the first term is proved. rho = (p - 1) floor(log_p
    cutoff), reported as nu0, is measured (README, "Precision model"): it
    covers the digits lost in reducing the image of E_(p**k), p**k the
    least power of p above the cutoff.
    """
    params.check_prime(p)
    if pi_digits < 0:
        raise PreconditionError("pi_digits must be non-negative")
    cutoff = splitting_cutoff(params, p, pi_digits)
    lam_hat, lam_ord = teichmuller_lift(
        p, lam_residue, pi_digits + 2 * params.degree * (p - 1))
    U, rho, margin = _frobenius_core(
        params, p, lam_hat, lam_hat, 1, pi_digits, cutoff, lift_ord=lam_ord)
    return FrobeniusPoint(margin=margin, cutoff=cutoff, nu0=rho,
                          U=[[e[0] for e in row] for row in U])


def reciprocal_char_poly(U, p):
    """Coefficients of det(1 - U T) from the trace power sums tr(U**k),
    k = 1..N, exact.

    Only U**1..U**h, h = ceil(N/2), are formed. Past h, every k = h + j has
    j <= h and tr(U**(h+j)) = sum over a, b of (U**h)[a][b] * (U**j)[b][a],
    N**2 products instead of a matrix product: h - 1 matrix products in all,
    not N - 1, for the same exact traces. The powers and traces run on
    integer coordinates over U's one denominator D (_integer_coords), so
    U**k is over D**k, and only the N traces become PiAdic values.
    """
    n = len(U)
    h = (n + 1) // 2
    D, V = _integer_coords([[[x] for x in row] for row in U])
    powers = [V]
    for _ in range(h - 1):
        powers.append(_mat_series_mul(powers[-1], V, 1, p))
    traces = [tuple(map(sum, zip(*(P[i][i][0] for i in range(n))))) for P in powers]
    # tr(U**h P) = sum of (U**h)[a][b] P[b][a]: U**h flattened to one row
    # times the transpose of P flattened to one column, summed as it goes
    H = [[x for row in powers[-1] for x in row]]
    traces += [_mat_series_mul(H, [[P[b][a]] for a in range(n) for b in range(n)], 1, p)[0][0][0]
               for P in powers[:n - h]]
    return coefficients_from_power_sums(
        [_piadic(p, t, D ** k) for k, t in enumerate(traces, 1)], PiAdic.one(p))


class CharPolyComparison:
    """Fields: det_coeffs, the coefficients of det(1 - U T); lpoly_coeffs,
    those of the counted L-polynomial over Z[zeta_p], and embedded, their
    images under zeta -> E(1); agreement, per coefficient, ord_pi of the
    difference (None = equal); and margin, that of U."""

    __slots__ = ("det_coeffs", "lpoly_coeffs", "embedded", "agreement", "margin")

    def __init__(self, det_coeffs, lpoly_coeffs, embedded, agreement, margin):
        self.det_coeffs = det_coeffs
        self.lpoly_coeffs = lpoly_coeffs
        self.embedded = embedded
        self.agreement = agreement
        self.margin = margin


def compare_char_poly_with_lfunction(params, p, lam_residue, pi_digits=8):
    """det(1 - U T) at the Teichmuller point against the L-polynomial that
    count_l_polynomial derives from S_1..S_h, h = floor(N/2) + 1, matched
    through zeta -> E(1). The count cap is checked over F_{p^h}, the field
    that is counted, before any Frobenius work."""
    check_count_size(p, 1, sums_needed(params.degree))
    fp = frobenius_at_point(params, p, lam_residue, pi_digits)
    det_coeffs = reciprocal_char_poly(fp.U, p)
    lp = count_l_polynomial(params, p, lam_residue)
    zeta_hat = dwork_root(p, fp.margin + 2)
    embedded = [embed_cyclotomic(c, zeta_hat) for c in lp.coeffs]
    return CharPolyComparison(det_coeffs=det_coeffs, lpoly_coeffs=list(lp.coeffs),
                              embedded=embedded,
                              agreement=[(d - e).ord_pi() for d, e in zip(det_coeffs, embedded)],
                              margin=fp.margin)
