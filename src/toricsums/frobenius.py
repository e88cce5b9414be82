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

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, comb, gcd, lcm

from .errors import InvariantError, PreconditionError, StarvationError
from .exact import mat_mul
from .hodge import basis_set, weight_of
from .lfunction import (
    check_count_size,
    check_workers,
    coefficients_from_power_sums,
    exp_sum_series,
    l_polynomial,
)
from .ratfunc import Laurent, add_term, solve_linear
from .reduction import apply_D_lambda, flag_representatives, reduce_to_basis


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
    arithmetic builds its results with `_of`, which trusts the invariant, or
    `_reduced`, which restores it with one gcd pass. `coeffs` gives the
    coordinates on 1, pi, ..., pi**(p-2) as Fractions.

    ord_pi is exact: the p-orders of the p-1 coordinates are distinct mod
    p-1, so the minimum over i + (p-1)*ord_p(c_i) is attained once.
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

    @classmethod
    def _of(cls, p, num, den):
        """Wrap p - 1 ints over den > 0, already in lowest terms."""
        x = cls.__new__(cls)
        x.p = p
        x.num = num
        x.den = den
        return x

    @classmethod
    def _reduced(cls, p, num, den):
        """Wrap p - 1 ints over den > 0, dividing out their common factor."""
        g = gcd(den, *num)
        if g != 1:
            num = tuple(x // g for x in num)
            den //= g
        return cls._of(p, num, den)

    @property
    def coeffs(self):
        """The coordinates on 1, pi, ..., pi**(p-2), as Fractions."""
        return tuple(Fraction(x, self.den) for x in self.num)

    @classmethod
    def zero(cls, p):
        return cls._of(p, (0,) * (p - 1), 1)

    @classmethod
    def one(cls, p):
        return cls.from_fraction(p, 1)

    @classmethod
    def from_fraction(cls, p, fr):
        fr = Fraction(fr)
        return cls._of(p, (fr.numerator,) + (0,) * (p - 2), fr.denominator)

    @classmethod
    def pi(cls, p):
        return cls._of(p, (0, 1) + (0,) * (p - 3), 1)

    def _coerce(self, other):
        """other as a PiAdic of the same p; None for foreign types."""
        if isinstance(other, PiAdic):
            if other.p != self.p:
                raise PreconditionError("mixed pi-adic operands")
            return other
        if isinstance(other, (int, Fraction)):
            return PiAdic.from_fraction(self.p, other)
        return None

    def _plus(self, other, sign):
        """self + sign * other for a PiAdic other of the same p."""
        d1, d2 = self.den, other.den
        g = gcd(d1, d2)
        s, t = d2 // g, sign * (d1 // g)
        num = tuple(x * s + y * t for x, y in zip(self.num, other.num))
        return PiAdic._reduced(self.p, num, d1 * s)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._plus(other, -1)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other._plus(self, -1)

    def __neg__(self):
        return PiAdic._of(self.p, tuple(-x for x in self.num), self.den)

    def _scale(self, a, b):
        """self * a / b for ints a and b > 0."""
        return PiAdic._reduced(self.p, tuple(x * a for x in self.num), self.den * b)

    def __mul__(self, other):
        if not isinstance(other, PiAdic):
            if isinstance(other, (int, Fraction)):
                return self._scale(other.numerator, other.denominator)
            return NotImplemented
        p = self.p
        if other.p != p:
            raise PreconditionError("mixed pi-adic operands")
        n = p - 1
        ys = [(j, y) for j, y in enumerate(other.num) if y]
        out = [0] * (2 * n - 1)
        for i, x in enumerate(self.num):
            if x:
                for j, y in ys:
                    out[i + j] += x * y
        # fold with pi**(p-1) = -p
        for k in range(2 * n - 2, n - 1, -1):
            if out[k]:
                out[k - n] -= p * out[k]
        return PiAdic._reduced(p, tuple(out[:n]), self.den * other.den)

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
                return PiAdic._of(p, tuple(out), c)
            out[n - i] = -d
            return PiAdic._reduced(p, tuple(out), p * c)
        cols = []
        for j in range(n):
            e = [Fraction(0)] * n
            e[j] = Fraction(1)
            col = (self * PiAdic(p, e)).coeffs
            cols.append(list(col))
        M = [[cols[j][i] for j in range(n)] for i in range(n)]
        e0 = [Fraction(1)] + [Fraction(0)] * (n - 1)
        sol = solve_linear(M, [e0], one=Fraction(1))[0]
        return PiAdic(p, sol)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            r = Fraction(other.denominator, other.numerator)
            return self._scale(r.numerator, r.denominator)
        other = self._coerce(other)
        if other is None:
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
        p = self.p
        vd = _ord_p(self.den, p)
        best = None
        for i, c in enumerate(self.num):
            if c:
                t = i + (p - 1) * (_ord_p(c, p) - vd)
                if best is None or t < best:
                    best = t
        return best

    def digits(self, count):
        """Canonical digit expansion d_0..d_{count-1} with x = sum d_i pi**i
        mod pi**count, digits in [0, p). Requires ord_pi >= 0."""
        v = self.ord_pi()
        if v is not None and v < 0:
            raise PreconditionError("scalar is not pi-integral")
        p = self.p
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


def _min_ord(values):
    """Least ord_pi over the nonzero values; None when every value is zero."""
    return min((v for v in (x.ord_pi() for x in values) if v is not None), default=None)


def ord_ge(x, m):
    """True when ord_pi(x) >= m (zero counts as infinite order)."""
    v = x.ord_pi()
    return v is None or v >= m


def congruent_mod_pi(x, y, m):
    return ord_ge(x - y, m)


def splitting_coefficients(p, count):
    """Coefficients E_0..E_{count-1} of exp(pi (t - t**p)), exact.

    Satisfies ord_pi E_i >= i (p-1)^2 / p^2; E_0 = 1, E_1 = pi.
    """
    pi = PiAdic.pi(p)
    pi_pows = [PiAdic.one(p)]
    for _ in range(count):
        pi_pows.append(pi_pows[-1] * pi)
    fact = [1]
    for i in range(1, count + 1):
        fact.append(fact[-1] * i)
    out = [PiAdic.zero(p) for _ in range(count)]
    j = 0
    while p * j < count:
        b = pi_pows[j] * Fraction((-1) ** j, fact[j])
        for i in range(count - p * j):
            a = pi_pows[i] * Fraction(1, fact[i])
            out[i + p * j] = out[i + p * j] + a * b
        j += 1
    return out


def splitting_bound(p, i):
    """Lower bound for ord_pi of the i-th splitting coefficient."""
    return Fraction(i * (p - 1) ** 2, p * p)


def dwork_root(p, target_ord):
    """Partial sum of E(1): a primitive p-th root of unity mod pi**target_ord.

    Returns (value, certified order). The value is congruent to 1 + pi
    mod pi**2, which matches the valuation normalization pi = 1 - zeta up
    to a unit.
    """
    count = 1
    while splitting_bound(p, count) < target_ord:
        count += 1
    coeffs = splitting_coefficients(p, count + 1)
    total = PiAdic.zero(p)
    for c in coeffs:
        total = total + c
    return total, target_ord


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
    """x(L**p) for a power series x, to count terms."""
    out = [PiAdic.zero(p)] * count
    for k, c in enumerate(x[:(count + p - 1) // p]):
        out[k * p] = c
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
    g = _mat_series_mul(_series_inverse(F, count, p), [row[n:] for row in G], count, p)
    zero = [PiAdic.zero(p)] * count
    one = [PiAdic.one(p)] + zero[1:]
    B = [[one if i == j + 1 else zero for j in range(n - 1)] + g[i] for i in range(n)]
    return order, reps[:n], F, B


def _phi_terms(params, p, cutoff):
    """Truncated splitting product: list of (lam_exp, x_exponent, PiAdic)."""
    E = splitting_coefficients(p, cutoff + 1)
    a, b, c, d = params.a, params.b, params.c, params.d
    out = []
    for k in range(cutoff + 1):
        if not E[k]:
            continue
        for i in range(cutoff + 1 - k):
            if not E[i]:
                continue
            Eki = E[k] * E[i]
            for j in range(cutoff + 1 - k - i):
                if not E[j]:
                    continue
                coeff = Eki * E[j]
                if coeff:
                    out.append((k, (i * a - k * c, j * b - k * d), coeff))
    return out


def _frobenius_images(basis, phi, lam, p):
    """psi_p(x**v * PHI) for each basis exponent v, exactly.

    phi is the _phi_terms list, taken at the deformation lam (a Laurent
    monomial, or a number at a point). psi_p keeps
    the x-exponents with both coordinates divisible by p and divides them by
    p, so x**v meets only the phi terms whose exponent has the complementary
    residues mod p; the dropped products are never formed.
    """
    by_residue, lam_pows = {}, [lam / lam]
    for k, (v1, v2), coeff in phi:
        while len(lam_pows) <= k:
            lam_pows.append(lam_pows[-1] * lam)
        by_residue.setdefault((v1 % p, v2 % p), []).append((v1, v2, coeff * lam_pows[k]))
    images = []
    for r1, r2 in basis:
        img = {}
        for v1, v2, t in by_residue.get((-r1 % p, -r2 % p), ()):
            add_term(img, ((r1 + v1) // p, (r2 + v2) // p), t)
        images.append(img)
    return images


def default_cutoff(params, p):
    wmax = max(weight_of(params, v) for v in basis_set(params))
    return 2 * params.degree + int(ceil(p * wmax))


# Work bound on the splitting product, which has comb(C + 3, 3) terms at
# cutoff C, one per (k, i, j) with k + i + j <= C: this cap admits C <= 144.
MAX_PHI_TERMS = 1 << 19


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
    phi = _phi_terms(params, p, cutoff)
    pi, basis = PiAdic.pi(p), basis_set(params)
    U = [[] for _ in basis]
    for j, img in enumerate(_frobenius_images(basis, phi, lam, p)):
        coords = reduce_to_basis(img, params, pi, lam_p).coords
        for i, (row, v) in enumerate(zip(U, basis)):
            row.append(_fit(_series(coords[v], p, floor_ord=pi_digits + reserve), p, count))
            bad = _min_ord(row[j])
            if bad is not None and bad < 0:
                raise InvariantError(
                    f"Frobenius entry ({i},{j}) is not pi-integral (ord {bad}) "
                    f"at p = {p}, splitting cutoff {cutoff}, reserve {reserve}")
    return U, reserve, margin


@dataclass
class FrobeniusSeries:
    params: object
    p: int
    pi_digits: int
    margin: int
    cutoff: int
    nu0: int  # the reduction reserve rho
    lam_order: int
    basis: list    # the monomials that index the rows and columns of U and B
    U: list        # U[i][j] = list of PiAdic, coefficient of L**n
    B: list        # same shape, series of the connection matrix


def frobenius_series(params, p, pi_digits=8, lam_order=None, cutoff=None):
    """Frobenius matrix U(L) on the monomial basis, as an exact series in the
    deformation, certified modulo pi**margin with margin >= pi_digits.

    Column j holds the basis coordinates at L**p of psi_p(x**v_j * PHI(L)),
    from the core of frobenius_at_point, with its margin and reserve rho
    (nu0). B is the connection on the same basis: column j holds the basis
    coordinates of (L d/dL + pi L x**mu) x**v_j at L. Every entry of U and
    B has lam_order + 1 terms.

    Supported for c = d = 1: deeper poles put fractional powers of the
    deformation into the reduction, which the series ring does not carry.
    frobenius_at_point takes every family at a single deformation value.
    """
    params.check_prime(p)
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
    cutoff = splitting_cutoff(params, p, pi_digits, cutoff)
    one, pi, basis = PiAdic.one(p), PiAdic.pi(p), basis_set(params)
    lam = Laurent({1: one})
    U, rho, margin = _frobenius_core(
        params, p, lam, Laurent({p: one}), count, pi_digits, cutoff)
    B = [[] for _ in basis]
    for v in basis:
        image = apply_D_lambda({v: Laurent({0: one})}, params, pi, lam)
        coords = reduce_to_basis(image, params, pi, lam).coords
        for row, u in zip(B, basis):
            row.append(_fit(_series(coords[u], p), p, count))
    return FrobeniusSeries(params=params, p=p, pi_digits=pi_digits, margin=margin,
                           cutoff=cutoff, nu0=rho, lam_order=lam_order,
                           basis=basis, U=U, B=B)


def _mat_series_mul(A, B, count, p):
    """A*B for matrices of power series, truncated to count terms.

    Each entry accumulates into one list, and zero coefficients of either
    factor form no product.
    """
    z = PiAdic.zero(p)
    out = []
    for row in A:
        out_row = []
        for j in range(len(B[0])):
            acc = [z] * count
            for x, Brow in zip(row, B):
                y = [(k, b) for k, b in enumerate(Brow[j][:count]) if b]
                for i, a in enumerate(x[:count]):
                    if a:
                        for k, b in y:
                            if i + k >= count:
                                break
                            acc[i + k] = acc[i + k] + a * b
            out_row.append(acc)
        out.append(out_row)
    return out


@dataclass
class HorizontalityReport:
    lam_checked: int
    variants: dict      # name -> min ord_pi over all residual coefficients (None = 0 residual)
    margin: int


def horizontality_residual(fs, lam_checked=None):
    """Residual of theta(U) - U*B + p*B(L**p)*U and labeled variants.

    The stated shape should vanish to the certified precision; the variants
    (transposed connection matrix, reversed transport) are diagnostics and
    are reported without being silently substituted.
    """
    p = fs.p
    count = (fs.lam_order + 1) if lam_checked is None else min(lam_checked, fs.lam_order + 1)
    U = [[entry[:count] for entry in row] for row in fs.U]
    thU = [[[c * i for i, c in enumerate(e)] for e in row] for row in U]

    def residual_ord(B, left_to_right=True):
        Bp = [[_spread(e, p, count) for e in row] for row in B]
        if left_to_right:
            t1, t2 = _mat_series_mul(U, B, count, p), _mat_series_mul(Bp, U, count, p)
        else:
            t1, t2 = _mat_series_mul(B, U, count, p), _mat_series_mul(U, Bp, count, p)
        return _min_ord(a - b + c * p for rows in zip(thU, t1, t2)
                        for entries in zip(*rows) for a, b, c in zip(*entries))

    B = [[entry[:count] for entry in row] for row in fs.B]
    variants = {"stated": residual_ord(B),
                "transposed": residual_ord([list(col) for col in zip(*B)]),
                "reversed": residual_ord(B, False)}
    return HorizontalityReport(lam_checked=count, variants=variants, margin=fs.margin)


@dataclass
class FrobeniusPoint:
    params: object
    p: int
    lam_residue: int
    pi_digits: int
    margin: int
    cutoff: int
    nu0: int  # the reduction reserve rho
    basis: list
    U: list   # PiAdic matrix


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
    return FrobeniusPoint(params=params, p=p, lam_residue=lam_residue,
                          pi_digits=pi_digits, margin=margin, cutoff=cutoff,
                          nu0=rho, basis=basis_set(params),
                          U=[[e[0] for e in row] for row in U])


def reciprocal_char_poly(U, p):
    """Coefficients of det(1 - U T) from trace power sums, exact."""
    n = len(U)
    traces = []
    power = U
    for _ in range(n):
        traces.append(sum((power[i][i] for i in range(n)), PiAdic.zero(p)))
        power = mat_mul(power, U)
    return coefficients_from_power_sums(traces, PiAdic.one(p))


@dataclass
class CharPolyComparison:
    params: object
    p: int
    lam_residue: int
    det_coeffs: list
    lpoly_coeffs: list
    embedded: list
    agreement: list   # per coefficient: ord_pi of the difference (None = equal)
    min_agreement: object
    margin: int


def compare_char_poly_with_lfunction(params, p, lam_residue, pi_digits=8, workers=1):
    """det(1 - U T) at the Teichmuller point against the counted L-polynomial,
    matched through zeta -> E(1)."""
    # refuse an oversized count or a bad thread count before any Frobenius work
    check_count_size(p, 1, params.degree)
    check_workers(workers)
    fp = frobenius_at_point(params, p, lam_residue, pi_digits)
    det_coeffs = reciprocal_char_poly(fp.U, p)
    series = exp_sum_series(params, p, lam_residue, params.degree, workers=workers)
    lp = l_polynomial(series)
    zeta_hat, _ = dwork_root(p, fp.margin + 2)
    embedded = [embed_cyclotomic(c, zeta_hat) for c in lp.coeffs]
    diffs = [dc - ec for dc, ec in zip(det_coeffs, embedded)]
    return CharPolyComparison(params=params, p=p, lam_residue=lam_residue,
                              det_coeffs=det_coeffs, lpoly_coeffs=list(lp.coeffs),
                              embedded=embedded, agreement=[d.ord_pi() for d in diffs],
                              min_agreement=_min_ord(diffs), margin=fp.margin)
