"""Finite field towers F_p < F_{p^k} with deterministic moduli.

Elements are coefficient tuples over F_p (length k, constant term first).
The modulus is the monic irreducible of degree k whose coefficient tuple has
the smallest integer encoding sum(c_i * p**i), so every run builds the same
field and the same generator. `field_tower(p, k)` hands every caller the one
FieldTower of each (p, k) it asks for; a tower holds O(k) ints (its modulus,
basis traces and, once asked for, its generator), k more per subfield
embedded into it, and no tables, so the memo grows by that much per field. Multiplication is exact.fold_mul with the
fixed relation t**k = -sum(f_j t**j), and the basis traces are the power
sums of the modulus's roots from exact.power_sums: the ring product and the
Newton recurrence that the other routes share. Fp is the prime field as a
plain value, the scalar of reductions with the deformation specialized to
a residue.
"""

from functools import cached_property, lru_cache
from itertools import zip_longest

from .errors import InvariantError, PreconditionError
from .exact import fold_mul, power_sums, require_prime


class Fp:
    """Element of F_p; combines with Fp values of the same p and with ints,
    and raises PreconditionError on an Fp of another p. == and hash compare
    (p, n), n the residue in [0, p)."""

    __slots__ = ("p", "n")

    def __init__(self, p, n):
        self.p = p
        self.n = n % p

    def _other(self, other):
        if isinstance(other, Fp):
            if other.p != self.p:
                raise PreconditionError("mixed prime-field operands")
            return other.n
        return other if isinstance(other, int) else None

    def __add__(self, other):
        o = self._other(other)
        return NotImplemented if o is None else Fp(self.p, self.n + o)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._other(other)
        return NotImplemented if o is None else Fp(self.p, self.n - o)

    def __rsub__(self, other):
        o = self._other(other)
        return NotImplemented if o is None else Fp(self.p, o - self.n)

    def __neg__(self):
        return Fp(self.p, -self.n)

    def __mul__(self, other):
        o = self._other(other)
        return NotImplemented if o is None else Fp(self.p, self.n * o)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._other(other)
        if o is None:
            return NotImplemented
        if o % self.p == 0:
            raise InvariantError("division by a multiple of p in characteristic p")
        return Fp(self.p, self.n * pow(o, -1, self.p))

    def __bool__(self):
        return self.n != 0

    def __eq__(self, other):
        return isinstance(other, Fp) and self.p == other.p and self.n == other.n

    def __hash__(self):
        return hash((self.p, self.n))

    def __int__(self):
        return self.n

    def __repr__(self):
        return f"Fp({self.p}, {self.n})"


def _prime_divisors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _digits(code, p, k):
    """The k base-p digits of code, least significant first: the coefficient
    tuple whose integer encoding sum(c_i p**i) is code."""
    out = []
    for _ in range(k):
        out.append(code % p)
        code //= p
    return tuple(out)


def _pstrip(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmul(p, a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _pstrip(out)


def _pmod(p, a, f):
    a = list(a)
    df = len(f) - 1
    inv_lead = pow(f[-1], p - 2, p)
    while len(a) - 1 >= df and a:
        a = _pstrip(a)
        if len(a) - 1 < df:
            break
        coef = (a[-1] * inv_lead) % p
        shift = len(a) - 1 - df
        for j, fc in enumerate(f):
            a[shift + j] = (a[shift + j] - coef * fc) % p
        a = _pstrip(a)
    return a


def _ppow_t(p, f, e):
    """t**e mod f over F_p."""
    result = [1]
    base = _pmod(p, [0, 1], f)
    while e:
        if e & 1:
            result = _pmod(p, _pmul(p, result, base), f)
        e >>= 1
        base = _pmod(p, _pmul(p, base, base), f)
    return result


def _pgcd(p, a, b):
    a, b = _pstrip(a), _pstrip(b)
    while b:
        a, b = b, _pmod(p, a, b)
    return a


def _poly_is_irreducible(p, f):
    k = len(f) - 1
    if k == 1:
        return True
    # t^(p^k) must equal t, and t^(p^(k/l)) - t must be coprime to f
    if _ppow_t(p, f, p ** k) != [0, 1]:
        return False
    for ell in _prime_divisors(k):
        g = _ppow_t(p, f, p ** (k // ell))
        diff = _pstrip([(x - y) % p for x, y in zip_longest(g, [0, 1], fillvalue=0)])
        if len(_pgcd(p, diff, f)) != 1:
            return False
    return True


@lru_cache(maxsize=None)
def find_irreducible(p, k):
    """Monic irreducible of degree k over F_p with least integer encoding."""
    require_prime(p)
    if k < 1:
        raise PreconditionError("degree must be >= 1")
    if k == 1:
        return (0, 1)
    for code in range(p ** k):
        f = _digits(code, p, k) + (1,)
        if _poly_is_irreducible(p, list(f)):
            return f
    raise PreconditionError("no irreducible polynomial found")  # unreachable


class FieldTower:
    """The field F_{p^k} with its prime subfield, as coefficient tuples."""

    def __init__(self, p, k):
        require_prime(p)
        self.p = p
        self.k = k
        self.q = p ** k
        self.modulus = find_irreducible(p, k)
        # t**k = sum(c * t**j) over the pairs (j, c) with c = -f_j mod p nonzero
        self._fold = tuple((j, -f % p) for j, f in enumerate(self.modulus[:k]) if f)
        self._generator = None
        self._subfield_roots = {}  # deg -> the least-code root of find_irreducible(p, deg)

    def element(self, coeffs):
        cs = [c % self.p for c in coeffs]
        if len(cs) > self.k:
            cs = _pmod(self.p, cs, list(self.modulus))
        cs = cs + [0] * (self.k - len(cs))
        return tuple(cs[: self.k])

    @property
    def zero(self):
        return (0,) * self.k

    @property
    def one(self):
        return self.element([1])

    def embed_prime(self, n):
        return self.element([n % self.p])

    def from_code(self, code):
        """Element from its integer encoding sum(c_i p**i)."""
        return _digits(code, self.p, self.k)

    def to_code(self, x):
        return sum(c * self.p ** i for i, c in enumerate(x))

    def add(self, x, y):
        return tuple((a + b) % self.p for a, b in zip(x, y))

    def mul(self, x, y):
        """x * y: fold_mul with t**k = -sum(f_j t**j), and one reduction
        mod p at the end."""
        p = self.p
        return tuple([c % p for c in fold_mul(x, y, self._fold)])

    def pow(self, x, e):
        """x**e by squaring from the top bit of e down: one square per later
        bit, and one product by x per later bit that is set."""
        if e < 0:
            x = self.inv(x)
            e = -e
        if e == 0:
            return self.one
        result = x
        for bit in bin(e)[3:]:
            result = self.mul(result, result)
            if bit == "1":
                result = self.mul(result, x)
        return result

    def inv(self, x):
        if x == self.zero:
            raise ZeroDivisionError("inverse of zero in finite field")
        return self.pow(x, self.q - 2)

    def frobenius(self, x):
        return self.pow(x, self.p)

    @cached_property
    def basis_traces(self):
        """Tr(t**j) down to F_p for j < k, as ints in [0, p): the trace is
        the F_p-linear form with these coefficients.

        Tr(t**j) is the power sum s_j of the roots of the modulus
        f = t**k + f_(k-1) t**(k-1) + ... + f_0, its conjugates over F_p.
        Their prod(1 - alpha T) is the reversed modulus, so s_0 = k and
        s_1..s_(k-1) are its exact.power_sums, reduced mod p at the end.
        """
        p, k = self.p, self.k
        return tuple([k % p] + [s % p for s in power_sums(self.modulus[::-1], k - 1)])

    def trace(self, x):
        """Trace down to F_p, returned as an int in [0, p)."""
        return sum(c * t for c, t in zip(x, self.basis_traces)) % self.p

    def generator(self):
        """Least primitive element by integer encoding, searched for on the
        first call and kept."""
        if self._generator is None:
            m, one = self.q - 1, self.one
            primes = _prime_divisors(m)
            self._generator = next(
                g for g in map(self.from_code, range(1, self.q))
                if all(self.pow(g, m // ell) != one for ell in primes))
        return self._generator

    def log(self, x):
        """Discrete log base the canonical generator, by scanning powers."""
        if x == self.zero:
            raise PreconditionError("log of zero")
        g = self.generator()
        cur = self.one
        for i in range(self.q - 1):
            if cur == x:
                return i
            cur = self.mul(cur, g)
        raise PreconditionError("log scan failed")  # unreachable

    def _subfield_root(self, deg):
        """The least-code root in this field of the modulus of F_{p^deg},
        found on the first call for deg and kept. Its roots are deg
        conjugates r, r**p, ..., all in the subfield {0} and the powers of
        h = g**((q - 1)/(p**deg - 1)), g the generator: the powers of h are
        scanned for one root, and the least code among its conjugates wins."""
        root = self._subfield_roots.get(deg)
        if root is None:
            sub_modulus = find_irreducible(self.p, deg)
            h = self.pow(self.generator(), (self.q - 1) // (self.p ** deg - 1))
            x = self.one
            for _ in range(self.p ** deg - 1):
                acc = self.zero
                for c in reversed(sub_modulus):
                    acc = self.add(self.mul(acc, x), self.embed_prime(c))
                if acc == self.zero:
                    break
                x = self.mul(x, h)
            else:
                raise InvariantError("no root of the subfield modulus")  # unreachable
            conjugates = [x]
            for _ in range(deg - 1):
                conjugates.append(self.frobenius(conjugates[-1]))
            root = self._subfield_roots[deg] = min(conjugates, key=self.to_code)
        return root

    def embed_subfield_code(self, p, deg, code):
        """Embed an element of F_{p^deg} (given by its integer encoding in that
        field's own representation) into this field. deg must divide k. For
        deg = 1 the code is read as a residue mod p; for deg > 1 it must lie
        in [0, p**deg), and its digits are the coordinates on the powers of
        the least-code root of the modulus of F_{p^deg}."""
        if self.p != p or self.k % deg != 0:
            raise PreconditionError("not a subfield")
        if deg == 1:
            return self.embed_prime(code)
        if not 0 <= code < p ** deg:
            raise PreconditionError(
                f"element code {code} of F_{p}^{deg} is outside [0, {p ** deg})")
        root = self._subfield_root(deg)
        acc = self.zero
        rp = self.one
        for cc in _digits(code, p, deg):
            acc = self.add(acc, self.mul(self.embed_prime(cc), rp))
            rp = self.mul(rp, root)
        return acc


@lru_cache(maxsize=None)
def field_tower(p, k):
    """The one FieldTower(p, k) that every caller shares: its generator is
    searched for once per (p, k), not once per caller. The memo keeps every
    tower asked for, each O(k) ints and k per subfield embedded into it."""
    return FieldTower(p, k)
