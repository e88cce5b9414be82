"""Output checks for the benchmark's jobs, independent of toricsums.

Nothing here imports the package under test. Each check recomputes what it
compares against in its own integer and rational arithmetic (a direct point
count, the Adolphson-Sperber lattice-point count, Z[zeta_p] products,
pi-adic valuations), or tests a property the method must have (the weight-2
functional equation, Newton above Hodge). A job's own verdict fields are
required to be true and are also recomputed from the data next to them.

`Checker.check(argv, doc)` returns a list of problems; an empty list means
the document passed. The checker remembers rational-ring reductions so that
a later prime-ring reduction of the same class can be compared with them.
"""

from fractions import Fraction
from math import comb


# --- Z[zeta_p] on the power basis 1, zeta, ..., zeta**(p-2) -----------------

def _fold(p, full):
    """Length-p vector on 1..zeta**(p-1) to the power basis (zeta**(p-1) =
    -(1 + zeta + ... + zeta**(p-2)))."""
    top = full[p - 1]
    return [c - top for c in full[: p - 1]]


def cyclo_mul(p, x, y):
    full = [0] * p
    for i, xi in enumerate(x):
        if xi:
            for j, yj in enumerate(y):
                full[(i + j) % p] += xi * yj
    return _fold(p, full)


def cyclo_conj(p, x):
    """Image under zeta -> zeta**-1."""
    full = [0] * p
    for i, c in enumerate(x):
        full[-i % p] += c
    return _fold(p, full)


def _ord_p(n, p):
    """p-adic valuation of a nonzero rational."""
    n = Fraction(n)
    v = 0
    num, den = n.numerator, n.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def _ord_pi_coords(p, coords):
    """ord_pi of sum c_i pi**i with ord_pi(p) = p - 1; None for zero.

    The terms have distinct orders mod p - 1, so the minimum is attained once.
    """
    vals = [i + (p - 1) * _ord_p(c, p) for i, c in enumerate(coords) if c]
    return min(vals) if vals else None


def cyclo_ord_q(p, x, atilde):
    """ord_q of x in Z[zeta_p], q = p**atilde; None for zero.

    zeta = 1 - pi with pi = 1 - zeta, so zeta**j expands binomially on
    1, pi, ..., pi**(p-2) with no reduction, and ord_pi(p) = p - 1 in Z[zeta_p].
    """
    pi_coords = [(-1) ** i * sum(c * comb(j, i) for j, c in enumerate(x))
                 for i in range(p - 1)]
    v = _ord_pi_coords(p, pi_coords)
    return None if v is None else Fraction(v, (p - 1) * atilde)


# --- finite fields F_{p^k}, small k, for direct counts ----------------------

class SmallField:
    """F_{p^k} as coefficient tuples (constant term first) modulo the monic
    irreducible of degree k with least encoding sum(c_i p**i), the package's
    documented convention for parameter codes."""

    def __init__(self, p, k):
        if k > 3:
            raise ValueError("root-free test proves irreducibility only for k <= 3")
        self.p, self.k, self.q = p, k, p ** k
        for code in range(p ** k):
            low = self.from_code(code)
            f = list(low) + [1]
            if k == 1 or all(sum(c * pow(r, i, p) for i, c in enumerate(f)) % p
                             for r in range(p)):
                self.modulus = f
                break

    def from_code(self, code):
        out = []
        for _ in range(self.k):
            out.append(code % self.p)
            code //= self.p
        return tuple(out)

    def mul(self, x, y):
        p, k = self.p, self.k
        prod = [0] * (2 * k - 1)
        for i, xi in enumerate(x):
            for j, yj in enumerate(y):
                prod[i + j] += xi * yj
        for deg in range(2 * k - 2, k - 1, -1):
            c = prod[deg]
            if c:
                for i, fc in enumerate(self.modulus):
                    prod[deg - k + i] -= c * fc
        return tuple(c % p for c in prod[:k])

    def pow(self, x, e):
        e %= self.q - 1
        out = self.from_code(1)
        while e:
            if e & 1:
                out = self.mul(out, x)
            x = self.mul(x, x)
            e >>= 1
        return out

    def trace(self, x):
        acc = [0] * self.k
        for i in range(self.k):
            for j, c in enumerate(self.pow(x, self.p ** i)):
                acc[j] += c
        if any(c % self.p for c in acc[1:]):
            raise ValueError("trace left the prime field")
        return acc[0] % self.p


def direct_s1(family, p, lam_code, atilde=1):
    """S_1 = sum over x1, x2 in F_q* of zeta_p**Tr(x1^a + x2^b + lam/(x1^c x2^d)),
    q = p**atilde, by enumerating the torus. Returns power-basis coefficients."""
    a, b, c, d = family
    fld = SmallField(p, atilde)
    lam = fld.from_code(lam_code)
    if not any(lam):
        raise ValueError("deformation value must be nonzero")
    units = [fld.from_code(code) for code in range(1, fld.q)]
    hist = [0] * p
    for x1 in units:
        x1a, x1c = fld.pow(x1, a), fld.pow(x1, -c)
        for x2 in units:
            pole = fld.mul(lam, fld.mul(x1c, fld.pow(x2, -d)))
            total = tuple((u + v + w) % p for u, v, w in zip(x1a, fld.pow(x2, b), pole))
            hist[fld.trace(total)] += 1
    return _fold(p, hist)


# --- Hodge polygon from the Adolphson-Sperber lattice count -----------------

def hodge_slopes(family):
    """Ascending Hodge slopes of x1^a + x2^b + L/(x1^c x2^d).

    The weight of u in Z^2 is the gauge of the Newton triangle, the largest
    of the three edge functionals n.u with n.P = n.Q = 1 on each edge PQ.
    With W(w) the number of lattice points of weight w, the Hodge number of
    w is H(w) = W(w) - 2 W(w-1) + W(w-2) (Adolphson-Sperber, Annals 130,
    1989); slope w appears H(w) times.
    """
    a, b, c, d = family
    verts = [(a, 0), (0, b), (-c, -d)]
    normals = []
    for (px, py), (qx, qy) in zip(verts, verts[1:] + verts[:1]):
        det = px * qy - py * qx
        normals.append((Fraction(qy - py, det), Fraction(px - qx, det)))
    W = {}
    for x in range(-2 * c, 2 * a + 1):
        for y in range(-2 * d, 2 * b + 1):
            w = max(n1 * x + n2 * y for n1, n2 in normals)
            if w <= 2:
                W[w] = W.get(w, 0) + 1
    slopes = []
    for w in sorted({w + s for w in W for s in (0, 1, 2)}):
        if w > 2:
            break
        h = W.get(w, 0) - 2 * W.get(w - 1, 0) + W.get(w - 2, 0)
        if h < 0:
            raise ValueError(f"negative Hodge number at weight {w}")
        slopes.extend([w] * h)
    if len(slopes) != a * d + a * b + b * c:
        raise ValueError("Hodge numbers do not add up to the degree")
    return slopes


def newton_slopes(points):
    """Unit-step slopes of the lower convex hull of (x, y) points."""
    hull = []
    for pt in sorted(points):
        while len(hull) >= 2 and (
                (hull[-1][0] - hull[-2][0]) * (pt[1] - hull[-2][1])
                - (hull[-1][1] - hull[-2][1]) * (pt[0] - hull[-2][0])) <= 0:
            hull.pop()
        hull.append(pt)
    out = []
    for (x0, y0), (x1, y1) in zip(hull, hull[1:]):
        out.extend([Fraction(y1 - y0, x1 - x0)] * (x1 - x0))
    return out


def _newton_problems(newton, hodge):
    """Newton lies on or above Hodge, with the same end point."""
    if len(newton) != len(hodge):
        return [f"Newton polygon has length {len(newton)}, Hodge {len(hodge)}"]
    problems = []
    yn = yh = 0
    for x, (sn, sh) in enumerate(zip(newton, hodge), start=1):
        yn, yh = yn + sn, yh + sh
        if yn < yh:
            problems.append(f"Newton polygon below Hodge at x = {x}: {yn} < {yh}")
            break
    if yn != yh:
        problems.append(f"Newton end point {yn} differs from Hodge end point {yh}")
    return problems


# --- per-command checks ------------------------------------------------------

def _family(result):
    f = result["family"]
    return f["a"], f["b"], f["c"], f["d"]


def _cyclo(entry, p):
    if entry["zeta_p"] != p or len(entry["coeffs"]) != p - 1:
        raise ValueError("cyclotomic entry has the wrong shape")
    return [int(c) for c in entry["coeffs"]]


def lpoly_problems(family, p, atilde, lam, coeff_docs):
    """Checks on counted L-polynomial coefficients A_0..A_N."""
    problems = []
    A = [_cyclo(e, p) for e in coeff_docs]
    a, b, c, d = family
    n = a * d + a * b + b * c
    if len(A) != n + 1:
        return [f"L-polynomial has degree {len(A) - 1}, expected {n}"]
    if A[0] != [1] + [0] * (p - 2):
        problems.append("A_0 is not 1")
    s1 = direct_s1(family, p, lam, atilde)
    if [-c for c in A[1]] != s1:
        problems.append(f"A_1 = {A[1]} but the direct count gives S_1 = {s1}")
    q = p ** atilde
    for s in range(n + 1):
        lhs = [c * q ** (2 * s) for c in A[n - s]]
        if lhs != cyclo_mul(p, A[n], cyclo_conj(p, A[s])):
            problems.append(f"functional equation fails at s = {s}")
            break
    if cyclo_ord_q(p, A[n], atilde) != n:
        problems.append(f"ord_q(A_N) = {cyclo_ord_q(p, A[n], atilde)}, expected {n}")
    pts = [(r, cyclo_ord_q(p, x, atilde)) for r, x in enumerate(A)]
    newton = newton_slopes([(r, v) for r, v in pts if v is not None])
    problems += _newton_problems(newton, hodge_slopes(family))
    return problems


def _fractions(strs):
    return [Fraction(s) for s in strs]


def _symmetry_problems(slopes):
    if sorted(2 - s for s in slopes) != sorted(slopes):
        return ["Newton slopes are not symmetric under s -> 2 - s"]
    return []


def _check_lpoly(result):
    return lpoly_problems(_family(result), result["prime"], result["atilde"],
                          result["lam"], result["coeffs"])


def _check_newton(result):
    newton = _fractions(result["polygon"]["slopes"])
    return (_newton_problems(newton, hodge_slopes(_family(result)))
            + _symmetry_problems(newton))


def _check_compare_polygons(result):
    problems = []
    hodge = hodge_slopes(_family(result))
    reported = _fractions(result["hodge_slopes"])
    if reported != hodge:
        problems.append(f"hodge_slopes {result['hodge_slopes']} differ from the "
                        f"lattice count {[str(h) for h in hodge]}")
    newton = _fractions(result["newton_slopes"])
    problems += _newton_problems(newton, hodge) + _symmetry_problems(newton)
    return problems


def _poly_mul(x, y):
    out = [Fraction(0)] * max(len(x) + len(y) - 1, 0)
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            out[i + j] += xi * yj
    while out and not out[-1]:
        out.pop()
    return out


def _strip(x):
    x = list(x)
    while x and not x[-1]:
        x.pop()
    return x


def _check_connection(result):
    problems = []
    if result["equal"] is not True:
        problems.append("connection does not equal the companion matrix")
    conn, comp = result["connection"], result["companion"]
    n = result["family"]["degree"]
    if len(conn) != n or len(comp) != n:
        return problems + ["matrix size differs from the degree"]
    for i, (crow, prow) in enumerate(zip(conn, comp)):
        for j, (ce, pe) in enumerate(zip(crow, prow)):
            num, den = _strip(_fractions(ce["num"])), _strip(_fractions(ce["den"]))
            if not den or num != _poly_mul(_strip(_fractions(pe)), den):
                problems.append(f"entry ({i},{j}): connection and companion differ")
                return problems
            if i < n - 1 and num != ([Fraction(1)] if j == i + 1 else []):
                problems.append(f"entry ({i},{j}) breaks the companion shape")
                return problems
    return problems


def _eval_mod(poly, x, p):
    acc = 0
    for c in reversed(poly):
        acc = (acc * x + c.numerator * pow(c.denominator, -1, p)) % p
    return acc


def _check_frobenius_check(result):
    problems = []
    p, margin = result["prime"], result["margin_certified"]
    if result["agrees_to_margin"] is not True:
        problems.append("characteristic polynomial does not agree with counting")
    if margin < result["pi_digits_requested"]:
        problems.append(f"margin {margin} below the requested {result['pi_digits_requested']}")
    for r, (det, emb) in enumerate(zip(result["char_poly"], result["l_polynomial_embedded"])):
        diff = [Fraction(x) - Fraction(y) for x, y in
                zip(det["rational_coords"], emb["rational_coords"])]
        v = _ord_pi_coords(p, diff)
        if v is not None and v < margin:
            problems.append(f"coefficient {r}: char poly and counting agree only to pi^{v}")
    # includes -(direct count S_1) == l_polynomial[1]
    problems += lpoly_problems(_family(result), p, 1, result["lam"], result["l_polynomial"])
    return problems


def _check_frobenius(result):
    problems = []
    p, margin = result["prime"], result["margin_certified"]
    if margin < result["pi_digits_requested"]:
        problems.append(f"margin {margin} below the requested {result['pi_digits_requested']}")
    stated = result["horizontality"]["variants"]["stated"]
    if stated != "zero" and stated < margin:
        problems.append(f"horizontality residual has order {stated} below the margin {margin}")
    for row in result["matrix"]:
        for series in row:
            for entry in series:
                v = _ord_pi_coords(p, _fractions(entry["rational_coords"]))
                reported = "infinity" if v is None else v
                if reported != entry["ord_pi"] or (v is not None and v < 0):
                    problems.append(f"matrix entry has ord_pi {reported}, reported "
                                    f"{entry['ord_pi']}, expected pi-integral")
                    return problems
    return problems


def _opt(argv, name):
    for i, a in enumerate(argv):
        if a == name:
            return argv[i + 1]
        if a.startswith(name + "="):
            return a.split("=", 1)[1]
    raise ValueError(f"{name} missing from {argv}")


_CHECKS = {
    "lpoly": _check_lpoly,
    "newton": _check_newton,
    "compare-polygons": _check_compare_polygons,
    "connection": _check_connection,
    "frobenius-check": _check_frobenius_check,
    "frobenius": _check_frobenius,
}


class Checker:
    """Checks job documents in order; holds the rational reductions seen."""

    def __init__(self):
        self.rational = {}

    def check(self, argv, doc):
        """Problems found in one job's JSON document (empty when it passes)."""
        if doc.get("job", {}).get("argv") != list(argv):
            return ["document does not echo the job's argv"]
        command, result = doc["job"]["command"], doc["result"]
        try:
            if command == "reduce":
                return self._check_reduce(result, argv)
            return _CHECKS[command](result)
        except (KeyError, TypeError, ValueError, IndexError, ZeroDivisionError) as exc:
            return [f"malformed {command} document: {type(exc).__name__}: {exc}"]

    def _check_reduce(self, result, argv):
        problems = []
        if result["verified"] is not True:
            problems.append("reduction certificate did not verify")
        key = (_family(result), tuple(sorted(a for a in argv if a.startswith("--monomial"))))
        coords = result["coordinates"]
        if result["ring"] == "rational":
            self.rational[key] = coords
        elif result["ring"] == "prime":
            p, lam = int(_opt(argv, "--prime")), int(_opt(argv, "--lam"))
            rational = self.rational.get(key)
            if rational is None:
                return problems + ["no rational-ring reduction of the same class to compare with"]
            if set(rational) != set(coords):
                return problems + ["rational and prime rings give different bases"]
            for v, r in rational.items():
                den = _eval_mod(_fractions(r["den"]), lam, p)
                if den == 0:
                    problems.append(f"coordinate {v}: denominator vanishes at L = {lam} mod {p}")
                elif _eval_mod(_fractions(r["num"]), lam, p) * pow(den, -1, p) % p != coords[v] % p:
                    problems.append(f"coordinate {v}: Q(L) value at L = {lam} mod {p} is not "
                                    f"the prime-ring coordinate {coords[v]}")
        return problems
