"""Reference implementations that tests check the package against. No
command runs them, so they live here rather than in toricsums."""

from fractions import Fraction
from itertools import permutations

from toricsums.cyclotomic import CycloInt
from toricsums.exact import mat_mul
from toricsums.ffield import FieldTower, find_irreducible
from toricsums.frobenius import PiAdic, _min_ord
from toricsums.gkz import _taylor_coefficients, picard_fuchs_operator
from toricsums.hodge import basis_set
from toricsums.ratfunc import Laurent, add_term
from toricsums.lfunction import coefficients_from_power_sums


def zeta_power(p, t):
    """zeta**t on the power basis 1, zeta, ..., zeta**(p-2)."""
    t %= p
    if t < p - 1:
        cs = [0] * (p - 1)
        cs[t] = 1
        return CycloInt(p, cs)
    return CycloInt(p, (-1,) * (p - 1))


def mul_mod_monic(x, y, modulus):
    """x * y reduced by long division by a monic modulus g_0, ..., g_(n-1), 1
    over Z: the full product first, then its top term cancelled against g
    until fewer than n coordinates remain, padded to n. The reference for
    fold_mul."""
    n = len(modulus) - 1
    out = [0] * (len(x) + len(y) - 1)
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            out[i + j] += a * b
    while len(out) > n:
        top = out.pop()
        for j, g in enumerate(modulus[:n]):
            out[len(out) - n + j] -= top * g
    return out + [0] * (n - len(out))


def exp_sum_direct(params, p, lam_code, k, atilde=1):
    """S_k by brute enumeration of the torus, with no generator, log table
    or orbit rows: the reference for exp_sum. One field product a cell."""
    tower = FieldTower(p, atilde * k)
    lam = tower.embed_subfield_code(p, atilde, lam_code)
    xs = [tower.from_code(code) for code in range(1, tower.q)]
    ends = [(tower.trace(tower.pow(x, params.a)), tower.mul(lam, tower.pow(x, -params.c)))
            for x in xs]
    mids = [(tower.trace(tower.pow(x, params.b)), tower.pow(x, -params.d)) for x in xs]
    counts = [0] * p
    for t1, u1 in ends:
        for t2, u2 in mids:
            counts[(t1 + t2 + tower.trace(tower.mul(u1, u2))) % p] += 1
    return sum((n * zeta_power(p, t) for t, n in enumerate(counts)), CycloInt.zero(p))


def embed_subfield_code_by_scan(tower, p, deg, code):
    """FieldTower.embed_subfield_code for deg > 1 with the root of the
    subfield modulus found by scanning the codes of the tower from 0, on
    every call: the reference for the kept least-code root."""
    sub_modulus = find_irreducible(p, deg)
    for cand_code in range(tower.q):
        x = tower.from_code(cand_code)
        acc, xp = tower.zero, tower.one
        for c in sub_modulus:
            acc = tower.add(acc, tower.mul(tower.embed_prime(c), xp))
            xp = tower.mul(xp, x)
        if acc == tower.zero:
            break
    acc, rp = tower.zero, tower.one
    for i in range(deg):
        acc = tower.add(acc, tower.mul(tower.embed_prime(code // p ** i % p), rp))
        rp = tower.mul(rp, x)
    return acc


def basis_traces_by_frobenius(tower):
    """Tr(t**j) for j < k as t**j + (t**j)**p + ... + (t**j)**(p**(k-1)),
    k - 1 Frobenius powers a basis element: the reference for
    FieldTower.basis_traces."""
    traces = []
    for j in range(tower.k):
        cur = acc = tower.from_code(tower.p ** j)
        for _ in range(tower.k - 1):
            cur = tower.frobenius(cur)
            acc = tower.add(acc, cur)
        assert not any(acc[1:]), "trace landed outside the prime field"
        traces.append(acc[0])
    return tuple(traces)


def picard_fuchs_by_fraction_factors(params):
    """theta coefficients of the Picard-Fuchs operator as the product of
    the Fraction factors (c/a) theta - i, (d/b) theta - j and theta - k,
    one Fraction product per coefficient and factor, less L**(ab): the
    reference for gkz.picard_fuchs_operator."""
    a, b, c, d = params.a, params.b, params.c, params.d
    factors = ([(Fraction(c, a), Fraction(i)) for i in range(b * c)]
               + [(Fraction(d, b), Fraction(j)) for j in range(a * d)]
               + [(Fraction(1), Fraction(k)) for k in range(a * b)])
    coeffs = [Fraction(1)]
    for alpha, beta in factors:
        out = [Fraction(0)] * (len(coeffs) + 1)
        for j, co in enumerate(coeffs):
            out[j + 1] += alpha * co
            out[j] -= beta * co
        coeffs = out
    theta = [Laurent({0: co}) for co in coeffs]
    theta[0] = theta[0] - Laurent({a * b: Fraction(1)})
    return theta


def apply_operator_to_log_series(params, sol):
    """Vectors P(rho+n+E) u_n - u_{n-ab} for each n; all-zero iff the series
    satisfies the operator through the computed order."""
    op = picard_fuchs_operator(params)
    f0 = op.indicial_coefficients()
    ab = params.a * params.b
    width = sol.log_width
    zero = Fraction(0)
    defects = []
    for n in range(len(sol.table)):
        betas = _taylor_coefficients(f0, sol.rho + n)
        u = sol.table[n]
        prev = sol.table[n - ab] if n >= ab else (zero,) * width
        row = []
        for k in range(width):
            acc = -prev[k]
            for j, beta in enumerate(betas):
                if k + j >= width:
                    break
                acc += beta * u[k + j]
            row.append(acc)
        defects.append(tuple(row))
    return defects


def det_leibniz(A):
    """det A of a small square matrix of Fractions, as the Leibniz sum of
    sign(s) * A[0][s(0)] * ... over all permutations s: the reference for
    the singularity decision of ratfunc.solve_linear."""
    n = len(A)
    total = Fraction(0)
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = Fraction(-1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term *= A[i][j]
        total += term
    return total


def reciprocal_char_poly_all_powers(U, p):
    """Coefficients of det(1 - U T) from the traces of U**1..U**N, each
    power formed by a matrix product: the reference for
    frobenius.reciprocal_char_poly."""
    n = len(U)
    traces = []
    power = U
    for _ in range(n):
        traces.append(sum((power[i][i] for i in range(n)), PiAdic.zero(p)))
        power = mat_mul(power, U)
    return coefficients_from_power_sums(traces, PiAdic.one(p))


def splitting_coefficients_by_products(p, count):
    """E_0..E_{count-1} of exp(pi t) exp(-pi t**p), each a sum of PiAdic
    products pi**i / i! * (-pi)**j / j!: the reference for
    frobenius.splitting_coefficients."""
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


def frobenius_images_by_class(params, p, cutoff, lam):
    """psi_p(x**v * PHI) for each basis exponent v, with the (k, i, j) that
    psi_p keeps walked once per residue class of the basis mod p and each
    PiAdic product E_k lam**k E_i E_j added to every image of its class: the
    reference for frobenius._frobenius_images."""
    E = splitting_coefficients_by_products(p, cutoff + 1)
    a, b, c, d = params.a, params.b, params.c, params.d
    a_inv, b_inv = pow(a, -1, p), pow(b, -1, p)
    basis = basis_set(params)
    images = [{} for _ in basis]
    classes = {}
    for v, img in zip(basis, images):
        classes.setdefault((v[0] % p, v[1] % p), []).append((v, img))
    lam_E, lam_k = [], lam / lam
    for e in E:
        lam_E.append(e * lam_k)
        lam_k = lam_k * lam
    for (r1, r2), members in classes.items():
        for k, Ek in enumerate(lam_E):
            if not Ek:
                continue
            for i in range((k * c - r1) * a_inv % p, cutoff + 1 - k, p):
                if not E[i]:
                    continue
                Eki = Ek * E[i]
                for j in range((k * d - r2) * b_inv % p, cutoff + 1 - k - i, p):
                    if not E[j]:
                        continue
                    t = Eki * E[j]
                    for (v1, v2), img in members:
                        add_term(img, ((v1 + i * a - k * c) // p,
                                       (v2 + j * b - k * d) // p), t)
    return images


def _spread_piadic(x, p, count):
    """x(L**p) for a power series x of PiAdic, to count terms."""
    out = [PiAdic.zero(p)] * count
    for k, c in enumerate(x[:(count + p - 1) // p]):
        out[k * p] = c
    return out


def mat_series_mul_piadic(A, B, count, p):
    """A*B for matrices of PiAdic power series, truncated to count terms,
    one PiAdic product per pair of nonzero terms."""
    def nonzero(M):
        return [[[(k, x) for k, x in enumerate(e[:count]) if x] for e in row] for row in M]

    z = PiAdic.zero(p)
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
                        s = acc.get(i + k)
                        acc[i + k] = a * b if s is None else s + a * b
            out_row.append([acc.get(k, z) for k in range(count)])
        out.append(out_row)
    return out


def horizontality_residual_by_piadic(fs):
    """theta(U) - U*B + p*B(L**p)*U and its variants with one PiAdic per
    product, sum and residual coefficient: the reference for
    frobenius.horizontality_residual."""
    p, count, U, B = fs.p, fs.lam_order + 1, fs.U, fs.B
    thU = [[[c * i for i, c in enumerate(e)] for e in row] for row in U]

    def residual_ord(B, left_to_right=True):
        Bp = [[_spread_piadic(e, p, count) for e in row] for row in B]
        if left_to_right:
            t1, t2 = mat_series_mul_piadic(U, B, count, p), mat_series_mul_piadic(Bp, U, count, p)
        else:
            t1, t2 = mat_series_mul_piadic(B, U, count, p), mat_series_mul_piadic(U, Bp, count, p)
        return _min_ord(a - b + c * p for rows in zip(thU, t1, t2)
                        for entries in zip(*rows) for a, b, c in zip(*entries)
                        if a or b or c)

    return {"stated": residual_ord(B),
            "transposed": residual_ord([list(col) for col in zip(*B)]),
            "reversed": residual_ord(B, False)}
