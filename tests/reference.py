"""Reference implementations that tests check the package against. No
command runs them, so they live here rather than in toricsums."""

from fractions import Fraction
from itertools import permutations

from toricsums.cyclotomic import CycloInt
from toricsums.exact import mat_mul
from toricsums.ffield import FieldTower
from toricsums.frobenius import HorizontalityReport, PiAdic, _min_ord
from toricsums.gkz import _taylor_coefficients, picard_fuchs_operator
from toricsums.hodge import basis_set
from toricsums.ratfunc import add_term
from toricsums.lfunction import coefficients_from_power_sums


def zeta_power(p, t):
    """zeta**t on the power basis 1, zeta, ..., zeta**(p-2)."""
    t %= p
    if t < p - 1:
        cs = [0] * (p - 1)
        cs[t] = 1
        return CycloInt(p, cs)
    return CycloInt(p, (-1,) * (p - 1))


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


def horizontality_residual_by_piadic(fs, lam_checked=None):
    """theta(U) - U*B + p*B(L**p)*U and its variants with one PiAdic per
    product, sum and residual coefficient: the reference for
    frobenius.horizontality_residual."""
    p = fs.p
    count = (fs.lam_order + 1) if lam_checked is None else min(lam_checked, fs.lam_order + 1)
    U = [[entry[:count] for entry in row] for row in fs.U]
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

    B = [[entry[:count] for entry in row] for row in fs.B]
    variants = {"stated": residual_ord(B),
                "transposed": residual_ord([list(col) for col in zip(*B)]),
                "reversed": residual_ord(B, False)}
    return HorizontalityReport(lam_checked=count, variants=variants, margin=fs.margin)
