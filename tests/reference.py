"""Reference implementations that tests check the package against. No
command runs them, so they live here rather than in toricsums."""

from fractions import Fraction

from toricsums.cyclotomic import CycloInt
from toricsums.exact import mat_mul
from toricsums.ffield import FieldTower
from toricsums.frobenius import PiAdic
from toricsums.gkz import _taylor_coefficients, picard_fuchs_operator
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
