"""Hypergeometric structure in the deformation direction.

The three exponent vectors of the family span a rank-2 lattice with a
one-dimensional relation lattice; the generator gives the order and the
block sizes of the ordinary differential operator satisfied by the
periods. The operator has the split shape f0(theta) - L**(ab) with f0 a
product of linear factors, which the log-series solver below exploits.
"""

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvariantError, PreconditionError
from .exact import integer_kernel
from .ratfunc import Laurent


def exponent_matrix(params):
    """Columns are the exponent vectors of the three interior monomials."""
    return [[params.a, 0, -params.c], [0, params.b, -params.d]]


def relation_lattice(params):
    """Generator of the integer relations among the exponent columns."""
    gens = integer_kernel(exponent_matrix(params))
    if len(gens) != 1:
        raise InvariantError("relation lattice is not one dimensional")
    g = gens[0]
    expected = (params.b * params.c, params.a * params.d, params.a * params.b)
    if tuple(g) != expected:
        raise InvariantError(f"unexpected relation generator {g}")
    return tuple(g)


def box_exponents(params):
    """(bc, ad, ab): step counts of the three falling-factorial blocks."""
    return relation_lattice(params)


def euler_factors(params):
    """Leading rational slopes (c/a, d/b) of the non-integer blocks."""
    return (Fraction(params.c, params.a), Fraction(params.d, params.b))


@dataclass(frozen=True)
class ThetaOperator:
    """Polynomial in theta = L d/dL with coefficients polynomial in L.

    theta_coeffs[j] multiplies theta**j; coefficients are polynomials in L
    over Fraction, as Laurent values with no negative exponent.
    """

    theta_coeffs: tuple

    @property
    def order(self):
        return len(self.theta_coeffs) - 1

    def indicial_coefficients(self):
        """Constant terms in L of the theta coefficients (the L -> 0 part)."""
        return [c.terms.get(0, Fraction(0)) for c in self.theta_coeffs]

    def leading_constant(self):
        lead = self.theta_coeffs[-1]
        if lead.degree != 0:
            raise InvariantError("leading theta coefficient is not constant")
        return lead.terms[0]


def _mul_linear(coeffs, alpha, beta):
    """Multiply a theta-polynomial (Fraction list) by (alpha*theta - beta)."""
    out = [Fraction(0)] * (len(coeffs) + 1)
    for j, co in enumerate(coeffs):
        out[j + 1] += alpha * co
        out[j] -= beta * co
    return out


def picard_fuchs_operator(params):
    """The order ad+ab+bc operator annihilating the periods of the family."""
    a, b, c, d = params.a, params.b, params.c, params.d
    coeffs = [Fraction(1)]
    for i in range(b * c):
        coeffs = _mul_linear(coeffs, Fraction(c, a), Fraction(i))
    for j in range(a * d):
        coeffs = _mul_linear(coeffs, Fraction(d, b), Fraction(j))
    for k in range(a * b):
        coeffs = _mul_linear(coeffs, Fraction(1), Fraction(k))
    if len(coeffs) != params.degree + 1:
        raise InvariantError("operator order does not match the family degree")
    theta_coeffs = [Laurent({0: co}) for co in coeffs]
    theta_coeffs[0] = theta_coeffs[0] - Laurent({a * b: Fraction(1)})
    return ThetaOperator(tuple(theta_coeffs))


def leading_kappa(params):
    """Leading constant (c/a)**(bc) * (d/b)**(ad) of the operator."""
    a, b, c, d = params.a, params.b, params.c, params.d
    return Fraction(c, a) ** (b * c) * Fraction(d, b) ** (a * d)


def companion_matrix(params):
    """Companion form of the operator: unit superdiagonal, last row solved
    for the top derivative. Entries are polynomials in L over Fraction, as
    Laurent values."""
    op = picard_fuchs_operator(params)
    n = op.order
    kappa = op.leading_constant()
    if kappa != leading_kappa(params):
        raise InvariantError("leading constant disagrees with the block product")
    rows = [[Laurent()] * n for _ in range(n)]
    for i in range(n - 1):
        rows[i][i + 1] = Laurent({0: Fraction(1)})
    for j in range(n):
        rows[n - 1][j] = op.theta_coeffs[j] * (Fraction(-1) / kappa)
    return rows


def indicial_roots(params):
    """Roots of the L -> 0 indicial polynomial, with multiplicity, sorted."""
    a, b, c, d = params.a, params.b, params.c, params.d
    roots = []
    for i in range(b * c):
        roots.append(Fraction(i * a, c))
    for j in range(a * d):
        roots.append(Fraction(j * b, d))
    for k in range(a * b):
        roots.append(Fraction(k))
    return sorted(roots)


def _taylor_coefficients(poly, s):
    """[f(s), f'(s)/1!, f''(s)/2!, ...] by repeated synthetic division."""
    coeffs = list(poly)
    out = []
    while coeffs:
        q = [Fraction(0)] * (len(coeffs) - 1)
        carry = coeffs[-1]
        for k in range(len(coeffs) - 2, -1, -1):
            q[k] = carry
            carry = coeffs[k] + s * carry
        out.append(carry)
        coeffs = q
    return out


@dataclass(frozen=True)
class LogSeries:
    """Formal solution sum_n sum_k u[n][k] L**(rho+n) log(L)**k / k!.

    table[n][k] holds u[n][k]; initial_position = (n0, ell) marks the seeded
    free coefficient, which is 1 there and 0 at every other free slot.
    """

    rho: Fraction
    table: tuple
    initial_position: tuple

    @property
    def log_width(self):
        return len(self.table[0]) if self.table else 0


def formal_solutions(params, order):
    """Basis of formal log-series solutions at L = 0, one per indicial root
    counted with multiplicity, each developed to L**(rho + order)."""
    if order < 1:
        raise PreconditionError("need a positive expansion order")
    op = picard_fuchs_operator(params)
    f0 = op.indicial_coefficients()
    ab = params.a * params.b
    roots = indicial_roots(params)
    classes = {}
    for r in roots:
        classes.setdefault(r % 1, []).append(r)
    sols = []
    for _, class_roots in sorted(classes.items()):
        rho = min(class_roots)
        mult_at = Counter(int(r - rho) for r in class_roots)
        width = sum(mult_at.values())
        for n0 in sorted(mult_at):
            for ell in range(mult_at[n0]):
                table = _solve_log_series(f0, ab, rho, mult_at, width, n0, ell, order)
                sols.append(LogSeries(rho=rho, table=table, initial_position=(n0, ell)))
    if len(sols) != params.degree:
        raise InvariantError("wrong number of formal solutions")
    return sols


def _solve_log_series(f0, ab, rho, mult_at, width, n0, ell, order):
    zero = Fraction(0)
    table = []
    for n in range(order):
        mu = mult_at.get(n, 0)
        betas = _taylor_coefficients(f0, rho + n)
        for j in range(mu):
            if betas[j] != 0:
                raise InvariantError("indicial multiplicity disagrees with the operator")
        if mu < len(betas) and betas[mu] == 0:
            raise InvariantError("indicial multiplicity disagrees with the operator")
        rhs = [table[n - ab][k] if n >= ab else zero for k in range(width)]
        u = [zero] * width
        for k in range(mu):
            u[k] = Fraction(1) if (n == n0 and k == ell) else zero
        for k in range(width - 1 - mu, -1, -1):
            acc = rhs[k]
            for j in range(mu + 1, len(betas)):
                if k + j >= width:
                    break
                acc -= betas[j] * u[k + j]
            u[k + mu] = acc / betas[mu]
        for k in range(width - mu, width):
            if rhs[k] != 0:
                raise InvariantError("log depth overflow in the series recurrence")
        table.append(tuple(u))
    return tuple(table)


def apply_operator_to_log_series(params, sol, order=None):
    """Vectors P(rho+n+E) u_n - u_{n-ab} for each n; all-zero iff the series
    satisfies the operator through the computed order."""
    op = picard_fuchs_operator(params)
    f0 = op.indicial_coefficients()
    ab = params.a * params.b
    width = sol.log_width
    upto = len(sol.table) if order is None else min(order, len(sol.table))
    zero = Fraction(0)
    defects = []
    for n in range(upto):
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
