"""Hypergeometric structure in the deformation direction.

The three exponent vectors of the family span a rank-2 lattice whose
relations are generated by (bc, ad, ab), the cross product of the two rows
of the exponent matrix. Its entries are the block sizes of the ordinary
differential operator satisfied by the periods, and their sum is the
order. The operator has the split shape f0(theta) - L**(ab) with f0 a
product of linear factors, listed once by _factors with integer
coefficients: f0 is their product over Z, divided once by a**(bc) * b**(ad).
The log-series solver below exploits the split shape, one pass per class of
indicial roots.
"""

from collections import Counter
from fractions import Fraction
from math import gcd

from .errors import InvariantError, PreconditionError
from .ratfunc import Laurent


def exponent_matrix(params):
    """Columns are the exponent vectors of the three interior monomials."""
    return [[params.a, 0, -params.c], [0, params.b, -params.d]]


def relation_lattice(params):
    """Generator (bc, ad, ab) of the integer relations among the exponent
    columns: the cross product of the two rows of the exponent matrix,
    primitive under the family's coprimality pattern. Both are checked."""
    g = (params.b * params.c, params.a * params.d, params.a * params.b)
    if gcd(*g) != 1 or any(sum(x * y for x, y in zip(row, g))
                           for row in exponent_matrix(params)):
        raise InvariantError(f"unexpected relation generator {g}")
    return g


def euler_factors(params):
    """Leading rational slopes (c/a, d/b) of the non-integer blocks."""
    return (Fraction(params.c, params.a), Fraction(params.d, params.b))


class ThetaOperator:
    """Polynomial in theta = L d/dL with coefficients polynomial in L.

    theta_coeffs[j] multiplies theta**j; coefficients are polynomials in L
    over Fraction, as Laurent values with no negative exponent.
    """

    __slots__ = ("theta_coeffs",)

    def __init__(self, theta_coeffs):
        self.theta_coeffs = theta_coeffs

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


def _factors(params):
    """One integer pair (alpha, beta) per linear factor alpha*theta - beta:
    bc factors c*theta - a*i, ad factors d*theta - b*j and ab factors
    theta - k, each block's i, j, k = 0, 1, .... Their product over
    a**(bc) * b**(ad) is f0."""
    a, b, c, d = params.a, params.b, params.c, params.d
    return ([(c, a * i) for i in range(b * c)] + [(d, b * j) for j in range(a * d)]
            + [(1, k) for k in range(a * b)])


def picard_fuchs_operator(params):
    """The order ad+ab+bc operator annihilating the periods of the family.
    The integer factors are multiplied over Z, and the product is divided
    once by a**(bc) * b**(ad) as the coefficients are formed."""
    coeffs = [1]
    for alpha, beta in _factors(params):
        out = [0] * (len(coeffs) + 1)
        for j, co in enumerate(coeffs):
            out[j + 1] += alpha * co
            out[j] -= beta * co
        coeffs = out
    if len(coeffs) != params.degree + 1:
        raise InvariantError("operator order does not match the family degree")
    den = params.a ** (params.b * params.c) * params.b ** (params.a * params.d)
    theta_coeffs = [Laurent({0: Fraction(co, den)}) for co in coeffs]
    theta_coeffs[0] = theta_coeffs[0] - Laurent({params.a * params.b: Fraction(1)})
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
    return sorted(Fraction(beta, alpha) for alpha, beta in _factors(params))


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


class LogSeries:
    """Formal solution sum_n sum_k u[n][k] L**(rho+n) log(L)**k / k!.

    rho is a Fraction; table[n][k] holds u[n][k]; initial_position =
    (n0, ell) marks the seeded free coefficient, which is 1 there and 0 at
    every other free slot.
    """

    __slots__ = ("rho", "table", "initial_position")

    def __init__(self, rho, table, initial_position):
        self.rho = rho
        self.table = table
        self.initial_position = initial_position

    @property
    def log_width(self):
        return len(self.table[0]) if self.table else 0


# Work bound on formal_solutions: each solution has order rows of its log
# width W_s, and the n-th row's coefficients have O(n) digits, so time, memory
# and output grow with order**2 W, W = sum of W_s. The cap admits order <= 682
# for (1,1,1,1) (W = 9), which takes 1.1 s and 52 MB and prints 10 MB (2-core
# Xeon KVM guest), and order <= 409 for (2,1,1,1) (W = 25).
MAX_LOG_SERIES_WORK = 1 << 22

# Second work bound: a row of a class of width w is solved for its w seeds in
# about w**3 products, so time also grows with order V, V = sum of w**3 over
# the classes. The cap 2^21 = 128**3 admits order 1 for every family under the
# degree cap: (3,31,1,1) (one class, V = 127**3) takes 4.9 s at order 1 and
# 8.9 s at order 2, which is refused; (2,3,1,1) (V = 1331) is admitted up to
# the order 186 of the first bound (0.6 s) (2-core Xeon KVM guest).
MAX_LOG_SERIES_SOLVE = 1 << 21


def formal_solutions(params, order):
    """Basis of formal log-series solutions at L = 0, one per indicial root
    counted with multiplicity, each developed to L**(rho + order). The roots
    of a class (equal mod 1) share rho, and row n of each of their solutions
    solves f0(rho + n + E) u_n = u_(n - ab), E the shift on log powers, so a
    class is solved in one pass over the rows. order**2 W above
    MAX_LOG_SERIES_WORK, W the summed log widths, or order V above
    MAX_LOG_SERIES_SOLVE, V the summed cubes of the class widths, is refused
    before any table is built."""
    if order < 1:
        raise PreconditionError("need a positive expansion order")
    classes = {}
    for r in indicial_roots(params):
        classes.setdefault(r % 1, []).append(r)
    W = sum(len(class_roots) ** 2 for class_roots in classes.values())
    if order * order * W > MAX_LOG_SERIES_WORK:
        raise PreconditionError(
            f"order {order} needs order^2 W = {order * order * W} at summed log "
            f"width W = {W}, over the cap of {MAX_LOG_SERIES_WORK} = 2^22")
    V = sum(len(class_roots) ** 3 for class_roots in classes.values())
    if order * V > MAX_LOG_SERIES_SOLVE:
        raise PreconditionError(
            f"order {order} needs order V = {order * V} at summed cubed class "
            f"width V = {V}, over the cap of {MAX_LOG_SERIES_SOLVE} = 2^21")
    f0 = picard_fuchs_operator(params).indicial_coefficients()
    ab = params.a * params.b
    zero = Fraction(0)
    sols = []
    for _, class_roots in sorted(classes.items()):
        rho = min(class_roots)
        mult_at = Counter(int(r - rho) for r in class_roots)
        width = len(class_roots)
        seeds = [(n0, ell) for n0 in sorted(mult_at) for ell in range(mult_at[n0])]
        tables = [[] for _ in seeds]
        for n in range(order):
            mu = mult_at.get(n, 0)
            betas = _taylor_coefficients(f0, rho + n)
            if any(betas[:mu]) or (mu < len(betas) and betas[mu] == 0):
                raise InvariantError("indicial multiplicity disagrees with the operator")
            for (n0, ell), table in zip(seeds, tables):
                rhs = table[n - ab] if n >= ab else (zero,) * width
                u = [zero] * width
                if n == n0:
                    u[ell] = Fraction(1)
                for k in range(width - 1 - mu, -1, -1):
                    acc = rhs[k]
                    for j in range(mu + 1, min(len(betas), width - k)):
                        acc -= betas[j] * u[k + j]
                    u[k + mu] = acc / betas[mu]
                if any(rhs[width - mu:]):
                    raise InvariantError("log depth overflow in the series recurrence")
                table.append(tuple(u))
        sols.extend(LogSeries(rho=rho, table=tuple(table), initial_position=seed)
                    for seed, table in zip(seeds, tables))
    if len(sols) != params.degree:
        raise InvariantError("wrong number of formal solutions")
    return sols

