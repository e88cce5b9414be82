"""Rewrite engine for the twisted de Rham classes of the family.

Classes are finite sums  sum_u  S_u * x**u, stored as dicts from exponents
u in Z^2 to nonzero scalars S_u. The two operators

    D1 = x1 d/dx1 + pi*(a x1**a - c L x**mu)
    D2 = x2 d/dx2 + pi*(b x2**b - d L x**mu)

generate the relations; reduce_to_basis rewrites any class as a combination
of the degree-many basis monomials plus explicit D1/D2 certificates, exactly.

Scalars are plain values: they support + and - among themselves, * and /
by each other and by Python ints, and bool() is False exactly at zero. The
constants pi and L are passed in as values of the same kind (or as ints).
The rewrites divide only by small integers, by pi and by L, so three kinds
of value cover every use: ratfunc.Laurent over Fraction with pi = 1 (the
variation setting of the connection), ratfunc.Laurent over the pi-adic
scalars (the series Frobenius), and specialized fields where L is a number
(ffield.Fp with pi = 1, frobenius.PiAdic at a Teichmuller point). The
deformation operator also needs S.theta(), which only Laurent has.
"""

from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush

from .errors import InvariantError
from .hodge import basis_set, weight_units
from .ratfunc import Laurent, RatFunc, add_term, solve_linear

__all__ = [
    "ReductionCertificate", "apply_D1", "apply_D2", "apply_D_lambda",
    "reduce_to_basis", "verify_certificate", "connection_matrix",
    "euler_relation_defects", "flag_representatives", "flag_coordinates",
    "class_add", "class_scale", "class_eq",
]


def class_add(x, y):
    out = dict(x)
    for u, s in y.items():
        add_term(out, u, s)
    return out


def class_scale(x, s):
    out = {}
    for u, v in x.items():
        add_term(out, u, v * s)
    return out


def class_eq(x, y):
    return not any(class_add(x, class_scale(y, -1)).values())


def _apply_D(cls_, axis, power, pole, mu, pi, lam):
    """x_i d/dx_i + pi*(power x_i**power - pole L x**mu), i = axis + 1."""
    out = {}
    for u, s in cls_.items():
        add_term(out, u, s * u[axis])
        up = (u[0] + power, u[1]) if axis == 0 else (u[0], u[1] + power)
        add_term(out, up, s * power * pi)
        add_term(out, (u[0] + mu[0], u[1] + mu[1]), -(s * pole * pi * lam))
    return out


def apply_D1(cls_, params, pi, lam):
    return _apply_D(cls_, 0, params.a, params.c, params.mu, pi, lam)


def apply_D2(cls_, params, pi, lam):
    return _apply_D(cls_, 1, params.b, params.d, params.mu, pi, lam)


def apply_D_lambda(cls_, params, pi, lam):
    """L d/dL + pi L x**mu, the deformation operator."""
    mu = params.mu
    out = {}
    for (m, n), s in cls_.items():
        add_term(out, (m, n), s.theta())
        add_term(out, (m + mu[0], n + mu[1]), s * pi * lam)
    return out


@dataclass
class ReductionCertificate:
    """input = sum(coords) * basis + D1(h1) + D2(h2), exactly."""

    coords: dict
    h1: dict
    h2: dict
    steps: int


def reduce_to_basis(cls_, params, pi, lam, max_steps=2 * 10 ** 6):
    """Rewrite a class into basis coordinates with an exact certificate.

    Every step eliminates one off-basis monomial, pushing the difference into
    D1/D2 images. Pending monomials are popped heaviest first: largest
    hodge.weight_units, then largest m, then largest n. A rewrite's terms
    are mostly lighter, so each region of exponents is passed once instead
    of being revisited. `steps` counts the monomials eliminated; a pending
    monomial that cancels before it is popped is not counted.
    Transient division by pi and by L is expected; the scalars must support
    exact division by products of small integers, pi and L.
    """
    a, b, c, d = params.a, params.b, params.c, params.d
    basis = set(basis_set(params))
    pending = {}
    heap = []  # keys (-weight, -m, -n); a monomial is pushed when it becomes pending

    def add_pending(u, s):
        if s and u not in pending:
            heappush(heap, (-weight_units(params, u), -u[0], -u[1]))
        add_term(pending, u, s)

    for u, s in cls_.items():
        add_pending(u, s)
    coords = {}
    h1 = {}
    h2 = {}
    pi_lam = pi * lam
    steps = 0
    while heap:
        key = heappop(heap)
        u = (-key[1], -key[2])
        S = pending.pop(u, None)
        if S is None:
            continue  # cancelled after it was pushed
        steps += 1
        if steps > max_steps:
            raise InvariantError(f"reduction exceeded {max_steps} steps at exponent {u}")
        m, n = u
        if m <= -c:
            # climb along x1: divide through the D1 relation at u + (c, d)
            Sp = S / (c * pi_lam)
            add_pending((m + c, n + d), Sp * (m + c))
            add_pending((m + c + a, n + d), Sp * a * pi)
            add_term(h1, (m + c, n + d), -Sp)
        elif n <= -d:
            Sp = S / (d * pi_lam)
            add_pending((m + c, n + d), Sp * (n + d))
            add_pending((m + c, n + d + b), Sp * b * pi)
            add_term(h2, (m + c, n + d), -Sp)
        elif m > a:
            # ladder down along x1 through the D1 relation at u - (a, 0)
            Sp = S / (a * pi)
            add_pending((m - a, n), -(Sp * (m - a)))
            add_pending((m - a - c, n - d), Sp * c * pi_lam)
            add_term(h1, (m - a, n), Sp)
        elif n > b:
            Sp = S / (b * pi)
            add_pending((m, n - b), -(Sp * (n - b)))
            add_pending((m - c, n - b - d), Sp * d * pi_lam)
            add_term(h2, (m, n - b), Sp)
        elif (m, n) not in basis:
            if _in_box_rewrite_choice(params, m, n):
                # trade x**u against x**(u - (a,0)) and x**(u - (a,0) + (0,b))
                w = (m - a, n)
                add_pending(w, S * (c * n - (m - a) * d) / (a * d * pi))
                add_pending((m - a, n + b), S * (b * c) / (a * d))
                add_term(h1, w, S / (a * pi))
                add_term(h2, w, -(S * c / (a * d * pi)))
            else:
                w = (m, n - b)
                add_pending(w, S * (d * m - (n - b) * c) / (b * c * pi))
                add_pending((m + a, n - b), S * (a * d) / (b * c))
                add_term(h2, w, S / (b * pi))
                add_term(h1, w, -(S * d / (b * c * pi)))
        else:
            add_term(coords, (m, n), S)
    zero = pi_lam * 0  # every basis monomial gets a coordinate
    for v in basis:
        coords.setdefault(v, zero)
    return ReductionCertificate(coords=coords, h1=h1, h2=h2, steps=steps)


def _in_box_rewrite_choice(params, m, n):
    """True: eliminate via the x1-shift identity; False: via the x2-shift one.

    For each of the four (c, d) shapes the choice keeps every descendant of
    an in-box monomial inside the bounding box, so the terms a reduction
    produces stay bounded; reduce_to_basis's max_steps is the guard that
    turns a rewrite that still fails to finish into an error.
    """
    a, b, c, d = params.a, params.b, params.c, params.d
    if c > 1 and d > 1:
        return (c - 1) * n < (d - 1) * (m - a)
    if c == 1 and d > 1:
        return True
    # covers c > 1, d = 1 and c = d = 1: the excluded corner sits on v2 = b
    return False


def verify_certificate(cls_, cert, params, pi, lam):
    """Exact check of input = coords + D1(h1) + D2(h2)."""
    recon = class_add(cert.coords, apply_D1(cert.h1, params, pi, lam))
    recon = class_add(recon, apply_D2(cert.h2, params, pi, lam))
    return class_eq(recon, cls_)


def flag_representatives(params, pi, lam, count):
    """Unreduced representatives (L d/dL + pi L x**mu)**i applied to 1."""
    reps = [{(0, 0): lam / lam}]  # the unit of the scalars
    for _ in range(count - 1):
        reps.append(apply_D_lambda(reps[-1], params, pi, lam))
    return reps


def flag_coordinates(params, pi, lam, count):
    reps = flag_representatives(params, pi, lam, count)
    return reps, [reduce_to_basis(r, params, pi, lam) for r in reps]


def connection_matrix(params):
    """Matrix of the deformation derivative on the iterated-derivative basis.

    Rows follow the companion convention: row i says theta of period i is
    period i+1 for i < N-1; the last row carries the solved coefficients.
    Entries are rational functions of the deformation over Q (pi = 1).
    """
    one = Fraction(1)
    n = params.degree
    reps, certs = flag_coordinates(params, 1, Laurent({1: one}), n + 1)
    order = basis_set(params)
    F = [[certs[j].coords[v].to_ratfunc(one) for j in range(n)] for v in order]
    target = [certs[n].coords[v].to_ratfunc(one) for v in order]
    if len(order) != n:
        raise InvariantError("basis size mismatch")
    unit = Laurent({0: one})
    rf_one = RatFunc(unit, unit)
    sol = solve_linear(F, [target], one=rf_one)[0]
    rows = []
    for i in range(n - 1):
        row = [RatFunc(Laurent(), unit)] * n
        row[i + 1] = rf_one
        rows.append(row)
    rows.append(list(sol))
    return rows


def euler_relation_defects(params):
    """Reduce a*x1**a - c*L*x**mu and b*x2**b - d*L*x**mu over Q[L, 1/L]
    (pi = 1); both are D-images, so every basis coordinate must vanish.
    Returns the two coordinate dicts."""
    lam = Laurent({1: Fraction(1)})
    one = lam / lam
    mu = params.mu
    first = {(params.a, 0): one * params.a, mu: lam * -params.c}
    second = {(0, params.b): one * params.b, mu: lam * -params.d}
    out = []
    for cls_ in (first, second):
        cert = reduce_to_basis(cls_, params, 1, lam)
        out.append({v: s for v, s in cert.coords.items() if s})
    return out
