"""
Reduction certificates, the deformation connection, and its solutions
=====================================================================

Two independent roads lead to the same ordinary differential operator.

Road one is cohomological: reduce the deformation derivatives of the
basis monomials to the fixed basis, all in one pass; reducing a single
class gives an auditable certificate of every step. That gives the connection on the monomial basis, from which
the iterated derivatives of the constant monomial follow without
further reduction, and with them the connection matrix.

Road two is combinatorial: the exponent vectors of the three monomials
satisfy a single integer relation, and that relation spells out a
hypergeometric operator in theta = L d/dL.

connection_matrix walks both: it builds the derivative flag from the
connection on the monomial basis (one reduction pass over the basis),
takes the last row of the operator's companion matrix, and checks by
substitution that this row solves the flag's linear system, whose matrix
it checks to be nonsingular. A disagreement raises InvariantError (exit 4
from the CLI).
The demo compares the two matrices, then solves the operator by formal
log-series at L = 0.
"""

from fractions import Fraction

from toricsums import FamilyParams, connection_matrix, formal_solutions
from toricsums.gkz import companion_matrix, indicial_roots, picard_fuchs_operator
from toricsums.ratfunc import Laurent
from toricsums.reduction import reduce_to_basis, verify_certificate

params = FamilyParams(2, 1, 1, 1)

# ---------------------------------------------------------------------------
# A single reduction, with its certificate verified by substitution.

# scalars are Laurent polynomials in the deformation L over Q, with pi = 1
L = Laurent({1: Fraction(1)})
cls_ = {(4, 2): Laurent({0: Fraction(1)})}
cert = reduce_to_basis(dict(cls_), params, 1, L)
print(f"x^(4,2) in the basis of {params}:")
for v, s in sorted(cert.coords.items()):
    if s:
        print(f"    x^{v}: {s}")
# the rewrites divide only by integers, pi and L, so coefficients stay Laurent
print(f"certificate verified: {verify_certificate(cls_, cert, params, 1, L)}")
print(f"rewrite steps: {cert.steps}")

# ---------------------------------------------------------------------------
# Road one vs road two.

conn = connection_matrix(params)
op = picard_fuchs_operator(params)
comp = companion_matrix(params)
agree = conn == comp
print()
print("operator in theta (coefficient of theta^i, lowest first):")
for i, c in enumerate(op.theta_coeffs):
    print(f"    theta^{i}: {c}")
print(f"connection matrix equals companion matrix: {agree}")

# ---------------------------------------------------------------------------
# Local solutions at L = 0.  Repeated indicial roots force logarithms;
# the solver reports, per solution, the exponent and the log depth.

print()
print(f"indicial roots: {[str(r) for r in indicial_roots(params)]}")
for sol in formal_solutions(params, 6):
    lead = sol.table[sol.initial_position[0]]
    print(f"solution seeded at (n, logpow) = {sol.initial_position}: "
          f"exponent {sol.rho}, log width {sol.log_width}, "
          f"seed row {[str(c) for c in lead]}")
