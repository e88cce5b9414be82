"""Exact arithmetic for a two-parameter family of twisted toric exponential
sums in two variables: point counts and L-polynomials over cyclotomic
integers, Hodge and Newton polygons, the deformation connection, and a
truncation-certified p-adic Frobenius structure."""

from .errors import InvariantError, PreconditionError, StarvationError
from .family import FamilyParams
from .hodge import (
    basis_set,
    hodge_polygon,
    ordinarity_report,
    slope_multiset_ab,
    weight_of,
    weight_profile,
)
from .lfunction import (
    count_l_polynomial,
    exp_sum,
    exp_sum_series,
    l_polynomial,
    newton_polygon,
    predict_sum,
)
from .reduction import (
    connection_matrix,
    reduce_to_basis,
    verify_certificate,
)
from .gkz import (
    companion_matrix,
    formal_solutions,
    indicial_roots,
    picard_fuchs_operator,
    relation_lattice,
)
from .frobenius import (
    compare_char_poly_with_lfunction,
    frobenius_at_point,
    frobenius_series,
    horizontality_residual,
)

__version__ = "0.1.0"

__all__ = [
    "FamilyParams",
    "InvariantError",
    "PreconditionError",
    "StarvationError",
    "basis_set",
    "companion_matrix",
    "compare_char_poly_with_lfunction",
    "connection_matrix",
    "count_l_polynomial",
    "exp_sum",
    "exp_sum_series",
    "formal_solutions",
    "frobenius_at_point",
    "frobenius_series",
    "hodge_polygon",
    "horizontality_residual",
    "indicial_roots",
    "l_polynomial",
    "newton_polygon",
    "ordinarity_report",
    "picard_fuchs_operator",
    "predict_sum",
    "reduce_to_basis",
    "relation_lattice",
    "slope_multiset_ab",
    "verify_certificate",
    "weight_of",
    "weight_profile",
]
