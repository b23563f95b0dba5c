"""Exact arithmetic core: scalar tower, polynomials, Bareiss determinants."""
from .matrix import det, last_column_cofactors
from .poly import (NEG_INF, LaurentPoly, Poly, even_poly_to_eta,
                   laurent_shift, laurent_to_eta)
from .scalars import (GaussianRational, I, Scalar, SqrtQRational, downcast,
                      format_scalar, make_sqrtq, q_pow,
                      rational_sqrt, scalar_sign, sqrt_q)

__all__ = [
    "NEG_INF", "GaussianRational", "I", "LaurentPoly", "Poly",
    "Scalar", "SqrtQRational", "det",
    "downcast", "even_poly_to_eta", "format_scalar",
    "last_column_cofactors", "laurent_shift", "laurent_to_eta", "make_sqrtq",
    "q_pow", "rational_sqrt", "scalar_sign", "sqrt_q",
]
