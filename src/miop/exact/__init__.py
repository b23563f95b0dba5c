"""Exact arithmetic core: scalar tower, polynomials, fraction-free determinants."""
from .matrix import det, last_column_cofactors
from .poly import LaurentPoly, Poly, format_coeffs, uncompose
from .scalars import (GaussianRational, I, Scalar, SqrtQRational, downcast,
                      format_scalar, q_pow, rational_sqrt, scalar_sign, sqrt_q)

__all__ = [
    "GaussianRational", "I", "LaurentPoly", "Poly",
    "Scalar", "SqrtQRational", "det",
    "downcast", "format_coeffs", "format_scalar", "last_column_cofactors",
    "q_pow", "rational_sqrt", "scalar_sign", "sqrt_q", "uncompose",
]
