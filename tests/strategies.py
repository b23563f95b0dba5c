"""Shared hypothesis strategies for exact-arithmetic tests."""
from fractions import Fraction

from hypothesis import strategies as st

from miop.exact import GaussianRational, LaurentPoly, Poly
from miop.families import FamilyParams


def rationals(max_num=9, max_den=9):
    return st.builds(Fraction,
                     st.integers(-max_num, max_num),
                     st.integers(1, max_den))


def gaussians():
    return st.builds(GaussianRational, rationals(), rationals())


def scalars():
    return st.one_of(rationals(), gaussians())


def polys(var="eta", max_deg=4, coeffs=None):
    coeffs = coeffs or rationals()
    return st.builds(lambda cs: Poly(cs, var),
                     st.lists(coeffs, min_size=0, max_size=max_deg + 1))


def nonzero_polys(var="eta", max_deg=4, coeffs=None):
    return polys(var, max_deg, coeffs).filter(lambda p: not p.is_zero)


def laurents(max_span=4, coeffs=None):
    coeffs = coeffs or rationals()
    return st.builds(lambda lo, cs: LaurentPoly(lo, cs),
                     st.integers(-3, 3),
                     st.lists(coeffs, min_size=0, max_size=max_span + 1))


def _above(bound, max_num=12, max_den=6):
    """Rationals bound + k/d with 1 <= k <= max_num, 1 <= d <= max_den."""
    return st.builds(lambda k, d: bound + Fraction(k, d),
                     st.integers(1, max_num), st.integers(1, max_den))


def _unit(max_num=6, max_den=6):
    """Rationals k/(k+d) in (0, 1) with 1 <= k <= max_num, 1 <= d <= max_den."""
    return st.builds(lambda k, d: Fraction(k, k + d),
                     st.integers(1, max_num), st.integers(1, max_den))


def family_params(families=("L", "J", "W", "AW")):
    """Rational in-range parameter points: g > 1/2 (L), g, h > 1/2 (J),
    a_i > 0 (W), 0 < a_i < 1 and 0 < q < 1 (AW)."""
    half = Fraction(1, 2)
    draws = {
        "L": st.builds(FamilyParams, st.just("L"), st.tuples(_above(half))),
        "J": st.builds(FamilyParams, st.just("J"), st.tuples(_above(half), _above(half))),
        "W": st.builds(FamilyParams, st.just("W"), st.tuples(*[_above(0)] * 4)),
        "AW": st.builds(FamilyParams, st.just("AW"), st.tuples(*[_unit()] * 4), q=_unit()),
    }
    return st.one_of([draws[f] for f in families])
