"""Shared hypothesis strategies for exact-arithmetic tests."""
from fractions import Fraction

from hypothesis import strategies as st

from miop.errors import ConfigurationError
from miop.exact import GaussianRational, LaurentPoly, Poly, make_sqrtq
from miop.families import FamilyParams, VirtualStateData
from miop.multiindex import IndexSet


def rationals(max_num=9, max_den=9):
    return st.builds(Fraction,
                     st.integers(-max_num, max_num),
                     st.integers(1, max_den))


def gaussians():
    return st.builds(GaussianRational, rationals(), rationals())


def scalars():
    return st.one_of(rationals(), gaussians())


# radicands of the sqrt layer; 1/4 and 9/4 are squares, so make_sqrtq
# collapses their values to Q(i)
RADICANDS = (Fraction(1, 3), Fraction(2), Fraction(5, 7), Fraction(1, 4), Fraction(9, 4))


def tower_scalars(level, q):
    """Entries up to tower level 0 (Q), 1 (Q(i)) or 2 (Q(i)(sqrt q)): ints,
    Fractions, GaussianRationals and sqrt-layer values, zeros included."""
    draws = [st.just(0), st.integers(-5, 5), rationals()]
    if level >= 1:
        draws.append(gaussians())
    if level >= 2:
        draws.append(st.builds(lambda a, b: make_sqrtq(a, b, q), gaussians(), gaussians()))
    return st.one_of(draws)


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


def _index_set(entries):
    try:
        return IndexSet(tuple(entries))
    except ConfigurationError:  # ell < 1
        return None


def index_sets(max_m=4, max_v=4):
    """Index sets of 1..max_m distinct entries of either type with degrees
    0..max_v, in draw order, keeping those with ell >= 1."""
    entry = st.builds(VirtualStateData, st.sampled_from(("I", "II")), st.integers(0, max_v))
    return (st.lists(entry, min_size=1, max_size=max_m, unique=True)
            .map(_index_set).filter(lambda D: D is not None))
