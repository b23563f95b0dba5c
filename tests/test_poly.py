"""Polynomial and Laurent arithmetic: ring laws, exact division, reductions."""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from miop.errors import ConfigurationError, InexactDivision, ReductionFailure
from miop.exact import (NEG_INF, GaussianRational, LaurentPoly, Poly,
                        even_poly_to_eta, laurent_shift, laurent_to_eta,
                        sqrt_q)
from miop.families import PRESETS, poly_to_x

from .strategies import laurents, nonzero_polys, polys, rationals

ETA = Poly.variable("eta")


class TestPolyArith:
    def test_difference_of_squares(self):
        assert (ETA + 1) * (ETA - 1) == ETA * ETA - 1

    def test_additive_identity(self):
        p = Poly([Fraction(1, 2), 3], "eta")
        assert Poly.zero("eta") + p == p

    def test_hand_expansion(self):
        # (2-eta)^2 expands to eta^2 - 4 eta + 4
        p = 2 - ETA
        assert p * p == Poly([4, -4, 1], "eta")

    def test_degree_law_and_canonical_form(self):
        a = Poly([1, 2], "eta")
        b = Poly([3, 0, 5], "eta")
        assert (a * b).degree == 3
        assert Poly([1, 0, 0], "eta").coeffs == (1,)
        assert Poly.zero("eta").degree == NEG_INF

    def test_var_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            Poly([1], "eta") + Poly([1], "x")

    @given(polys(), polys(), polys())
    @settings(max_examples=60)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a

    def test_eval_and_compose(self):
        p = Poly([4, -4, 1], "eta")  # (eta-2)^2
        assert p(Fraction(3)) == 1
        flipped = p.compose(Poly([0, -1], "eta"))  # eta -> -eta
        assert flipped == Poly([4, 4, 1], "eta")


class TestExactDiv:
    def test_simple_quotient(self):
        num = ETA * ETA - 1
        assert num.exact_div(ETA - 1) == ETA + 1

    def test_inexact_raises(self):
        with pytest.raises(InexactDivision):
            (ETA * ETA - 1).exact_div(ETA - 2)

    @given(polys(max_deg=3), nonzero_polys(max_deg=3))
    @settings(max_examples=60)
    def test_mul_div_roundtrip(self, a, b):
        assert (a * b).exact_div(b) == a


class TestDerivative:
    def test_power_rule(self):
        assert Poly([0, 0, 0, 1], "eta").derivative() == Poly([0, 0, 3], "eta")

    def test_constant(self):
        assert Poly([7], "eta").derivative().is_zero

    @given(polys(), polys())
    @settings(max_examples=40)
    def test_leibniz(self, a, b):
        assert (a * b).derivative() == a.derivative() * b + a * b.derivative()


class TestLaurent:
    Q = Fraction(1, 4)

    def test_shift_identity(self):
        p = LaurentPoly(-2, [1, 0, Fraction(1, 2), 5])
        assert laurent_shift(p, 0, self.Q) == p

    def test_shift_z_by_one(self):
        z = LaurentPoly.monomial(1)
        assert laurent_shift(z, 1, self.Q) == LaurentPoly.monomial(1, Fraction(1, 4))

    def test_aw_eta_sum_identity(self):
        # eta(x -+ i gamma/2) sum: (q^{1/2}+q^{-1/2}) eta = (5/2) eta at q=1/4
        eta = LaurentPoly(-1, [Fraction(1, 2), 0, Fraction(1, 2)])
        total = laurent_shift(eta, Fraction(1, 2), self.Q) + \
            laurent_shift(eta, Fraction(-1, 2), self.Q)
        assert total == eta * Fraction(5, 2)

    def test_half_shift_adjoins_sqrt(self):
        z = LaurentPoly.monomial(1)
        shifted = laurent_shift(z, Fraction(1, 2), Fraction(1, 3))
        assert shifted.coeff(1) == sqrt_q(Fraction(1, 3))

    @given(laurents())
    @settings(max_examples=60)
    def test_shift_involution(self, p):
        c = Fraction(3, 2)
        assert laurent_shift(laurent_shift(p, c, self.Q), -c, self.Q) == p

    @given(laurents())
    def test_z_inverse_involution(self, p):
        assert p.z_inverse().z_inverse() == p

    @given(laurents(), laurents())
    @settings(max_examples=40)
    def test_mul_commutes_with_z_inverse(self, a, b):
        assert (a * b).z_inverse() == a.z_inverse() * b.z_inverse()

    def test_exact_div(self):
        a = LaurentPoly(-1, [1, 2, 1])
        b = LaurentPoly(-1, [1, 1])
        assert a.exact_div(b) == LaurentPoly(0, [1, 1])
        with pytest.raises(InexactDivision):
            LaurentPoly(0, [1, 0, 1]).exact_div(LaurentPoly(0, [1, 1]))


class TestEtaReductions:
    def test_laurent_to_eta_basic(self):
        eta_l = LaurentPoly(-1, [Fraction(1, 2), 0, Fraction(1, 2)])
        assert laurent_to_eta(eta_l) == Poly([0, 1], "eta")
        assert laurent_to_eta(eta_l * eta_l) == Poly([0, 0, 1], "eta")
        assert laurent_to_eta(LaurentPoly(0, [Fraction(7, 3)])) \
            == Poly([Fraction(7, 3)], "eta")

    def test_laurent_to_eta_rejects_asymmetric(self):
        with pytest.raises(ReductionFailure):
            laurent_to_eta(LaurentPoly(0, [1, 1]))  # 1 + z

    def test_laurent_to_eta_rejects_non_selfconjugate(self):
        i = GaussianRational(0, 1)
        # i*(z + 1/z) is symmetric but not self-conjugate
        with pytest.raises(ReductionFailure):
            laurent_to_eta(LaurentPoly(-1, [i, 0, i]))

    @given(polys(max_deg=3))
    @settings(max_examples=40)
    def test_laurent_roundtrip_through_eta(self, p):
        lifted = poly_to_x(PRESETS["aw-default"], p)  # eta -> (z + 1/z)/2
        assert laurent_to_eta(lifted) == Poly(p.coeffs, "eta")

    def test_even_poly_to_eta(self):
        p = Poly([0, 0, 1, 0, 1], "x")  # x^2 + x^4
        assert even_poly_to_eta(p) == Poly([0, 1, 1], "eta")

    def test_even_poly_rejects_odd_powers(self):
        with pytest.raises(ReductionFailure):
            even_poly_to_eta(Poly([0, 1], "x"))

    def test_even_poly_rejects_complex(self):
        i = GaussianRational(0, 1)
        with pytest.raises(ReductionFailure):
            even_poly_to_eta(Poly([i, 0, 1], "x"))

    @given(polys(max_deg=3))
    @settings(max_examples=40)
    def test_even_roundtrip_through_eta(self, p):
        x_sq = Poly([0, 0, 1], "x")
        lifted = p.compose(x_sq)
        assert even_poly_to_eta(lifted) == Poly(p.coeffs, "eta")


def _as_poly(p: LaurentPoly) -> Poly:
    """A Laurent value with no negative powers, as a Poly in z."""
    assert p.is_zero or p.lo >= 0
    return Poly([p.coeff(k) for k in range(p.hi + 1)], "z")


class TestSharedCore:
    """Poly and LaurentPoly share one ring core: at lo = 0 they must agree."""

    @given(polys(var="z"), polys(var="z"), st.integers(0, 3), rationals())
    @settings(max_examples=60)
    def test_laurent_at_lo_zero_matches_poly(self, a, b, n, x):
        la, lb = LaurentPoly(0, a.coeffs), LaurentPoly(0, b.coeffs)
        assert _as_poly(la) == a and _as_poly(lb) == b
        assert _as_poly(la + lb) == a + b
        assert _as_poly(la - lb) == a - b
        assert _as_poly(la * lb) == a * b
        assert _as_poly(la ** n) == a ** n
        assert la(x) == a(x)
        if not b.is_zero:
            assert _as_poly((la * lb).exact_div(lb)) == (a * b).exact_div(b)

    @pytest.mark.parametrize("op", [
        lambda p, l: p + l, lambda p, l: l + p, lambda p, l: p - l,
        lambda p, l: l - p, lambda p, l: p * l, lambda p, l: l * p,
        lambda p, l: p.exact_div(l), lambda p, l: l.exact_div(p),
    ])
    def test_mixing_carriers_rejected(self, op):
        with pytest.raises(ConfigurationError):
            op(Poly([1, 2], "z"), LaurentPoly(0, [1, 2]))
