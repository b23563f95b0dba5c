"""Polynomial and Laurent arithmetic: ring laws, exact division, reductions."""
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from miop.errors import ConfigurationError, InexactDivision, ReductionFailure
from miop.exact import (NEG_INF, GaussianRational, LaurentPoly, Poly,
                        SqrtQRational, even_poly_to_eta, format_scalar,
                        laurent_shift, laurent_to_eta, make_sqrtq, sqrt_q)
from miop.families import PRESETS, poly_to_x

from .oracles import long_division, schoolbook_mul
from .strategies import (RADICANDS, laurents, nonzero_polys, polys, rationals,
                         tower_scalars)

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


@st.composite
def tower_runs(draw, count=2, max_len=7):
    """count coefficient runs drawn at one tower level over one radicand."""
    level = draw(st.integers(0, 2))
    q = draw(st.sampled_from(RADICANDS))
    entries = st.lists(tower_scalars(level, q), max_size=max_len)
    return [draw(entries) for _ in range(count)]


def _strs(p):
    return [format_scalar(c) for c in p.coeffs]


def _rational_ints(run):
    """run with int entries as Fractions, so that the scalar long division
    divides exactly (int / int would give a float)."""
    return [Fraction(c) if type(c) is int else c for c in run]


class TestIntegerKernel:
    """Multiply and exact_div run on integer coordinates over one
    denominator; they must agree with the scalar loops of tests/oracles.py
    value for value and string for string, at every tower level."""

    @given(tower_runs())
    @settings(max_examples=150, deadline=None)
    def test_mul_matches_schoolbook(self, runs):
        a, b = Poly(runs[0]), Poly(runs[1])
        want = Poly(schoolbook_mul(a.coeffs, b.coeffs))
        got = a * b
        assert got == want and hash(got) == hash(want)
        assert _strs(got) == _strs(want)

    @given(tower_runs(), st.integers(-4, 2), st.integers(-4, 2))
    @settings(max_examples=100, deadline=None)
    def test_laurent_mul_matches_schoolbook(self, runs, lo_a, lo_b):
        a, b = LaurentPoly(lo_a, runs[0]), LaurentPoly(lo_b, runs[1])
        want = LaurentPoly(a.lo + b.lo, schoolbook_mul(a.coeffs, b.coeffs))
        got = a * b
        assert got == want and got.lo == want.lo
        assert _strs(got) == _strs(want)

    @given(tower_runs(), st.integers(-4, 2), st.integers(-4, 2))
    @settings(max_examples=100, deadline=None)
    def test_exact_div_inverts_mul(self, runs, lo_a, lo_b):
        a, b = LaurentPoly(lo_a, runs[0]), LaurentPoly(lo_b, runs[1])
        assume(not b.is_zero)
        prod = a * b
        quot = prod.exact_div(b)
        assert quot == a and quot.lo == a.lo
        want, rem = long_division(prod.coeffs, b.coeffs)
        assert not any(rem)
        assert _strs(quot) == _strs(LaurentPoly(prod.lo - b.lo, want))

    @given(tower_runs())
    @settings(max_examples=150, deadline=None)
    def test_exact_div_matches_long_division(self, runs):
        a, b = Poly(runs[0]), Poly(runs[1])
        assume(not b.is_zero)
        want, rem = long_division(_rational_ints(a.coeffs), b.coeffs)
        if any(rem):
            with pytest.raises(InexactDivision):
                a.exact_div(b)
        else:
            got = a.exact_div(b)
            assert got == Poly(want) and _strs(got) == _strs(Poly(want))

    @given(tower_runs(count=3))
    @settings(max_examples=100, deadline=None)
    def test_non_divisor_raises(self, runs):
        a, b, r = (Poly(run) for run in runs)
        assume(b.degree >= 1)
        r = Poly(r.coeffs[:b.degree])  # deg r < deg b
        assume(not r.is_zero)
        with pytest.raises(InexactDivision):
            (a * b + r).exact_div(b)

    @given(tower_runs(), st.integers(-3, 3))
    @settings(max_examples=100, deadline=None)
    def test_compose_matches_horner(self, runs, lo):
        p = Poly(runs[0])
        for inner in (Poly(runs[1], "x"), LaurentPoly(lo, runs[1])):
            want = inner._new(0, ())
            for c in reversed(p.coeffs):
                want = want * inner + c
            got = p.compose(inner)
            assert got == want and got.lo == want.lo and got.var == want.var
            assert _strs(got) == _strs(want)

    @pytest.mark.parametrize("q1, q2", [(Fraction(1, 3), Fraction(2)),
                                        (Fraction(2), Fraction(5, 7))])
    def test_two_radicands_rejected(self, q1, q2):
        a = Poly([1, sqrt_q(q1)])
        b = Poly([sqrt_q(q2), Fraction(1, 2), 3])
        la, lb = LaurentPoly(-2, a.coeffs), LaurentPoly(-1, b.coeffs)
        for op in (lambda x, y: x * y, lambda x, y: y * x,
                   lambda x, y: x.exact_div(y), lambda x, y: y.exact_div(x)):
            with pytest.raises(ConfigurationError):
                op(a, b)
            with pytest.raises(ConfigurationError):
                op(la, lb)

    def test_no_scalar_arithmetic_in_ring_core(self, monkeypatch):
        """Degree-12 products and quotients over Q, Q(i) and Q(i)(sqrt q)
        with every scalar sum and product made to raise: the ring core works
        on integers only."""
        q = Fraction(1, 3)
        runs = (
            [Fraction(k * k - 7, k + 2) for k in range(13)],
            [GaussianRational(Fraction(k, 3), Fraction(5 - k, k + 1)) for k in range(13)],
            [make_sqrtq(GaussianRational(k, 1), GaussianRational(Fraction(1, k + 2), -k), q)
             for k in range(13)],
        )
        cases = [(carrier(ra), carrier(rb)) for ra in runs for rb in runs
                 for carrier in (Poly, lambda run: LaurentPoly(-5, run))]
        want = [a._new(a.lo + b.lo, schoolbook_mul(a.coeffs, b.coeffs)) for a, b in cases]

        def forbidden(*args):
            raise AssertionError("scalar arithmetic in the ring core")

        for cls in (Fraction, GaussianRational, SqrtQRational):
            for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                         "__rmul__", "__truediv__", "__rtruediv__"):
                monkeypatch.setattr(cls, name, forbidden)
        got = []
        for a, b in cases:
            prod = a * b
            got.append((prod, prod.exact_div(b), prod.exact_div(a)))
        monkeypatch.undo()
        for (a, b), w, (prod, qb, qa) in zip(cases, want, got):
            assert prod == w and qb == a and qa == b
