"""Polynomial and Laurent arithmetic: ring laws, exact division, reductions."""
import abc
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from miop.cli import _SWEEP_SETS
from miop.errors import ConfigurationError, InexactDivision, MiopError, ReductionFailure
from miop.exact import (GaussianRational, LaurentPoly, Poly, SqrtQRational, format_coeffs,
                        format_scalar, sqrt_q, uncompose)
from miop.exact.poly import NEG_INF, _dot
from miop.exact.scalars import make_sqrtq
from miop.families import (PRESETS, FamilyParams, carrier_one, classical_poly, eta_x, phi_x,
                           reduce_to_eta, x_shift)
from miop.multiindex import IndexSet, _casoratian, build
from miop.quad import _denominator

from .oracles import (carrier_shift, coeff, conj, conj_coeffs, dot_schoolbook,
                      laurent_shift_scalar, laurent_to_eta_scalar, long_division, run_coords,
                      schoolbook_mul, star, x_lift, x_shift_compose, x_to_eta, z_inverse)
from .strategies import (RADICANDS, family_params, index_sets, laurents, nonzero_polys, polys,
                         rationals, tower_scalars)

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

    @given(st.one_of(polys(), laurents()), rationals())
    @settings(max_examples=60)
    def test_scalar_on_either_side(self, p, c):
        assert (c - p) + p == c and (p - c) + c == p
        assert c + p == p + c and (c - p) == -(p - c)

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
    @given(laurents())
    def test_z_inverse_involution(self, p):
        assert z_inverse(z_inverse(p)) == p

    @given(laurents(), laurents())
    @settings(max_examples=40)
    def test_mul_commutes_with_z_inverse(self, a, b):
        assert z_inverse(a * b) == z_inverse(a) * z_inverse(b)

    def test_exact_div(self):
        a = LaurentPoly(-1, [1, 2, 1])
        b = LaurentPoly(-1, [1, 1])
        assert a.exact_div(b) == LaurentPoly(0, [1, 1])
        with pytest.raises(InexactDivision):
            LaurentPoly(0, [1, 0, 1]).exact_div(LaurentPoly(0, [1, 1]))


AW = PRESETS["aw-default"]
W = PRESETS["w-default"]
ETA_Z = LaurentPoly(-1, [Fraction(1, 2), 0, Fraction(1, 2)])  # AW's eta = (z + 1/z)/2


class TestEtaReductions:
    """reduce_to_eta is uncompose with eta_x(fp): the one reduction of both
    difference families."""

    def test_laurent_to_eta_basic(self):
        assert reduce_to_eta(AW, ETA_Z) == Poly([0, 1], "eta")
        assert reduce_to_eta(AW, ETA_Z * ETA_Z) == Poly([0, 0, 1], "eta")
        assert reduce_to_eta(AW, LaurentPoly(0, [Fraction(7, 3)])) \
            == Poly([Fraction(7, 3)], "eta")

    def test_laurent_to_eta_rejects_asymmetric(self):
        # the peel of z^2 reaches z^-2, below the lowest power of 1 + z + z^2
        for value in (LaurentPoly(0, [1, 1]), LaurentPoly(0, [1, 1, 1])):
            with pytest.raises(ReductionFailure, match="not a polynomial in eta"):
                reduce_to_eta(AW, value)

    def test_laurent_to_eta_rejects_non_selfconjugate(self):
        i = GaussianRational(0, 1)
        # i*(z + 1/z) is symmetric but not self-conjugate
        with pytest.raises(ReductionFailure, match="not real"):
            reduce_to_eta(AW, LaurentPoly(-1, [i, 0, i]))

    @given(polys(max_deg=3))
    @settings(max_examples=40)
    def test_laurent_roundtrip_through_eta(self, p):
        lifted = x_shift(AW, p)  # eta -> (z + 1/z)/2
        assert reduce_to_eta(AW, lifted) == Poly(p.coeffs, "eta")

    def test_even_poly_to_eta(self):
        p = Poly([0, 0, 1, 0, 1], "x")  # y^2 + y^4 with eta = -y^2
        assert reduce_to_eta(W, p) == Poly([0, -1, 1], "eta")

    def test_even_poly_rejects_odd_powers(self):
        with pytest.raises(ReductionFailure, match="not a polynomial in eta"):
            reduce_to_eta(W, Poly([0, 1], "x"))

    def test_even_poly_rejects_complex(self):
        i = GaussianRational(0, 1)
        with pytest.raises(ReductionFailure, match="not real"):
            reduce_to_eta(W, Poly([i, 0, 1], "x"))

    @given(polys(max_deg=3))
    @settings(max_examples=40)
    def test_even_roundtrip_through_eta(self, p):
        lifted = p.compose(Poly([0, 0, -1], "x"))  # eta -> -y^2
        assert uncompose(lifted, Poly([0, 0, -1], "x")) == Poly(p.coeffs, "eta")

    def test_unshifted_eta_is_built_once(self):
        """The lift and the reduction read one cached unshifted eta: each
        caller names the step, so eta_x(fp) and eta_x(fp, 0) are no longer
        two cache keys for the same value."""
        p = classical_poly(AW, 2)
        eta_x.cache_clear()
        reduce_to_eta(AW, x_shift(AW, p))
        assert eta_x.cache_info().currsize == 1

    def test_inner_and_operand_checked(self):
        """uncompose takes a rational inner value led by +-1 at a positive
        exponent, and a value of inner's ring (as ring operations do)."""
        i = GaussianRational(0, 1)
        for inner in (Poly([0, 0, 2], "x"), Poly([3], "x"), Poly([0, i, 1], "x"),
                      Poly.zero("x"), LaurentPoly(-2, [1])):
            with pytest.raises(ConfigurationError, match="rational inner"):
                uncompose(Poly([1], "x"), inner)
        for value in (ETA_Z, Poly([1, 1], "eta")):  # another carrier, another variable
            with pytest.raises(ConfigurationError, match="mixing"):
                uncompose(value, Poly([0, 0, -1], "x"))
        with pytest.raises(ConfigurationError, match="W and AW only"):
            reduce_to_eta(PRESETS["j-default"], Poly([1], "x"))


def _as_poly(p: LaurentPoly) -> Poly:
    """A Laurent value with no negative powers, as a Poly in z."""
    assert p.is_zero or p.lo >= 0
    return Poly([coeff(p, k) for k in range(p.lo + len(p.coeffs))], "z")


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
def radicand_runs(draw, count=2, max_len=7):
    """(q, runs): count coefficient runs drawn at one tower level over q."""
    level = draw(st.integers(0, 2))
    q = draw(st.sampled_from(RADICANDS))
    entries = st.lists(tower_scalars(level, q), max_size=max_len)
    return q, [draw(entries) for _ in range(count)]


def tower_runs(count=2, max_len=7):
    """count coefficient runs drawn at one tower level over one radicand."""
    return radicand_runs(count, max_len).map(lambda qr: qr[1])


def _like(p, lo, run):
    """A value of p's carrier and variable from a scalar run starting at lo."""
    return Poly(run, p.var) if type(p) is Poly else LaurentPoly(lo, run, p.var)


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
        # the ring remainder comes from the same pseudo-division, divisor or not
        got_rem = a % b
        assert got_rem == Poly(rem) and _strs(got_rem) == _strs(Poly(rem))
        assert got_rem.degree < b.degree
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
            want = inner * 0
            for c in reversed(p.coeffs):
                want = want * inner + c
            got = p.compose(inner)
            assert got == want and got.lo == want.lo and got.var == want.var
            assert _strs(got) == _strs(want)

    def test_carrier_operands_skip_the_abc_check(self, monkeypatch):
        """Sums, products and comparisons of two carrier values dispatch on
        the exact carrier type and never ask the numbers ABCs (Fraction is
        one) whether an operand is a scalar."""
        calls = []
        real = abc.ABCMeta.__instancecheck__

        def counting(cls, inst):
            calls.append((cls, type(inst)))
            return real(cls, inst)

        pairs = [(Poly([1, GaussianRational(0, 1)], "x"), Poly([Fraction(1, 2), 3], "x")),
                 (LaurentPoly(-1, [1, 2]), LaurentPoly(2, [Fraction(3, 4)]))]
        monkeypatch.setattr(abc.ABCMeta, "__instancecheck__", counting)
        for x, y in pairs:
            _ = (x * y, x + y, x - y, x == y, x != y, _dot([(x, y), (y, x)]))
        monkeypatch.undo()
        assert calls == []

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
        """Degree-12 values over Q, Q(i) and Q(i)(sqrt q) with every scalar
        sum, product and quotient made to raise: the ring operations, the
        comparisons, the shifts and the reduction to eta work on integers only."""
        q = Fraction(1, 3)
        runs = (
            [Fraction(k * k - 7, k + 2) for k in range(13)],
            [GaussianRational(Fraction(k, 3), Fraction(5 - k, k + 1)) for k in range(13)],
            [make_sqrtq(GaussianRational(k, 1), GaussianRational(Fraction(1, k + 2), -k), q)
             for k in range(13)],
        )
        real_runs = (runs[0], [make_sqrtq(k - 3, Fraction(1, k + 2), q) for k in range(13)])
        scalars = (3, Fraction(-5, 7), GaussianRational(Fraction(1, 2), -2),
                   make_sqrtq(GaussianRational(1), GaussianRational(0, Fraction(1, 3)), q))
        points = [PRESETS[key] for key in ("w-default", "aw-default", "aw-q13")]
        shifts = [(fp, c) for fp in points
                  for c in (Fraction(1, 2), Fraction(-1, 2), 1, -1, Fraction(3, 2), Fraction(-3, 2))]
        for fp, c in shifts:  # eta_x builds eta at the shifted point from scalars, once
            eta_x(fp, c)
        for fp in points:  # and the unshifted eta that reduce_to_eta inverts
            eta_x(fp, 0)
        cases = [(carrier(ra), carrier(rb)) for ra in runs for rb in runs
                 for carrier in (Poly, lambda run: LaurentPoly(-5, run))]

        # (operation, expected value) pairs, the expected ones from scalar loops
        todo = []
        for a, b in cases:
            lo = min(a.lo, b.lo)
            ks = range(lo, max(a.lo + len(a.coeffs), b.lo + len(b.coeffs)))
            todo += [
                (lambda a=a, b=b: a * b, _like(a, a.lo + b.lo, schoolbook_mul(a.coeffs, b.coeffs))),
                (lambda a=a, b=b: (a * b).exact_div(b), a),
                (lambda a=a, b=b: (a * b).exact_div(a), b),
                (lambda a=a, b=b: a + b, _like(a, lo, [coeff(a, k) + coeff(b, k) for k in ks])),
                (lambda a=a, b=b: a - b, _like(a, lo, [coeff(a, k) - coeff(b, k) for k in ks])),
                (lambda a=a: -a, _like(a, a.lo, [-c for c in a.coeffs])),
                (lambda a=a: conj_coeffs(a), _like(a, a.lo, [conj(c) for c in a.coeffs])),
            ]
            todo += [(lambda a=a, c=c: a * c, _like(a, a.lo, [x * c for x in a.coeffs]))
                     for c in scalars]
            todo.append((lambda a=a, b=b: _dot([(a, b), (b, scalars[1]), (a, scalars[3])]),
                         a * b + b * scalars[1] + a * scalars[3]))
        for run in runs:
            p, lp = Poly(run), LaurentPoly(-5, run)
            todo.append((lambda p=p: p.derivative(),
                         Poly([k * c for k, c in enumerate(p.coeffs)][1:])))
            for inner in (Poly(runs[1], "x"), LaurentPoly(-2, runs[0])):
                want = inner * 0
                for c in reversed(p.coeffs):
                    want = want * inner + c
                todo.append((lambda p=p, inner=inner: p.compose(inner), want))
            todo.append((lambda lp=lp: star(lp),
                          LaurentPoly(1 - lp.lo - len(lp.coeffs), [conj(c) for c in reversed(lp.coeffs)])))
            todo += [(lambda p=p, fp=fp, c=c: x_shift(fp, p, c),
                      carrier_shift(fp, x_shift(fp, p), c)) for fp, c in shifts]
        for run in real_runs:
            p = Poly(run)
            todo += [(lambda fp=fp, value=x_shift(fp, p): reduce_to_eta(fp, value), p)
                     for fp in points]

        def forbidden(*args):
            raise AssertionError("scalar arithmetic in the ring core")

        for cls in (Fraction, GaussianRational, SqrtQRational):
            for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                         "__rmul__", "__truediv__", "__rtruediv__"):
                monkeypatch.setattr(cls, name, forbidden)
        verdicts = []
        for i, (op, want) in enumerate(todo):
            got = op()
            verdicts.append((i, got == want, hash(got) == hash(want)))
        monkeypatch.undo()
        assert [v for v in verdicts if not (v[1] and v[2])] == []


def _assert_canonical(p):
    """The stored form: least width, radicand only at width 4, no zero end
    columns, a positive denominator prime to every coordinate."""
    parts, den, q = p._parts, p._den, p._q
    assert len(parts) in (1, 2, 4) and len({len(part) for part in parts}) == 1
    assert (q is not None) == (len(parts) == 4)
    if p.is_zero:
        assert (parts, den, q, p.lo) == ([[]], 1, None, 0)
        return
    assert den > 0 and gcd(den, *(x for part in parts for x in part)) == 1
    assert any(part[-1] for part in parts)
    if type(p) is LaurentPoly:
        assert any(part[0] for part in parts)
    if len(parts) == 2:
        assert any(parts[1])
    if len(parts) == 4:
        assert any(parts[2]) or any(parts[3])


class TestCanonicalForm:
    """A value has one stored form, however it was reached."""

    @given(radicand_runs(), st.integers(-4, 2), st.integers(-4, 2))
    @settings(max_examples=100, deadline=None)
    def test_built_and_computed_values_share_coordinates(self, q_runs, lo_a, lo_b):
        q, (ra, rb) = q_runs
        root = sqrt_q(q)
        for carrier in (lambda lo, run: Poly(run), LaurentPoly):
            a, b = carrier(lo_a, ra), carrier(lo_b, rb)
            pairs = [
                (a * b, carrier(a.lo + b.lo, schoolbook_mul(a.coeffs, b.coeffs))),
                ((a + b) - b, a),
                ((a * 3) * Fraction(1, 3), a),
                ((a * GaussianRational(0, 1)) * GaussianRational(0, -1), a),
                ((a * root) * root, carrier(a.lo, [c * q for c in a.coeffs])),
                (a + (-a), a * 0),
            ]
            if not b.is_zero:
                pairs.append(((a * b).exact_div(b), a))
            for got, built in pairs:
                _assert_canonical(got)
                _assert_canonical(built)
                assert (got._parts, got._den, got._q, got.lo) == \
                    (built._parts, built._den, built._q, built.lo)
                assert hash(got) == hash(built)


class TestFormatCoeffs:
    """format_coeffs, which reads a rational run from its integer
    coordinates, prints what format_scalar prints coefficient by
    coefficient, at every tower level."""

    @given(st.sampled_from(RADICANDS), st.integers(0, 2), st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_format_scalar(self, q, level, data):
        coeffs = tower_scalars(level, q)
        for p in (data.draw(polys(max_deg=6, coeffs=coeffs)), data.draw(laurents(coeffs=coeffs))):
            assert format_coeffs(p) == [format_scalar(c) for c in p.coeffs]

    def test_zero_negative_and_whole_entries(self):
        p = Poly([0, Fraction(-3, 4), Fraction(6, 4), -(10 ** 30), 7])
        assert format_coeffs(p) == ["0", "-3/4", "3/2", f"-{10 ** 30}", "7"]
        assert format_coeffs(p * Fraction(2, 3)) == ["0", "-1/2", "1", f"-{2 * 10 ** 30}/3", "14/3"]
        assert format_coeffs(Poly.zero()) == []
        root = sqrt_q(Fraction(1, 3))
        assert format_coeffs(p * root) == [format_scalar(c * root) for c in p.coeffs]


@st.composite
def shifted_laurents(draw):
    """(p, q): a Laurent value at a tower level over q, starting below z**0."""
    q, (run,) = draw(radicand_runs(count=1))
    return LaurentPoly(draw(st.integers(-6, -1)), run), q


def _reduced(reduce, value):
    """reduce(value), or ReductionFailure if it raises one."""
    try:
        return reduce(value)
    except ReductionFailure:
        return ReductionFailure


class TestShiftAndPeel:
    """AW's x_shift and reduce_to_eta in coordinates against the scalar
    loops of tests/oracles.py."""

    @given(radicand_runs(count=1), st.sampled_from([Fraction(k, 2) for k in range(-5, 6)]))
    @settings(max_examples=150, deadline=None)
    def test_shift_matches_scalar_loop(self, q_runs, c):
        """An eta-polynomial at any tower level over q, at x + ic gamma:
        the composition with the shifted eta is the scalar loop's
        z -> z*q**(-c) of the unshifted lift."""
        q, (run,) = q_runs
        assume(q < 1)
        fp = FamilyParams("AW", PRESETS["aw-default"].lam, q=q)
        got = x_shift(fp, Poly(run), c)
        want = laurent_shift_scalar(x_shift(fp, Poly(run)), -c, q)
        assert got == want and got.lo == want.lo and hash(got) == hash(want)
        assert _strs(got) == _strs(want)

    @given(shifted_laurents())
    @settings(max_examples=150, deadline=None)
    def test_peel_matches_scalar_loop(self, p_q):
        p, _ = p_q
        real = [c + conj(c) for c in p.coeffs]  # conj-invariant entries
        sym = LaurentPoly(1 - len(real), real[::-1] + real[1:])
        for value in (p, sym):
            assert _reduced(lambda v: reduce_to_eta(AW, v), value) \
                == _reduced(laurent_to_eta_scalar, value)

    def test_peel_of_zero(self):
        zero = LaurentPoly()
        assert (zero.lo, zero.lo + len(zero.coeffs) - 1) == (0, -1)
        assert reduce_to_eta(AW, zero) == laurent_to_eta_scalar(zero) == Poly.zero("eta")


def _coords_of(p):
    return p._parts, p._den, p._q, p.lo


HALF_STEPS = st.sampled_from([Fraction(k, 2) for k in range(-7, 8)])
SHIFT_POINTS = st.one_of(st.sampled_from([PRESETS[k] for k in ("w-default", "aw-default", "aw-q13")]),
                         family_params(("W", "AW")))


class TestXShift:
    """An eta-polynomial at x + ic gamma is one composition with the
    shifted eta (x_shift), and phi_x gives phi there: both against the
    carrier shift of tests/oracles.py applied to the value at x."""

    @given(SHIFT_POINTS, polys(max_deg=6), HALF_STEPS)
    @settings(max_examples=150, deadline=None)
    def test_matches_carrier_shift(self, fp, p, c):
        got, want = x_shift(fp, p, c), carrier_shift(fp, x_shift(fp, p), c)
        assert _coords_of(got) == _coords_of(want) and hash(got) == hash(want)
        assert phi_x(fp, c) == carrier_shift(fp, phi_x(fp), c)
        for shift in (lambda: x_shift(fp, p, Fraction(1, 3)), lambda: phi_x(fp, Fraction(1, 3))):
            with pytest.raises(ConfigurationError, match="half-integer"):
                shift()

    def test_aw_eta_sum_identity(self):
        # eta(x -+ i gamma/2) sum: (q^{1/2}+q^{-1/2}) eta = (5/2) eta at q=1/4
        fp = PRESETS["aw-default"]
        total = x_shift(fp, ETA, Fraction(1, 2)) + x_shift(fp, ETA, Fraction(-1, 2))
        assert total == x_shift(fp, ETA) * Fraction(5, 2)

    def test_half_shift_adjoins_sqrt(self):
        # eta(x - i gamma/2) = (q^(-1/2)/z + q^(1/2) z)/2 at the non-square q = 1/3
        shifted = x_shift(PRESETS["aw-q13"], ETA, Fraction(-1, 2))
        assert coeff(shifted, 1) == sqrt_q(Fraction(1, 3)) / 2
        assert shifted._q == Fraction(1, 3)


def _w_strided(p: Poly) -> Poly:
    """W's reduction read off the coefficients: y^(2k) -> (-eta)^k, after
    checking that p is even and real."""
    run = p.coeffs
    if any(run[1::2]) or any(conj(c) != c for c in run):
        raise ReductionFailure("not an even real polynomial in y")
    return Poly([-c if k & 1 else c for k, c in enumerate(run[::2])], "eta")


@st.composite
def real_eta_polys(draw):
    """(fp, p): a shift point and an eta-polynomial of degree <= 6 with real
    coefficients, over Q(sqrt(1/3)) at aw-q13 and over Q elsewhere."""
    fp = draw(SHIFT_POINTS)
    coeffs = rationals()
    if fp == PRESETS["aw-q13"]:
        root = st.builds(lambda a, b: make_sqrtq(a, b, fp.q), rationals(), rationals())
        coeffs = st.one_of(coeffs, root)
    return fp, Poly(draw(st.lists(coeffs, max_size=7)))


class TestOneReduction:
    """reduce_to_eta inverts the unshifted lift x_shift(fp, p) on every
    point, and agrees with an independent reference on each family: AW's
    scalar Chebyshev peel and W's strided read, also where both refuse."""

    @given(real_eta_polys())
    @settings(max_examples=150, deadline=None)
    def test_inverts_the_lift(self, fp_p):
        fp, p = fp_p
        lifted = x_shift(fp, p)
        got = reduce_to_eta(fp, lifted)
        assert got == p and _coords_of(got) == _coords_of(p)
        assert got == (_w_strided if fp.family == "W" else laurent_to_eta_scalar)(lifted)

    @given(laurents(max_span=6), polys("x", max_deg=6))
    @settings(max_examples=150, deadline=None)
    def test_accepts_exactly_the_lifts(self, z_value, y_value):
        """Any carrier value is refused, as by the reference, or is the lift
        of what reduce_to_eta returns."""
        for fp, value, reference in ((AW, z_value, laurent_to_eta_scalar), (W, y_value, _w_strided)):
            got = _reduced(lambda v: reduce_to_eta(fp, v), value)
            assert got == _reduced(reference, value)
            assert got is ReductionFailure or x_shift(fp, got) == value

    @given(SHIFT_POINTS, polys(max_deg=6), rationals().filter(bool))
    @settings(max_examples=100, deadline=None)
    def test_refusals_match_the_reference(self, fp, p, c):
        """An odd W value or an asymmetric AW value (the lift times, or plus
        c times, y or z) and a Gaussian constant are refused by both."""
        reference = _w_strided if fp.family == "W" else laurent_to_eta_scalar
        tilt = Poly([0, 1], "x") if fp.family == "W" else LaurentPoly(1, [1])
        lifted = x_shift(fp, p)
        for value in (lifted * tilt, lifted + tilt * c, carrier_one(fp) * GaussianRational(c, 1)):
            got = _reduced(lambda v: reduce_to_eta(fp, v), value)
            assert got == _reduced(reference, value)
            assert (got is ReductionFailure) == (not value.is_zero)


class TestWilsonPictures:
    """Wilson's real picture in y = -ix (eta = -y**2, x -> x + i*c is
    y -> y + c) against the Gaussian x-picture it replaced (eta = x**2,
    the shift a composition with x + i*c): both give the same values in
    eta, and the y-picture's Casoratian never leaves Q."""

    @given(polys(max_deg=5), HALF_STEPS)
    @settings(max_examples=100, deadline=None)
    def test_shift_sum_and_product(self, p, c):
        y_lo, y_hi = (x_shift(W, p, s) for s in (-c, c))
        x_lo, x_hi = (x_shift_compose(x_lift(p), s) for s in (-c, c))
        assert len(y_lo._parts) == len(y_hi._parts) == 1
        assert reduce_to_eta(W, y_lo * y_hi) == x_to_eta(x_lo * x_hi)
        assert reduce_to_eta(W, y_lo + y_hi) == x_to_eta(x_lo + x_hi)

    @given(family_params(("W",)), index_sets(max_m=2, max_v=2))
    @settings(max_examples=25, deadline=None)
    def test_denominator(self, fp, D):
        try:
            pair = build(fp, D, n_max=0)
        except MiopError:
            assume(False)
        xi = x_lift(pair.Xi)
        half = Fraction(1, 2)
        assert _denominator(pair) == x_to_eta(x_shift_compose(xi, -half) * x_shift_compose(xi, half))

    @pytest.mark.parametrize("label", _SWEEP_SETS)
    def test_casoratian_is_rational(self, label):
        D = IndexSet.parse(label)
        picture = _casoratian(W, D)
        for R in (D.M, D.M + 1):
            block, row_factors, ladder, _, _ = picture(R)
            runs = [e for row in block for e in row] + row_factors
            runs += [e for n in range(4) for e in ladder(n)]
            assert [len(e._parts) for e in runs] == [1] * len(runs)


@st.composite
def level_runs(draw, level, count):
    """(q, runs): count coefficient runs at tower level <= level over a
    non-square radicand, so that level 2 reaches width 4."""
    q = draw(st.sampled_from(RADICANDS[:3]))
    entries = st.lists(tower_scalars(level, q), max_size=6)
    return q, [draw(entries) for _ in range(count)]


CARRIERS = [(lambda lo, run: Poly(run)), LaurentPoly]


@st.composite
def lane_terms(draw, carrier):
    """1-6 pairs for _dot weighted toward its rational lane: runs of ints and
    Fractions, often of length one, Laurent offsets, int, Fraction and zero
    factors, and sometimes one pair above Q (a Gaussian or sqrt(q) factor
    or run) at a random place."""
    q = draw(st.sampled_from(RADICANDS[:3]))
    entry = st.one_of(st.just(0), st.integers(-5, 5), rationals())
    runs = st.one_of(st.lists(entry, min_size=1, max_size=1), st.lists(entry, max_size=6))
    value = st.builds(carrier, st.integers(-4, 3), runs)
    factor = st.one_of(value, st.integers(-5, 5), rationals(), st.just(0))
    terms = draw(st.lists(st.tuples(value, factor), min_size=1, max_size=6))
    if draw(st.booleans()):
        wide_value = st.builds(carrier, st.integers(-4, 3),
                               st.lists(tower_scalars(2, q), min_size=1, max_size=4))
        wide = st.one_of(st.sampled_from([GaussianRational(0, 1), sqrt_q(q)]), wide_value)
        pair = draw(st.one_of(st.tuples(value, wide), st.tuples(wide_value, factor)))
        terms.insert(draw(st.integers(0, len(terms))), pair)
    return terms


class TestDot:
    """_dot, the fused sum of products, against dot_schoolbook in
    tests/oracles.py (every coefficient product formed in the reference
    tower): the same value in the same stored form, whichever lane each
    term takes."""

    @pytest.mark.parametrize("level", [0, 1, 2])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_sum_of_products(self, level, data):
        q, runs = data.draw(level_runs(level, 6))
        los = data.draw(st.lists(st.integers(-4, 3), min_size=6, max_size=6))
        scalar = data.draw(tower_scalars(level, q))
        # one term at the level's full width, so widths 1, 2 and 4 all occur
        extra = (3, GaussianRational(0, 1), sqrt_q(q))[level]
        for carrier in CARRIERS:
            a1, b1, a2, b2, a3, b3 = (carrier(lo, run) for lo, run in zip(los, runs))
            zero = a1 * 0
            terms = [(a1, b1), (a2, b2), (a3, scalar), (b3, extra),
                     (b3 * extra, Fraction(-2, 3)), (zero, b1), (a1, zero), (a2, 0)]
            got = _dot(terms)
            assert type(got) is type(a1) and got.var == a1.var
            assert _coords_of(got) == dot_schoolbook(terms)
            assert _coords_of(_dot([(zero, b1), (a1, 0)])) == _coords_of(zero)

    @pytest.mark.parametrize("carrier", CARRIERS, ids=["Poly", "LaurentPoly"])
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_rational_lane(self, carrier, data):
        terms = data.draw(lane_terms(carrier))
        got = _dot(iter(terms))
        assert type(got) is type(terms[0][0])
        assert _coords_of(got) == dot_schoolbook(terms)
        assert hash(got) == hash(carrier(got.lo, got.coeffs))

    @pytest.mark.parametrize("level", [0, 1, 2])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_constructors_match_coords(self, level, data):
        # Poly(run) and LaurentPoly(lo, run), one lcm and one pass on a run of
        # ints and Fractions, against the coordinates read off the scalars
        q, (run,) = data.draw(level_runs(level, 1))
        lo = data.draw(st.integers(-4, 3))
        assert _coords_of(Poly(run)) == run_coords(run)
        assert _coords_of(Poly(iter(run))) == run_coords(run)
        assert _coords_of(LaurentPoly(lo, run)) == run_coords(run, lo, both_ends=True)

    def test_mixed_radicand_raises(self):
        a = Poly([1, sqrt_q(Fraction(1, 3))])
        b = Poly([sqrt_q(Fraction(2)), Fraction(1, 2)])
        for terms in ([(a, 1), (b, 1)], [(a, b)], [(Poly([1]), a), (Poly([2]), sqrt_q(Fraction(2)))]):
            with pytest.raises(ConfigurationError):
                _dot(terms)

    def test_mixed_carriers_raise(self):
        for terms in ([(Poly([1, 2], "z"), 1), (LaurentPoly(0, [1, 2]), 1)],
                      [(Poly([1, 2], "x"), Poly([1], "eta"))]):
            with pytest.raises(ConfigurationError):
                _dot(terms)
