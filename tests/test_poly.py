"""Polynomial and Laurent arithmetic: ring laws, exact division, reductions."""
import abc
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from miop.errors import ConfigurationError, InexactDivision, ReductionFailure
from miop.exact import (NEG_INF, GaussianRational, LaurentPoly, Poly,
                        SqrtQRational, even_poly_to_eta, format_scalar,
                        imag_shift, laurent_shift, laurent_to_eta, make_sqrtq, sqrt_q)
from miop.exact.poly import _dot
from miop.families import PRESETS, poly_to_x

from .oracles import (coeff, conj, conj_coeffs, dot_schoolbook, laurent_shift_scalar,
                      laurent_to_eta_scalar, long_division, run_coords, schoolbook_mul, star,
                      x_shift_compose, z_inverse)
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
        assert coeff(shifted, 1) == sqrt_q(Fraction(1, 3))

    @given(laurents())
    @settings(max_examples=60)
    def test_shift_involution(self, p):
        c = Fraction(3, 2)
        assert laurent_shift(laurent_shift(p, c, self.Q), -c, self.Q) == p

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
    return Poly([coeff(p, k) for k in range(p.hi + 1)], "z")


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
        comparisons, the shifts and the eta reductions work on integers only."""
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
        shifts = [(c, base) for c in (Fraction(1, 2), Fraction(-1, 2), 1, -1,
                                      Fraction(3, 2), Fraction(-3, 2))
                  for base in (Fraction(1, 4), q)]
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
                          LaurentPoly(-lp.hi, [conj(c) for c in reversed(lp.coeffs)])))
            todo += [(lambda lp=lp, c=c, base=base: laurent_shift(lp, c, base),
                      laurent_shift_scalar(lp, c, base)) for c, base in shifts]
            px = Poly(run, "x")
            todo += [(lambda px=px, c=c: imag_shift(px, c), x_shift_compose(px, c))
                     for c in (Fraction(1, 2), Fraction(-3, 2), 2, Fraction(5, 3))]
        for run in real_runs:
            p = Poly(run)
            x_sq = p.compose(Poly([0, 0, 1], "x"))
            z_sum = poly_to_x(PRESETS["aw-default"], p)
            todo += [(lambda x_sq=x_sq: even_poly_to_eta(x_sq), p),
                     (lambda z_sum=z_sum: laurent_to_eta(z_sum), p)]

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


@st.composite
def shifted_laurents(draw):
    """(p, q): a Laurent value at a tower level over q, starting below z**0."""
    q, (run,) = draw(radicand_runs(count=1))
    return LaurentPoly(draw(st.integers(-6, -1)), run), q


def _peel(reduce, p):
    """Coefficient strings of reduce(p), or the ReductionFailure it raises."""
    try:
        return _strs(reduce(p))
    except ReductionFailure as exc:
        return str(exc)


class TestShiftAndPeel:
    """laurent_shift and laurent_to_eta in coordinates against the scalar
    loops of tests/oracles.py."""

    @given(shifted_laurents(), st.sampled_from([Fraction(k, 2) for k in range(-5, 6)]))
    @settings(max_examples=150, deadline=None)
    def test_shift_matches_scalar_loop(self, p_q, c):
        p, q = p_q
        got, want = laurent_shift(p, c, q), laurent_shift_scalar(p, c, q)
        assert got == want and got.lo == want.lo and hash(got) == hash(want)
        assert _strs(got) == _strs(want)

    @given(shifted_laurents())
    @settings(max_examples=150, deadline=None)
    def test_peel_matches_scalar_loop(self, p_q):
        p, _ = p_q
        real = [c + conj(c) for c in p.coeffs]  # conj-invariant entries
        sym = LaurentPoly(1 - len(real), real[::-1] + real[1:])
        for value in (p, sym):
            assert _peel(laurent_to_eta, value) == _peel(laurent_to_eta_scalar, value)

    def test_peel_of_zero(self):
        zero = LaurentPoly()
        assert (zero.lo, zero.hi) == (0, -1)
        assert laurent_to_eta(zero) == laurent_to_eta_scalar(zero) == Poly.zero("eta")


def _coords_of(p):
    return p._parts, p._den, p._q, p.lo


SHIFT_STEPS = st.one_of(st.integers(-4, 4), st.sampled_from([Fraction(k, 2) for k in range(-7, 8)]),
                        rationals())


class TestImagShift:
    """imag_shift, the integer Taylor shift x -> x + i*c, against the
    composition with x + i*c in tests/oracles.py, coordinate for coordinate."""

    @given(radicand_runs(count=1, max_len=13), SHIFT_STEPS)
    @settings(max_examples=200, deadline=None)
    def test_matches_compose(self, q_runs, c):
        _, (run,) = q_runs
        p = Poly(run, "x")
        got, want = imag_shift(p, c), x_shift_compose(p, c)
        assert _coords_of(got) == _coords_of(want)
        assert got.var == "x" and hash(got) == hash(want)


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
