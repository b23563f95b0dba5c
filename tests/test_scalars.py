"""Scalar tower: Gaussian and sqrt(q) layers, collapse rules, serialization."""
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from miop.errors import ConfigurationError
from miop.exact import (GaussianRational, I, SqrtQRational, downcast,
                        format_scalar, q_pow, rational_sqrt, scalar_sign, sqrt_q)
from miop.exact.scalars import make_sqrtq

from . import oracles
from .oracles import conj, parse_scalar
from .strategies import RADICANDS, gaussians, rationals, tower_scalars


class TestGaussian:
    def test_i_squared(self):
        assert I * I == Fraction(-1)

    def test_mixed_arith_with_fraction(self):
        x = Fraction(1, 2) + GaussianRational(1, 3)
        assert x == GaussianRational(Fraction(3, 2), 3)
        assert Fraction(2) * I == GaussianRational(0, 2)
        assert 1 - I == GaussianRational(1, -1)

    def test_division_exact(self):
        a = GaussianRational(Fraction(3, 2), Fraction(-1, 4))
        b = GaussianRational(Fraction(2, 7), Fraction(5, 3))
        assert (a / b) * b == a
        assert 1 / I == -I

    def test_eq_hash_against_fraction(self):
        g = GaussianRational(Fraction(3, 2), 0)
        assert g == Fraction(3, 2)
        assert hash(g) == hash(Fraction(3, 2))

    @given(gaussians())
    def test_conjugation_involution(self, g):
        assert conj(conj(g)) == g

    @given(gaussians(), gaussians())
    def test_conj_is_multiplicative(self, a, b):
        assert conj(a * b) == conj(a) * conj(b)

    def test_sign_requires_real(self):
        with pytest.raises(ConfigurationError):
            I.sign()
        assert GaussianRational(Fraction(-2, 3), 0).sign() == -1


class TestSqrtQ:
    def test_square_q_collapses(self):
        assert sqrt_q(Fraction(1, 4)) == Fraction(1, 2)
        assert sqrt_q(Fraction(9, 16)) == Fraction(3, 4)

    def test_non_square_stays_symbolic(self):
        r = sqrt_q(Fraction(1, 3))
        assert isinstance(r, SqrtQRational)
        assert r * r == Fraction(1, 3)

    def test_b_zero_collapses(self):
        r = sqrt_q(Fraction(1, 3))
        assert r - r == 0
        assert isinstance(r + (-r) + Fraction(5), Fraction)

    def test_inverse_roundtrip(self):
        x = make_sqrtq(Fraction(2, 3), Fraction(-1, 5), Fraction(2, 7))
        assert x * (1 / x) == 1
        assert (Fraction(3) / x) * x == 3

    def test_q_mixing_raises(self):
        with pytest.raises(ConfigurationError):
            sqrt_q(Fraction(1, 3)) + sqrt_q(Fraction(1, 5))

    def test_q_pow(self):
        assert q_pow(Fraction(1, 4), 1, 2) == Fraction(1, 2)
        assert q_pow(Fraction(1, 4), -3, 2) == Fraction(8)
        assert q_pow(Fraction(1, 3), 2, 2) == Fraction(1, 3)
        r = q_pow(Fraction(1, 3), 1, 2)
        assert r * r == Fraction(1, 3)
        assert q_pow(Fraction(1, 3), -1, 2) * r == 1

    @pytest.mark.parametrize("q", [Fraction(1, 4), Fraction(1, 3)])
    def test_odd_half_powers_match_repeated_sqrt(self, q):
        for num in range(-9, 10):
            got, want = q_pow(q, num, 2), sqrt_q(q) ** num
            assert got == want and type(got) is type(want)
            assert format_scalar(got) == format_scalar(want)

    def test_exact_sign(self):
        # 1 - 2*sqrt(1/3) < 0 since 1 < 4/3
        x = make_sqrtq(1, -2, Fraction(1, 3))
        assert scalar_sign(x) == -1
        # 2 - sqrt(1/3) > 0
        y = make_sqrtq(2, -1, Fraction(1, 3))
        assert scalar_sign(y) == 1
        assert scalar_sign(sqrt_q(Fraction(1, 3))) == 1

    def test_float_value(self):
        x = make_sqrtq(1, -2, Fraction(1, 3))
        assert abs(float(x) - (1 - 2 * (1 / 3) ** 0.5)) < 1e-15

    @given(gaussians(), gaussians(), gaussians(), gaussians())
    @settings(max_examples=50)
    def test_ring_closure(self, a, b, c, d):
        q = Fraction(2, 7)
        x = make_sqrtq(a, b, q)
        y = make_sqrtq(c, d, q)
        s = x * y
        # value check at sqrt(q) treated numerically
        import math
        rq = math.sqrt(2 / 7)

        def val(z):
            if isinstance(z, SqrtQRational):
                return complex(float(z.a.re), float(z.a.im)) + \
                    complex(float(z.b.re), float(z.b.im)) * rq
            if isinstance(z, GaussianRational):
                return complex(float(z.re), float(z.im))
            return complex(z)

        assert abs(val(s) - val(x) * val(y)) < 1e-9 * (1 + abs(val(x) * val(y)))


class TestRationalSqrt:
    def test_known_values(self):
        assert rational_sqrt(Fraction(4, 9)) == Fraction(2, 3)
        assert rational_sqrt(Fraction(2)) is None
        assert rational_sqrt(Fraction(0)) == 0

    @given(rationals(30, 30))
    def test_squares_always_detected(self, r):
        assert rational_sqrt(r * r) == abs(r)


class TestSerialization:
    @pytest.mark.parametrize("s", [
        "3", "-7/2", "3/2+1/4*i", "3/2-1/4*i", "-1/4*i", "0",
        "1/2 + (1/3)*sqrt(1/3)",
        "1/2-1/4*i + (-2/3+1/5*i)*sqrt(2/7)",
    ])
    def test_parse_format_roundtrip(self, s):
        x = parse_scalar(s)
        assert parse_scalar(format_scalar(x)) == x

    def test_format_examples(self):
        assert format_scalar(Fraction(3, 2)) == "3/2"
        assert format_scalar(GaussianRational(Fraction(3, 2), Fraction(-1, 4))) \
            == "3/2-1/4*i"
        assert format_scalar(make_sqrtq(0, 1, Fraction(1, 3))) \
            == "0 + (1)*sqrt(1/3)"

    @given(gaussians())
    def test_gaussian_roundtrip(self, g):
        assert parse_scalar(format_scalar(g)) == downcast(g)

    @given(gaussians(), gaussians())
    @settings(max_examples=50)
    def test_sqrtq_roundtrip(self, a, b):
        x = make_sqrtq(a, b, Fraction(2, 7))
        assert parse_scalar(format_scalar(x)) == downcast(x)

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            parse_scalar("3/2+*i")


def _reference(x):
    """x in the Fraction-pair tower of tests/oracles.py, at the same level."""
    if isinstance(x, SqrtQRational):
        return oracles.make_sqrtq(_reference(x.a), _reference(x.b), x.q)
    if isinstance(x, GaussianRational):
        return oracles.GaussianRational(x.re, x.im)
    return x


_REFERENCE_TYPES = {GaussianRational: oracles.GaussianRational,
                    SqrtQRational: oracles.SqrtQRational}


def _reference_sign(x) -> int:
    if isinstance(x, (oracles.GaussianRational, oracles.SqrtQRational)):
        return x.sign()
    return (x > 0) - (x < 0)


def _assert_same(got, want, conjugates=True):
    """got, a value of miop's tower, is want of the reference tower: the
    same type, serialization, hash, conjugate and, when real, float bits
    and exact sign."""
    assert _REFERENCE_TYPES.get(type(got), type(got)) is type(want)
    if isinstance(want, bool):
        assert got == want
        return
    assert format_scalar(got) == oracles.format_scalar(want)
    assert hash(got) == hash(want)
    if not isinstance(want, (oracles.GaussianRational, oracles.SqrtQRational)) or want.is_real:
        assert float(got).hex() == float(want).hex()
        assert scalar_sign(got) == _reference_sign(want)
    if conjugates:
        _assert_same(conj(got), conj(want), False)


class TestAgainstFractionPairTower:
    """The one-column views against the Fraction-pair classes they replaced."""

    @pytest.mark.parametrize("q", RADICANDS, ids=str)
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_operations_match(self, q, data):
        x, y = data.draw(tower_scalars(2, q)), data.draw(tower_scalars(2, q))
        n = data.draw(st.integers(-4, 4))
        rx, ry = _reference(x), _reference(y)
        _assert_same(x, rx)
        _assert_same(y, ry)
        if not any(isinstance(v, (GaussianRational, SqrtQRational)) for v in (x, y)):
            return  # stdlib arithmetic
        for op in (operator.add, operator.sub, operator.mul, operator.truediv, operator.eq):
            try:
                want = op(rx, ry)
            except ZeroDivisionError:
                with pytest.raises(ZeroDivisionError):
                    op(x, y)
                continue
            got = op(x, y)
            _assert_same(got, want)
            if rational_sqrt(q) is not None:  # a square radicand always collapses
                assert not isinstance(got, SqrtQRational)
        for base, rbase in ((x, rx), (y, ry)):
            if isinstance(base, (GaussianRational, SqrtQRational)):
                try:
                    want = rbase ** n
                except ZeroDivisionError:
                    with pytest.raises(ZeroDivisionError):
                        base ** n
                else:
                    _assert_same(base ** n, want)

    @given(rationals())
    def test_real_gaussian_stays_gaussian(self, r):
        g = GaussianRational(r, 0)
        for got in (g, g * 1, g + 0, g - g, g / 1, g ** 2, g ** -1 if r else g, conj(g)):
            assert type(got) is GaussianRational and got.is_real
        assert hash(g) == hash(r) and g == r

    @pytest.mark.parametrize("q", RADICANDS[:3], ids=str)
    def test_mixed_levels_follow_the_sqrt_layer(self, q):
        # a GaussianRational leaves an operation with a SqrtQRational to it,
        # so a zero product or quotient collapses to Fraction
        x, zero = sqrt_q(q), GaussianRational(0)
        rx, rzero = _reference(x), _reference(zero)
        for op in (operator.mul, operator.truediv, operator.add, operator.sub):
            _assert_same(op(zero, x), op(rzero, rx))
            if op is not operator.truediv:
                _assert_same(op(x, zero), op(rx, rzero))

    @pytest.mark.parametrize("q", RADICANDS[:3], ids=str)
    @given(gaussians(), gaussians())
    def test_sqrt_layer_never_equals_a_lower_level(self, q, a, b):
        x = make_sqrtq(a, b, q)
        if isinstance(x, SqrtQRational):
            for lower in (a, b, downcast(a), x.a, x.b, 0, Fraction(1, 2)):
                assert x != lower and lower != x
