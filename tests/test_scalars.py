"""Scalar tower: Gaussian and sqrt(q) layers, collapse rules, serialization."""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from miop.errors import ConfigurationError
from miop.exact import (GaussianRational, I, SqrtQRational, conj, downcast,
                        format_scalar, make_sqrtq, parse_scalar, q_pow,
                        rational_sqrt, scalar_sign, sqrt_q)

from .strategies import gaussians, rationals


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
