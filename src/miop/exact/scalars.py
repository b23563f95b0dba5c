"""Exact scalar tower: Rational < GaussianRational < SqrtQRational.

Rational is stdlib fractions.Fraction.  GaussianRational adjoins i,
SqrtQRational adjoins sqrt(q) for one fixed rational q > 0 per value.
All arithmetic is exact; results collapse to the lowest tower level that
can represent them (sqrt(1/4) -> 1/2, b=0 drops the sqrt part).

Serialization formats: "p/q", "p/q+r/s*i", "<gaussian> + (<gaussian>)*sqrt(q)".
"""
from __future__ import annotations

import re as _re
from fractions import Fraction
from math import isqrt
from typing import Optional, Union

from ..errors import ConfigurationError

Scalar = Union[int, Fraction, "GaussianRational", "SqrtQRational"]

_RAT = (int, Fraction)


def rational_sqrt(q: Fraction) -> Optional[Fraction]:
    """Exact square root of a nonnegative rational, or None if irrational."""
    q = Fraction(q)
    if q < 0:
        return None
    if q == 0:
        return Fraction(0)
    rn, rd = isqrt(q.numerator), isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


class GaussianRational:
    """re + im*i with exact Fraction parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if type(re) is Fraction else Fraction(re)
        self.im = im if type(im) is Fraction else Fraction(im)

    # -- structure ---------------------------------------------------------
    @property
    def is_real(self) -> bool:
        return self.im == 0

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __eq__(self, other) -> bool:
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, _RAT):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    # -- ring ops ----------------------------------------------------------
    def __add__(self, other):
        if isinstance(other, GaussianRational):
            return GaussianRational(self.re + other.re, self.im + other.im)
        if isinstance(other, _RAT):
            return GaussianRational(self.re + other, self.im)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        if isinstance(other, (GaussianRational, *_RAT)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, _RAT):
            return GaussianRational(other - self.re, -self.im)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, GaussianRational):
            return GaussianRational(self.re * other.re - self.im * other.im,
                                    self.re * other.im + self.im * other.re)
        if isinstance(other, _RAT):
            return GaussianRational(self.re * other, self.im * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, _RAT):
            if other == 0:
                raise ZeroDivisionError("division by zero scalar")
            return GaussianRational(self.re / other, self.im / other)
        if isinstance(other, GaussianRational):
            n2 = other.re * other.re + other.im * other.im
            if n2 == 0:
                raise ZeroDivisionError("division by zero scalar")
            return self * other.conjugate() / n2
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, _RAT):
            return GaussianRational(other) / self
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return 1 / (self ** (-n))
        return power(self, n, GaussianRational(1))

    # -- real-value helpers --------------------------------------------------
    def sign(self) -> int:
        if self.im != 0:
            raise ConfigurationError("sign of a non-real scalar")
        return (self.re > 0) - (self.re < 0)

    def __float__(self) -> float:
        if self.im != 0:
            raise ConfigurationError("float() of a non-real scalar")
        return float(self.re)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_scalar(self)


I = GaussianRational(0, 1)


def _as_gaussian(x) -> GaussianRational:
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, _RAT):
        return GaussianRational(x)
    raise ConfigurationError(f"cannot lift {type(x).__name__} into the Gaussian layer")


def make_sqrtq(a, b, q) -> Scalar:
    """Canonical constructor for a + b*sqrt(q): collapses whenever it can."""
    a, b = _as_gaussian(a), _as_gaussian(b)
    q = Fraction(q)
    if q <= 0:
        raise ConfigurationError("sqrt adjunction needs q > 0")
    r = rational_sqrt(q)
    if r is not None:
        return _downcast_gaussian(a + b * r)
    if not b:
        return _downcast_gaussian(a)
    return SqrtQRational(a, b, q)


def _downcast_gaussian(g: GaussianRational):
    return g.re if g.im == 0 else g


class SqrtQRational:
    """a + b*sqrt(q), a and b Gaussian, q a fixed positive non-square rational.

    Built through make_sqrtq (never directly) so that b == 0 and square q
    always collapse to the Gaussian layer.
    """

    __slots__ = ("a", "b", "q")

    def __init__(self, a: GaussianRational, b: GaussianRational, q: Fraction):
        self.a = a
        self.b = b
        self.q = q

    def _check_q(self, other: "SqrtQRational"):
        if self.q != other.q:
            raise ConfigurationError(
                f"mixing sqrt({self.q}) and sqrt({other.q}) in one expression")

    @property
    def is_real(self) -> bool:
        return self.a.is_real and self.b.is_real

    def conjugate(self):
        return make_sqrtq(self.a.conjugate(), self.b.conjugate(), self.q)

    def __bool__(self):
        return True  # b != 0 by construction, and sqrt(q) is irrational

    def __eq__(self, other):
        if isinstance(other, SqrtQRational):
            return self.q == other.q and self.a == other.a and self.b == other.b
        if isinstance(other, (GaussianRational, *_RAT)):
            return False  # nonzero sqrt part is irrational
        return NotImplemented

    def __hash__(self):
        return hash((self.a, self.b, self.q))

    def __add__(self, other):
        if isinstance(other, SqrtQRational):
            self._check_q(other)
            return make_sqrtq(self.a + other.a, self.b + other.b, self.q)
        if isinstance(other, (GaussianRational, *_RAT)):
            return make_sqrtq(self.a + other, self.b, self.q)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return make_sqrtq(-self.a, -self.b, self.q)

    def __sub__(self, other):
        if isinstance(other, (SqrtQRational, GaussianRational, *_RAT)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (GaussianRational, *_RAT)):
            return (-self) + other
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, SqrtQRational):
            self._check_q(other)
            return make_sqrtq(self.a * other.a + self.b * other.b * self.q,
                              self.a * other.b + self.b * other.a, self.q)
        if isinstance(other, (GaussianRational, *_RAT)):
            return make_sqrtq(self.a * other, self.b * other, self.q)
        return NotImplemented

    __rmul__ = __mul__

    def _inverse(self):
        # 1/(a+b sqrt q) = (a - b sqrt q)/(a^2 - b^2 q); denominator is a
        # nonzero Gaussian (a^2 = b^2 q would make q a rational square).
        den = self.a * self.a - self.b * self.b * self.q
        if not den:
            raise ZeroDivisionError("division by zero scalar")
        return make_sqrtq(self.a / den, -self.b / den, self.q)

    def __truediv__(self, other):
        if isinstance(other, SqrtQRational):
            self._check_q(other)
            return self * other._inverse()
        if isinstance(other, (GaussianRational, *_RAT)):
            return make_sqrtq(self.a / other, self.b / other, self.q)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (GaussianRational, *_RAT)):
            return self._inverse() * other
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self._inverse() ** (-n)
        return power(self, n, Fraction(1))

    def sign(self) -> int:
        """Exact sign of a real value a + b*sqrt(q)."""
        if not self.is_real:
            raise ConfigurationError("sign of a non-real scalar")
        a, b = self.a.re, self.b.re
        sa = (a > 0) - (a < 0)
        sb = (b > 0) - (b < 0)
        if sa == 0:
            return sb
        if sb == 0 or sa == sb:
            return sa
        # opposite signs: compare a^2 against b^2 q
        diff = a * a - b * b * self.q
        if diff == 0:  # impossible for non-square q, kept as a guard
            return 0
        return sa if diff > 0 else sb

    def __float__(self) -> float:
        if not self.is_real:
            raise ConfigurationError("float() of a non-real scalar")
        return float(self.a.re) + float(self.b.re) * float(self.q) ** 0.5

    def __repr__(self):
        return f"SqrtQRational({self.a!r}, {self.b!r}, {self.q!r})"

    def __str__(self):
        return format_scalar(self)


# -- tower-generic helpers ---------------------------------------------------

def power(base, n: int, one):
    """base**n for n >= 0 by square-and-multiply; `one` is the ring's unit.

    The one power loop of the exact core: scalars and both polynomial
    carriers delegate their __pow__ here.
    """
    result = one
    while n:
        if n & 1:
            result = result * base
        n >>= 1
        if n:
            base = base * base
    return result


def conj(x: Scalar) -> Scalar:
    if isinstance(x, (GaussianRational, SqrtQRational)):
        return x.conjugate()
    return x


def scalar_sign(x: Scalar) -> int:
    if isinstance(x, (GaussianRational, SqrtQRational)):
        return x.sign()
    return (x > 0) - (x < 0)


def downcast(x: Scalar) -> Scalar:
    """Lowest tower member with the same value (SqrtQRational is already minimal)."""
    if isinstance(x, GaussianRational):
        return _downcast_gaussian(x)
    if isinstance(x, int):
        return Fraction(x)
    return x


def sqrt_q(q) -> Scalar:
    """sqrt(q) as an exact tower scalar."""
    return make_sqrtq(0, 1, q)


def q_pow(q, num: int, den: int = 1) -> Scalar:
    """q**(num/den) exactly; den must be 1 or 2."""
    q = Fraction(q)
    if den == 2:
        if num % 2 == 0:
            num, den = num // 2, 1
        else:  # q**((num-1)/2) * sqrt(q)
            return make_sqrtq(0, q ** ((num - 1) // 2), q)
    if den != 1:
        raise ConfigurationError("only integer and half-integer q powers are exact")
    return q ** num


# -- serialization -------------------------------------------------------------

_FRACTION_RE = r"[+-]?\d+(?:/\d+)?"


def _format_gaussian(g: GaussianRational) -> str:
    if g.im == 0:
        return str(g.re)
    im_part = f"{g.im}*i"
    if g.re == 0:
        return im_part
    sign = "+" if g.im > 0 else "-"
    return f"{g.re}{sign}{abs(g.im)}*i"


def format_scalar(x: Scalar) -> str:
    x = downcast(x)
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, GaussianRational):
        return _format_gaussian(x)
    if isinstance(x, SqrtQRational):
        return f"{_format_gaussian(x.a)} + ({_format_gaussian(x.b)})*sqrt({x.q})"
    raise ConfigurationError(f"cannot serialize {type(x).__name__}")


def _parse_gaussian(s: str) -> GaussianRational:
    s = s.replace(" ", "")
    if not s:
        raise ValueError("empty scalar string")
    if "i" not in s:
        return GaussianRational(Fraction(s))
    m = _re.fullmatch(rf"(?:(?P<re>{_FRACTION_RE})(?=[+-]))?(?P<im>{_FRACTION_RE})\*i", s)
    if not m:
        raise ValueError(f"malformed scalar string: {s!r}")
    re_part = Fraction(m.group("re")) if m.group("re") else Fraction(0)
    return GaussianRational(re_part, Fraction(m.group("im")))


def parse_scalar(s: str) -> Scalar:
    """Inverse of format_scalar; returns the lowest tower member."""
    s = s.strip()
    if "sqrt" in s:
        m = _re.fullmatch(
            r"(?P<a>.+?)\s*\+\s*\((?P<b>[^)]+)\)\*sqrt\((?P<q>[^)]+)\)", s)
        if not m:
            raise ValueError(f"malformed scalar string: {s!r}")
        return make_sqrtq(_parse_gaussian(m.group("a")),
                          _parse_gaussian(m.group("b")),
                          Fraction(m.group("q")))
    return downcast(_parse_gaussian(s))
