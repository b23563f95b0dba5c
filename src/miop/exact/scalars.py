"""Exact scalar tower, Rational < GaussianRational < SqrtQRational, and the
integer form that it shares with the polynomials of exact.poly.

Rational is stdlib fractions.Fraction.  GaussianRational adjoins i,
SqrtQRational adjoins sqrt(q) for one fixed rational q > 0 per value.

The integer form: with r = sqrt(qn*qd) for q = qn/qd, so that r*r is an
integer and sqrt(q) = r/qd, `parts[k][j] / den` is the coordinate along
e[k] of the basis e = (1, i, r, i*r) of entry j of a run.  _normal makes
it canonical: no zero end entries, the least width (1 over Q, 2 over Q(i),
4 over Q(i)(sqrt q), the radicand q set only at width 4) and
gcd(den, every coordinate) = 1.  _TIMES is the product rule of the basis.

A GaussianRational or SqrtQRational is one canonical column `_parts`,
`_den`, `_q` (zero is one empty column); re/im and a/b/q are derived.  One
private base class does their arithmetic.  The two classes differ only in
the tower level their results keep: a GaussianRational result stays
GaussianRational, also when real; a SqrtQRational result collapses to the
lowest level that holds it (sqrt(1/4) -> 1/2, b=0 drops the sqrt part),
and a GaussianRational leaves an operation with one to the SqrtQRational.

Serialization formats: "p/q", "p/q+r/s*i", "<gaussian> + (<gaussian>)*sqrt(q)".
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Optional, Union

from ..errors import ConfigurationError

Scalar = Union[int, Fraction, "GaussianRational", "SqrtQRational"]

_F0 = Fraction(0)

# e[k] * e[l] = sign * (r*r if s else 1) * e[dst], as _TIMES[k][l] = (dst, sign, s)
_TIMES = (((0, 1, 0), (1, 1, 0), (2, 1, 0), (3, 1, 0)),
          ((1, 1, 0), (0, -1, 0), (3, 1, 0), (2, -1, 0)),
          ((2, 1, 0), (3, 1, 0), (0, 1, 1), (1, 1, 1)),
          ((3, 1, 0), (2, -1, 0), (1, 1, 1), (0, -1, 1)))


def rational_sqrt(q: Fraction) -> Optional[Fraction]:
    """Exact square root of a nonnegative rational, or None if irrational."""
    q = Fraction(q)
    if q < 0:
        return None
    rn, rd = isqrt(q.numerator), isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


# -- the integer kernel ----------------------------------------------------------

def _normal(parts: list, den: int, q, both_ends: bool) -> tuple:
    """(lead, parts, den, q) in canonical form; lead counts the zero
    columns dropped at the low end (only when both_ends)."""
    if len(parts) == 1:  # a rational run: no column scan, no width to lower
        run = parts[0]
        hi = len(run)
        while hi and not run[hi - 1]:
            hi -= 1
        if not hi:
            return 0, [[]], 1, None
        lead = 0
        if both_ends:
            while not run[lead]:
                lead += 1
        if lead or hi < len(run):
            run = run[lead:hi]
        if den < 0:
            den, run = -den, [-x for x in run]
        g = gcd(den, *run)
        if g != 1:
            den //= g
            run = [x // g for x in run]
        return lead, [run], den, None
    n = hi = len(parts[0])
    nonzero = [any(col) for col in zip(*parts)]
    while hi and not nonzero[hi - 1]:
        hi -= 1
    lead = 0
    if both_ends:
        while lead < hi and not nonzero[lead]:
            lead += 1
    if not hi:
        return 0, [[]], 1, None
    if lead or hi < n:
        parts = [part[lead:hi] for part in parts]
    if len(parts) == 4 and not (any(parts[2]) or any(parts[3])):
        parts = parts[:2]
    if len(parts) == 2 and not any(parts[1]):
        parts = parts[:1]
    if len(parts) < 4:
        q = None
    if den < 0:
        den = -den
        parts = [[-x for x in part] for part in parts]
    g = den
    for part in parts:
        g = gcd(g, *part)
        if g == 1:
            break
    if g != 1:
        den //= g
        parts = [[x // g for x in part] for part in parts]
    return lead, parts, den, q


def _radicand(p, q):
    """The one radicand of two operands (None below width 4)."""
    if p is None:
        return q
    if q is not None and q != p:
        raise ConfigurationError(f"mixing sqrt({p}) and sqrt({q}) in one expression")
    return p


def _r2(q) -> int:
    return q.numerator * q.denominator if q is not None else 0


def _conv(a: list, b: list) -> list:
    """Coefficients of the product of two integer runs."""
    if len(b) == 1:
        c = b[0]
        return [x * c for x in a]
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def _mul_ints(a: list, b: list, r2: int) -> list:
    """Product of two runs in coordinates, at the larger width; r2 = r*r."""
    if len(b) == 1 and len(b[0]) == 1:  # a rational constant
        c = b[0][0]
        return [[x * c for x in part] for part in a]
    if len(a) == 1 and len(b) == 1:
        return [_conv(a[0], b[0])]
    out = [None] * max(len(a), len(b))
    for k, ak in enumerate(a):
        if not any(ak):
            continue
        for j, bj in enumerate(b):
            if not any(bj):
                continue
            dst, sign, s = _TIMES[k][j]
            f = sign * r2 if s else sign
            v = _conv(ak, bj)
            acc = out[dst]
            if acc is not None:
                out[dst] = [x + f * y for x, y in zip(acc, v)]
            else:
                out[dst] = v if f == 1 else [f * y for y in v]
    n = len(a[0]) + len(b[0]) - 1
    return [acc if acc is not None else [0] * n for acc in out]


def _align(terms: list) -> tuple:
    """(lo, parts, den, q), not yet canonical: the sum of one or more terms
    (lo, parts, den, q) over their least common denominator."""
    lo = min(t[0] for t in terms)
    n = max(t[0] + len(t[1][0]) for t in terms) - lo
    den = lcm(*(t[2] for t in terms))
    q = None
    out = [[0] * n for _ in range(max(len(t[1]) for t in terms))]
    for tlo, parts, d, tq in terms:
        if tq is not None:
            q = _radicand(q, tq)
        m, a = den // d, tlo - lo
        for part, col in zip(parts, out):
            for j, y in enumerate(part, a):
                col[j] += y * m
    return lo, out, den, q


def _clear_conjugates(a: list, b: list, r2: int) -> tuple:
    """(a*c, b*c) for the product c of the sqrt(q)- and then the
    i-conjugate of b's last entry, which c turns into an integer."""
    for k in (2, 1):
        lead = [part[-1] for part in b]
        if any(lead[k:]):
            conj = [[x if j < k else -x] for j, x in enumerate(lead)]
            a, b = _mul_ints(a, conj, r2), _mul_ints(b, conj, r2)
    return a, b


# -- the tower ---------------------------------------------------------------------

def _column(x):
    """(parts, den, q) of a tower scalar x as one canonical column, or None
    if x is not a tower scalar."""
    if isinstance(x, _Tower):
        return x._parts, x._den, x._q
    if isinstance(x, (int, Fraction)):
        n, d = x.as_integer_ratio()
        return [[n]] if n else [[]], d, None
    return None


def _view(parts: list, den: int, q, level: int = 0) -> Scalar:
    """The scalar whose one column of coordinates is parts/den, made
    canonical, at the least tower level that holds it and not below level
    (0 is Q, 1 is Q(i))."""
    _, parts, den, q = _normal(parts, den, q, False)
    if len(parts) == 1 and not level:
        return Fraction(parts[0][0], den) if parts[0] else _F0
    out = object.__new__(SqrtQRational if len(parts) == 4 else GaussianRational)
    out._parts, out._den, out._q = parts, den, q
    return out


class _Tower:
    """A GaussianRational or SqrtQRational: one canonical column of the
    integer form, and the arithmetic both classes share."""

    __slots__ = ("_parts", "_den", "_q")
    _level = 0  # the least tower level of a result

    def _operand(self, other):
        """other as a column, or None when self's class cannot take it: a
        GaussianRational leaves mixed operations to the SqrtQRational."""
        if isinstance(other, _Tower) and other._level < self._level:
            return None
        return _column(other)

    def _coord(self, k: int) -> int:
        parts = self._parts
        return parts[k][0] if k < len(parts) and parts[k] else 0

    # -- structure ---------------------------------------------------------
    @property
    def is_real(self) -> bool:
        return self.conjugate() == self

    def conjugate(self) -> Scalar:
        """The complex conjugate: the i and i*r coordinates negated."""
        return _view([[-x for x in part] if k & 1 else part
                      for k, part in enumerate(self._parts)], self._den, self._q, self._level)

    def __bool__(self) -> bool:
        return bool(self._parts[0])

    def __eq__(self, other) -> bool:
        col = _column(other)
        if col is None:
            return NotImplemented
        return (self._parts, self._den, self._q) == col

    # -- ring ops ----------------------------------------------------------
    def __add__(self, other):
        b = self._operand(other)
        if b is None:
            return NotImplemented
        _, parts, den, q = _align([(0, self._parts, self._den, self._q), (0, *b)])
        return _view(parts, den, q, self._level)

    __radd__ = __add__

    def __neg__(self):
        return _view([[-x for x in part] for part in self._parts], self._den, self._q,
                     self._level)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        b = self._operand(other)
        if b is None:
            return NotImplemented
        parts, den, q = b
        q = _radicand(self._q, q)
        return _view(_mul_ints(self._parts, parts, _r2(q)), self._den * den, q, self._level)

    __rmul__ = __mul__

    def _inverse(self):
        """1/self at self's level, by clearing the conjugates of self."""
        if not self._parts[0]:
            raise ZeroDivisionError("division by zero scalar")
        num, parts = _clear_conjugates([[self._den]], self._parts, _r2(self._q))
        return _view(num, parts[0][0], self._q, self._level)

    def __truediv__(self, other):
        if self._operand(other) is None:
            return NotImplemented
        return self * (other._inverse() if isinstance(other, _Tower) else Fraction(1, other))

    def __rtruediv__(self, other):
        return self._inverse() * other

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        base = self
        if n < 0:
            base, n = self._inverse(), -n
        return power(base, n, _view([[1]], 1, None, self._level))

    # -- real-value helpers --------------------------------------------------
    def sign(self) -> int:
        """Exact sign of a real value x0 + x2*r: where the signs of x0 and
        x2 differ, that of the larger of x0**2 and x2**2 * r*r."""
        if not self.is_real:
            raise ConfigurationError("sign of a non-real scalar")
        x0, x2 = self._coord(0), self._coord(2)
        sa, sb = (x0 > 0) - (x0 < 0), (x2 > 0) - (x2 < 0)
        if sa * sb >= 0:
            return sa or sb
        d = x0 * x0 - x2 * x2 * _r2(self._q)
        return sa * ((d > 0) - (d < 0))

    def __float__(self) -> float:
        """float(a.re) + float(b.re) * float(q) ** 0.5, each term correctly rounded."""
        if not self.is_real:
            raise ConfigurationError("float() of a non-real scalar")
        x, q = self._coord(0) / self._den, self._q
        if q is None:
            return x
        return x + self._coord(2) * q.denominator / self._den * float(q) ** 0.5

    def __str__(self):
        return format_scalar(self)


class GaussianRational(_Tower):
    """re + im*i; the results of its operations stay GaussianRational."""

    __slots__ = ()
    _level = 1

    def __init__(self, re=0, im=0):
        re, im = Fraction(re), Fraction(im)
        rd, imd = re.denominator, im.denominator
        _, self._parts, self._den, self._q = _normal(
            [[re.numerator * imd], [im.numerator * rd]], rd * imd, None, False)

    # each class binds its own multiply, so the two can be told apart
    __mul__ = __rmul__ = _Tower.__mul__

    @property
    def re(self) -> Fraction:
        return Fraction(self._coord(0), self._den)

    @property
    def im(self) -> Fraction:
        return Fraction(self._coord(1), self._den)

    def __hash__(self):
        return hash(self.re) if len(self._parts) == 1 else hash((self.re, self.im))

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


I = GaussianRational(0, 1)


def make_sqrtq(a, b, q) -> Scalar:
    """Canonical constructor for a + b*sqrt(q): collapses whenever it can."""
    for x in (a, b):
        if not isinstance(x, (int, Fraction, GaussianRational)):
            raise ConfigurationError(f"cannot lift {type(x).__name__} into the Gaussian layer")
    q = Fraction(q)
    if q <= 0:
        raise ConfigurationError("sqrt adjunction needs q > 0")
    r = rational_sqrt(q)
    if r is None:  # sqrt(q) = r/qd
        r = _view([[0], [0], [1], [0]], q.denominator, q)
    return downcast(a + b * r)


class SqrtQRational(_Tower):
    """a + b*sqrt(q), a and b Gaussian, q a fixed positive non-square rational.

    Built through make_sqrtq (never directly) so that b == 0 and square q
    always collapse to the Gaussian layer; its results collapse the same way.
    """

    __slots__ = ()

    __mul__ = __rmul__ = _Tower.__mul__

    @property
    def a(self) -> GaussianRational:
        return _view(self._parts[:2], self._den, None, 1)

    @property
    def b(self) -> GaussianRational:  # b*sqrt(q) = (b/qd)*r
        qd = self._q.denominator
        return _view([[x * qd for x in part] for part in self._parts[2:]], self._den, None, 1)

    @property
    def q(self) -> Fraction:
        return self._q

    def __hash__(self):
        return hash((self.a, self.b, self.q))

    def __repr__(self):
        return f"SqrtQRational({self.a!r}, {self.b!r}, {self.q!r})"


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


def scalar_sign(x: Scalar) -> int:
    if isinstance(x, _Tower):
        return x.sign()
    return (x > 0) - (x < 0)


def downcast(x: Scalar) -> Scalar:
    """Lowest tower member with the same value (SqrtQRational is already minimal)."""
    if isinstance(x, (int, GaussianRational)):
        return _view(*_column(x))
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

def _format_gaussian(g: GaussianRational) -> str:
    re, im = g.re, g.im
    if im == 0:
        return str(re)
    im_part = f"{im}*i"
    if re == 0:
        return im_part
    sign = "+" if im > 0 else "-"
    return f"{re}{sign}{abs(im)}*i"


def format_scalar(x: Scalar) -> str:
    x = downcast(x)
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, GaussianRational):
        return _format_gaussian(x)
    if isinstance(x, SqrtQRational):
        return f"{_format_gaussian(x.a)} + ({_format_gaussian(x.b)})*sqrt({x.q})"
    raise ConfigurationError(f"cannot serialize {type(x).__name__}")
