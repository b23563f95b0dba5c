"""Dense exact polynomials in one variable, plus Laurent polynomials in z.

Both carriers of the recurrence share one ring core, _PolyBase: a
coefficient run `coeffs` (lowest exponent first, no zero end coefficients)
under a variable tag, starting at the exponent `lo`.  Poly fixes lo = 0 as
a class constant and is used in "eta" and "x"; LaurentPoly stores its own
lo, normalised so that coeffs[0] is nonzero, for z = e^{ix} expressions.
Addition, multiplication, powers, evaluation and exact division are written
once for the run and read lo for the exponent offset.  Coefficients live
anywhere in the scalar tower.  Values are immutable; the zero polynomial
has an empty run (degree NEG_INF for Poly, lo = 0 for LaurentPoly).
Mixing the two carriers, or two variables, raises ConfigurationError.

Multiplication of two polynomials, exact division and composition run on
one integer kernel, whatever the tower level.  Each run becomes integer
coordinates over one common denominator (one lcm pass) in the basis
1, i, r, i*r of Z[i][r], r = sqrt(qn*qd) for q = qn/qd, so r*r is an
integer; the work is integer convolution and pseudo-division, and the
result goes back to canonical tower scalars with one Fraction, so one gcd,
per coordinate.  Runs with two different q raise ConfigurationError.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, lcm
from typing import Iterable, Sequence

from ..errors import ConfigurationError, InexactDivision, ReductionFailure
from .scalars import (GaussianRational, Scalar, SqrtQRational, conj, downcast,
                      format_scalar, make_sqrtq, power, q_pow)

NEG_INF = float("-inf")

_SCALARS = (int, Fraction, GaussianRational, SqrtQRational)


def _trim(coeffs: Sequence[Scalar]) -> tuple:
    n = len(coeffs)
    while n > 0 and not coeffs[n - 1]:
        n -= 1
    return tuple(coeffs[:n])


# -- the integer kernel ----------------------------------------------------------
#
# A run is held as `width` integer lists over one positive denominator, its
# coordinates in the basis e = (1, i, r, i*r), sqrt(q) = r/qd: width 1 over
# Q, 2 over Q(i) and 4 over Q(i)(sqrt q).

# e[k] * e[l] = sign * (r*r if s else 1) * e[dst], as _TIMES[k][l] = (dst, sign, s)
_TIMES = (((0, 1, 0), (1, 1, 0), (2, 1, 0), (3, 1, 0)),
          ((1, 1, 0), (0, -1, 0), (3, 1, 0), (2, -1, 0)),
          ((2, 1, 0), (3, 1, 0), (0, 1, 1), (1, 1, 1)),
          ((3, 1, 0), (2, -1, 0), (1, 1, 1), (0, -1, 1)))

_F0 = Fraction(0)


def _columns(run, width: int) -> list:
    """run's coordinates along e[:width] (sqrt(q) in place of r), one list
    of ints and Fractions per basis element."""
    if width == 1:
        return [run]
    if width == 2:
        return [[c.re if type(c) is GaussianRational else c for c in run],
                [c.im if type(c) is GaussianRational else 0 for c in run]]
    return (_columns([c.a if type(c) is SqrtQRational else c for c in run], 2)
            + _columns([c.b if type(c) is SqrtQRational else 0 for c in run], 2))


def _split(runs) -> tuple:
    """(q, [(parts, den) per run]): nonempty runs at one common width.

    parts[k][j] / den is the coordinate of run[j] along e[k]; q is the
    adjoined sqrt's radicand, or None below the top of the tower.
    """
    types = {type(c) for run in runs for c in run}
    q = None
    width = 2 if GaussianRational in types else 1
    if SqrtQRational in types:
        qs = {c.q for run in runs for c in run if type(c) is SqrtQRational}
        if len(qs) > 1:
            raise ConfigurationError(
                f"mixing {' and '.join(f'sqrt({q})' for q in qs)} in one expression")
        q, width = qs.pop(), 4
    out = []
    for run in runs:
        n = len(run)
        flat = [x for col in _columns(run, width) for x in col]
        nums = [x._numerator if type(x) is Fraction else x for x in flat]
        dens = [x._denominator if type(x) is Fraction else 1 for x in flat]
        if q is not None:  # b*sqrt(q) = (b/qd)*r
            dens[2 * n:] = [d * q.denominator for d in dens[2 * n:]]
        den = lcm(*dens)
        scaled = [x * (den // d) for x, d in zip(nums, dens)]
        out.append(([scaled[k:k + n] for k in range(0, width * n, n)], den))
    return q, out


def _r2(q) -> int:
    return q.numerator * q.denominator if q is not None else 0


def _from_ints(parts, den: int, q) -> list:
    """The coefficient run whose coordinates are parts / den (den > 0)."""
    if len(parts) == 4:  # r = qd*sqrt(q)
        parts = parts[:2] + [[x * q.denominator for x in part] for part in parts[2:]]
    rats = [[Fraction(x, den) if x else _F0 for x in part] for part in parts]
    if len(rats) == 1:
        return rats[0]
    gauss = [GaussianRational(x, y) for x, y in zip(rats[0], rats[1])]
    if len(rats) == 2:
        return gauss
    return [make_sqrtq(a, GaussianRational(x, y), q)
            for a, x, y in zip(gauss, rats[2], rats[3])]


def _conv(a: list, b: list) -> list:
    """Coefficients of the product of two integer runs."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def _mul_ints(a: list, b: list, r2: int) -> list:
    """Product of two runs of one width, in coordinates; r2 = r*r."""
    out = [[0] * (len(a[0]) + len(b[0]) - 1) for _ in a]
    for k, ak in enumerate(a):
        if not any(ak):
            continue
        for j, bj in enumerate(b):
            if not any(bj):
                continue
            dst, sign, s = _TIMES[k][j]
            f = sign * r2 if s else sign
            acc = out[dst]
            for e, v in enumerate(_conv(ak, bj)):
                acc[e] += f * v
    return out


class _PolyBase:
    """sum coeffs[i] * var**(lo+i); the ring operations of both carriers."""

    __slots__ = ("coeffs", "var")

    def _new(self, lo: int, coeffs: Iterable[Scalar]):
        """A value of self's type and variable from a run starting at lo."""
        raise NotImplementedError

    def _operand(self, other):
        """other as an element of self's ring, or None if it is not one."""
        if isinstance(other, _SCALARS):
            return self._new(0, (other,))
        if not isinstance(other, _PolyBase):
            return None
        if type(other) is not type(self) or other.var != self.var:
            raise ConfigurationError(
                f"mixing {type(self).__name__} in {self.var!r} and "
                f"{type(other).__name__} in {other.var!r}")
        return other

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, k: int) -> Scalar:
        """Coefficient of var**k."""
        i = k - self.lo
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    def __eq__(self, other):
        if isinstance(other, _SCALARS):
            other = self._new(0, (other,))
        elif type(other) is not type(self):
            return NotImplemented
        return (self.lo == other.lo and self.var == other.var
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.var, self.lo, self.coeffs))

    def __bool__(self):
        return bool(self.coeffs)

    # -- ring ops --------------------------------------------------------------
    def __add__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        if not other.coeffs:
            return self
        if not self.coeffs:
            return other
        a, b = (self, other) if self.lo <= other.lo else (other, self)
        out = list(a.coeffs)
        n = len(out)
        off = b.lo - a.lo
        out.extend([Fraction(0)] * (off - n))
        for i, c in enumerate(b.coeffs, off):
            if i < n:
                out[i] = out[i] + c
            else:
                out.append(c)
        return self._new(a.lo, out)

    __radd__ = __add__

    def __neg__(self):
        return self._new(self.lo, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            if not other:
                return self._new(0, ())
            return self._new(self.lo, tuple(c * other for c in self.coeffs))
        other = self._operand(other)
        if other is None:
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return self._new(0, ())
        q, ((a, da), (b, db)) = _split((self.coeffs, other.coeffs))
        return self._new(self.lo + other.lo,
                         _from_ints(_mul_ints(a, b, _r2(q)), da * db, q))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        return power(self, n, self._new(0, (Fraction(1),)))

    # -- evaluation ---------------------------------------------------------------
    def __call__(self, x: Scalar) -> Scalar:
        if isinstance(x, int):
            x = Fraction(x)
        acc: Scalar = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        lo = self.lo
        if not lo:
            return acc
        return acc * x ** lo if lo > 0 else acc / x ** (-lo)

    def map_coeffs(self, f):
        return self._new(self.lo, tuple(f(c) for c in self.coeffs))

    # -- division ------------------------------------------------------------------
    def exact_div(self, den):
        """self / den; InexactDivision if den does not divide self.

        Both runs are multiplied by the sqrt(q)- and then the i-conjugate of
        den's leading coefficient until that coefficient is an integer L;
        integer pseudo-division then gives S*A = Q*B + R with S a product of
        divisors of L, and the quotient is Q * d_B / (S * d_A).
        """
        den = self._operand(den)
        if den.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if not self.coeffs:
            return self._new(0, ())
        q, ((rem, da), (b, db)) = _split((self.coeffs, den.coeffs))
        r2 = _r2(q)
        for k in (2, 1):  # clear the sqrt(q) parts of lc(den), then the i part
            lead = [part[-1] for part in b]
            if any(lead[k:]):
                conj = [[x if j < k else -x] for j, x in enumerate(lead)]
                rem, b = _mul_ints(rem, conj, r2), _mul_ints(b, conj, r2)
        L = b[0][-1]
        dd = len(b[0]) - 1
        quot = [[0] * max(len(rem[0]) - dd, 0) for _ in rem]
        scale = 1
        for i in range(len(rem[0]) - 1, dd - 1, -1):
            c = [part[i] for part in rem]
            if not any(c):
                continue
            g = gcd(L, *c)
            m = L // g
            if m != 1:  # scale so that L divides c
                scale *= m
                for part in rem:
                    part[:i + 1] = [x * m for x in part[:i + 1]]
                for part in quot:
                    part[i - dd + 1:] = [x * m for x in part[i - dd + 1:]]
            off = i - dd
            for k, t in enumerate(c):
                if not t:
                    continue
                t //= g
                quot[k][off] = t
                for j, bj in enumerate(b):
                    dst, sign, s = _TIMES[k][j]
                    f = sign * t * r2 if s else sign * t
                    part = rem[dst]
                    for e, y in enumerate(bj, off):
                        part[e] -= f * y
        if any(map(any, rem)):
            rdeg = max(i for part in rem for i, x in enumerate(part) if x)
            raise InexactDivision(
                f"nonzero remainder of degree {rdeg} dividing "
                f"deg {len(self.coeffs) - 1} by deg {dd}")
        if scale < 0:
            scale, db = -scale, -db
        quot = [[x * db for x in part] for part in quot]
        return self._new(self.lo - den.lo, _from_ints(quot, scale * da, q))

    def __repr__(self):
        name = type(self).__name__
        if not self.coeffs:
            return f"{name}(0, {self.var!r})"
        terms = " + ".join(f"({format_scalar(c)})*{self.var}^{self.lo + i}"
                           if self.lo + i else f"({format_scalar(c)})"
                           for i, c in enumerate(self.coeffs) if c)
        return f"{name}[{terms}]"


class Poly(_PolyBase):
    """Dense univariate polynomial, coeffs[i] multiplying variable**i."""

    __slots__ = ()
    lo = 0

    def __init__(self, coeffs: Iterable[Scalar] = (), var: str = "eta"):
        self.coeffs = _trim(tuple(coeffs))
        self.var = var

    def _new(self, lo: int, coeffs: Iterable[Scalar]) -> "Poly":
        return Poly(coeffs, self.var)

    @classmethod
    def zero(cls, var: str = "eta") -> "Poly":
        return cls((), var)

    @classmethod
    def one(cls, var: str = "eta") -> "Poly":
        return cls((Fraction(1),), var)

    @classmethod
    def variable(cls, var: str = "eta") -> "Poly":
        return cls((Fraction(0), Fraction(1)), var)

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def lc(self) -> Scalar:
        """Leading coefficient; zero polynomial has lc 0."""
        return self.coeffs[-1] if self.coeffs else Fraction(0)

    def derivative(self) -> "Poly":
        return Poly(tuple(i * c for i, c in enumerate(self.coeffs) if i > 0),
                    self.var)

    def compose(self, inner):
        """self(inner), a value in inner's ring (a Poly or a LaurentPoly).

        Horner's rule in integer coordinates: with self = C/dc and
        inner = I/di, T_n = C_n and T_k = T_(k+1)*I + C_k*di^(n-k) give
        self(inner) = T_0 / (dc * di^n).
        """
        if not self.coeffs or not inner.coeffs:
            return inner._new(0, (self.coeff(0),))
        q, ((c, dc), (b, di)) = _split((self.coeffs, inner.coeffs))
        r2 = _r2(q)
        n = len(self.coeffs) - 1
        acc, lo, scale = [[x[n]] for x in c], 0, 1
        for k in range(n - 1, -1, -1):
            acc, lo, scale = _mul_ints(acc, b, r2), lo + inner.lo, scale * di
            if lo > 0:  # room for the constant term at exponent 0
                acc, lo = [[0] * lo + part for part in acc], 0
            if -lo >= len(acc[0]):
                acc = [part + [0] * (1 - lo - len(part)) for part in acc]
            for part, x in zip(acc, c):
                part[-lo] += x[k] * scale
        return inner._new(lo, _from_ints(acc, dc * scale, q))

    def conj_coeffs(self) -> "Poly":
        return self.map_coeffs(conj)


class LaurentPoly(_PolyBase):
    """sum coeffs[i] * z**(lo+i); canonical with nonzero end coefficients."""

    __slots__ = ("lo",)

    def __init__(self, lo: int = 0, coeffs: Iterable[Scalar] = (), var: str = "z"):
        coeffs = list(coeffs)
        lead = 0
        while lead < len(coeffs) and not coeffs[lead]:
            lead += 1
        self.coeffs = _trim(coeffs[lead:])
        self.lo = lo + lead if self.coeffs else 0
        self.var = var

    def _new(self, lo: int, coeffs: Iterable[Scalar]) -> "LaurentPoly":
        return LaurentPoly(lo, coeffs, self.var)

    @classmethod
    def monomial(cls, k: int, c: Scalar = Fraction(1)) -> "LaurentPoly":
        return cls(k, (c,))

    @property
    def hi(self) -> int:
        return self.lo + len(self.coeffs) - 1

    def z_inverse(self) -> "LaurentPoly":
        """Substitute z -> 1/z (exact involution)."""
        return LaurentPoly(-self.hi, tuple(reversed(self.coeffs)), self.var)

    def star(self) -> "LaurentPoly":
        """Complex conjugate for real x when z = e^{ix}: conj coeffs, z -> 1/z."""
        return self.z_inverse().map_coeffs(conj)


def laurent_shift(p: LaurentPoly, c, q) -> LaurentPoly:
    """Substitute z -> z*q**c exactly; c may be a half-integer."""
    c = Fraction(c)
    if c.denominator not in (1, 2):
        raise ConfigurationError("shift step must be integer or half-integer")
    if not p.coeffs:
        return p
    step = q_pow(q, c.numerator, c.denominator)
    e = c * p.lo
    factor = q_pow(q, e.numerator, e.denominator)  # q**(c*k) at k = lo, lo+1, ...
    out = []
    for coeff in p.coeffs:
        out.append(coeff * factor)
        factor = factor * step
    return LaurentPoly(p.lo, out)


# -- eta reductions ---------------------------------------------------------------

def even_poly_to_eta(p: Poly) -> Poly:
    """Map an even, real-coefficient Poly in x to a Poly in eta = x**2."""
    if p.var != "x":
        raise ConfigurationError("even reduction expects a Poly in x")
    if p.conj_coeffs() != p:
        raise ReductionFailure("x-picture value is not self-conjugate")
    if any(c for i, c in enumerate(p.coeffs) if i % 2 == 1):
        raise ReductionFailure("x-picture value has odd powers of x")
    return Poly(tuple(downcast(c) for c in p.coeffs[::2]), "eta")


def laurent_to_eta(p: LaurentPoly) -> Poly:
    """Express a symmetric self-conjugate Laurent value as a Poly in
    eta = (z + 1/z)/2, by peeling leading Chebyshev terms."""
    if p.star() != p:
        raise ReductionFailure("x-picture value is not self-conjugate")
    if p.z_inverse() != p:
        raise ReductionFailure("x-picture value is not symmetric under z -> 1/z")
    hi = max(p.hi, 0)
    rem = [p.coeff(k) for k in range(-hi, hi + 1)]  # rem[hi + k] multiplies z**k
    out = [Fraction(0)] * (hi + 1)
    for n in range(hi, 0, -1):
        a = rem[hi + n]
        if not a:
            continue
        out[n] = downcast(a * 2 ** n)  # a*(z+1/z)^n = a*2^n*eta^n
        for j in range(n + 1):  # (z + 1/z)^n = sum_j C(n, j) z^(n-2j)
            rem[hi + n - 2 * j] -= a * comb(n, j)
        if rem[hi + n]:
            raise ReductionFailure("Chebyshev peel failed to lower degree")
    if any(c for k, c in enumerate(rem) if k != hi):
        raise ReductionFailure("asymmetric residue after Chebyshev peel")
    out[0] = downcast(rem[hi])
    return Poly(out, "eta")
