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
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from ..errors import ConfigurationError, InexactDivision, ReductionFailure
from .scalars import (GaussianRational, Scalar, SqrtQRational, conj, downcast,
                      format_scalar, power, q_pow)

NEG_INF = float("-inf")

_SCALARS = (int, Fraction, GaussianRational, SqrtQRational)


def _trim(coeffs: Sequence[Scalar]) -> tuple:
    n = len(coeffs)
    while n > 0 and not coeffs[n - 1]:
        n -= 1
    return tuple(coeffs[:n])


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
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return self._new(0, ())
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j, bj in enumerate(b):
                out[i + j] = out[i + j] + ai * bj
        return self._new(self.lo + other.lo, out)

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
        """self / den by long division; InexactDivision if den does not divide."""
        den = self._operand(den)
        if den.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dc = den.coeffs
        dd = len(dc) - 1
        dlc = dc[-1]
        quot = [Fraction(0)] * max(len(rem) - dd, 0)
        for i in range(len(rem) - 1, dd - 1, -1):
            c = rem[i]
            if not c:
                continue
            f = c / dlc
            quot[i - dd] = f
            for j, d in enumerate(dc):
                rem[i - dd + j] = rem[i - dd + j] - f * d
        if any(rem):
            rdeg = max(i for i, c in enumerate(rem) if c)
            raise InexactDivision(
                f"nonzero remainder of degree {rdeg} dividing "
                f"deg {len(self.coeffs) - 1} by deg {dd}")
        return self._new(self.lo - den.lo, quot)

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
        """self(inner), a value in inner's ring (a Poly or a LaurentPoly)."""
        acc = inner._new(0, ())
        for c in reversed(self.coeffs):
            acc = acc * inner + c
        return acc

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
    out = []
    for i, coeff in enumerate(p.coeffs):
        k = p.lo + i
        e = c * k
        out.append(coeff * q_pow(q, e.numerator, e.denominator))
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
    zpzi = LaurentPoly(-1, (Fraction(1), Fraction(0), Fraction(1)))  # z + 1/z
    out_hi = max(p.hi, 0)
    out = [Fraction(0)] * (out_hi + 1)
    rem = p
    while not rem.is_zero and rem.hi > 0:
        n = rem.hi
        a = rem.coeff(n)
        out[n] = downcast(a * Fraction(2) ** n)  # a*(z+1/z)^n = a*2^n*eta^n
        rem = rem - zpzi ** n * a
        if rem.hi >= n and not rem.is_zero:
            raise ReductionFailure("Chebyshev peel failed to lower degree")
    if not rem.is_zero:
        if rem.lo != 0 or rem.hi != 0:
            raise ReductionFailure("asymmetric residue after Chebyshev peel")
        out[0] = downcast(rem.coeff(0))
    return Poly(out, "eta")
