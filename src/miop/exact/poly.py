"""Dense exact polynomials in one variable, plus Laurent polynomials in z.

Poly stores coefficients lowest-degree first under a variable tag ("eta" or
"x"); LaurentPoly adds a lowest-exponent offset for z = e^{ix} expressions.
Coefficients live anywhere in the scalar tower.  Both types are immutable
and canonical (no zero end coefficients); the zero polynomial has degree
NEG_INF.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from ..errors import ConfigurationError, InexactDivision, ReductionFailure
from .scalars import Scalar, conj, downcast, format_scalar, parse_scalar, q_pow

NEG_INF = float("-inf")

_SCALAR_TYPES = (int, Fraction)


def _is_scalar(x) -> bool:
    from .scalars import GaussianRational, SqrtQRational
    return isinstance(x, (int, Fraction, GaussianRational, SqrtQRational))


def _trim(coeffs: Sequence[Scalar]) -> tuple:
    n = len(coeffs)
    while n > 0 and not coeffs[n - 1]:
        n -= 1
    return tuple(coeffs[:n])


class Poly:
    """Dense univariate polynomial, coeffs[i] multiplying variable**i."""

    __slots__ = ("coeffs", "var")

    def __init__(self, coeffs: Iterable[Scalar] = (), var: str = "eta"):
        self.coeffs = _trim(tuple(coeffs))
        self.var = var

    @classmethod
    def zero(cls, var: str = "eta") -> "Poly":
        return cls((), var)

    @classmethod
    def one(cls, var: str = "eta") -> "Poly":
        return cls((Fraction(1),), var)

    @classmethod
    def variable(cls, var: str = "eta") -> "Poly":
        return cls((Fraction(0), Fraction(1)), var)

    @classmethod
    def constant(cls, c: Scalar, var: str = "eta") -> "Poly":
        return cls((c,), var)

    # -- structure -----------------------------------------------------------
    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self) -> Scalar:
        """Leading coefficient; zero polynomial has lc 0."""
        return self.coeffs[-1] if self.coeffs else Fraction(0)

    def coeff(self, i: int) -> Scalar:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    def _check_var(self, other: "Poly"):
        if self.var != other.var:
            raise ConfigurationError(
                f"mixing variables {self.var!r} and {other.var!r}")

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.var == other.var and len(self.coeffs) == len(other.coeffs) \
                and all(a == b for a, b in zip(self.coeffs, other.coeffs))
        if _is_scalar(other):
            return self == Poly.constant(other, self.var)
        return NotImplemented

    def __hash__(self):
        return hash((self.var, self.coeffs))

    def __bool__(self):
        return bool(self.coeffs)

    # -- ring ops --------------------------------------------------------------
    def __add__(self, other):
        if _is_scalar(other):
            other = Poly.constant(other, self.var)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_var(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(out, self.var)

    __radd__ = __add__

    def __neg__(self):
        return Poly(tuple(-c for c in self.coeffs), self.var)

    def __sub__(self, other):
        if _is_scalar(other):
            other = Poly.constant(other, self.var)
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if _is_scalar(other):
            if not other:
                return Poly.zero(self.var)
            return Poly(tuple(c * other for c in self.coeffs), self.var)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_var(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly.zero(self.var)
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j, bj in enumerate(b):
                out[i + j] = out[i + j] + ai * bj
        return Poly(out, self.var)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        result = Poly.one(self.var)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- calculus / evaluation ---------------------------------------------------
    def derivative(self) -> "Poly":
        return Poly(tuple(i * c for i, c in enumerate(self.coeffs) if i > 0),
                    self.var)

    def __call__(self, x: Scalar) -> Scalar:
        if isinstance(x, int):
            x = Fraction(x)
        acc: Scalar = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def compose(self, inner: "Poly") -> "Poly":
        """self(inner), result in inner's variable."""
        acc = Poly.zero(inner.var)
        for c in reversed(self.coeffs):
            acc = acc * inner + c
        return acc

    def map_coeffs(self, f) -> "Poly":
        return Poly(tuple(f(c) for c in self.coeffs), self.var)

    def conj_coeffs(self) -> "Poly":
        return self.map_coeffs(conj)

    # -- division ------------------------------------------------------------------
    def divmod(self, den: "Poly") -> tuple["Poly", "Poly"]:
        self._check_var(den)
        if den.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dlc = den.lc
        dd = len(den.coeffs) - 1
        if len(rem) <= dd:
            return Poly.zero(self.var), self
        quot = [Fraction(0)] * (len(rem) - dd)
        for i in range(len(rem) - 1, dd - 1, -1):
            c = rem[i]
            if not c:
                continue
            f = c / dlc
            quot[i - dd] = f
            for j, dc in enumerate(den.coeffs):
                rem[i - dd + j] = rem[i - dd + j] - f * dc
        return Poly(quot, self.var), Poly(rem, self.var)

    def exact_div(self, den: "Poly") -> "Poly":
        q, r = self.divmod(den)
        if not r.is_zero:
            raise InexactDivision(
                f"nonzero remainder of degree {r.degree} dividing "
                f"deg {self.degree} by deg {den.degree}")
        return q

    # -- io ----------------------------------------------------------------------
    def to_json(self) -> dict:
        return {"variable": self.var,
                "coeffs": [format_scalar(c) for c in self.coeffs]}

    @classmethod
    def from_json(cls, obj: dict) -> "Poly":
        return cls([parse_scalar(s) for s in obj["coeffs"]], obj["variable"])

    def __repr__(self):
        if self.is_zero:
            return f"Poly(0, {self.var!r})"
        terms = " + ".join(f"({format_scalar(c)})*{self.var}^{i}" if i else
                           f"({format_scalar(c)})"
                           for i, c in enumerate(self.coeffs) if c)
        return f"Poly[{terms}]"


class LaurentPoly:
    """sum coeffs[i] * z**(lo+i); canonical with nonzero end coefficients."""

    __slots__ = ("lo", "coeffs", "var")

    def __init__(self, lo: int = 0, coeffs: Iterable[Scalar] = (), var: str = "z"):
        coeffs = list(coeffs)
        lead = 0
        while lead < len(coeffs) and not coeffs[lead]:
            lead += 1
        coeffs = coeffs[lead:]
        lo += lead
        self.coeffs = _trim(coeffs)
        self.lo = lo if self.coeffs else 0
        self.var = var

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls(0, ())

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls(0, (Fraction(1),))

    @classmethod
    def monomial(cls, k: int, c: Scalar = Fraction(1)) -> "LaurentPoly":
        return cls(k, (c,))

    @property
    def hi(self) -> int:
        return self.lo + len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, k: int) -> Scalar:
        i = k - self.lo
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    def __eq__(self, other):
        if isinstance(other, LaurentPoly):
            return (self.lo == other.lo and len(self.coeffs) == len(other.coeffs)
                    and all(a == b for a, b in zip(self.coeffs, other.coeffs)))
        if _is_scalar(other):
            return self == LaurentPoly(0, (other,))
        return NotImplemented

    def __hash__(self):
        return hash((self.lo, self.coeffs))

    def __bool__(self):
        return bool(self.coeffs)

    def __add__(self, other):
        if _is_scalar(other):
            other = LaurentPoly(0, (other,))
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        lo = min(self.lo, other.lo)
        hi = max(self.hi, other.hi)
        out = [Fraction(0)] * (hi - lo + 1)
        for i, c in enumerate(self.coeffs):
            out[self.lo - lo + i] = c
        for i, c in enumerate(other.coeffs):
            out[other.lo - lo + i] = out[other.lo - lo + i] + c
        return LaurentPoly(lo, out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly(self.lo, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if _is_scalar(other):
            other = LaurentPoly(0, (other,))
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if _is_scalar(other):
            if not other:
                return LaurentPoly.zero()
            return LaurentPoly(self.lo, tuple(c * other for c in self.coeffs))
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return LaurentPoly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, ai in enumerate(self.coeffs):
            if not ai:
                continue
            for j, bj in enumerate(other.coeffs):
                out[i + j] = out[i + j] + ai * bj
        return LaurentPoly(self.lo + other.lo, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        result = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __call__(self, z: Scalar) -> Scalar:
        if isinstance(z, int):
            z = Fraction(z)
        acc: Scalar = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc * z ** self.lo if self.lo >= 0 else acc / z ** (-self.lo)

    def z_inverse(self) -> "LaurentPoly":
        """Substitute z -> 1/z (exact involution)."""
        return LaurentPoly(-self.hi, tuple(reversed(self.coeffs)))

    def map_coeffs(self, f) -> "LaurentPoly":
        return LaurentPoly(self.lo, tuple(f(c) for c in self.coeffs))

    def star(self) -> "LaurentPoly":
        """Complex conjugate for real x when z = e^{ix}: conj coeffs, z -> 1/z."""
        return self.z_inverse().map_coeffs(conj)

    def exact_div(self, den: "LaurentPoly") -> "LaurentPoly":
        if den.is_zero:
            raise ZeroDivisionError("Laurent division by zero")
        num_poly = Poly(self.coeffs, "z")
        den_poly = Poly(den.coeffs, "z")
        q = num_poly.exact_div(den_poly)
        return LaurentPoly(self.lo - den.lo, q.coeffs)

    def to_json(self) -> dict:
        return {"variable": self.var, "lo": self.lo,
                "coeffs": [format_scalar(c) for c in self.coeffs]}

    @classmethod
    def from_json(cls, obj: dict) -> "LaurentPoly":
        return cls(obj["lo"], [parse_scalar(s) for s in obj["coeffs"]],
                   obj["variable"])

    def __repr__(self):
        if self.is_zero:
            return "LaurentPoly(0)"
        terms = " + ".join(f"({format_scalar(c)})*z^{self.lo + i}"
                           for i, c in enumerate(self.coeffs) if c)
        return f"LaurentPoly[{terms}]"


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
