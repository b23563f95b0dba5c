"""Exception types shared across the library.

Every failure mode that the exact pipeline can signal has its own class so
tests can assert on the precise path taken.  All inherit from MiopError.
"""


class MiopError(Exception):
    """Base class for all library errors."""


class ConfigurationError(MiopError):
    """Invalid parameters, mixed towers/variable tags, malformed index sets."""


class SingularCoefficient(MiopError):
    """A three-term coefficient denominator vanished at the given (params, n)."""


class InexactDivision(MiopError):
    """Polynomial division left a nonzero remainder where exactness was required."""


class ReductionFailure(MiopError):
    """An x-picture value failed the symmetry checks needed to reduce to eta."""


class LeadingCoefficientZero(MiopError):
    """The leading recurrence entry R^[M]_{n,M+1} vanished; cannot regenerate."""


class PoleEncountered(MiopError):
    """The weight's denominator polynomial has a zero on the family's eta-domain."""


class NonConvergent(MiopError):
    """Node doubling moved a quadrature result by more than the tolerance."""


class FloatRangeError(MiopError):
    """A binary64 weight or integrand value overflowed or is not finite."""


class GenericityError(MiopError):
    """A parameter point failed the genericity probe (degenerate degree or zero leading term)."""
