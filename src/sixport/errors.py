"""Exception types raised across the package.

Validation problems (bad arguments, mismatched shapes) and computational
problems (impossible heralds, inadequate truncation) are kept as separate
branches so callers can map them to different exit codes.
"""


class SixportError(Exception):
    """Base class for all package errors."""


class ValidationError(SixportError):
    """Arguments violate an operation's precondition."""


class ComputationError(SixportError):
    """A computation cannot produce a meaningful result."""


# -- validation branch -------------------------------------------------------

class OrderOverflow(ValidationError):
    """A series term or derivative index exceeds the truncation order."""


class NonzeroConstantTerm(ValidationError):
    """Truncated exponential requires a series with no constant term."""


class VariableMismatch(ValidationError):
    """Two series do not share the same variables and truncation orders."""


class OutOfTableRange(ValidationError):
    """Herald pattern outside the tabulated single-photon-level range."""


class SeriesOrderTooLarge(ValidationError):
    """Requested photon numbers exceed the series-order guard."""


class NonpositiveVariance(ValidationError):
    """A variance must be strictly positive."""


class QuantityMismatch(ValidationError):
    """Grid holds a different quantity than the operation expects."""


class AxisNotSymmetric(ValidationError):
    """Phase axis does not mirror onto itself about its midpoint."""


class WorkTooLarge(ValidationError):
    """Requested sizes exceed a documented work budget."""


# -- computational branch ----------------------------------------------------

class ClosedFormMismatch(ComputationError):
    """Composed matrix product disagrees with its closed-form entries."""


class HeraldImpossible(ComputationError):
    """Herald outcome has (analytically) zero probability."""


class CutoffInadequate(ComputationError):
    """Fock cutoff leaves too much amplitude in the last retained level."""


class ResidualMassTooLarge(ComputationError):
    """Herald enumeration leaves too much probability unaccounted for."""


class VerificationFailed(ComputationError):
    """A cross-path verification check exceeded its tolerance."""
