"""Exception types shared across the package."""


class QMeasureError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(QMeasureError):
    """Operands do not share a consistent dimension or tensor structure."""


class NotHermitian(QMeasureError):
    """A matrix required to be Hermitian is not, within tolerance."""


class NotOrthonormal(QMeasureError):
    """A vector family required to be orthonormal is not, within tolerance."""


class NotNormalized(QMeasureError):
    """A state vector does not have unit norm within tolerance."""


class NotDensityOperator(QMeasureError):
    """A matrix is not Hermitian, positive semidefinite and unit trace."""


class NotADistribution(QMeasureError):
    """A probability list has negative entries or does not sum to one."""


class NullOutcome(QMeasureError):
    """A measurement outcome with (numerically) zero probability was requested."""


class InvalidTransformers(QMeasureError):
    """A transformer family violates completeness or its projector-valued measure."""


class NoDefiniteValue(QMeasureError):
    """A Schmidt term fits no spectral term of the given observables."""


class NonRepeatableInput(QMeasureError):
    """An operation that presumes a repeatable measurement got something else."""


class ParseError(QMeasureError):
    """A scenario document is syntactically malformed."""


class ValidationError(QMeasureError):
    """A scenario or constructed object violates a domain invariant."""


__all__ = [
    "QMeasureError",
    "DimensionMismatch",
    "NotHermitian",
    "NotOrthonormal",
    "NotNormalized",
    "NotDensityOperator",
    "NotADistribution",
    "NullOutcome",
    "InvalidTransformers",
    "NoDefiniteValue",
    "NonRepeatableInput",
    "ParseError",
    "ValidationError",
]
