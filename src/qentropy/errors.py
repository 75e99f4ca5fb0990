"""Exception types shared across the package.

Two families: `ValidationError` for inputs that break a contract, and
`NumericalError` for routines that fail to produce a result. The CLI maps
them to exit codes 2 and 3.
"""

from __future__ import annotations


class ValidationError(ValueError):
    """An input or constructed value violates a documented contract."""


class NotHermitian(ValidationError):
    """Matrix differs from its conjugate transpose beyond tolerance."""


class TraceNotOne(ValidationError):
    """Matrix trace is not 1 within tolerance."""


class NotPositiveSemidefinite(ValidationError):
    """Matrix has an eigenvalue below the negative tolerance."""


class NotAProbabilityVector(ValidationError):
    """Vector has negative entries or does not sum to 1."""


class WeightSumInvalid(NotAProbabilityVector):
    """Mixture weights are negative or do not sum to 1."""


class DimensionMismatch(ValidationError):
    """Operands have incompatible or unsupported dimensions."""


class NoValidSplit(ValidationError):
    """No mixed+pure decomposition exists for the requested parameters."""


class DomainViolation(ValidationError):
    """Arguments fall outside a closed form's domain."""


class SplitMismatch(ValidationError):
    """A decomposition does not reconstruct the operator it was paired with."""


class NumericalError(RuntimeError):
    """A numerical routine failed to deliver its accuracy contract."""


class ConvergenceFailure(NumericalError):
    """An eigensolver failed to converge.

    In the package that is LAPACK; ``residual`` is then the input's
    off-diagonal Frobenius norm, a measure of how far from diagonal the
    failed matrix was.
    """

    def __init__(self, message: str, residual: float) -> None:
        super().__init__(message)
        self.residual = residual

