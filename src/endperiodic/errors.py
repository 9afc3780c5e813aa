"""Exception hierarchy shared across the package."""


class EndPeriodicError(Exception):
    """Base class for all package errors."""


class InvalidInputError(EndPeriodicError, ValueError):
    """Malformed or out-of-domain input."""


class PreconditionError(EndPeriodicError, ValueError):
    """A documented precondition of an operation was violated."""


class ConvergenceError(EndPeriodicError, RuntimeError):
    """Eigensolve gave a non-positive vector or missed the requested residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class PrecisionError(EndPeriodicError, ArithmeticError):
    """A float coordinate of the construction lost all resolution: a
    strip, edge length times lambda^-(2p+j) wide, is narrower than half
    the float spacing at its offset, so both its ends round to one float."""


class VerificationError(EndPeriodicError, RuntimeError):
    """A certificate check failed; carries the offending values."""

    def __init__(self, message: str, expected=None, actual=None):
        super().__init__(message)
        self.expected = expected
        self.actual = actual


class InternalConsistencyError(EndPeriodicError, RuntimeError):
    """A structural guarantee of the construction was violated."""
