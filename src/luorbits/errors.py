"""Exception types shared across the package."""


class LuorbitsError(Exception):
    """Base class for all domain errors raised by this package."""


class ParseError(LuorbitsError):
    """Malformed state file or JSON payload."""


class ValidationError(LuorbitsError):
    """Input violates a documented precondition."""


class NonSquareInput(ValidationError):
    """Coefficient matrix is not square."""


class ZeroState(ValidationError):
    """Coefficient matrix is (numerically) zero."""


class SymmetryViolation(ValidationError):
    """Symmetry defect of the coefficient matrix exceeds the tolerance."""


class CaseMismatch(ValidationError):
    """Operands belong to different particle cases."""


class DimensionMismatch(ValidationError):
    """Operands have different one-particle dimensions."""


class UnsortedInput(ValidationError):
    """Vector expected sorted descending and nonnegative."""


class InvalidStratum(ValidationError):
    """Multiplicity data describes no orbit: the zero state, or blocks that are not positive integers."""


class ConvergenceFailure(LuorbitsError):
    """A matrix decomposition failed to reach its residual tolerance."""
