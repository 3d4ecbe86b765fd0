"""Exception types shared across the package."""


class ValidationError(ValueError):
    """An input violates a documented precondition or type invariant."""


class CapacityError(ValidationError):
    """A state exceeds the desk-scale size guard for its representation."""


class QubitBlochZeroError(ValidationError):
    """A qubit has a (numerically) zero Bloch vector, so no local frame exists."""
