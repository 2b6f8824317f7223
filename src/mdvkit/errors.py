"""Exception types shared across the package."""


class ValidationError(ValueError):
    """An input violates a documented precondition or structural invariant."""


class UnsupportedOperatorError(ValidationError):
    """An exact-affine code path received an operator that does not flatten."""


class NumericalError(ArithmeticError):
    """A computation produced non-finite values or failed an internal cross-check."""
