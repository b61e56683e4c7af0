"""Exception types shared across the package."""

__all__ = ["AssumptionError", "SingularityError"]


class AssumptionError(ValueError):
    """The mathematical assumptions of an operation do not hold for its input."""


class SingularityError(ValueError):
    """A closed form is singular for this input (a factor would divide by zero)."""
