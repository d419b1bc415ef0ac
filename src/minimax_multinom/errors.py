"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class SizeError(ValueError):
    """A requested computation exceeds a configured enumeration cap."""


class IntegrationError(RuntimeError):
    """Numerical integration failed to reach the requested tolerance."""

    def __init__(self, message: str, achieved: float | None = None):
        super().__init__(message)
        self.achieved = achieved


class CheckFailure(AssertionError):
    """A numerical verification (inequality or identity check) was violated."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness
