"""Exception types shared across the package."""


class SolidusError(Exception):
    """Base class for all domain errors raised by this package."""


class NotIdempotentError(SolidusError):
    """Operation requires an idempotent neutrix."""


class NotAboveUnityError(SolidusError):
    """Operation requires an idempotent neutrix strictly above 1."""


class NotZerolessError(SolidusError):
    """Multiplicative inverse/unity requested for a value containing 0."""


class NotLimitedError(SolidusError):
    """Shadow requested for a value that is not limited."""


class DegenerateDomainError(SolidusError):
    """Complement requested for the full-domain halfline."""


class EmptySetError(SolidusError, ValueError):
    """Weak supremum/infimum of an empty collection."""


class NotStrictlyOrderedError(SolidusError):
    """Separation witness requested for a pair that is not strictly ordered."""


class PreconditionFailedError(SolidusError):
    """Inputs violate a documented precondition."""


class UnknownFormulaError(SolidusError, KeyError):
    """Induction formula id not present in the curated catalog."""


class UnknownCheckError(SolidusError, KeyError):
    """Check id not present in the registered catalog."""


class ParseError(SolidusError):
    """Syntax error with a 1-based column position into the source line."""

    def __init__(self, message: str, column: int):
        super().__init__(f"{message} (column {column})")
        self.message = message
        self.column = column


class InternalError(SolidusError):
    """Invariant violated inside the library; indicates a bug, not bad input."""
