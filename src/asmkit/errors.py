"""Exception hierarchy shared by every asmkit module.

All toolkit errors derive from :class:`AsmError`; the command-line driver
maps any of them to exit code 2 (precondition / inconclusive), reserving
exit code 1 for honest check failures.
"""


class AsmError(Exception):
    """Base class for toolkit errors."""


class ValidationError(AsmError):
    """A value violates a structural invariant (arity, carrier, table shape)."""


class VocabularyMismatchError(AsmError):
    """A term or state refers to a symbol outside the expected vocabulary."""


class InvalidRenamingError(AsmError):
    """A renaming is not injective, moves a logical element, or misses the carrier."""


class DomainError(AsmError):
    """An element fell outside the domain of a renaming being applied."""


class ClashError(AsmError):
    """Two parallel updates target one location with different values."""


class GuardError(AsmError):
    """A conditional guard evaluated to a non-Boolean element."""


class UnknownStateError(AsmError):
    """A state is not a renamed copy of any canonical state of the algorithm."""


class NotSimilarError(AsmError):
    """The similarity function was requested for a pair that is not similar."""


class CaseHypothesisError(AsmError):
    """The value-replacement construction was invoked outside its hypothesis."""


class HeadroomError(AsmError):
    """The universe is too small to host the copies a check needs."""


class PreconditionError(AsmError):
    """A checker precondition (e.g. subterm closure of the witness) failed."""


class SpecParseError(AsmError):
    """A specification document failed to parse or validate."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None) -> None:
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f"line {line}" + (f", col {column}" if column is not None else "")
            message = f"{where}: {message}"
        super().__init__(message)
