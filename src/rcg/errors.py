"""Exception hierarchy shared by all rcg modules.

Every failure mode of the library maps to one of these classes.  The CLI
translates them to exit codes: ParseError -> 1, DomainError (and subclasses)
-> 2, IndeterminateSign -> 3, and every other RcgError (InternalError,
NoRelatingElement) -> 4.
"""


class RcgError(Exception):
    """Base class for all library errors."""


class ParseError(RcgError):
    def __init__(self, message, line=None, column=None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class IndeterminateSign(RcgError):
    """A sign (or zero) test was requested on a truncated value whose known
    terms all cancelled.  Raise the working truncation order to resolve."""


class DomainError(RcgError):
    """Input violates a mathematical precondition."""


class DivisionByZero(DomainError):
    pass


class NotPositive(DomainError):
    pass


class UnsupportedExponent(DomainError):
    pass


class SingularMatrix(DomainError):
    pass


class UnsolvableSpectrum(DomainError):
    pass


class RepeatedEigenvalue(DomainError):
    pass


class DegenerateLeadingSpectrum(DomainError):
    pass


class NotNilpotent(DomainError):
    pass


class NotUnipotent(DomainError):
    pass


class NotInUTheta(DomainError):
    pass


class ZeroInput(DomainError):
    pass


class ZeroParameter(DomainError):
    pass


class NotInImage(DomainError):
    pass


class UnsupportedType(DomainError):
    pass


class InternalError(RcgError):
    """An internal invariant broke: a result failed its own cross-check.
    This indicates a bug, not bad input."""


class NoRelatingElement(RcgError):
    """A Weyl element relating two Cartan middle factors could not be found.
    This indicates a bug, not bad input."""
