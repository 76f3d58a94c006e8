"""Exception types shared across the package."""

from __future__ import annotations

__all__ = ["BudgetExceededError", "DeplogError", "ParseError", "ShapeError"]


class DeplogError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(DeplogError):
    """Raised on malformed input text.

    ``position`` is a 0-based character offset into the source string, or
    None when no single offset makes sense (e.g. unexpected end of input
    reported at len(text)).
    """

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class ShapeError(DeplogError):
    """Raised when a value is structurally invalid for an operation.

    Covers signature mismatches, malformed JSON payloads, teams whose rows
    do not match their variable list, transform preconditions (e.g. a
    sentence that is not in the expected normal form), malformed trees (a
    node that is not a term or formula of the language, met by the
    renderer, the walks or the evaluators' compiler), and similar.
    """


class BudgetExceededError(DeplogError):
    """Raised when a work budget runs out mid-computation.

    The check that raised is abandoned; callers surface this distinctly
    (never as a silent pass or fail).  ``context`` names the work that ran
    out, such as "existential extension" or "structure enumeration".
    """

    def __init__(self, context: str, spent: int, limit: int):
        self.context = context
        self.spent = spent
        self.limit = limit
        super().__init__(f"{context} (budget {limit} exhausted, spent >= {spent})")
