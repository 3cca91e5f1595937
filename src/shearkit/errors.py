"""Exception types shared across the package."""

from __future__ import annotations


class ShearKitError(Exception):
    """Base class for all package errors."""


class RegimeMismatch(ShearKitError):
    """Raised when a float or complex value reaches an exact-only entry point.

    The exact-only entry points are `Scalar.exact`, the time of
    `flow_nilpotent` and `AutoSeq.apply_exact`; the last also raises it
    for an element that has no exact evaluation.
    """


class ArityMismatch(ShearKitError):
    """Raised when operands disagree on the number of variables."""


class ParseError(ShearKitError):
    """Syntax error in the polynomial or vector-field grammar."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position


class PreconditionError(ShearKitError):
    """One or more documented preconditions failed; nothing was computed.

    A violated precondition is always reported as an error, never folded
    into a false verdict.
    """

    def __init__(self, violations) -> None:
        if isinstance(violations, str):
            violations = [violations]
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))
