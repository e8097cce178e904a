"""Exception hierarchy shared by all ablab modules."""

from __future__ import annotations

from typing import Any


class AblabError(Exception):
    """Base class for all errors raised by this package."""


class GroupConstructionError(AblabError):
    """The supplied data does not describe a group (the shape, range,
    identity, inverse or associativity check failed)."""


class SizeBudgetError(GroupConstructionError):
    """Requested group exceeds the configured size budget."""


class GroupMismatchError(AblabError):
    """Two sets (or a set and a subgroup) live over different groups."""


class EmptySetError(AblabError):
    """Operation requires a nonempty set."""


class DimensionMismatchError(AblabError):
    """Torus vectors of different dimensions were combined."""


class NotExactError(AblabError):
    """A torus map was required to be an exact homomorphism but is not."""


class PreconditionError(AblabError):
    """An operation precondition was violated by the caller."""


class FeasibilityError(AblabError):
    """A feasibility guard or search budget was exceeded.

    Maps to CLI exit code 3.
    """


class CoverageError(AblabError):
    """The requested set cannot be covered by translates from the pool."""


class SpecSyntaxError(AblabError):
    """A group/set specification string failed to parse.

    Maps to CLI exit code 2.
    """

    def __init__(self, message: str, text: str = "", position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position} in {text!r})"
        super().__init__(message)
        self.text = text
        self.position = position


class TheoremViolationError(AblabError):
    """An exact check of a theorem postcondition failed.

    This indicates an internal inconsistency (a bug), never a property of the
    input.  Carries a reproducer payload.  Maps to CLI exit code 4.
    """

    def __init__(self, message: str, reproducer: dict[str, Any] | None = None):
        super().__init__(message)
        self.reproducer = reproducer or {}
