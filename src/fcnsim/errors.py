"""Exception types shared across the simulator."""

from __future__ import annotations


class FcnError(Exception):
    """Base class for all fcnsim errors."""


class DegenerateLevels(FcnError):
    """Excited level does not sit strictly above the ground level."""


class NonPositiveEnergy(FcnError):
    """An operation required a strictly positive energy."""


class StableConfiguration(FcnError):
    """No decay channel: the decay rate is zero, negative, or absent."""


class NotExcited(FcnError):
    """Decay requested on a node that is already in its ground state."""


class DuplicateEvent(FcnError):
    """A ledger entry for this event id already exists."""


class UnknownNode(FcnError):
    """Referenced node id does not exist in the network."""


class ClockMismatch(FcnError):
    """Triplet was formed against a different standard clock."""


class ValidationFailed(FcnError):
    """Network description violated one or more invariants.

    Carries the full list of human-readable problems so callers can
    report every defect at once instead of the first one found.
    """

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class ParseError(FcnError):
    """Input document is not well-formed or uses an unknown field.

    ``context`` points at the offending location (JSON path or line).
    """

    def __init__(self, message: str, context: str = ""):
        self.context = context
        super().__init__(f"{context}: {message}" if context else message)
