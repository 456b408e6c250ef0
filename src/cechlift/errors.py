"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "CapExceededError",
    "NotAGroupError",
    "ExtensionError",
    "NotSurjectiveError",
    "KernelMismatchError",
    "NotCentralError",
    "NotSubgroupError",
    "KernelViolationError",
    "BaseMismatchError",
    "InternalCheckError",
]


class CapExceededError(RuntimeError):
    """An enumeration, search or elimination would exceed its configured cap."""

    def __init__(self, needed: int, cap: int, what: str, unit: str = "candidates"):
        self.needed = needed
        self.cap = cap
        super().__init__(f"{what} needs {needed} {unit}, cap is {cap}")


class NotAGroupError(ValueError):
    """A Cayley table failed one of the group axioms; carries a witness."""

    def __init__(self, reason: str, witness=None):
        self.witness = witness
        msg = reason if witness is None else f"{reason}; witness {witness}"
        super().__init__(msg)


class ExtensionError(ValueError):
    """A claimed central extension failed verification."""


class NotSurjectiveError(ExtensionError):
    pass


class KernelMismatchError(ExtensionError):
    pass


class NotCentralError(ExtensionError):
    pass


class NotSubgroupError(ExtensionError):
    pass


class KernelViolationError(ValueError):
    """A would-be obstruction value did not project to the identity."""


class BaseMismatchError(ValueError):
    """Cocycles being combined do not live over the same complex."""


class InternalCheckError(AssertionError):
    """A theorem the code asserts internally failed; indicates a bug."""
