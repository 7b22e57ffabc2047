"""Exception hierarchy shared by all earforge modules.

ValidationError subclasses map to CLI exit code 2, NumericError to 3.
"""


class EarforgeError(Exception):
    """Base class for all earforge errors."""


class ValidationError(EarforgeError):
    """Bad input, bad state, or a violated precondition."""


class NumericError(EarforgeError):
    """A numeric routine failed (non-convergence, non-finite values)."""


class InvalidBlankError(ValidationError):
    """Blank parameters produce a non-positive radius somewhere."""


class InsufficientDataError(ValidationError):
    """Too few samples to build a profile."""


class AmbiguousProfileError(ValidationError):
    """Duplicate angular positions make the profile ill-defined."""


class LifecycleError(ValidationError):
    """Campaign command issued out of lifecycle order."""


class FreshStateError(ValidationError):
    """Campaign directory holds no state yet."""


class MigrationNeededError(ValidationError):
    """Campaign state was written by an incompatible schema version."""


class StateIntegrityError(ValidationError):
    """Campaign state references missing or modified files."""


class CampaignLockedError(ValidationError):
    """Another process holds the campaign directory lock."""
