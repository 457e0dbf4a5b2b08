"""Branch identifiers for the two real branches of Lambert W."""

from enum import IntEnum


class Branch(IntEnum):
    """Real branch selector: only 0 and -1 exist.

    ``Branch(k)`` raises ``ValueError`` for any other ``k``, so code that
    normalizes user input through this enum gets domain checking for free.
    """

    PRINCIPAL = 0
    LOWER = -1


def invalid_branch(branch) -> ValueError:
    """The error of ``Branch(branch)``, for code that compares with 0 and -1."""
    return ValueError(f"{branch!r} is not a valid Branch")
