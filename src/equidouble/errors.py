"""Error taxonomy shared by the library and the CLI exit-code mapping."""

from __future__ import annotations

# the default of --budget-homs, the bound on each search of `dw`; past it
# the search raises ResourceError
DEFAULT_BUDGET = 1_000_000


class EquidoubleError(Exception):
    """Base class for all library errors."""


class UsageError(EquidoubleError):
    """Bad input: dimension mismatch, malformed data, unknown identifier."""


class ResourceError(EquidoubleError):
    """A configured budget or search bound was exceeded; message names it."""


class NonInvertibleError(EquidoubleError):
    """An element required to be invertible is not; carries a witness."""
