"""Exception types shared across the package.

Every error raised by this package derives from :class:`BlochSimError`, so
callers (notably the CLI) can tell computational contract violations apart
from I/O failures and plain bugs. A message quotes a value it rejects
through :func:`_shown`, so a huge or deeply nested input makes a short
message, never a second error.
"""

#: The most characters of a quoted value that a message shows.
_SHOWN_CHARS = 80


def _shown(value) -> str:
    """``repr(value)`` for an error message, cut to ``_SHOWN_CHARS`` characters.

    Never raises: a value without a repr, such as an int beyond Python's
    4300-digit limit or a list nested past the recursion limit, shows as
    ``<unprintable int>`` or ``<unprintable list>``.
    """
    try:
        text = repr(value)
    except Exception:
        return f"<unprintable {type(value).__name__}>"
    return text if len(text) <= _SHOWN_CHARS else text[: _SHOWN_CHARS - 3] + "..."


class BlochSimError(Exception):
    """Base class for all errors raised by blochsim."""


class DimensionError(BlochSimError):
    """Invalid or mismatched Hilbert-space dimension."""


class NormalizationError(BlochSimError):
    """A ket or density matrix fails its normalization invariants."""


class BasisError(BlochSimError):
    """A measurement basis is not orthonormal."""


class GeometryError(BlochSimError):
    """A point violates a geometric precondition (off the affine hull,
    outside the simplex, or a projection landing where it cannot)."""


class ContractError(BlochSimError):
    """A numerical or structural contract was violated (non-real trace
    inner products, malformed partitions, inconsistent report fields)."""


class OracleInconsistencyError(BlochSimError):
    """The brute-force region-membership oracle claimed a sample for zero
    or several regions beyond tolerance; indicates a geometry bug."""


class ConfigError(BlochSimError):
    """An experiment configuration failed parsing or validation. The
    message names the offending field."""
