"""Exception types shared across the package."""

__all__ = [
    "DiskPolyError",
    "DomainError",
    "NonConvergentError",
    "PoleAtCError",
    "OffsetMismatchError",
    "ParamMismatchError",
    "TooLargeError",
]


class DiskPolyError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(DiskPolyError):
    """An argument lies outside the domain of validity of the routine."""


class NonConvergentError(DiskPolyError):
    """An iteration or series failed to converge within its budget."""


class PoleAtCError(DiskPolyError):
    """A hypergeometric denominator parameter hit a nonpositive integer."""


class OffsetMismatchError(DiskPolyError):
    """Two expressions carry base offsets that differ by a non-integer."""


class ParamMismatchError(DiskPolyError):
    """Operands carry incompatible parameters (e.g. different weights)."""


class TooLargeError(DiskPolyError):
    """An expression exceeded the term-count safety cap."""
