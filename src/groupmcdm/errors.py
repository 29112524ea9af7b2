"""Exception types shared across the package.

Two families matter to callers: :class:`InputError` covers bad data or bad
arguments (the CLI exits with code 2), :class:`NumericError` covers numeric
and convergence failures discovered during computation (exit code 3).
"""

import numbers
import sys


class GroupMcdmError(Exception):
    """Base class for all errors raised by this package."""


class InputError(GroupMcdmError, ValueError):
    """Invalid input data or arguments."""


class NumericError(GroupMcdmError, ArithmeticError):
    """Numeric or convergence failure during computation."""


def _check_seed(seed) -> None:
    """The one seed rule of the library: None or a non-negative integer."""
    if seed is not None and not (_is_integer(seed) and seed >= 0):
        raise InputError(f"seed must be None or a non-negative integer, got {seed!r}")


def _is_integer(value) -> bool:
    """The one integer rule of counts, indices and seeds: a ``numbers.Integral``, not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _check_integer(value, name: str, floor: int | None = None) -> None:
    """The one rule of an integer knob: an integer at or above ``floor``, if given."""
    if not _is_integer(value):
        raise InputError(f"{name} must be an integer, got {value!r}")
    if floor is not None and value < floor:
        raise InputError(f"{name} must be at least {floor}")


def _check_choice(value, choices, what: str) -> None:
    """The one rule of a named choice: a string among ``choices``."""
    if not (isinstance(value, str) and value in choices):
        raise InputError(f"unknown {what} {value!r}")


def _check_positive(value, name: str) -> None:
    """The one rule of a float knob: a real number, not a bool, positive and finite."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    # typed before the range check compares it; the bound is the largest float,
    # as an int beyond the float range compares exactly and stays below infinity
    if not (real and 0 < value <= sys.float_info.max):
        raise InputError(f"{name} must be positive and finite")


def position(index) -> str:
    """``entry k`` at vector index k; ``row r, column c``, 1-based, at matrix index (r, c)."""
    if isinstance(index, tuple):
        return f"row {index[0] + 1}, column {index[1] + 1}"
    return f"entry {index}"


class NonPositiveEntry(InputError):
    """A weight that must be strictly positive is zero or negative."""

    def __init__(self, index, value, line=None):
        self.index = index
        self.value = value
        self.line = line
        where = position(index) if line is None else f"line {line}, column {index + 1}"
        super().__init__(f"non-positive weight {value!r} at {where}")


class DimensionTooSmall(InputError):
    """Fewer than two parts: there is no ratio information to work with."""

    def __init__(self, length):
        self.length = length
        super().__init__(f"need at least 2 parts, got {length}")


class DimensionMismatch(InputError):
    """Operands whose dimensions must agree do not."""


class WeightDimensionMismatch(InputError):
    """A decision-maker weight vector does not match the number of DMs."""


class InsufficientSamples(InputError):
    """An operation needs more decision-makers than were supplied."""


class AllZeroRatios(InputError):
    """Every DM weighs the two criteria equally; no ranks can be formed."""


class TooManyClusters(InputError):
    """Requested more clusters than there are decision-makers."""


class ParseError(InputError):
    """Malformed input file."""

    def __init__(self, message, line=None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


class RaggedRow(ParseError):
    """A CSV row whose width differs from the header."""


class InconsistentArray(NumericError):
    """An average array is not antisymmetric or not additively consistent."""

    def __init__(self, max_violation, tol, what="additive consistency"):
        self.max_violation = max_violation
        self.tol = tol
        super().__init__(
            f"array violates {what} by {max_violation:.3e} (tolerance {float(tol):.1e})"
        )
