"""Exception types shared across the package, and the positivity check.

The command line maps them to exit codes (module cli).
"""

import math


class SliderFilmError(Exception):
    """Base class for all package errors."""


class BoxOutsideDomain(SliderFilmError):
    """Requested contact box does not fit strictly inside the domain."""


class UnsupportedShape(SliderFilmError):
    """Operation undefined for this shape variant (e.g. contact box of a flat slider)."""


class NonPositiveClearance(SliderFilmError):
    """Clearance outside the film model's range: contact (beta <= 0) or overflow."""


class NoConvergence(SliderFilmError):
    """Iterative solver hit its iteration cap.

    Carries the last iterate so callers can inspect how far the solve got.
    """

    def __init__(self, message, field=None, iterations=0):
        super().__init__(message)
        self.field = field
        self.iterations = iterations


class NoSolution(SliderFilmError):
    """The pivoting oracle found no solution within 2**n pivots (assembly bug)."""


class BracketFailure(SliderFilmError):
    """Sign-changing bracket for the load balance could not be found."""


class InadmissibleShape(SliderFilmError):
    """Shape/exponent outside the range for which a steady state is guaranteed."""


class ParseError(SliderFilmError):
    """Malformed or unknown-key configuration document."""

    def __init__(self, message, path=None, line=None):
        super().__init__(message)
        self.path = path
        self.line = line


class ValidationError(SliderFilmError, ValueError):
    """An input value violating a constraint.  path names the field: its own
    name when the type holding it rejects it, its dotted path when a config
    document does (config.parse_config), None when no one field is at fault."""

    def __init__(self, path, constraint):
        super().__init__(constraint if path is None else f"{path}: {constraint}")
        self.path = path
        self.constraint = constraint


class InvalidDomain(ValidationError):
    """Domain rectangle, slider profile or profile table outside the model's range."""

    def __init__(self, constraint, path=None):
        super().__init__(path, constraint)


class TooCoarse(ValidationError):
    """Grid has fewer than 3 interior nodes along an axis."""


def check_positive(obj, *names, constraint="must be > 0"):
    """Raise ValidationError naming the first of obj's fields names that is
    not a finite number > 0: "must be finite, got v", else constraint."""
    for name in names:
        value = getattr(obj, name)
        if not math.isfinite(value):
            raise ValidationError(name, f"must be finite, got {value!r}")
        if value <= 0.0:
            raise ValidationError(name, constraint)
