"""Exception types shared across the package.

The command line maps them to exit codes (module cli).
"""


class SliderFilmError(Exception):
    """Base class for all package errors."""


class InvalidDomain(SliderFilmError):
    """Domain rectangle is degenerate or does not contain the origin strictly."""


class TooCoarse(SliderFilmError):
    """Grid has fewer than 3 interior nodes along an axis."""


class OutOfDomain(SliderFilmError):
    """Point query outside the closed domain (tabulated shapes)."""


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


class ValidationError(SliderFilmError):
    """Well-formed configuration violating a constraint; carries the field path."""

    def __init__(self, path, constraint):
        super().__init__(f"{path}: {constraint}")
        self.path = path
        self.constraint = constraint
