"""Exception and warning taxonomy shared by all modules.

Two error families matter to the CLI exit-code mapping: plain
TanprimesError subclasses are domain failures (exit 3), ResourceError
subclasses are size/guard failures (exit 4). UsageError is reserved
for argument parsing (exit 2). WindowMismatch, log weights that are not
one per table row, is an InvalidParameter.
"""


class TanprimesError(Exception):
    """Base class for library errors (domain failures)."""

    exit_code = 3


class ResourceError(TanprimesError):
    """Guard tripped: the request would be too large to run safely."""

    exit_code = 4


class UsageError(TanprimesError):
    """Bad command-line invocation."""

    exit_code = 2


class InvalidParameter(TanprimesError):
    """Window parameters outside their legal domain (k<0, c<=1, ...)."""


class NoExactWindow(TanprimesError):
    """The window index equation has no integer solution for this target."""


class OutOfWindow(TanprimesError):
    """Argument y falls outside [delta1, delta2]."""


class OutOfRange(TanprimesError):
    """Target value falls outside the image of the forward map."""


class NoConvergence(TanprimesError):
    """Newton inversion failed to converge; indicates a defect."""


class DomainError(TanprimesError):
    """tan(log n) <= 0, so the sequence value is undefined for this n."""


class AmbiguousFloor(TanprimesError):
    """Even extended precision cannot separate the value from an integer."""


class InvalidRange(TanprimesError):
    """Sieve range is empty or inverted."""


class WindowMismatch(InvalidParameter):
    """Log weights are not one float64 per value-table row."""


class Singular(TanprimesError):
    """Fourier coefficient denominator h+x vanishes."""


class RangeTooLarge(ResourceError):
    """Sieve upper bound exceeds the configured ceiling."""


class TooLarge(ResourceError):
    """Counting request exceeds the O(n^3) / memory guard."""


class BandTooWide(ResourceError):
    """Target band or integer grid exceeds the size guard."""


class ParameterWarning(UserWarning):
    """Parameters accepted but outside the theoretically covered range."""


class TauClippedWarning(ParameterWarning):
    """Major-arc half width was clipped at 1/4."""


class UnreachableTargetWarning(ParameterWarning):
    """A target lies outside the reach of three window values, so its count is 0."""


class GridTooCoarseWarning(UserWarning):
    """Full-circle grid too coarse for the quadrature to be exact."""
