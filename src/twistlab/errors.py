"""Exception types shared across the package."""


class TwistLabError(Exception):
    """Base class for all package-specific errors."""


class TwistViolationError(TwistLabError):
    """The derivative tilted a vertical direction the wrong way.

    Raised when the (1,2) Jacobian entry is non-positive at a point where
    a positive twist was required.
    """


class NonFiniteOrbitError(TwistLabError, ValueError):
    """An orbit, or a direction or Jacobi field carried along it, left the
    float range.

    The message names the step by which the values stopped being finite.
    It is also a ValueError, the class of math's own non-finite failures.
    """

    @classmethod
    def at(cls, start, step: int) -> "NonFiniteOrbitError":
        """The error for the orbit of start, found non-finite at step."""
        return cls(f"orbit of {start} left the float range by step {step}: not finite")


class BracketExpansionError(TwistLabError):
    """Root bracketing failed within the configured search range."""


class NonMonotoneBracketError(TwistLabError):
    """Sampled values of a supposedly increasing function decreased.

    For curve construction this signals conjugate points: the composed map
    no longer tilts verticals monotonically, so the root is not unique.
    """


class IterationCapError(TwistLabError):
    """A request that sizes memory or a solver sweep exceeded ITERATE_CAP."""


class CoincidentPointsError(TwistLabError):
    """Linking numbers need two distinct points with distinct orbits."""
