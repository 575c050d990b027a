"""Exception hierarchy shared by all reeblab modules."""


class ReebLabError(Exception):
    """Base class for all errors raised by this package."""


class NotStarShaped(ReebLabError):
    """The Liouville form is nonpositive on the Hamiltonian field at a point."""


class DegenerateFrame(ReebLabError):
    """A contact frame cannot be built or loses rank along an orbit."""


class StepUnderflow(ReebLabError):
    """The adaptive integrator drove its step below the minimum."""


class NoConvergence(ReebLabError):
    """An iterative solver failed to converge."""


class StructureMismatch(ReebLabError):
    """The critical-point structure differs from the expected pattern."""


class HypothesisFailure(ReebLabError):
    """A named inequality or sign pattern required downstream is violated."""


class NotClosed(ReebLabError):
    """A loop does not close within tolerance."""


class NoReturn(ReebLabError):
    """A trajectory did not return to its section within the time horizon,
    or a separatrix branch meets no axis: x^2 / 2 + eps a x + eps^2 c, the
    saddle level on the axis, has no real root, or the branch comes back to
    the saddle first."""

    def __init__(self, message, elapsed=None):
        super().__init__(message)
        self.elapsed = elapsed


class NotHyperbolic(ReebLabError):
    """An operation requiring a hyperbolic orbit was given an elliptic one."""


class SamplingTooCoarse(ReebLabError):
    """Angle increments along a path exceed the safe tracking threshold."""


class DegenerateOrbit(ReebLabError):
    """A winding-interval endpoint is an integer or the operator has eigenvalue 0."""


class RoundingUnsafe(ReebLabError):
    """A real value is too far from the nearest integer to round safely."""


class BandTooNarrow(ReebLabError):
    """The trusted spectral band does not cover the requested windings."""


class NoSafePole(ReebLabError):
    """No projection pole with adequate clearance from the curves was found,
    or the link diagram from the chosen pole is not generic: its crossing
    sums disagree or two strands cross too close in height."""


class OffsetTooLarge(ReebLabError):
    """A push-off curve comes too close to the original curve."""


class OutsideEnergyCap(ReebLabError):
    """A profile point violates the energy relation f(g)^2 >= 0."""


class SlowConvergence(ReebLabError):
    """A nested quadrature has not converged: a rule and its half disagree
    beyond tolerance (a leaf profile's Chebyshev rule, a level loop's
    Gauss-Legendre arcs), or Newton does not place a leaf's uniform s grid
    on its quadrature."""


class VanishingSection(ReebLabError):
    """A section of the contact plane vanishes at some node."""


class UnreliableWinding(ReebLabError):
    """A winding cannot be tracked: the section falls below the floor or
    turns by pi/2 or more between samples."""
