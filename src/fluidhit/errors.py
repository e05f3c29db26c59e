"""Exception hierarchy shared by all fluidhit modules."""


class FluidhitError(Exception):
    """Base class for all errors raised by this package."""


class ChainValidationError(FluidhitError):
    """A transition matrix failed validation; subclasses name the reason."""


class NotStochastic(ChainValidationError):
    """A row does not sum to 1 (or an entry is outside [0, 1]) beyond tolerance."""

    def __init__(self, row, detail):
        self.row = row
        super().__init__(f"row {row} is not stochastic: {detail}")


class NotAbsorbing(ChainValidationError):
    """State 0 is not absorbing (P[0][0] != 1)."""

    def __init__(self, detail):
        super().__init__(f"state 0 is not absorbing: {detail}")


class NotTransient(ChainValidationError):
    """Some state has no path to the absorbing state 0."""

    def __init__(self, state):
        self.state = state
        super().__init__(f"state {state} cannot reach the absorbing state 0")


class SingularMatrix(FluidhitError):
    """A linear solve met a pivot below the singularity threshold."""


class SingularSystem(SingularMatrix):
    """A hitting-time system was singular; signals internal inconsistency."""


class NonConvergent(FluidhitError):
    """A series refused its tolerance or term budget, or a search its step cap."""


class DimensionTooLarge(FluidhitError):
    """The dense code path was requested beyond its size cap."""


class SlowConvergence(FluidhitError):
    """Power iteration hit its iteration cap; carries the current estimate."""

    def __init__(self, estimate, residual, iterations):
        self.estimate = estimate
        self.residual = residual
        self.iterations = iterations
        super().__init__(
            f"power iteration did not converge after {iterations} iterations "
            f"(estimate {estimate!r}, residual {residual:.3e})"
        )


class ScaleTooSmall(FluidhitError):
    """Discrete phase-type scale N is below max(-Q_ii), so I + Q/N has negative entries."""


class GammaMissing(FluidhitError):
    """The tail prefactor gamma was requested but is not available."""


class DegenerateTail(FluidhitError):
    """The initial distribution has no usable overlap with the dominant eigenspace."""


class SizeTooLarge(FluidhitError):
    """A generator refused to materialize a chain beyond the desk-scale guard."""


class BracketingFailure(FluidhitError):
    """Exponential bracketing failed to straddle the target level."""


class MaxStepsExceeded(FluidhitError):
    """A simulation run passed its step cap before absorbing.

    The simulator raises it with the cap as steps and the start occupancy
    as state.
    """

    def __init__(self, steps, state):
        self.steps = steps
        self.state = state
        super().__init__(f"simulation exceeded {steps} steps before absorption")


class InconsistentBounds(FluidhitError):
    """A bound report found a lower bound above an upper bound."""
