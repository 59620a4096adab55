"""Exception types shared across the solver modules."""


class NlcflowError(Exception):
    """Base class for all solver errors."""


class CflViolation(NlcflowError):
    """Explicit transport step asked to run past its CFL limit."""


class LinearSolveFailure(NlcflowError):
    """The momentum predictor got a non-finite right-hand side, or the
    projected velocity missed its divergence bound."""


class IncompatibleRhs(NlcflowError):
    """Pressure Poisson right-hand side has a nonzero mean beyond round-off.

    This signals broken boundary handling upstream (nonzero net flux
    through the walls), not a solver problem.
    """


class MaxIterations(NlcflowError):
    """Outer fixed-point iteration (stationary solve) did not converge."""


class InsufficientSamples(NlcflowError):
    """Too few usable samples after filtering."""


class DegenerateFit(NlcflowError):
    """Decay-fit input hit the floating-point floor (faster-than-algebraic
    decay; callers should report 'exceeds prediction')."""


class OrderRegression(NlcflowError):
    """Observed convergence order fell short of the expected order."""


class StepRejected(NlcflowError):
    """CFL auto-shrink reduced dt below the minimum allowed step."""


class ConfigError(NlcflowError):
    """Run configuration violates a validated assumption."""


class CheckpointError(NlcflowError):
    """A file is not a checkpoint archive of this format version, or
    holds a run on another grid."""


class StepFailed(NlcflowError):
    """A coupled time step raised; the original exception is chained as
    __cause__."""

    def __init__(self, step: int, t: float, exc: BaseException):
        super().__init__(f"step {step} (t={t:.6g}): "
                         f"{type(exc).__name__}: {exc}")
        self.step = step
        self.t = t
