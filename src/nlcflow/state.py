"""Coupled simulation state shared by the time loop and the diagnostics."""

from __future__ import annotations

from dataclasses import dataclass

from .density import DensityState
from .grid import DirectorField, MacVelocity, ScalarField


@dataclass(frozen=True)
class SimState:
    """The fields at time t, and what the next step reads besides them:
    the pressure whose gradient its predictor carries (zero at t = 0),
    the velocity v_prev of the step before (v itself at t = 0), from which
    it extrapolates its lagged velocity, and dt, the step length in force.
    dt starts at the configured step, is halved where the CFL bound
    requires and is never grown; after the last step of a run, shortened
    to land on t_end, it keeps the full step."""

    t: float
    density: DensityState
    v: MacVelocity
    d: DirectorField
    pressure: ScalarField
    v_prev: MacVelocity
    dt: float

    @property
    def rho(self) -> ScalarField:
        return self.density.rho
