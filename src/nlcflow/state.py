"""Coupled simulation state shared by the time loop and the diagnostics."""

from __future__ import annotations

from dataclasses import dataclass

from .density import DensityState
from .grid import DirectorField, MacVelocity, ScalarField


@dataclass
class SimState:
    t: float
    density: DensityState
    v: MacVelocity
    d: DirectorField
    pressure: ScalarField | None = None
    # (t, v*, q) of the latest predictor and projection solves, oldest
    # first: what the time loop extrapolates their next initial guesses from
    solves: tuple = ()

    @property
    def rho(self) -> ScalarField:
        return self.density.rho
