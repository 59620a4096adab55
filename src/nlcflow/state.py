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

    @property
    def rho(self) -> ScalarField:
        return self.density.rho
