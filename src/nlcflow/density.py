"""Density transport: conservative first-order upwind advection that
preserves pointwise bounds (for discretely divergence-free velocities) and
conserves total mass to round-off.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CflViolation
from .grid import GridSpec, MacVelocity, ScalarField


@dataclass
class DensityState:
    """Density field plus its initial minimum and maximum (the maximum is
    the reference density of the diagnostics; their midrange is the
    predictor's split density) and initial mass (the reference of the
    mass drift)."""

    rho: ScalarField
    rho_min0: float
    rho_max0: float
    mass0: float

    @classmethod
    def from_field(cls, rho: ScalarField) -> "DensityState":
        vals = rho.values
        return cls(rho=rho,
                   rho_min0=float(vals.min()),
                   rho_max0=float(vals.max()),
                   mass0=float(np.sum(vals) * rho.grid.cell_area))

    @property
    def rho_bar(self) -> float:
        """The midrange of the initial density. The discrete maximum
        principle keeps |rho - rho_bar| < rho_bar, so the predictor's
        lagged inertia, whose spurious root is (rho_bar - rho)/rho_bar,
        stays stable for any density ratio."""
        return 0.5 * (self.rho_min0 + self.rho_max0)

    @property
    def grid(self) -> GridSpec:
        return self.rho.grid

    def mass(self) -> float:
        return float(np.sum(self.rho.values) * self.rho.grid.cell_area)


def cfl_number(w: MacVelocity, dt: float) -> float:
    umax, vmax = w.max_speed()
    g = w.grid
    return dt * (umax / g.hx + vmax / g.hy)


def _flux_difference(rho: np.ndarray, u: np.ndarray, h: float) -> np.ndarray:
    """(F[i+1] - F[i])/h for the donor-cell flux F = u*rho_upwind on the
    u-faces; the y part is this on the transposed views of rho and v."""
    f = np.zeros_like(u)
    f[1:-1] = np.where(u[1:-1] > 0.0, rho[:-1], rho[1:])
    f *= u
    return (f[1:] - f[:-1]) / h


def upwind_flux_divergence(rho: np.ndarray, w: MacVelocity) -> np.ndarray:
    """div(F) with F the donor-cell upwind mass flux. Boundary faces carry
    the face velocity stored in w (zero for no-slip), so wall flux vanishes
    and total mass telescopes exactly."""
    g = w.grid
    return (_flux_difference(rho, w.u, g.hx)
            + _flux_difference(rho.T, w.v.T, g.hy).T)


def advance_density(state: DensityState, w: MacVelocity, dt: float) -> DensityState:
    """One conservative upwind step rho' = rho - dt*div(upwind flux).

    Raises CflViolation when dt*(max|u|/hx + max|v|/hy) > 1; under the CFL
    bound and discretely divergence-free w the update is a convex combination
    of neighbor values, hence monotone.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if cfl_number(w, dt) > 1.0:
        raise CflViolation(
            f"density CFL number {cfl_number(w, dt):.3f} exceeds 1")
    rho = state.rho.values
    new_vals = rho - dt * upwind_flux_divergence(rho, w)
    return DensityState(ScalarField(state.grid, new_vals), state.rho_min0,
                        state.rho_max0, state.mass0)
