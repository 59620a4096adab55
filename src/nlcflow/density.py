"""The density and its transport: conservative first-order upwind
advection that preserves pointwise bounds (for discretely divergence-free
velocities) and conserves total mass to round-off.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import CflViolation
from .grid import GridSpec, MacVelocity, density_at_faces


@dataclass
class DensityState:
    """The density: its cell values on its grid, its initial minimum and
    maximum (the maximum is the reference density of the diagnostics;
    their midrange is the predictor's split density), its initial mass
    (the reference of the mass drift) and, computed once, its face
    averages."""

    grid: GridSpec
    values: np.ndarray
    rho_min0: float
    rho_max0: float
    mass0: float

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=np.float64)
        if self.values.shape != (self.grid.nx, self.grid.ny):
            raise ValueError("density values must have shape (nx, ny)")

    @classmethod
    def initial(cls, grid: GridSpec, values) -> "DensityState":
        """The density at t = 0, whose references are its own."""
        vals = np.ascontiguousarray(values, dtype=np.float64)
        return cls(grid, vals, float(vals.min()), float(vals.max()),
                   float(np.sum(vals) * grid.cell_area))

    @cached_property
    def faces(self) -> tuple[np.ndarray, np.ndarray]:
        """`density_at_faces` of the values, computed once; the values and
        the faces become read-only."""
        faces = density_at_faces(self.values, self.grid)
        for a in (self.values, *faces):
            a.flags.writeable = False
        return faces

    @property
    def rho_bar(self) -> float:
        """The midrange of the initial density. The discrete maximum
        principle keeps |rho - rho_bar| < rho_bar, so the predictor's
        lagged inertia, whose spurious root is (rho_bar - rho)/rho_bar,
        stays stable for any density ratio."""
        return 0.5 * (self.rho_min0 + self.rho_max0)

    def mass(self) -> float:
        return float(np.sum(self.values) * self.grid.cell_area)


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
    rho = state.values
    return replace(state, values=rho - dt * upwind_flux_divergence(rho, w))
