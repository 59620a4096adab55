"""Ginzburg-Landau director dynamics: the penalty nonlinearity f, its
antiderivative F, the residual of the stationary operator, and the
semi-implicit advance (implicit diffusion, explicit advection, explicit f
with linear stabilization S = 2/eta^2, the Lipschitz bound of f on |d|<=1).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import (DirectorField, GridSpec, MacVelocity, ScalarField,
                   centered_gradient_at_centers, laplacian, norms)
from .solvers import CellHelmholtz


@dataclass(frozen=True)
class GLParams:
    """Relaxation rate, penetration length and elastic coupling."""

    gamma: float = 1.0
    eta: float = 0.5
    lam: float = 1.0

    def __post_init__(self):
        if self.gamma <= 0 or self.eta <= 0 or self.lam <= 0:
            raise ValueError("gamma, eta, lambda must be strictly positive")

    @property
    def stabilization(self) -> float:
        return 2.0 / self.eta**2


def gl_f(d: DirectorField, eta: float) -> tuple[np.ndarray, np.ndarray]:
    """f(d) = (|d|^2 - 1) d / eta^2, pointwise."""
    fac = (d.d1**2 + d.d2**2 - 1.0) / eta**2
    return fac * d.d1, fac * d.d2


def gl_F(d: DirectorField, eta: float) -> ScalarField:
    """F(d) = (|d|^2 - 1)^2 / (4 eta^2), pointwise; grad F = f."""
    vals = (d.d1**2 + d.d2**2 - 1.0) ** 2 / (4.0 * eta**2)
    return ScalarField(d.grid, vals, "extrapolate")


def gl_residual(d: DirectorField, eta: float) -> tuple[np.ndarray, np.ndarray]:
    """Componentwise lap(d) - f(d) with the Dirichlet trace ghost fill.

    Vanishes at solutions of the stationary problem and is the relaxational
    dissipation density in the energy law."""
    c1, c2 = d.components()
    f1, f2 = gl_f(d, eta)
    return laplacian(c1).values - f1, laplacian(c2).values - f2


def gl_residual_l2(d: DirectorField, eta: float) -> float:
    r1, r2 = gl_residual(d, eta)
    a = d.grid.cell_area
    return float(np.sqrt((np.sum(r1**2) + np.sum(r2**2)) * a))


def director_energy_terms(d: DirectorField, eta: float) -> tuple[float, float]:
    """The terms 1/2 ||grad d||^2 and integral F(d) of E(d), without the
    elastic coupling lambda (the record's energy columns apply it)."""
    return 0.5 * norms(d, "H1_semi") ** 2, norms(gl_F(d, eta), "L1")


def director_energy(d: DirectorField, eta: float) -> float:
    """E(d) = 1/2 ||grad d||^2 + integral F(d), without lambda."""
    return sum(director_energy_terms(d, eta))


def velocity_at_centers(w: MacVelocity) -> tuple[np.ndarray, np.ndarray]:
    uc = 0.5 * (w.u[1:, :] + w.u[:-1, :])
    vc = 0.5 * (w.v[:, 1:] + w.v[:, :-1])
    return uc, vc


def advect_director(d: DirectorField, w: MacVelocity) -> tuple[np.ndarray, np.ndarray]:
    """(w . grad) d with centered differences of d at cell centers and
    face-interpolated velocity (second order for smooth fields)."""
    uc, vc = velocity_at_centers(w)
    c1, c2 = d.components()
    d1x, d1y = centered_gradient_at_centers(c1)
    d2x, d2y = centered_gradient_at_centers(c2)
    return uc * d1x + vc * d1y, uc * d2x + vc * d2y


@lru_cache(maxsize=32)
def _helmholtz(grid: GridSpec, a: float, c: float) -> CellHelmholtz:
    return CellHelmholtz(grid, a, c)


def advance_director(d: DirectorField, w: MacVelocity, p: GLParams,
                     dt: float) -> DirectorField:
    """One step of (I - gamma*dt*Lap + gamma*dt*S) d' =
    d - dt*(w.grad d) - gamma*dt*(f(d) - S d), per component, with the
    Dirichlet trace on d'. The implicit operator has constant coefficients
    and homogeneous Dirichlet walls once the trace is moved into the load,
    so `CellHelmholtz` inverts it exactly: one direct solve per component.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    g = d.grid
    s = p.stabilization
    a = 1.0 + p.gamma * dt * s
    c = p.gamma * dt
    adv1, adv2 = advect_director(d, w)
    f1, f2 = gl_f(d, p.eta)
    bc1, bc2 = (0.0, 0.0) if d.trace is None else d.trace.load

    rhs1 = d.d1 - dt * adv1 - c * (f1 - s * d.d1) + c * bc1
    rhs2 = d.d2 - dt * adv2 - c * (f2 - s * d.d2) + c * bc2

    pre = _helmholtz(g, a, c)
    return DirectorField(g, pre.solve(rhs1), pre.solve(rhs2), d.trace)
