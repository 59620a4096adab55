"""Ginzburg-Landau director dynamics: the penalty nonlinearity f, its
antiderivative F, the residual of the stationary operator, and the
semi-implicit advance (implicit diffusion, explicit advection, explicit f
with linear stabilization S = 2/eta^2, the Lipschitz bound of f on |d|<=1).
f(d), the Laplacian and the residual are kept with the `DirectorField`, and
the advance hands its result the Laplacian of the equation it has just
solved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import DirectorField, MacVelocity, inner, norms
from .solvers import CellHelmholtz, cached_solver


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
    """f(d) = (|d|^2 - 1) d / eta^2, pointwise; kept with d, read-only."""
    def build():
        fac = (d.norm_sq - 1.0) / eta**2
        return fac * d.d1, fac * d.d2
    return d.derived(("f", eta), build)


def gl_residual(d: DirectorField, eta: float) -> tuple[np.ndarray, np.ndarray]:
    """Componentwise lap(d) - f(d), with the Laplacian `d.lap` with the
    trace's Dirichlet ghosts; kept with d, read-only, so the elastic
    force and the record share it.

    Vanishes at solutions of the stationary problem and is the relaxational
    dissipation density in the energy law."""
    def build():
        (lap1, lap2), (f1, f2) = d.lap, gl_f(d, eta)
        return lap1 - f1, lap2 - f2
    return d.derived(("res", eta), build)


def gl_residual_l2(d: DirectorField, eta: float) -> float:
    r1, r2 = gl_residual(d, eta)
    return float(np.sqrt((inner(r1, r1) + inner(r2, r2)) * d.grid.cell_area))


def director_energy_terms(d: DirectorField, eta: float) -> tuple[float, float]:
    """The terms 1/2 ||grad d||^2 and integral F(d) of E(d), without the
    elastic coupling lambda (the record's energy columns apply it), with
    F(d) = (|d|^2 - 1)^2 / (4 eta^2), so that grad F = f. The integral
    sums the square of |d|^2 - 1 once and applies 1/(4 eta^2) to the sum."""
    gap = d.norm_sq - 1.0
    return (0.5 * norms(d, "H1_semi") ** 2,
            inner(gap, gap) * d.grid.cell_area / (4.0 * eta**2))


def director_energy(d: DirectorField, eta: float) -> float:
    """E(d) = 1/2 ||grad d||^2 + integral F(d), without lambda."""
    return sum(director_energy_terms(d, eta))


def velocity_at_centers(w: MacVelocity) -> tuple[np.ndarray, np.ndarray]:
    uc = 0.5 * (w.u[1:, :] + w.u[:-1, :])
    vc = 0.5 * (w.v[:, 1:] + w.v[:, :-1])
    return uc, vc


def advect_director(d: DirectorField, w: MacVelocity) -> tuple[np.ndarray, np.ndarray]:
    """(w . grad) d with centered differences of d at cell centers
    (`d.gradients`) and face-interpolated velocity (second order for
    smooth fields)."""
    uc, vc = velocity_at_centers(w)
    (d1x, d1y), (d2x, d2y) = d.gradients
    return uc * d1x + vc * d1y, uc * d2x + vc * d2y


def advance_director(d: DirectorField, w: MacVelocity, p: GLParams,
                     dt: float) -> DirectorField:
    """One step of (I - gamma*dt*Lap + gamma*dt*S) d' =
    d - dt*(w.grad d) - gamma*dt*(f(d) - S d), per component, with the
    Dirichlet trace on d'. The implicit operator has constant coefficients
    and homogeneous Dirichlet walls once the trace is moved into the load,
    so `CellHelmholtz` inverts it exactly: one direct solve of
    (a - c Lap_0) d' = r + c*load per component, with a = 1 + gamma*dt*S,
    c = gamma*dt and r the right-hand side without the trace's load. d'
    keeps the Laplacian that equation fixes, Lap d' = (a d' - r)/c, so no
    stencil is applied to it.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    g = d.grid
    s = p.stabilization
    a = 1.0 + p.gamma * dt * s
    c = p.gamma * dt
    pre = cached_solver(CellHelmholtz, g, a, c)
    comps, laps = [], []
    for dk, adv, fk, load in zip((d.d1, d.d2), advect_director(d, w),
                                 gl_f(d, p.eta), d.trace.load):
        r = dk - dt * adv - c * (fk - s * dk)
        x = pre.solve(r + c * load)
        lap = a * x
        lap -= r
        lap /= c
        comps.append(x)
        laps.append(lap)
    out = DirectorField(g, *comps, d.trace)
    out.derived("lap", lambda: laps)
    return out
