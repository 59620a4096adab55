"""Variable-density momentum predictor with the director elastic stress in
reduced form, and the variable-coefficient pressure projection.

The stress enters as -lambda*(lap d - f(d)) . grad d (gradient parts are
absorbed into the pressure), so the coupling force vanishes identically at
director equilibria - the structure the long-time behavior relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .director import GLParams, gl_residual
from .errors import IncompatibleRhs
from .grid import (DirectorField, GridSpec, MacVelocity, ScalarField,
                   centered_gradient_at_centers, density_at_faces, divergence,
                   gradient_interior_faces)
from .solvers import FaceHelmholtz, NeumannPoisson, pcg

_CG_CAP = 2000  # iteration cap of the predictor and projection solves


@dataclass(frozen=True)
class FlowParams:
    """Viscosity and the predictor and projection solve tolerances. The
    elastic coupling lambda is `GLParams.lam`."""

    nu: float = 1.0
    tol_proj: float = 1e-8
    tol_lin: float = 1e-10

    def __post_init__(self):
        if self.nu <= 0 or self.tol_proj <= 0:
            raise ValueError("nu and tol_proj must be positive")


def _centers_to_ufaces(c: np.ndarray) -> np.ndarray:
    out = np.zeros((c.shape[0] + 1, c.shape[1]))
    out[1:-1, :] = 0.5 * (c[1:, :] + c[:-1, :])
    return out


def _centers_to_vfaces(c: np.ndarray) -> np.ndarray:
    out = np.zeros((c.shape[0], c.shape[1] + 1))
    out[:, 1:-1] = 0.5 * (c[:, 1:] + c[:, :-1])
    return out


def elastic_force(d: DirectorField, p: GLParams) -> MacVelocity:
    """Body force -lambda*(lap d - f(d)) . grad d, computed at cell centers
    and averaged to faces (zero on boundary faces; no-slip pins them)."""
    r1, r2 = gl_residual(d, p.eta)
    c1, c2 = d.components()
    d1x, d1y = centered_gradient_at_centers(c1)
    d2x, d2y = centered_gradient_at_centers(c2)
    fx = -p.lam * (r1 * d1x + r2 * d2x)
    fy = -p.lam * (r1 * d1y + r2 * d2y)
    return MacVelocity(d.grid, _centers_to_ufaces(fx), _centers_to_vfaces(fy))


def _upwind_advection_u(w: MacVelocity) -> np.ndarray:
    """(v . grad) u at u-faces, donor-cell upwind, with -interior wall
    ghosts in y. Returned for all u-faces; boundary faces are zeroed."""
    g = w.grid
    u = w.u
    # ghost-padded in y (wall value zero via linear extrapolation)
    up = np.empty((g.nx + 1, g.ny + 2))
    up[:, 1:-1] = u
    up[:, 0] = -u[:, 0]
    up[:, -1] = -u[:, -1]

    dudx_m = np.zeros_like(u)
    dudx_p = np.zeros_like(u)
    dudx_m[1:, :] = (u[1:, :] - u[:-1, :]) / g.hx     # backward
    dudx_p[:-1, :] = (u[1:, :] - u[:-1, :]) / g.hx    # forward
    dudy_m = (up[:, 1:-1] - up[:, :-2]) / g.hy
    dudy_p = (up[:, 2:] - up[:, 1:-1]) / g.hy

    # v interpolated to u-faces (average of the 4 surrounding v faces)
    vbar = np.zeros_like(u)
    vbar[1:-1, :] = 0.25 * (w.v[1:, :-1] + w.v[1:, 1:]
                            + w.v[:-1, :-1] + w.v[:-1, 1:])
    adv = np.where(u > 0, u * dudx_m, u * dudx_p) \
        + np.where(vbar > 0, vbar * dudy_m, vbar * dudy_p)
    adv[0, :] = 0.0
    adv[-1, :] = 0.0
    return adv


def _upwind_advection_v(w: MacVelocity) -> np.ndarray:
    g = w.grid
    v = w.v
    vp = np.empty((g.nx + 2, g.ny + 1))
    vp[1:-1, :] = v
    vp[0, :] = -v[0, :]
    vp[-1, :] = -v[-1, :]

    dvdy_m = np.zeros_like(v)
    dvdy_p = np.zeros_like(v)
    dvdy_m[:, 1:] = (v[:, 1:] - v[:, :-1]) / g.hy
    dvdy_p[:, :-1] = (v[:, 1:] - v[:, :-1]) / g.hy
    dvdx_m = (vp[1:-1, :] - vp[:-2, :]) / g.hx
    dvdx_p = (vp[2:, :] - vp[1:-1, :]) / g.hx

    ubar = np.zeros_like(v)
    ubar[:, 1:-1] = 0.25 * (w.u[:-1, 1:] + w.u[:-1, :-1]
                            + w.u[1:, 1:] + w.u[1:, :-1])
    adv = np.where(ubar > 0, ubar * dvdx_m, ubar * dvdx_p) \
        + np.where(v > 0, v * dvdy_m, v * dvdy_p)
    adv[:, 0] = 0.0
    adv[:, -1] = 0.0
    return adv


@lru_cache(maxsize=32)
def _face_pre(grid: GridSpec, a: float, c: float, axis: int) -> FaceHelmholtz:
    return FaceHelmholtz(grid, a, c, axis)


def predict_velocity(rho: ScalarField, w: MacVelocity, d: DirectorField,
                     force_ext: MacVelocity | None, params: FlowParams,
                     glp: GLParams, dt: float) -> MacVelocity:
    """Implicit-viscosity momentum predictor: per component solve
    (rho/dt - nu*Lap) v* = rho/dt*v - rho*(v.grad v) + elastic + rho*g,
    with no-slip walls; advection is donor-cell upwind in advective form.
    """
    g = rho.grid
    ru, rv = density_at_faces(rho.values, g)
    fel = elastic_force(d, glp)
    adv_u = _upwind_advection_u(w)
    adv_v = _upwind_advection_v(w)

    rhs_u = ru / dt * w.u - ru * adv_u + fel.u
    rhs_v = rv / dt * w.v - rv * adv_v + fel.v
    if force_ext is not None:
        rhs_u = rhs_u + ru * force_ext.u
        rhs_v = rhs_v + rv * force_ext.v

    # A = rho_f/dt - nu*Lap splits into the exactly inverted
    # M = rbar/dt - nu*Lap and the diagonal N = (rho_f - rbar)/dt
    rbar = float(rho.values.mean())
    n_u = (ru[1:-1, :] - rbar) / dt
    n_v = (rv[:, 1:-1] - rbar) / dt
    sol_u = pcg(partial(np.multiply, n_u), rhs_u[1:-1, :],
                _face_pre(g, rbar / dt, params.nu, 0).solve,
                tol_rel=params.tol_lin, maxiter=_CG_CAP)
    sol_v = pcg(partial(np.multiply, n_v), rhs_v[:, 1:-1],
                _face_pre(g, rbar / dt, params.nu, 1).solve,
                tol_rel=params.tol_lin, maxiter=_CG_CAP)

    out = MacVelocity.zeros(g)
    out.u[1:-1, :] = sol_u
    out.v[:, 1:-1] = sol_v
    return out


def project(rho: ScalarField, v_star: MacVelocity, dt: float,
            params: FlowParams) -> tuple[MacVelocity, ScalarField]:
    """Variable-density pressure correction: solve
    div((1/rho) grad q) = (1/dt) div(v*) with zero-Neumann walls and zero
    mean, then v' = v* - (dt/rho) grad q. Guarantees
    ||div v'||_inf <= tol_proj (the CG stopping criterion is exactly that
    residual, with margin).
    """
    g = rho.grid
    ru, rv = density_at_faces(rho.values, g)
    inv_ru = 1.0 / ru
    inv_rv = 1.0 / rv

    div_star = divergence(v_star).values
    rhs = -div_star / dt
    mean_rhs = float(rhs.mean())
    # compatibility: the divergence of a no-slip MAC field telescopes to
    # zero, so the mean can only be velocity-scale round-off
    scale = max(v_star.max_speed()) / (dt * min(g.hx, g.hy))
    if abs(mean_rhs) > 1e-10 * scale + 1e-300:
        raise IncompatibleRhs(
            f"pressure rhs mean {mean_rhs:.3e} exceeds round-off "
            f"(scale {scale:.3e}); boundary fluxes are broken")

    # A = -div((1/rho_f) grad) splits into the exactly inverted
    # M = -cbar*Lap and N = -div((1/rho_f - cbar) grad)
    cbar = float(inv_ru.mean())
    n_u = inv_ru - cbar
    n_v = inv_rv - cbar

    def apply_n(q):
        gq = gradient_interior_faces(q, g)
        gq.u *= n_u
        gq.v *= n_v
        return -divergence(gq).values

    def project_mean(x):
        x -= x.mean()

    # div v' = -dt * (residual of this solve); stop well inside tol_proj
    tol_inf = 0.1 * params.tol_proj / dt
    q = pcg(apply_n, rhs, NeumannPoisson(g, cbar).solve, tol_rel=1e-13,
            tol_abs_inf=tol_inf, maxiter=_CG_CAP, project=project_mean)
    q -= q.mean()

    gq = gradient_interior_faces(q, g)
    out = MacVelocity(g, v_star.u - dt * inv_ru * gq.u,
                      v_star.v - dt * inv_rv * gq.v)
    out.enforce_noslip()
    pressure = ScalarField(g, q, "neumann_zero")
    return out, pressure
