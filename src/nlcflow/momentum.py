"""Variable-density momentum predictor with the director elastic stress in
reduced form, and the variable-coefficient pressure projection.

The stress enters as -lambda*(lap d - f(d)) . grad d (gradient parts are
absorbed into the pressure), so the coupling force vanishes identically at
director equilibria - the structure the long-time behavior relies on.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .director import GLParams, gl_residual
from .errors import IncompatibleRhs
from .grid import (DirectorField, GridSpec, MacVelocity, ScalarField,
                   centered_gradient_at_centers, density_at_faces, divergence,
                   gradient_interior_faces, laplacian_interior_faces)
from .solvers import FaceHelmholtz, NeumannPoisson, pcg, projected_guess

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


@dataclass(frozen=True, eq=False)
class FlowSolve:
    """One step's predictor solution v* and pressure q, each with the part
    of its operator product that does not depend on the density: nu*L of
    each velocity component (L = `laplacian_interior_faces`) and grad q, on
    the interior faces. From these a later step forms A x_k for its own
    density by elementwise products alone, (rho_f/dt) x_k - nu*L x_k for
    the predictor and -div((1/rho_f) grad q_k) for the projection, and
    starts its solves from `solvers.projected_guess` on them."""

    u: np.ndarray         # u* on the interior u-faces, (nx-1, ny)
    nu_lap_u: np.ndarray
    v: np.ndarray         # v* on the interior v-faces, (nx, ny-1)
    nu_lap_v: np.ndarray
    q: np.ndarray         # pressure on cells
    grad_q_u: np.ndarray
    grad_q_v: np.ndarray

    @classmethod
    def of(cls, v_star: MacVelocity, q: np.ndarray,
           params: FlowParams) -> "FlowSolve":
        # interior copies, not views, so the full arrays they come from
        # are freed (up to 1 MB less peak RSS at 128^2)
        g = v_star.grid
        u, v = v_star.u[1:-1, :].copy(), v_star.v[:, 1:-1].copy()
        nu_lap_u = laplacian_interior_faces(u, g, 0)
        nu_lap_u *= params.nu
        nu_lap_v = laplacian_interior_faces(v, g, 1)
        nu_lap_v *= params.nu
        gq = gradient_interior_faces(q, g)
        return cls(u, nu_lap_u, v, nu_lap_v, q,
                   gq.u[1:-1, :].copy(), gq.v[:, 1:-1].copy())


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


def _face_guess(rhs: np.ndarray, rho_f: np.ndarray, dt: float,
                basis: list[tuple[np.ndarray, np.ndarray]]
                ) -> tuple[np.ndarray, np.ndarray]:
    """`projected_guess` onto the kept pairs (x_k, nu*Lap x_k), with
    A x_k = (rho_f/dt) x_k - nu*Lap x_k formed elementwise. Its temporaries
    are freed on return, before the solve allocates its own."""
    diag = rho_f / dt
    return projected_guess(rhs, [x for x, _ in basis],
                           [diag * x - nu_lap_x for x, nu_lap_x in basis])


def _face_solve(g: GridSpec, axis: int, rho_f: np.ndarray, rhs: np.ndarray,
                rbar: float, dt: float, params: FlowParams,
                basis: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """(rho_f/dt - nu*Lap) x = rhs on one component's interior faces,
    from the A-norm projection onto the kept pairs in `basis` (zero when
    empty). A splits into the exactly inverted M = rbar/dt - nu*Lap and
    the diagonal N = (rho_f - rbar)/dt."""
    x0, r0 = _face_guess(rhs, rho_f, dt, basis) if basis else (None, None)
    return pcg(partial(np.multiply, (rho_f - rbar) / dt), rhs,
               _face_pre(g, rbar / dt, params.nu, axis).solve,
               tol_rel=params.tol_lin, maxiter=_CG_CAP, x0=x0, r0=r0)


def predict_velocity(rho: ScalarField, w: MacVelocity, d: DirectorField,
                     force_ext: MacVelocity | None, params: FlowParams,
                     glp: GLParams, dt: float,
                     basis: Sequence[FlowSolve] = ()) -> MacVelocity:
    """Implicit-viscosity momentum predictor: per component solve
    (rho/dt - nu*Lap) v* = rho/dt*v - rho*(v.grad v) + elastic + rho*g,
    with no-slip walls; advection is donor-cell upwind in advective form.
    Each solve starts from the A-norm projection onto the kept solutions
    in `basis` (zero when empty); the result meets the same tolerance
    either way.
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

    rbar = float(rho.values.mean())
    out = MacVelocity.zeros(g)
    out.u[1:-1, :] = _face_solve(
        g, 0, ru[1:-1, :], rhs_u[1:-1, :], rbar, dt, params,
        [(s.u, s.nu_lap_u) for s in basis])
    out.v[:, 1:-1] = _face_solve(
        g, 1, rv[:, 1:-1], rhs_v[:, 1:-1], rbar, dt, params,
        [(s.v, s.nu_lap_v) for s in basis])
    return out


class _NegDivKGrad:
    """x -> -div(k grad x) on cells with zero-Neumann walls, for k given on
    the interior faces. Writes into buffers allocated once per instance, so
    the returned array is overwritten by the next call."""

    def __init__(self, grid: GridSpec):
        self._g = grid
        self._gu = np.zeros((grid.nx + 1, grid.ny))  # wall faces stay zero
        self._gv = np.zeros((grid.nx, grid.ny + 1))
        self._out = np.empty((grid.nx, grid.ny))
        self._dv = np.empty((grid.nx, grid.ny))

    def __call__(self, k_u: np.ndarray, k_v: np.ndarray,
                 x: np.ndarray) -> np.ndarray:
        g = self._g
        ku = self._gu[1:-1, :]
        np.subtract(x[1:, :], x[:-1, :], out=ku)
        ku /= g.hx
        kv = self._gv[:, 1:-1]
        np.subtract(x[:, 1:], x[:, :-1], out=kv)
        kv /= g.hy
        return self._neg_div_k(k_u, k_v)

    def of_gradient(self, k_u: np.ndarray, k_v: np.ndarray,
                    grad_u: np.ndarray, grad_v: np.ndarray) -> np.ndarray:
        """-div(k g) for a given gradient g on the interior faces."""
        self._gu[1:-1, :] = grad_u
        self._gv[:, 1:-1] = grad_v
        return self._neg_div_k(k_u, k_v)

    def _neg_div_k(self, k_u: np.ndarray, k_v: np.ndarray) -> np.ndarray:
        g, gu, gv, out = self._g, self._gu, self._gv, self._out
        gu[1:-1, :] *= k_u
        gv[:, 1:-1] *= k_v
        # b - a is -(a - b) exactly (but for the sign of a zero), so the
        # differences come out negated
        np.subtract(gu[:-1, :], gu[1:, :], out=out)
        out /= g.hx
        np.subtract(gv[:, :-1], gv[:, 1:], out=self._dv)
        self._dv /= g.hy
        out += self._dv
        return out


@lru_cache(maxsize=8)
def _projection_ops(grid: GridSpec) -> tuple[NeumannPoisson, _NegDivKGrad]:
    """The projection's preconditioner and operator, built once per grid
    and re-targeted by each call; their buffers are shared by its calls."""
    return NeumannPoisson(grid), _NegDivKGrad(grid)


def project(rho: ScalarField, v_star: MacVelocity, dt: float,
            params: FlowParams, basis: Sequence[FlowSolve] = ()
            ) -> tuple[MacVelocity, ScalarField]:
    """Variable-density pressure correction: solve
    div((1/rho) grad q) = (1/dt) div(v*) with zero-Neumann walls and zero
    mean, then v' = v* - (dt/rho) grad q. Guarantees
    ||div v'||_inf <= tol_proj (the CG stopping criterion is exactly that
    residual, with margin), whatever the initial guess: the A-norm
    projection onto the kept pressures in `basis` (zero when empty).
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
    k_u, k_v = inv_ru[1:-1, :], inv_rv[:, 1:-1]
    neumann_poisson, neg_div_k_grad = _projection_ops(g)
    neumann_poisson.set_scale(cbar)
    q0 = r0 = None
    if basis:
        q0, r0 = projected_guess(
            rhs, [s.q for s in basis],
            [neg_div_k_grad.of_gradient(k_u, k_v, s.grad_q_u,
                                        s.grad_q_v).copy() for s in basis])

    def project_mean(x):
        x -= x.mean()

    # div v' = -dt * (residual of this solve); stop well inside tol_proj
    tol_inf = 0.1 * params.tol_proj / dt
    q = pcg(partial(neg_div_k_grad, k_u - cbar, k_v - cbar), rhs,
            neumann_poisson.solve, tol_rel=1e-13, tol_abs_inf=tol_inf,
            maxiter=_CG_CAP, project=project_mean, x0=q0, r0=r0)
    q -= q.mean()

    gq = gradient_interior_faces(q, g)
    out = MacVelocity(g, v_star.u - dt * inv_ru * gq.u,
                      v_star.v - dt * inv_rv * gq.v)
    out.enforce_noslip()
    pressure = ScalarField(g, q, "neumann_zero")
    return out, pressure
