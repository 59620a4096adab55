"""Variable-density momentum predictor with the director elastic stress in
reduced form, and the incremental pressure correction. The predictor
carries the last pressure's gradient, and its inertia is split into one
constant-coefficient direct solve and a term on an extrapolated velocity
(Dodd & Ferrante, J. Comput. Phys. 273, 2014); the correction solves for
the pressure's increment with a constant coefficient (Guermond & Salgado,
J. Comput. Phys. 228, 2009). Each makes one direct solve per component.

The stress enters as -lambda*(lap d - f(d)) . grad d (gradient parts are
absorbed into the pressure), so the coupling force vanishes identically at
director equilibria - the structure the long-time behavior relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .director import GLParams, gl_residual
from .errors import IncompatibleRhs, LinearSolveFailure
from .grid import (DirectorField, GridSpec, MacVelocity, ScalarField,
                   divergence, interior_gradient)
from .solvers import FaceHelmholtz, NeumannPoisson


@dataclass(frozen=True)
class FlowParams:
    """Viscosity and the bound that `project` guarantees on
    ||div v'||_inf. The elastic coupling lambda is `GLParams.lam`."""

    nu: float = 1.0
    tol_proj: float = 1e-8

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
    (d1x, d1y), (d2x, d2y) = d.gradients
    fx = -p.lam * (r1 * d1x + r2 * d2x)
    fy = -p.lam * (r1 * d1y + r2 * d2y)
    return MacVelocity(d.grid, _centers_to_ufaces(fx), _centers_to_vfaces(fy))


def _upwind_advection_u(w: MacVelocity) -> np.ndarray:
    """(v . grad) u at u-faces, donor-cell upwind, with -interior wall
    ghosts in y. Returned for all u-faces; boundary faces are zeroed.
    u * (backward or forward difference) is the product with the selected
    difference, so the few arrays below hold the same bits as the plain
    select-of-products expression."""
    g = w.grid
    u, v = w.u, w.v
    # d/dx: forward differences, replaced by the backward ones where u > 0
    diff = np.subtract(u[1:, :], u[:-1, :])
    diff /= g.hx
    adv = np.empty_like(u)
    adv[:-1, :] = diff
    adv[-1, :] = 0.0
    np.copyto(adv[1:, :], diff, where=u[1:, :] > 0)
    adv *= u
    # d/dy on the ghost-padded rows (wall value zero by linear
    # extrapolation): column j - 1 is backward, column j forward
    up = np.empty((g.nx + 1, g.ny + 2))
    up[:, 1:-1] = u
    np.negative(u[:, 0], out=up[:, 0])
    np.negative(u[:, -1], out=up[:, -1])
    dy = np.subtract(up[:, 1:], up[:, :-1])
    dy /= g.hy
    # v interpolated to u-faces (average of the 4 surrounding v faces)
    vbar = np.zeros_like(u)
    mid = vbar[1:-1, :]
    np.add(v[1:, :-1], v[1:, 1:], out=mid)
    mid += v[:-1, :-1]
    mid += v[:-1, 1:]
    mid *= 0.25
    across = np.where(vbar > 0, dy[:, :-1], dy[:, 1:])
    across *= vbar
    adv += across
    adv[0, :] = 0.0
    adv[-1, :] = 0.0
    return adv


def _upwind_advection_v(w: MacVelocity) -> np.ndarray:
    """(v . grad) v at v-faces, as `_upwind_advection_u` with the axes
    swapped."""
    g = w.grid
    u, v = w.u, w.v
    diff = np.subtract(v[:, 1:], v[:, :-1])
    diff /= g.hy
    adv = np.empty_like(v)
    adv[:, :-1] = diff
    adv[:, -1] = 0.0
    np.copyto(adv[:, 1:], diff, where=v[:, 1:] > 0)
    adv *= v
    vp = np.empty((g.nx + 2, g.ny + 1))
    vp[1:-1, :] = v
    np.negative(v[0, :], out=vp[0, :])
    np.negative(v[-1, :], out=vp[-1, :])
    dx = np.subtract(vp[1:, :], vp[:-1, :])
    dx /= g.hx
    ubar = np.zeros_like(v)
    mid = ubar[:, 1:-1]
    np.add(u[:-1, 1:], u[:-1, :-1], out=mid)
    mid += u[1:, 1:]
    mid += u[1:, :-1]
    mid *= 0.25
    across = np.where(ubar > 0, dx[:-1, :], dx[1:, :])
    across *= ubar
    adv += across
    adv[:, 0] = 0.0
    adv[:, -1] = 0.0
    return adv


@lru_cache(maxsize=32)
def _face_pre(grid: GridSpec, a: float, c: float, axis: int) -> FaceHelmholtz:
    return FaceHelmholtz(grid, a, c, axis)


def _face_solve(g: GridSpec, axis: int, rho_f: np.ndarray, rhs: np.ndarray,
                rbar: float, dt: float, params: FlowParams,
                x_hat: np.ndarray) -> np.ndarray:
    """(rho_f/dt - nu*Lap) x = rhs on one component's interior faces, by
    the density split of Dodd & Ferrante (J. Comput. Phys. 273, 2014): one
    direct solve of (rbar/dt - nu*Lap) x = rhs - (rho_f - rbar)/dt * x_hat
    for the lagged velocity x_hat. Raises LinearSolveFailure on a
    non-finite right-hand side."""
    b = np.subtract(rho_f, rbar)
    b /= dt
    b *= x_hat
    np.subtract(rhs, b, out=b)
    if not np.isfinite(b).all():
        raise LinearSolveFailure(
            f"the momentum predictor got a non-finite right-hand side "
            f"(axis {axis})")
    return _face_pre(g, rbar / dt, params.nu, axis).solve(b)


def predict_velocity(rho: ScalarField, w: MacVelocity, d: DirectorField,
                     force_ext: MacVelocity | None, params: FlowParams,
                     glp: GLParams, dt: float,
                     p_hat: np.ndarray | None = None,
                     w_prev: MacVelocity | None = None,
                     dt_prev: float | None = None,
                     rbar: float | None = None) -> MacVelocity:
    """Implicit-viscosity momentum predictor: per component
    (rho/dt - nu*Lap) v* = rho/dt*v - rho*(v.grad v) + elastic + rho*g
    - grad p_hat, with no-slip walls; advection is donor-cell upwind in
    advective form, and p_hat is the last step's pressure (none on step
    1). The inertia splits into the constant density rbar, solved for
    directly, and (rho - rbar)/dt times a lagged velocity on the
    right-hand side: v + (dt/dt_prev)(v - w_prev), extrapolated from the
    previous velocity w_prev that a step of dt_prev led from, or v
    without one. rbar defaults to the midrange of rho; the time loop
    passes the midrange of the initial density, so that the lagged
    inertia stays stable, |rho - rbar| < rbar, and the solver is built
    once per run. The face densities are `rho.faces`.
    """
    g = rho.grid
    ru, rv = rho.faces
    fel = elastic_force(d, glp)
    rhs_u = _momentum_rhs(ru, w.u, _upwind_advection_u(w), fel.u,
                          None if force_ext is None else force_ext.u, dt)
    rhs_v = _momentum_rhs(rv, w.v, _upwind_advection_v(w), fel.v,
                          None if force_ext is None else force_ext.v, dt)
    rhs_u, rhs_v = rhs_u[1:-1, :], np.ascontiguousarray(rhs_v[:, 1:-1])
    if p_hat is not None:
        gu, gv = np.empty_like(rhs_u), np.empty_like(rhs_v)
        interior_gradient(p_hat, g, gu, gv)
        rhs_u -= gu
        rhs_v -= gv

    lag_u, lag_v = w.u, w.v
    if w_prev is not None:
        ratio = dt / dt_prev
        lag_u = w.u + ratio * (w.u - w_prev.u)
        lag_v = w.v + ratio * (w.v - w_prev.v)
    if rbar is None:
        rbar = 0.5 * (float(rho.values.min()) + float(rho.values.max()))
    out = MacVelocity.zeros(g)
    out.u[1:-1, :] = _face_solve(g, 0, ru[1:-1, :], rhs_u, rbar, dt, params,
                                 lag_u[1:-1, :])
    out.v[:, 1:-1] = _face_solve(g, 1, rv[:, 1:-1], rhs_v, rbar, dt, params,
                                 lag_v[:, 1:-1])
    return out


def _momentum_rhs(r: np.ndarray, w: np.ndarray, adv: np.ndarray,
                  fel: np.ndarray, force: np.ndarray | None,
                  dt: float) -> np.ndarray:
    """r/dt*w - r*adv + fel (+ r*force), in place: the operations of the
    plain expression in the same order, so the same bits. `adv` is
    overwritten."""
    rhs = np.divide(r, dt)
    rhs *= w
    adv *= r
    rhs -= adv
    rhs += fel
    if force is not None:
        np.multiply(r, force, out=adv)
        rhs += adv
    return rhs


@lru_cache(maxsize=8)
def _poisson(grid: GridSpec) -> NeumannPoisson:
    """The projection's Poisson solver, built once per grid and
    re-targeted by each call; its buffers are shared by its calls."""
    return NeumannPoisson(grid)


def project(rho: ScalarField, v_star: MacVelocity, dt: float,
            params: FlowParams, p_hat: np.ndarray | None = None
            ) -> tuple[MacVelocity, ScalarField]:
    """Incremental pressure correction with a constant coefficient
    (Guermond & Salgado, J. Comput. Phys. 228, 2009). With c0 = max
    1/rho_f over the interior faces, one direct solve of
    -c0 Lap delta = -div(v*)/dt
    with zero-Neumann walls and zero mean gives v' = v* - dt c0 grad
    delta, whose discrete divergence is zero to round-off, and the
    pressure q = p_hat + delta. p_hat is the pressure whose gradient the
    predictor carried: the state's pressure in the time loop, absent on
    step 1 and in the initial projection, where q = delta. For constant
    rho, c0 = 1/rho and the correction is the exact projection. v' does
    not depend on p_hat. Raises LinearSolveFailure if ||div v'||_inf
    exceeds tol_proj; v' keeps that norm as `div_inf`. The face densities
    are `rho.faces`.
    """
    g = rho.grid
    ru, rv = rho.faces
    c0 = 1.0 / min(float(ru[1:-1, :].min()), float(rv[:, 1:-1].min()))

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

    neumann_poisson = _poisson(g)
    neumann_poisson.set_scale(c0)
    delta = neumann_poisson.solve(rhs)
    delta -= delta.mean()

    # v* - dt c0 grad delta on the interior faces; the wall faces are
    # no-slip
    out = MacVelocity.zeros(g)
    interior_gradient(delta, g, out.u[1:-1, :], out.v[:, 1:-1])
    for corr, vs in ((out.u[1:-1, :], v_star.u[1:-1, :]),
                     (out.v[:, 1:-1], v_star.v[:, 1:-1])):
        corr *= c0
        corr *= dt
        np.subtract(vs, corr, out=corr)

    div_inf = out.div_inf
    if not div_inf <= params.tol_proj:
        raise LinearSolveFailure(
            f"projected velocity has ||div v||_inf = {div_inf:.3e} above "
            f"tol_proj = {params.tol_proj:.3e}")
    q = delta if p_hat is None else np.add(p_hat, delta)
    return out, ScalarField(g, q, "neumann_zero")
