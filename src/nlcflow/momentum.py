"""Variable-density momentum predictor with the director elastic stress in
reduced form, and the incremental pressure correction. The predictor
carries the last pressure's gradient, and its inertia is split into one
constant-coefficient direct solve and a term on an extrapolated velocity
(Dodd & Ferrante, J. Comput. Phys. 273, 2014); the correction solves for
the pressure's increment with a constant coefficient (Guermond & Salgado,
J. Comput. Phys. 228, 2009). Each makes one direct solve per component.

Each operator on the staggered velocity is written once, for u, whose
normal runs along axis 0. The v component goes through the same code as
the u-component of the transposed fields on the transposed grid
`GridSpec.T`: v.T is its normal component there, and u.T its tangential
one.

The stress enters as -lambda*(lap d - f(d)) . grad d (gradient parts are
absorbed into the pressure), so the coupling force vanishes identically at
director equilibria - the structure the long-time behavior relies on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .director import GLParams, gl_residual
from .errors import IncompatibleRhs, LinearSolveFailure
from .grid import (DirectorField, GridSpec, MacVelocity, divergence,
                   interior_gradient)
from .solvers import FaceHelmholtz, NeumannPoisson, cached_solver


@dataclass(frozen=True)
class FlowParams:
    """Viscosity and the bound that `project` guarantees on
    ||div v'||_inf. The elastic coupling lambda is `GLParams.lam`."""

    nu: float = 1.0
    tol_proj: float = 1e-8

    def __post_init__(self):
        if self.nu <= 0 or self.tol_proj <= 0:
            raise ValueError("nu and tol_proj must be positive")


def _normals(f: MacVelocity) -> tuple:
    """A MAC field's normal component in each orientation, as a u-face
    array: u, and v transposed, which is u on the transposed grid."""
    return f.u, f.v.T


def _centers_to_faces(c: np.ndarray) -> np.ndarray:
    """Cell values averaged to the u-faces, zero on the walls; in the
    layout of c, so that c.T in gives the v-faces as a C-ordered .T."""
    out = np.zeros_like(c, shape=(c.shape[0] + 1, c.shape[1]))
    out[1:-1] = 0.5 * (c[1:] + c[:-1])
    return out


def elastic_force(d: DirectorField, p: GLParams) -> MacVelocity:
    """Body force -lambda*(lap d - f(d)) . grad d, computed at cell centers
    and averaged to faces (zero on boundary faces; no-slip pins them)."""
    r1, r2 = gl_residual(d, p.eta)
    (d1x, d1y), (d2x, d2y) = d.gradients
    fx = -p.lam * (r1 * d1x + r2 * d2x)
    fy = -p.lam * (r1 * d1y + r2 * d2y)
    return MacVelocity(d.grid, _centers_to_faces(fx),
                       _centers_to_faces(fy.T).T)


def _upwind_advection(u: np.ndarray, v: np.ndarray, g: GridSpec
                      ) -> np.ndarray:
    """(v . grad) u on the interior u-faces, donor-cell upwind, with
    -interior wall ghosts across (in y). u * (backward or forward
    difference) is the product with the selected difference, the same bits
    as the select-of-products expression."""
    ui = u[1:-1]
    # along: the backward difference where u > 0, the forward one elsewhere
    diff = np.subtract(u[1:], u[:-1])
    diff /= g.hx
    adv = np.where(ui > 0, diff[:-1], diff[1:])
    adv *= ui
    # across, on rows extended by the no-slip ghosts -u (wall value zero):
    # column j is backward, column j + 1 forward
    up = np.empty_like(ui, shape=(ui.shape[0], ui.shape[1] + 2))
    up[:, 1:-1] = ui
    np.negative(ui[:, 0], out=up[:, 0])
    np.negative(ui[:, -1], out=up[:, -1])
    dy = np.subtract(up[:, 1:], up[:, :-1])
    dy /= g.hy
    # v averaged to the u-faces from the four surrounding v-faces
    vbar = np.add(v[1:, :-1], v[1:, 1:])
    vbar += v[:-1, :-1]
    vbar += v[:-1, 1:]
    vbar *= 0.25
    across = np.where(vbar > 0, dy[:, :-1], dy[:, 1:])
    across *= vbar
    adv += across
    return adv


def _face_solve(g: GridSpec, rho_f: np.ndarray, rhs: np.ndarray,
                rbar: float, dt: float, params: FlowParams,
                x_hat: np.ndarray) -> np.ndarray:
    """(rho_f/dt - nu*Lap) x = rhs on the interior u-faces of g, by the
    density split of Dodd & Ferrante (J. Comput. Phys. 273, 2014): one
    direct solve of (rbar/dt - nu*Lap) x = rhs - (rho_f - rbar)/dt * x_hat
    for the lagged velocity x_hat. Raises LinearSolveFailure on a
    non-finite right-hand side."""
    b = np.subtract(rho_f, rbar)
    b /= dt
    b *= x_hat
    np.subtract(rhs, b, out=b)
    if not np.isfinite(b).all():
        raise LinearSolveFailure(
            "the momentum predictor got a non-finite right-hand side")
    return cached_solver(FaceHelmholtz, g, rbar / dt, params.nu).solve(b)


def predict_velocity(faces: tuple[np.ndarray, np.ndarray], w: MacVelocity,
                     d: DirectorField, force_ext: MacVelocity,
                     params: FlowParams, glp: GLParams, dt: float, rbar: float,
                     p_hat: np.ndarray, w_prev: MacVelocity,
                     dt_prev: float) -> MacVelocity:
    """Implicit-viscosity momentum predictor: per component
    (rho/dt - nu*Lap) v* = rho/dt*v - rho*(v.grad v) + elastic + rho*g
    - grad p_hat, with no-slip walls; advection is donor-cell upwind in
    advective form, and p_hat is the last step's pressure (zero on step
    1). The inertia splits into the constant density rbar, solved for
    directly, and (rho - rbar)/dt times a lagged velocity on the
    right-hand side: v + (dt/dt_prev)(v - w_prev), extrapolated from the
    previous velocity w_prev that a step of dt_prev led from (w_prev = v
    on step 1, which lags v itself). The time loop passes the midrange
    of the initial density as rbar, so that the lagged inertia stays
    stable, |rho - rbar| < rbar, and the solver is built once per run.
    `faces` are the face densities (ru, rv), `DensityState.faces` in the
    time loop. Each component is solved in its own orientation (u on the
    grid, v on its transpose) by the same code.
    """
    g = w.grid
    ru, rv = faces
    out = MacVelocity.zeros(g)
    views = zip((g, g.T), (ru, rv.T), (w.v, w.u.T), (p_hat, p_hat.T),
                *(_normals(f) for f in (w, elastic_force(d, glp), force_ext,
                                        w_prev, out)))
    for gk, r, v, p, u, fel, force, u_prev, x in views:
        rhs = _momentum_rhs(r, u, _upwind_advection(u, v, gk), fel, force,
                            dt)
        grad = np.subtract(p[1:], p[:-1])
        grad /= gk.hx
        rhs -= grad
        # on the whole arrays, which keep their layout in either orientation
        x_hat = u + dt / dt_prev * (u - u_prev)
        x[1:-1] = _face_solve(gk, r[1:-1], rhs, rbar, dt, params,
                              x_hat[1:-1])
    return out


def _momentum_rhs(r: np.ndarray, u: np.ndarray, adv: np.ndarray,
                  fel: np.ndarray, force: np.ndarray,
                  dt: float) -> np.ndarray:
    """r/dt*u - r*adv + fel + r*force on the interior u-faces, from the
    face arrays and the interior advection, in place: the operations of
    the plain expression in the same order, so the same bits. `adv` is
    overwritten."""
    r = r[1:-1]
    rhs = np.divide(r, dt)
    rhs *= u[1:-1]
    adv *= r
    rhs -= adv
    rhs += fel[1:-1]
    np.multiply(r, force[1:-1], out=adv)
    rhs += adv
    return rhs


def project(faces: tuple[np.ndarray, np.ndarray], v_star: MacVelocity,
            dt: float, params: FlowParams, p_hat: np.ndarray | float = 0.0
            ) -> tuple[MacVelocity, np.ndarray]:
    """Incremental pressure correction with a constant coefficient
    (Guermond & Salgado, J. Comput. Phys. 228, 2009). With c0 = max
    1/rho_f over the interior faces, the pressure's increment delta solves
    -c0 Lap delta = -div(v*)/dt with zero-Neumann walls and zero mean. One
    direct solve gives its potential phi = c0 dt delta, from
    -Lap phi = -div v*; then v' = v* - grad phi, whose discrete divergence
    is zero to round-off, and the pressure q = p_hat + phi/(c0 dt). p_hat
    is the pressure whose gradient the predictor carried: the state's
    pressure in the time loop, and 0 by default, as in the initial
    projection, where q = delta. For constant rho, c0 = 1/rho and the
    correction is the exact projection. v' does not depend on p_hat.
    Raises LinearSolveFailure if ||div v'||_inf exceeds tol_proj; v' keeps
    that norm as `div_inf`. `faces` are the face densities (ru, rv).
    """
    g = v_star.grid
    ru, rv = faces
    c0 = 1.0 / min(float(ru[1:-1, :].min()), float(rv[:, 1:-1].min()))

    rhs = -divergence(v_star)
    mean_rhs = float(rhs.mean())
    # compatibility: the divergence of a no-slip MAC field telescopes to
    # zero, so the mean can only be velocity-scale round-off
    scale = max(v_star.max_speed()) / min(g.hx, g.hy)
    if abs(mean_rhs) > 1e-10 * scale + 1e-300:
        raise IncompatibleRhs(
            f"pressure rhs mean {mean_rhs:.3e} exceeds round-off "
            f"(scale {scale:.3e}); boundary fluxes are broken")

    phi = cached_solver(NeumannPoisson, g).solve(rhs)
    phi -= phi.mean()

    # v* - grad phi on the interior faces; the wall faces are no-slip
    out = MacVelocity.zeros(g)
    interior_gradient(phi, g, out.u[1:-1, :], out.v[:, 1:-1])
    for corr, vs in zip(_normals(out), _normals(v_star)):
        np.subtract(vs[1:-1], corr[1:-1], out=corr[1:-1])

    div_inf = out.div_inf
    if not div_inf <= params.tol_proj:
        raise LinearSolveFailure(
            f"projected velocity has ||div v||_inf = {div_inf:.3e} above "
            f"tol_proj = {params.tol_proj:.3e}")
    q = phi / (c0 * dt)
    q += p_hat
    return out, q
