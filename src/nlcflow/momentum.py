"""Variable-density momentum predictor with the director elastic stress in
reduced form, and the pressure projection. Each is split into one
constant-coefficient direct solve and a lagged variable-coefficient term
(Dodd & Ferrante, J. Comput. Phys. 273, 2014).

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
from .solvers import (FaceHelmholtz, NeumannPoisson, combine_rows,
                      gram_coefficients, row_products)


@dataclass(frozen=True)
class FlowParams:
    """Viscosity and the bound that `project` guarantees on
    ||div v'||_inf. The elastic coupling lambda is `GLParams.lam`."""

    nu: float = 1.0
    tol_proj: float = 1e-8

    def __post_init__(self):
        if self.nu <= 0 or self.tol_proj <= 0:
            raise ValueError("nu and tol_proj must be positive")


# solutions kept: the predictor lags the A-norm projection onto its last
# six
_SOLVE_HISTORY = 6


class SolveHistory:
    """The last `_SOLVE_HISTORY` predictor solutions v* of a run, stacked
    in one ring of (K, ...) arrays per velocity component, with the part
    of their Gram matrix that does not depend on the density: per
    component the K x K matrix S = X (nu*L X)^T, S_ij = x_i . nu*L x_j.
    The predictor hands `push` each nu*L x from the equation it has just
    solved, so no stencil is applied to a solution; `velocity_guess` forms
    the Gram matrix for the current density with one BLAS product. `push`
    writes slot (pushes so far) mod K of its ring in place, so the slots
    are not in time order once the ring is full; the projection onto them
    does not depend on their order but for round-off. Each ring and its S
    are allocated at its first push."""

    def __init__(self):
        self.u = None     # u* on the interior u-faces, (K, nx-1, ny)
        self.s_u = None   # S of the u ring, (K, K)
        self.v = None     # v* on the interior v-faces, (K, nx, ny-1)
        self.s_v = None
        self._pushed = [0, 0]  # components pushed onto each ring
        self._work = None  # (rho_f/dt) x_k of a ring

    @property
    def count(self) -> int:
        """Number of solutions v* pushed whole (both components)."""
        return min(self._pushed)

    @count.setter
    def count(self, n: int) -> None:
        self._pushed = [n, n]

    @property
    def filled(self) -> int:
        """Number of slots holding a solution."""
        return min(self.count, _SOLVE_HISTORY)

    def ring(self, axis: int) -> tuple[np.ndarray, np.ndarray]:
        """The ring of one component (axis 0 for u, 1 for v) and its S."""
        return (self.u, self.s_u) if axis == 0 else (self.v, self.s_v)

    def restore(self, axis: int, xs: np.ndarray, s: np.ndarray) -> None:
        """Set one component's filled slots, in slot order, and their S,
        as `push` left them."""
        k = _SOLVE_HISTORY
        ring, gram = np.zeros((k, *xs.shape[1:])), np.zeros((k, k))
        ring[:len(xs)], gram[:len(xs), :len(xs)] = xs, s
        if axis == 0:
            self.u, self.s_u = ring, gram
        else:
            self.v, self.s_v = ring, gram
        if self._work is None or self._work.size < ring.size:
            self._work = np.empty(ring.size)

    def push(self, axis: int, x: np.ndarray, nu_lap: np.ndarray) -> int:
        """Keep one component's solution x with nu*L x, overwriting the
        oldest once the ring is full, and return its slot. Row and column
        slot of S become X . nu*L x (L is symmetric), one `row_products`
        call."""
        if self.ring(axis)[0] is None:
            self.restore(axis, np.empty((0, *x.shape)), np.empty((0, 0)))
        ring, s = self.ring(axis)
        pushed = self._pushed[axis]
        n = pushed % _SOLVE_HISTORY
        ring[n] = x
        m = min(pushed + 1, _SOLVE_HISTORY)
        s[n, :m] = s[:m, n] = row_products(ring[:m], nu_lap[None])[:, 0]
        self._pushed[axis] += 1
        return n

    def velocity_guess(self, axis: int, rhs: np.ndarray, diag: np.ndarray
                       ) -> np.ndarray:
        """The A-norm projection x0 = sum c_k x_k of the solution of
        (diag - nu*L) x = rhs onto the kept solutions of one velocity
        component (Fischer, Comput. Methods Appl. Mech. Engrg. 163, 1998):
        G c = f with G = X (diag*X)^T - S and f = X . rhs."""
        xs, s = self.ring(axis)
        k = min(self._pushed[axis], _SOLVE_HISTORY)
        xs = xs[:k]
        axs = self._work[:k * rhs.size].reshape(xs.shape)
        np.multiply(xs, diag, out=axs)
        gram = row_products(xs, axs)
        gram -= s[:k, :k]
        f = row_products(xs, rhs[None])[:, 0]
        return combine_rows(gram_coefficients(gram, f), xs)


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
                history: SolveHistory | None,
                w_face: np.ndarray) -> np.ndarray:
    """(rho_f/dt - nu*Lap) x = rhs on one component's interior faces, by
    the density split of Dodd & Ferrante (J. Comput. Phys. 273, 2014): one
    direct solve of (rbar/dt - nu*Lap) x = rhs - (rho_f - rbar)/dt * x_hat.
    The lagged x_hat is the A-norm projection onto the kept solutions in
    `history`, or the old velocity `w_face` without any. With a history,
    x is pushed onto it with nu*L x = (rbar/dt) x - b, b the right-hand
    side solved for. Raises LinearSolveFailure on a non-finite right-hand
    side."""
    x_hat = w_face
    if history is not None and history.count:
        x_hat = history.velocity_guess(axis, rhs, rho_f / dt)
    b = np.subtract(rho_f, rbar)
    b /= dt
    b *= x_hat
    np.subtract(rhs, b, out=b)
    if not np.isfinite(b).all():
        raise LinearSolveFailure(
            f"the momentum predictor got a non-finite right-hand side "
            f"(axis {axis})")
    x = _face_pre(g, rbar / dt, params.nu, axis).solve(b)
    if history is not None:
        # b becomes nu*L x
        np.subtract(np.multiply(x, rbar / dt), b, out=b)
        history.push(axis, x, b)
    return x


def predict_velocity(rho: ScalarField, w: MacVelocity, d: DirectorField,
                     force_ext: MacVelocity | None, params: FlowParams,
                     glp: GLParams, dt: float,
                     history: SolveHistory | None = None) -> MacVelocity:
    """Implicit-viscosity momentum predictor: per component
    (rho/dt - nu*Lap) v* = rho/dt*v - rho*(v.grad v) + elastic + rho*g,
    with no-slip walls; advection is donor-cell upwind in advective form.
    The inertia splits into the mean density rbar, solved for directly,
    and (rho - rbar)/dt times a lagged velocity on the right-hand side:
    the A-norm projection onto the kept solutions in `history`, or v
    without any (step 1, an O(dt) splitting error). With a history, v* is
    then pushed onto it. The face densities are `rho.faces`.
    """
    g = rho.grid
    ru, rv = rho.faces
    fel = elastic_force(d, glp)
    rhs_u = _momentum_rhs(ru, w.u, _upwind_advection_u(w), fel.u,
                          None if force_ext is None else force_ext.u, dt)
    rhs_v = _momentum_rhs(rv, w.v, _upwind_advection_v(w), fel.v,
                          None if force_ext is None else force_ext.v, dt)

    rbar = float(rho.values.mean())
    out = MacVelocity.zeros(g)
    out.u[1:-1, :] = _face_solve(g, 0, ru[1:-1, :], rhs_u[1:-1, :], rbar,
                                 dt, params, history, w.u[1:-1, :])
    out.v[:, 1:-1] = _face_solve(g, 1, rv[:, 1:-1],
                                 np.ascontiguousarray(rhs_v[:, 1:-1]), rbar,
                                 dt, params, history, w.v[:, 1:-1])
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


class _NegDivKGrad:
    """x -> -div(k grad x) on cells with zero-Neumann walls, for k given on
    the interior faces. Writes into buffers allocated once per instance, so
    the returned array and the fluxes are overwritten by the next call."""

    def __init__(self, grid: GridSpec):
        self._g = grid
        self._gu = np.zeros((grid.nx + 1, grid.ny))  # wall faces stay zero
        self._gv = np.zeros((grid.nx, grid.ny + 1))
        # k grad x on the interior faces, of the last call
        self.flux_u, self.flux_v = self._gu[1:-1, :], self._gv[:, 1:-1]
        self._out = np.empty((grid.nx, grid.ny))
        self._dv = np.empty((grid.nx, grid.ny))

    def __call__(self, k_u: np.ndarray, k_v: np.ndarray,
                 x: np.ndarray) -> np.ndarray:
        g, gu, gv, out = self._g, self._gu, self._gv, self._out
        interior_gradient(x, g, self.flux_u, self.flux_v)
        self.flux_u *= k_u
        self.flux_v *= k_v
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
    """The projection's Poisson solver and the operator of its lagged
    term, built once per grid and re-targeted by each call; their buffers
    are shared by its calls."""
    return NeumannPoisson(grid), _NegDivKGrad(grid)


def project(rho: ScalarField, v_star: MacVelocity, dt: float,
            params: FlowParams, p_hat: np.ndarray | None = None
            ) -> tuple[MacVelocity, ScalarField]:
    """Variable-density pressure correction by the constant-coefficient
    split of Dodd & Ferrante (J. Comput. Phys. 273, 2014). With
    k = 1/rho_f on the interior faces and c0 = max k, the correction
    (dt/rho_f) grad p is replaced by dt [c0 grad q + (k - c0) grad p_hat],
    where p_hat is a pressure estimate: the previous step's pressure in
    the time loop. One direct solve of
    -c0 Lap q = -div(v*)/dt + div((k - c0) grad p_hat)
    with zero-Neumann walls and zero mean gives
    v' = v* - dt [c0 grad q + (k - c0) grad p_hat], whose discrete
    divergence is zero to round-off; q is returned as the pressure.
    Without p_hat (step 1, the initial projection) the lagged term is
    absent, and with constant rho it vanishes identically, k = c0: both
    are the exact constant-coefficient projection. Raises
    LinearSolveFailure if ||div v'||_inf exceeds tol_proj; v' keeps that
    norm as `div_inf`. The face densities are `rho.faces`.
    """
    g = rho.grid
    ru, rv = rho.faces
    k_u, k_v = 1.0 / ru[1:-1, :], 1.0 / rv[:, 1:-1]
    c0 = max(float(k_u.max()), float(k_v.max()))

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

    neumann_poisson, lagged = _projection_ops(g)
    neumann_poisson.set_scale(c0)
    if p_hat is not None:
        # leaves (k - c0) grad p_hat in lagged.flux_u, flux_v
        rhs -= lagged(k_u - c0, k_v - c0, p_hat)
    q = neumann_poisson.solve(rhs)
    q -= q.mean()

    # v* - dt [c0 grad q + (k - c0) grad p_hat] on the interior faces; the
    # wall faces are no-slip
    out = MacVelocity.zeros(g)
    interior_gradient(q, g, out.u[1:-1, :], out.v[:, 1:-1])
    for corr, vs, flux in ((out.u[1:-1, :], v_star.u[1:-1, :],
                            lagged.flux_u),
                           (out.v[:, 1:-1], v_star.v[:, 1:-1],
                            lagged.flux_v)):
        corr *= c0
        if p_hat is not None:
            corr += flux
        corr *= dt
        np.subtract(vs, corr, out=corr)

    div_inf = out.div_inf
    if not div_inf <= params.tol_proj:
        raise LinearSolveFailure(
            f"projected velocity has ||div v||_inf = {div_inf:.3e} above "
            f"tol_proj = {params.tol_proj:.3e}")
    return out, ScalarField(g, q, "neumann_zero")
