"""Independent brute-force re-implementations of the update operators
(density, director, momentum predictor, pressure projection) on a 4x4 grid:
explicit Python loops and dense linear algebra, no shared code with the
production stencils beyond the data containers, and of one coupled step
composed from them. Agreement is required to 1e-12 in relative L2.

Each helper takes its grid, from its data or as an argument defaulting to
the 4x4 `GRID`; the oracles also run on a 4x5 grid with hx != hy, where a
stencil with the spacings or the axes swapped cannot pass.
"""

import dataclasses

import numpy as np
import pytest

from nlcflow.density import DensityState, advance_density
from nlcflow.director import GLParams, advance_director
from nlcflow.forcing import ForcingSpec
from nlcflow.grid import (DirectorField, DirectorTrace, GridSpec, MacVelocity,
                          ScalarField)
from nlcflow.momentum import FlowParams, predict_velocity, project
from nlcflow.runner import RunConfig, step
from nlcflow.state import SimState

GRID = GridSpec(4, 4, 1.0, 1.0)
# hx = 0.25, hy = 0.3
NON_SQUARE = GridSpec(4, 5, 1.0, 1.5)


def _trace(x, y):
    return np.cos(0.3 * (x + y)), np.sin(0.3 * (x + y))


def _setup(g=GRID):
    NX, NY, HX, HY = g.nx, g.ny, g.hx, g.hy
    xc = (np.arange(NX) + 0.5) * HX
    yc = (np.arange(NY) + 0.5) * HY
    X, Y = np.meshgrid(xc, yc, indexing="ij")
    rho = 1.5 + 0.4 * np.sin(2 * np.pi * X) * np.cos(np.pi * Y)

    u = np.zeros((NX + 1, NY))
    v = np.zeros((NX, NY + 1))
    for i in range(1, NX):
        for j in range(NY):
            u[i, j] = 0.3 * np.sin(np.pi * i * HX) * np.cos(2.1 * (j + 0.5) * HY)
    for i in range(NX):
        for j in range(1, NY):
            v[i, j] = -0.25 * np.cos(1.7 * (i + 0.5) * HX) * np.sin(np.pi * j * HY)
    w = MacVelocity(g, u, v)

    d1, d2 = _trace(X, Y)
    d1 = 0.9 * d1 + 0.05 * np.sin(3 * X * Y)
    d2 = 0.9 * d2 - 0.05 * np.cos(2 * X + Y)
    d = DirectorField(g, d1, d2, DirectorTrace.sample(g, _trace))
    return rho, w, d


def _rel_err(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)


# ---------------------------------------------------------------------------
# loop-based building blocks

def _pad_dirichlet(vals, bv_w, bv_e, bv_s, bv_n, g=GRID):
    """Ghost ring via linear extrapolation through the wall trace."""
    NX, NY, HX, HY = g.nx, g.ny, g.hx, g.hy
    p = np.zeros((NX + 2, NY + 2))
    p[1:-1, 1:-1] = vals
    for j in range(NY):
        y = (j + 0.5) * HY
        p[0, j + 1] = 2.0 * bv_w(0.0, y) - vals[0, j]
        p[-1, j + 1] = 2.0 * bv_e(g.Lx, y) - vals[-1, j]
    for i in range(NX):
        x = (i + 0.5) * HX
        p[i + 1, 0] = 2.0 * bv_s(x, 0.0) - vals[i, 0]
        p[i + 1, -1] = 2.0 * bv_n(x, g.Ly) - vals[i, -1]
    return p


def _loop_laplacian(p, g=GRID):
    """5-point Laplacian of a ghost-padded array, cell by cell."""
    NX, NY, HX, HY = g.nx, g.ny, g.hx, g.hy
    out = np.zeros((NX, NY))
    for i in range(NX):
        for j in range(NY):
            out[i, j] = (p[i + 2, j + 1] - 2 * p[i + 1, j + 1]
                         + p[i, j + 1]) / HX**2 \
                + (p[i + 1, j + 2] - 2 * p[i + 1, j + 1]
                   + p[i + 1, j]) / HY**2
    return out


def _loop_centered_grad(p, g=GRID):
    NX, NY, HX, HY = g.nx, g.ny, g.hx, g.hy
    gx = np.zeros((NX, NY))
    gy = np.zeros((NX, NY))
    for i in range(NX):
        for j in range(NY):
            gx[i, j] = (p[i + 2, j + 1] - p[i, j + 1]) / (2 * HX)
            gy[i, j] = (p[i + 1, j + 2] - p[i + 1, j]) / (2 * HY)
    return gx, gy


def _director_pads(d):
    b1 = lambda x, y: _trace(np.asarray(x), np.asarray(y))[0]
    b2 = lambda x, y: _trace(np.asarray(x), np.asarray(y))[1]
    p1 = _pad_dirichlet(d.d1, b1, b1, b1, b1, d.grid)
    p2 = _pad_dirichlet(d.d2, b2, b2, b2, b2, d.grid)
    return p1, p2


# ---------------------------------------------------------------------------
# density transport

def _oracle_advance_density(rho, w, dt):
    NX, NY, HX, HY = w.grid.nx, w.grid.ny, w.grid.hx, w.grid.hy
    fx = np.zeros((NX + 1, NY))
    fy = np.zeros((NX, NY + 1))
    for i in range(1, NX):
        for j in range(NY):
            donor = rho[i - 1, j] if w.u[i, j] > 0.0 else rho[i, j]
            fx[i, j] = w.u[i, j] * donor
    for i in range(NX):
        for j in range(1, NY):
            donor = rho[i, j - 1] if w.v[i, j] > 0.0 else rho[i, j]
            fy[i, j] = w.v[i, j] * donor
    new = rho.copy()
    for i in range(NX):
        for j in range(NY):
            new[i, j] -= dt * ((fx[i + 1, j] - fx[i, j]) / HX
                               + (fy[i, j + 1] - fy[i, j]) / HY)
    return new


def test_density_step_matches_loop_oracle(g=GRID):
    rho, w, _ = _setup(g)
    dt = 0.01
    state = DensityState.from_field(ScalarField(g, rho))
    fast = advance_density(state, w, dt).rho.values
    slow = _oracle_advance_density(rho, w, dt)
    err = _rel_err(fast, slow)
    assert err <= 1e-12, f"density oracle mismatch: {err:.3e}"


# ---------------------------------------------------------------------------
# director relaxation

def _dense_helmholtz(a, c, g=GRID):
    """Matrix of x -> a*x - c*lap0(x) with zero-Dirichlet ghosts, via the
    loop Laplacian applied to unit vectors."""
    NX, NY = g.nx, g.ny
    n = NX * NY
    A = np.zeros((n, n))
    zero_bv = lambda x, y: 0.0
    for k in range(n):
        e = np.zeros((NX, NY))
        e[k // NY, k % NY] = 1.0
        p = _pad_dirichlet(e, zero_bv, zero_bv, zero_bv, zero_bv, g)
        A[:, k] = (a * e - c * _loop_laplacian(p, g)).ravel()
    return A


def _oracle_advance_director(d, w, glp, dt):
    s = 2.0 / glp.eta**2
    a = 1.0 + glp.gamma * dt * s
    c = glp.gamma * dt
    g = d.grid
    NX, NY = g.nx, g.ny

    uc = np.zeros((NX, NY))
    vc = np.zeros((NX, NY))
    for i in range(NX):
        for j in range(NY):
            uc[i, j] = 0.5 * (w.u[i, j] + w.u[i + 1, j])
            vc[i, j] = 0.5 * (w.v[i, j] + w.v[i, j + 1])

    p1, p2 = _director_pads(d)
    g1x, g1y = _loop_centered_grad(p1, g)
    g2x, g2y = _loop_centered_grad(p2, g)
    adv1 = uc * g1x + vc * g1y
    adv2 = uc * g2x + vc * g2y

    fac = (d.d1**2 + d.d2**2 - 1.0) / glp.eta**2
    f1, f2 = fac * d.d1, fac * d.d2

    # Laplacian load of the trace alone: zero interior, trace ghosts
    zero = np.zeros((NX, NY))
    zd = DirectorField(g, zero, zero, DirectorTrace.sample(g, _trace))
    q1, q2 = _director_pads(zd)
    bc1 = _loop_laplacian(q1, g)
    bc2 = _loop_laplacian(q2, g)

    rhs1 = d.d1 - dt * adv1 - c * (f1 - s * d.d1) + c * bc1
    rhs2 = d.d2 - dt * adv2 - c * (f2 - s * d.d2) + c * bc2

    A = _dense_helmholtz(a, c, g)
    n1 = np.linalg.solve(A, rhs1.ravel()).reshape(NX, NY)
    n2 = np.linalg.solve(A, rhs2.ravel()).reshape(NX, NY)
    return n1, n2


def test_director_step_matches_dense_oracle(g=GRID):
    _, w, d = _setup(g)
    glp = GLParams(gamma=1.3, eta=0.5, lam=0.8)
    dt = 0.004
    fast = advance_director(d, w, glp, dt)
    o1, o2 = _oracle_advance_director(d, w, glp, dt)
    err = max(_rel_err(fast.d1, o1), _rel_err(fast.d2, o2))
    assert err <= 1e-12, f"director oracle mismatch: {err:.3e}"


# ---------------------------------------------------------------------------
# momentum predictor

def _faces_rho(rho):
    NX, NY = rho.shape
    ru = np.zeros((NX + 1, NY))
    rv = np.zeros((NX, NY + 1))
    for j in range(NY):
        ru[0, j] = rho[0, j]
        ru[NX, j] = rho[-1, j]
        for i in range(1, NX):
            ru[i, j] = 0.5 * (rho[i - 1, j] + rho[i, j])
    for i in range(NX):
        rv[i, 0] = rho[i, 0]
        rv[i, NY] = rho[i, -1]
        for j in range(1, NY):
            rv[i, j] = 0.5 * (rho[i, j - 1] + rho[i, j])
    return ru, rv


def _oracle_elastic_force(d, glp):
    g = d.grid
    NX, NY = g.nx, g.ny
    p1, p2 = _director_pads(d)
    fac = (d.d1**2 + d.d2**2 - 1.0) / glp.eta**2
    r1 = _loop_laplacian(p1, g) - fac * d.d1
    r2 = _loop_laplacian(p2, g) - fac * d.d2
    g1x, g1y = _loop_centered_grad(p1, g)
    g2x, g2y = _loop_centered_grad(p2, g)
    fx = -glp.lam * (r1 * g1x + r2 * g2x)
    fy = -glp.lam * (r1 * g1y + r2 * g2y)
    fu = np.zeros((NX + 1, NY))
    fv = np.zeros((NX, NY + 1))
    for i in range(1, NX):
        for j in range(NY):
            fu[i, j] = 0.5 * (fx[i - 1, j] + fx[i, j])
    for i in range(NX):
        for j in range(1, NY):
            fv[i, j] = 0.5 * (fy[i, j - 1] + fy[i, j])
    return fu, fv


def _oracle_adv_u(w):
    NX, NY, HX, HY = w.grid.nx, w.grid.ny, w.grid.hx, w.grid.hy
    u, v = w.u, w.v
    adv = np.zeros((NX + 1, NY))
    for i in range(1, NX):
        for j in range(NY):
            uij = u[i, j]
            dudx = (uij - u[i - 1, j]) / HX if uij > 0 \
                else (u[i + 1, j] - uij) / HX
            vbar = 0.25 * (v[i, j] + v[i, j + 1]
                           + v[i - 1, j] + v[i - 1, j + 1])
            below = u[i, j - 1] if j > 0 else -u[i, 0]
            above = u[i, j + 1] if j < NY - 1 else -u[i, NY - 1]
            dudy = (uij - below) / HY if vbar > 0 else (above - uij) / HY
            adv[i, j] = uij * dudx + vbar * dudy
    return adv


def _oracle_adv_v(w):
    NX, NY, HX, HY = w.grid.nx, w.grid.ny, w.grid.hx, w.grid.hy
    u, v = w.u, w.v
    adv = np.zeros((NX, NY + 1))
    for i in range(NX):
        for j in range(1, NY):
            vij = v[i, j]
            dvdy = (vij - v[i, j - 1]) / HY if vij > 0 \
                else (v[i, j + 1] - vij) / HY
            ubar = 0.25 * (u[i, j] + u[i, j - 1]
                           + u[i + 1, j] + u[i + 1, j - 1])
            left = v[i - 1, j] if i > 0 else -v[0, j]
            right = v[i + 1, j] if i < NX - 1 else -v[NX - 1, j]
            dvdx = (vij - left) / HX if ubar > 0 else (right - vij) / HX
            adv[i, j] = ubar * dvdx + vij * dvdy
    return adv


def _dense_u_operator(ru, nu, dt, g=GRID):
    """Matrix of x -> (ru/dt) x - nu lap(x) on interior u-faces; zero walls
    in x, reflected (odd) ghosts in y."""
    NX, NY, HX, HY = g.nx, g.ny, g.hx, g.hy
    m = (NX - 1) * NY
    A = np.zeros((m, m))
    for k in range(m):
        e = np.zeros((NX - 1, NY))
        e[k // NY, k % NY] = 1.0
        p = np.zeros((NX + 1, NY + 2))
        p[1:-1, 1:-1] = e
        for i in range(1, NX):
            p[i, 0] = -e[i - 1, 0]
            p[i, -1] = -e[i - 1, -1]
        lap = np.zeros((NX - 1, NY))
        for i in range(1, NX):
            for j in range(NY):
                lap[i - 1, j] = (p[i + 1, j + 1] - 2 * p[i, j + 1]
                                 + p[i - 1, j + 1]) / HX**2 \
                    + (p[i, j + 2] - 2 * p[i, j + 1] + p[i, j]) / HY**2
        A[:, k] = (ru[1:-1, :] / dt * e - nu * lap).ravel()
    return A


def _dense_v_operator(rv, nu, dt, g=GRID):
    NX, NY, HX, HY = g.nx, g.ny, g.hx, g.hy
    m = NX * (NY - 1)
    A = np.zeros((m, m))
    for k in range(m):
        e = np.zeros((NX, NY - 1))
        e[k // (NY - 1), k % (NY - 1)] = 1.0
        p = np.zeros((NX + 2, NY + 1))
        p[1:-1, 1:-1] = e
        for j in range(1, NY):
            p[0, j] = -e[0, j - 1]
            p[-1, j] = -e[-1, j - 1]
        lap = np.zeros((NX, NY - 1))
        for i in range(NX):
            for j in range(1, NY):
                lap[i, j - 1] = (p[i + 2, j] - 2 * p[i + 1, j]
                                 + p[i, j]) / HX**2 \
                    + (p[i + 1, j + 1] - 2 * p[i + 1, j]
                       + p[i + 1, j - 1]) / HY**2
        A[:, k] = (rv[:, 1:-1] / dt * e - nu * lap).ravel()
    return A


def _loop_face_gradient(p, g=GRID):
    """Gradient of cell values on the interior faces, face by face."""
    NX, NY, HX, HY = g.nx, g.ny, g.hx, g.hy
    gu = np.zeros((NX + 1, NY))
    gv = np.zeros((NX, NY + 1))
    for i in range(1, NX):
        for j in range(NY):
            gu[i, j] = (p[i, j] - p[i - 1, j]) / HX
    for i in range(NX):
        for j in range(1, NY):
            gv[i, j] = (p[i, j] - p[i, j - 1]) / HY
    return gu, gv


def _oracle_predict_velocity(rho, w, d, g_ext, flow, glp, dt, rbar,
                             p_hat=None, w_prev=None, dt_prev=None):
    """The predictor with its inertia split: per component, with
    A = rho_f/dt - nu*Lap, M = rbar/dt - nu*Lap and N = A - M, solve
    M v* = rhs - N v_hat, where rhs carries -grad p_hat when p_hat is
    given, and v_hat is w + (dt/dt_prev)(w - w_prev), or w without
    w_prev. Returns v* with its wall faces, and the interior parts."""
    g = w.grid
    NX, NY = g.nx, g.ny
    ru, rv = _faces_rho(rho)
    fu, fv = _oracle_elastic_force(d, glp)
    adv_u = _oracle_adv_u(w)
    adv_v = _oracle_adv_v(w)

    rhs_u = ru / dt * w.u - ru * adv_u + fu
    rhs_v = rv / dt * w.v - rv * adv_v + fv
    if g_ext is not None:
        rhs_u += ru * g_ext.u
        rhs_v += rv * g_ext.v
    if p_hat is not None:
        gu, gv = _loop_face_gradient(p_hat, g)
        rhs_u -= gu
        rhs_v -= gv

    lag_u, lag_v = w.u, w.v
    if w_prev is not None:
        lag_u = w.u + dt / dt_prev * (w.u - w_prev.u)
        lag_v = w.v + dt / dt_prev * (w.v - w_prev.v)
    parts = []
    for r, rhs, lag, dense in (
            (ru, rhs_u[1:-1, :], lag_u[1:-1, :], _dense_u_operator),
            (rv, rhs_v[:, 1:-1], lag_v[:, 1:-1], _dense_v_operator)):
        A = dense(r, flow.nu, dt, g)
        M = dense(np.full_like(r, rbar), flow.nu, dt, g)
        parts.append(np.linalg.solve(M, rhs.ravel() - (A - M) @ lag.ravel())
                     .reshape(rhs.shape))

    u = np.zeros((NX + 1, NY))
    v = np.zeros((NX, NY + 1))
    u[1:-1, :], v[:, 1:-1] = parts
    return u, v, parts


def _previous_velocity(w, seed):
    """A velocity near w with zero wall faces, as v^{n-1}."""
    rng = np.random.default_rng(seed)
    u, v = 0.8 * w.u, 0.8 * w.v
    u[1:-1, :] += 0.05 * rng.normal(size=u[1:-1, :].shape)
    v[:, 1:-1] += 0.05 * rng.normal(size=v[:, 1:-1].shape)
    return MacVelocity(w.grid, u, v)


def _cell_pressure(seed, g=GRID):
    p = np.random.default_rng(seed).normal(size=(g.nx, g.ny))
    return p - p.mean()


def _cold_lag(w, dt):
    """The predictor's arguments on a run's step 1: the zero pressure, and
    w as its own previous velocity."""
    g = w.grid
    return dict(p_hat=np.zeros((g.nx, g.ny)), w_prev=w, dt_prev=dt)


def test_momentum_predictor_matches_dense_oracle(g=GRID):
    # the step-1 predictor, split at the midrange of the cell density, and
    # one that carries a pressure gradient and extrapolates its lag over a
    # step half as long as this one, with another split density
    rho, w, d = _setup(g)
    glp = GLParams(gamma=1.0, eta=0.5, lam=0.8)
    flow = FlowParams(nu=0.7)
    dt = 0.004
    g_ext = MacVelocity(g, 0.1 * np.ones((g.nx + 1, g.ny)),
                        -0.05 * np.ones((g.nx, g.ny + 1)))

    rho_f = ScalarField(g, rho)
    cold = dict(rbar=0.5 * (rho.min() + rho.max()))
    lagged = dict(p_hat=_cell_pressure(31, g),
                  w_prev=_previous_velocity(w, 32), dt_prev=0.5 * dt,
                  rbar=1.6)
    # step 1 carries the zero pressure and lags w itself, which the oracle
    # takes without p_hat and w_prev
    for kw, fast_kw in ((cold, dict(cold, **_cold_lag(w, dt))),
                        (lagged, lagged)):
        fast = predict_velocity(rho_f, w, d, g_ext, flow, glp, dt, **fast_kw)
        ou, ov, _ = _oracle_predict_velocity(rho, w, d, g_ext, flow, glp,
                                             dt, **kw)
        err = max(_rel_err(fast.u, ou), _rel_err(fast.v, ov))
        assert err <= 1e-12, f"momentum oracle mismatch: {err:.3e}"


def test_oracle_agreement_without_external_force():
    rho, w, d = _setup()
    glp = GLParams(gamma=1.0, eta=0.4, lam=1.2)
    flow = FlowParams(nu=1.3)
    dt = 0.002
    rbar = 0.5 * (rho.min() + rho.max())
    rho_f = ScalarField(GRID, rho)
    fast = predict_velocity(rho_f, w, d, MacVelocity.zeros(GRID), flow, glp,
                            dt, rbar=rbar, **_cold_lag(w, dt))
    ou, ov, _ = _oracle_predict_velocity(rho, w, d, None, flow, glp, dt,
                                         rbar)
    err = max(_rel_err(fast.u, ou), _rel_err(fast.v, ov))
    assert err <= 1e-12, f"momentum oracle mismatch: {err:.3e}"


# ---------------------------------------------------------------------------
# pressure projection (the increment, with a constant coefficient)

def _face_index(g=GRID):
    """Unknown numbers of the interior faces: u-faces (i, j), i = 1..NX-1,
    then v-faces (i, j), j = 1..NY-1."""
    NX, NY = g.nx, g.ny
    u = {(i, j): k for k, (i, j) in enumerate(
        (i, j) for i in range(1, NX) for j in range(NY))}
    v = {(i, j): len(u) + k for k, (i, j) in enumerate(
        (i, j) for i in range(NX) for j in range(1, NY))}
    return u, v


def _dense_div_grad(g=GRID):
    """D: interior face values -> cell divergence (wall faces are zero);
    G: cell values -> gradient on the interior faces."""
    NX, NY, HX, HY = g.nx, g.ny, g.hx, g.hy
    iu, iv = _face_index(g)
    nf, nc = len(iu) + len(iv), NX * NY
    D = np.zeros((nc, nf))
    G = np.zeros((nf, nc))
    for i in range(NX):
        for j in range(NY):
            c = i * NY + j
            for (fi, sign) in (((i + 1, j), 1.0), ((i, j), -1.0)):
                if fi in iu:
                    D[c, iu[fi]] += sign / HX
            for (fj, sign) in (((i, j + 1), 1.0), ((i, j), -1.0)):
                if fj in iv:
                    D[c, iv[fj]] += sign / HY
    for (i, j), f in iu.items():
        G[f, i * NY + j] += 1.0 / HX
        G[f, (i - 1) * NY + j] -= 1.0 / HX
    for (i, j), f in iv.items():
        G[f, i * NY + j] += 1.0 / HY
        G[f, i * NY + j - 1] -= 1.0 / HY
    return D, G


def _oracle_project(rho, w, dt, p_hat):
    """v' = v* - dt c0 G delta with D v' = 0 and delta of zero mean, for
    c0 = max 1/rho_f over the interior faces; the pressure is
    p_hat + delta."""
    g = w.grid
    NX, NY = g.nx, g.ny
    iu, iv = _face_index(g)
    ru, rv = _faces_rho(rho)
    k = np.zeros(len(iu) + len(iv))
    vs = np.zeros_like(k)
    for (i, j), f in iu.items():
        k[f], vs[f] = 1.0 / ru[i, j], w.u[i, j]
    for (i, j), f in iv.items():
        k[f], vs[f] = 1.0 / rv[i, j], w.v[i, j]
    c0 = k.max()
    D, G = _dense_div_grad(g)
    # c0 D G delta = D v*/dt; D G is singular (constants), and the
    # least-squares solution of least norm is the one of zero mean
    delta = np.linalg.lstsq(c0 * D @ G, D @ vs / dt, rcond=None)[0]
    out = vs - dt * c0 * (G @ delta)
    u = np.zeros((NX + 1, NY))
    v = np.zeros((NX, NY + 1))
    for (i, j), f in iu.items():
        u[i, j] = out[f]
    for (i, j), f in iv.items():
        v[i, j] = out[f]
    return u, v, p_hat + delta.reshape(NX, NY)


def test_projection_matches_dense_oracle(g=GRID):
    rho, w, _ = _setup(g)
    dt = 0.004
    rho_f = ScalarField(g, rho)
    for p_hat in (0.0, _cell_pressure(23, g)):
        fast, q = project(rho_f, w, dt, FlowParams(), p_hat=p_hat)
        ou, ov, oq = _oracle_project(rho, w, dt, p_hat)
        err = max(_rel_err(fast.u, ou), _rel_err(fast.v, ov),
                  _rel_err(q.values, oq))
        assert err <= 1e-12, f"projection oracle mismatch: {err:.3e}"


# ---------------------------------------------------------------------------
# one coupled step, composed from the oracles above in the README's order:
# rho^{n+1} and d^{n+1} from v^n; the predictor with rho^{n+1}, d^{n+1}, v^n,
# g(t^n + dt/2), the state's pressure p_hat and the lag extrapolated from
# v^{n-1}; the projection for the pressure's increment over p_hat

def _ax(x, y):
    return 0.3 * np.sin(np.pi * x) * np.cos(np.pi * y)


def _ay(x, y):
    return -0.2 * np.cos(np.pi * x) * np.sin(np.pi * y)


_F2 = ForcingSpec(variant="f2", ax="0.3*sin(pi*x)*cos(pi*y)",
                  ay="-0.2*cos(pi*x)*sin(pi*y)", xi=1.0, amplitude=1.5)


def _step_config(g=GRID):
    return RunConfig(nx=g.nx, ny=g.ny, Lx=g.Lx, Ly=g.Ly, nu=0.7, lam=0.8,
                     gamma=1.3, eta=0.5, dt=0.004, t_end=1.0, forcing=_F2)


def _oracle_force(t, g=GRID):
    """The f2 force at time t on the interior faces; zero on the walls."""
    NX, NY, HX, HY = g.nx, g.ny, g.hx, g.hy
    s = _F2.amplitude * (1.0 + t) ** (-(2.0 + _F2.xi) / 2.0)
    u = np.zeros((NX + 1, NY))
    v = np.zeros((NX, NY + 1))
    for i in range(1, NX):
        for j in range(NY):
            u[i, j] = s * _ax(i * HX, (j + 0.5) * HY)
    for i in range(NX):
        for j in range(1, NY):
            v[i, j] = s * _ay((i + 0.5) * HX, j * HY)
    return MacVelocity(g, u, v)


def _oracle_step(state, cfg, dt, rbar, w_prev=None, dt_prev=None):
    """(rho, d1, d2, u, v, q) after one step of length dt from `state`,
    whose predictor splits its inertia at rbar and extrapolates its lag
    from w_prev, a step of dt_prev before, if given."""
    glp = cfg.glp
    w = state.v
    g = w.grid
    rho = _oracle_advance_density(state.rho.values, w, dt)
    n1, n2 = _oracle_advance_director(state.d, w, glp, dt)
    d = DirectorField(g, n1, n2, state.d.trace)
    p_hat = None if state.pressure is None else state.pressure.values
    us, vs, _ = _oracle_predict_velocity(
        rho, w, d, _oracle_force(state.t + 0.5 * dt, g), cfg.flow, glp, dt,
        rbar, p_hat, w_prev, dt_prev)
    u, v, q = _oracle_project(rho, MacVelocity(g, us, vs), dt,
                              np.zeros((g.nx, g.ny)) if p_hat is None
                              else p_hat)
    return rho, n1, n2, u, v, q


def _start_state(g=GRID):
    """The start state of `_step_config`, with the zero pressure and its
    velocity as its own previous one, as `initial_state` starts a run, and
    the midrange of its density: the split density of a run from it."""
    rho, w, d = _setup(g)
    return SimState(t=0.0, density=DensityState.from_field(
        ScalarField(g, rho)), v=w, d=d,
        pressure=ScalarField(g, np.zeros((g.nx, g.ny))),
        v_prev=w, dt=_step_config(g).dt), 0.5 * (rho.min() + rho.max())


def _assert_step_matches(fast, slow):
    got = (fast.rho.values, fast.d.d1, fast.d.d2, fast.v.u, fast.v.v,
           fast.pressure.values)
    err = max(_rel_err(a, b) for a, b in zip(got, slow))
    assert err <= 1e-12, f"step oracle mismatch: {err:.3e}"


def _oracle_state(state, slow, dt):
    rho, n1, n2, u, v, q = slow
    g = state.v.grid
    return SimState(
        t=state.t + dt,
        density=DensityState.from_field(ScalarField(g, rho)),
        v=MacVelocity(g, u, v),
        d=DirectorField(g, n1, n2, state.d.trace),
        pressure=ScalarField(g, q), v_prev=state.v, dt=dt)


def test_three_cold_steps_match_the_step_oracle(g=GRID):
    # Each step starts from a state whose previous velocity is its own, so
    # the predictor lags the old velocity. Step 1 carries the zero
    # pressure, steps 2 and 3 the previous one; the oracle runs its own
    # chain of states, split at the start's midrange density throughout.
    cfg = _step_config(g)
    start, rbar = _start_state(g)
    fast = slow = start
    for _ in range(3):
        fast = step(dataclasses.replace(fast, v_prev=fast.v), cfg)
        result = _oracle_step(slow, cfg, cfg.dt, rbar)
        _assert_step_matches(fast, result)
        slow = _oracle_state(slow, result, cfg.dt)


def test_step_2_extrapolates_the_lag_and_matches_the_step_oracle(g=GRID):
    # step 2 of a run lags v^1 + (dt/dt_1)(v^1 - v^0) and carries step 1's
    # pressure. The run ends at 1.5 dt, so step 2 is half as long as step
    # 1 and the extrapolation's ratio is 1/2; the oracle chains its own
    # two steps.
    cfg = dataclasses.replace(_step_config(g), t_end=0.006)
    start, rbar = _start_state(g)
    fast = step(start, cfg)
    slow = _oracle_step(start, cfg, cfg.dt, rbar)
    _assert_step_matches(fast, slow)
    assert fast.v_prev is start.v and fast.dt == cfg.dt
    fast = step(fast, cfg)
    dt2 = cfg.t_end - cfg.dt
    assert dt2 == pytest.approx(0.5 * cfg.dt)
    _assert_step_matches(fast, _oracle_step(
        _oracle_state(start, slow, cfg.dt), cfg, dt2, rbar,
        w_prev=start.v, dt_prev=cfg.dt))


# ---------------------------------------------------------------------------
# the same oracles on a grid that is not square in cells or in spacing: a
# stencil with hx and hy, or the axes, swapped passes on the 4x4 grid but
# not here

def _coupled_steps(g):
    test_three_cold_steps_match_the_step_oracle(g)
    test_step_2_extrapolates_the_lag_and_matches_the_step_oracle(g)


@pytest.mark.parametrize("oracle_test", [
    test_density_step_matches_loop_oracle,
    test_director_step_matches_dense_oracle,
    test_momentum_predictor_matches_dense_oracle,
    test_projection_matches_dense_oracle,
    _coupled_steps,
], ids=["density", "director", "predictor", "projection", "step"])
def test_oracles_hold_on_a_4x5_grid(oracle_test):
    oracle_test(NON_SQUARE)
