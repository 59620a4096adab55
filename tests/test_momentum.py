from functools import lru_cache

import numpy as np
import pytest

from nlcflow import momentum, solvers
from nlcflow.density import DensityState
from nlcflow.director import GLParams
from nlcflow.errors import LinearSolveFailure
from nlcflow.grid import (DirectorField, DirectorTrace, GridSpec, MacVelocity,
                          density_at_faces, divergence,
                          gradient_interior_faces, norms)
from nlcflow.momentum import (FlowParams, elastic_force, predict_velocity,
                              project)
from nlcflow.runner import initial_state, preset_config, step
from nlcflow.solvers import _EigenSolver
from stencils import _lap_u_interior, _lap_v_interior


@pytest.fixture
def grid():
    return GridSpec(32, 32, 1.0, 1.0)


def _rho(grid, const=None):
    X, Y = grid.cell_centers()
    vals = np.full((grid.nx, grid.ny), const) if const is not None else \
        1.5 + 0.3 * np.sin(2 * np.pi * X) * np.sin(2 * np.pi * Y)
    return DensityState.initial(grid, vals)


def _midrange(rho):
    """The split density of a run from rho."""
    return 0.5 * (rho.values.min() + rho.values.max())


def _uniform_director(grid):
    return DirectorField(grid, np.ones((grid.nx, grid.ny)),
                         np.zeros((grid.nx, grid.ny)),
                         DirectorTrace.sample(grid, lambda x, y: (
                             np.ones_like(x), np.zeros_like(x))))


def _cold_predict(rho, w, d, params, glp, dt):
    """The predictor as a run's first step calls it: no body force, the
    zero pressure, and w as its own previous velocity, so that it lags w;
    split at the midrange of rho."""
    g = rho.grid
    return predict_velocity(rho.faces, w, d, MacVelocity.zeros(g), params,
                            glp, dt, _midrange(rho), np.zeros((g.nx, g.ny)),
                            w, dt)


def _smooth_velocity(grid, amp=0.3):
    Xu, Yu = grid.uface_coords()
    Xv, Yv = grid.vface_coords()
    w = MacVelocity(grid,
                    amp * np.sin(np.pi * Xu) ** 2 * np.sin(2 * np.pi * Yu),
                    -amp * np.sin(2 * np.pi * Xv) * np.sin(np.pi * Yv) ** 2)
    w.enforce_noslip()
    return w


def test_elastic_force_vanishes_at_equilibrium(grid):
    d = _uniform_director(grid)
    f = elastic_force(d, GLParams(gamma=1.0, eta=0.5, lam=1.0))
    assert norms(f, "Linf") == 0.0


def test_rest_state_is_fixed_point(grid):
    params = FlowParams(nu=1.0)
    glp = GLParams(gamma=1.0, eta=0.5, lam=1.0)
    v, rho = MacVelocity.zeros(grid), _rho(grid)
    vs = _cold_predict(rho, v, _uniform_director(grid), params, glp, 1e-2)
    assert norms(vs, "Linf") < 1e-14


def test_projection_divergence_bound(grid):
    params = FlowParams(tol_proj=1e-8)
    vs = _smooth_velocity(grid)
    out, _ = project(_rho(grid).faces, vs, 1e-2, params)
    assert np.abs(divergence(out)).max() <= 1e-8


def test_projection_is_idempotent(grid):
    params = FlowParams(tol_proj=1e-10)
    vs = _smooth_velocity(grid)
    v1, _ = project(_rho(grid).faces, vs, 1e-2, params)
    v2, _ = project(_rho(grid).faces, v1, 1e-2, params)
    assert np.abs(v2.u - v1.u).max() < 1e-7
    assert np.abs(v2.v - v1.v).max() < 1e-7


def test_projection_decreases_kinetic_energy(grid):
    from nlcflow.diagnostics import kinetic_energy
    rho = _rho(grid)
    vs = _smooth_velocity(grid)
    out, _ = project(rho.faces, vs, 1e-2, FlowParams())
    assert kinetic_energy(rho.faces, out) <= kinetic_energy(rho.faces, vs) \
        + 1e-14


def test_projection_annihilates_discrete_gradient_constant_rho(grid):
    """A pure discrete-gradient field projects to ~zero when the density
    is constant."""
    X, Y = grid.cell_centers()
    phi = 0.2 * np.cos(np.pi * X) * np.cos(np.pi * Y)
    g = gradient_interior_faces(phi, grid)
    params = FlowParams(tol_proj=1e-9)
    out, _ = project(_rho(grid, const=1.5).faces, g, 1.0, params)
    assert norms(out, "Linf") <= 10 * params.tol_proj


def test_pressure_has_zero_mean(grid):
    _, q = project(_rho(grid).faces, _smooth_velocity(grid), 1e-2,
                   FlowParams())
    assert abs(q.mean()) < 1e-15


def test_predicted_velocity_keeps_noslip(grid):
    params = FlowParams()
    glp = GLParams(gamma=1.0, eta=0.5, lam=1.0)
    rho = _rho(grid)
    vs = _cold_predict(rho, _smooth_velocity(grid), _uniform_director(grid),
                       params, glp, 1e-2)
    assert vs.u[0].max() == 0.0 and vs.u[-1].max() == 0.0
    assert vs.v[:, 0].max() == 0.0 and vs.v[:, -1].max() == 0.0


def test_viscous_decay_rate(grid):
    """Without forcing or coupling, the implicit viscous step damps the
    first Stokes-like mode at a physically sensible rate."""
    params = FlowParams(nu=1.0)
    glp = GLParams(gamma=1.0, eta=0.5, lam=1.0)
    rho = _rho(grid, const=1.0)
    v = _smooth_velocity(grid, amp=0.1)
    v, _ = project(rho.faces, v, 1e-2, params)
    e0 = norms(v, "L2")
    dt = 1e-2
    for _ in range(20):
        vs = _cold_predict(rho, v, _uniform_director(grid), params, glp, dt)
        v, _ = project(rho.faces, vs, dt, params)
    e1 = norms(v, "L2")
    # fastest allowed decay is bounded by the lowest Dirichlet eigenvalue
    assert e1 < e0 * np.exp(-2 * np.pi**2 * 0.2 * 0.5)
    assert e1 > 0


def test_face_density_average(grid):
    rho = _rho(grid)
    ru, rv = density_at_faces(rho.values, grid)
    assert ru[5, 3] == pytest.approx(0.5 * (rho.values[4, 3]
                                            + rho.values[5, 3]))
    assert rv[2, 7] == pytest.approx(0.5 * (rho.values[2, 6]
                                            + rho.values[2, 7]))
    # boundary faces copy the adjacent cell
    assert ru[0, 3] == rho.values[0, 3]
    assert rv[2, -1] == rho.values[2, -1]


def _recording_solves(monkeypatch):
    """Wrap momentum._face_solve; each predictor solve appends a dict of
    its grid, its right-hand side, the lagged velocity it used and its
    solution. The u solve comes first; the v solve runs on the transposed
    grid, and its arrays are v's transposed."""
    solves = []
    face_solve = momentum._face_solve

    def spy(g, rho_f, rhs, rbar, dt, params, x_hat):
        rec = dict(g=g, rhs=rhs.copy(), x_hat=x_hat)
        solves.append(rec)
        rec["x"] = face_solve(g, rho_f, rhs, rbar, dt, params, x_hat)
        return rec["x"]

    monkeypatch.setattr(momentum, "_face_solve", spy)
    return solves


def _face_systems(rho):
    """(rho_f, reference stencil) of the u and v solves."""
    ru, rv = density_at_faces(rho.values, rho.grid)
    return ((ru[1:-1, :], _lap_u_interior), (rv[:, 1:-1], _lap_v_interior))


def _assert_solves_split_system(solves, rho, rbar, nu, dt):
    # (rbar/dt - nu*Lap) v* = rhs - (rho_f - rbar)/dt * x_hat, checked with
    # each component's reference face stencil, the v solve's arrays
    # transposed back
    g = rho.grid
    assert len(solves) == 2 and solves[1]["g"] == g.T
    for (rho_f, lap), s, view in zip(_face_systems(rho), solves,
                                     (np.asarray, np.transpose)):
        x, rhs, x_hat = (view(s[k]) for k in ("x", "rhs", "x_hat"))
        b = rhs - (rho_f - rbar) / dt * x_hat
        res = rbar / dt * x - nu * lap(x, g) - b
        assert np.linalg.norm(res) <= 1e-12 * np.linalg.norm(b)


@lru_cache(maxsize=4)
def _face_laplacian_matrix(g):
    """The reference u-face stencil as a dense matrix, column by column."""
    shape = (g.nx - 1, g.ny)
    return np.stack([_lap_u_interior(e.reshape(shape), g).ravel()
                     for e in np.eye(shape[0] * shape[1])], axis=1)


def _unsplit_solution(g, rho_f, rhs, nu, dt):
    """(rho_f/dt - nu*Lap) x = rhs on the u-faces of g by a dense solve."""
    a = np.diag((rho_f / dt).ravel()) - nu * _face_laplacian_matrix(g)
    return np.linalg.solve(a, rhs.ravel()).reshape(rhs.shape)


def _tilted_director(g):
    X, Y = g.cell_centers()
    theta = 0.4 * np.sin(np.pi * X) * np.sin(np.pi * Y)
    return DirectorField(g, np.cos(theta), np.sin(theta),
                         _uniform_director(g).trace)


def test_predicted_velocity_solves_the_stencil_system(monkeypatch):
    # With the velocity as its own previous one the predictor lags it. It
    # never applies its Laplacian; check v* against the split system with
    # the reference face stencil
    g = GridSpec(64, 64, 1.0, 1.0)
    params, dt = FlowParams(nu=1.0), 5e-3
    rho, w = _rho(g), _smooth_velocity(g)
    solves = _recording_solves(monkeypatch)
    _cold_predict(rho, w, _tilted_director(g), params,
                  GLParams(gamma=1.0, eta=0.5, lam=1.0), dt)
    assert np.array_equal(solves[0]["x_hat"], w.u[1:-1, :])
    assert np.array_equal(solves[1]["x_hat"].T, w.v[:, 1:-1])
    _assert_solves_split_system(solves, rho, _midrange(rho), params.nu, dt)


def test_splitting_error_is_first_order_in_dt(monkeypatch):
    # f1 at 16^2 to t = 0.2 at dt, dt/2 and dt/4, against runs whose
    # predictor solves the unsplit system densely: the rms difference of
    # the densities falls by about half per halving (measured 3.1e-8,
    # 1.3e-8, 6.9e-9)
    def unsplit(g, rho_f, rhs, rbar, dt, params, x_hat):
        return _unsplit_solution(g, rho_f, rhs, params.nu, dt)

    def density_after(dt, predictor=None):
        cfg = preset_config("f1-potential", nx=16, ny=16, dt=dt, t_end=0.2)
        state = initial_state(cfg)
        with monkeypatch.context() as m:
            if predictor is not None:
                m.setattr(momentum, "_face_solve", predictor)
            while state.t < cfg.t_end - 1e-12:
                state = step(state, cfg)
        return state.rho.values

    diffs = [np.sqrt(np.mean((density_after(dt) - density_after(dt, unsplit))
                             ** 2)) for dt in (4e-3, 2e-3, 1e-3)]
    ratios = [b / a for a, b in zip(diffs, diffs[1:])]
    assert all(0.35 <= r <= 0.65 for r in ratios), (diffs, ratios)


# ---------------------------------------------------------------------------
# the incremental projection

def _pressure(grid, seed):
    q = np.random.default_rng(seed).normal(size=(grid.nx, grid.ny))
    return q - q.mean()


def test_projection_with_constant_density_ignores_the_lagged_pressure(grid):
    # the correction solves for the pressure's increment alone: v' is
    # bitwise that of the projection without p_hat, and q - p_hat is its
    # pressure to the one rounding of q = p_hat + delta
    rho, vs, dt = _rho(grid, const=1.5), _smooth_velocity(grid), 1e-2
    ref, q_ref = project(rho.faces, vs, dt, FlowParams())
    eps = np.finfo(float).eps
    for seed in (16, 17):
        p_hat = _pressure(grid, seed)
        out, q = project(rho.faces, vs, dt, FlowParams(), p_hat=p_hat)
        assert np.array_equal(out.u, ref.u) and np.array_equal(out.v, ref.v)
        assert np.abs(q - p_hat - q_ref).max() <= 2 * eps * np.abs(q).max()


def test_projection_with_a_lagged_pressure_is_divergence_free(grid):
    rho, vs, dt = _rho(grid), _smooth_velocity(grid), 1e-2
    out, q = project(rho.faces, vs, dt, FlowParams(),
                     p_hat=_pressure(grid, 18))
    assert np.abs(divergence(out)).max() <= 1e-12
    assert abs(q.mean()) < 1e-15


def test_projection_makes_one_poisson_solve_and_no_pcg_call(monkeypatch,
                                                            grid):
    # no iterative solver is left in the package; the projection makes
    # one direct Poisson solve and no other solve
    calls = {"poisson": 0, "other": 0}
    solve = _EigenSolver.solve

    def counted_solve(self, b):
        calls["poisson" if isinstance(self, momentum.NeumannPoisson)
              else "other"] += 1
        return solve(self, b)

    monkeypatch.setattr(_EigenSolver, "solve", counted_solve)
    assert not hasattr(momentum, "pcg") and not hasattr(solvers, "pcg")
    rho, vs = _rho(grid), _smooth_velocity(grid)
    for p_hat in (0.0, _pressure(grid, 19)):
        calls["poisson"] = 0
        project(rho.faces, vs, 1e-2, FlowParams(), p_hat=p_hat)
        assert calls == {"poisson": 1, "other": 0}


def test_projection_raises_when_its_result_misses_tol_proj(monkeypatch,
                                                           grid):
    # a Poisson solution perturbed by 1e-6 leaves a divergence of about
    # dt * c0 * 1e-6 * 8 / h^2, far above tol_proj
    solve = momentum.NeumannPoisson.solve
    bump = 1e-6 * np.random.default_rng(20).normal(size=(grid.nx, grid.ny))
    monkeypatch.setattr(momentum.NeumannPoisson, "solve",
                        lambda self, b: solve(self, b) + bump)
    with pytest.raises(LinearSolveFailure,
                       match=r"\|\|div v\|\|_inf = .* above tol_proj = "
                             r"1\.000e-08"):
        project(_rho(grid).faces, _smooth_velocity(grid), 1e-2, FlowParams())
