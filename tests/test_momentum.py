from functools import lru_cache

import numpy as np
import pytest

from nlcflow import momentum, solvers
from nlcflow.director import GLParams
from nlcflow.errors import LinearSolveFailure
from nlcflow.grid import (DirectorField, DirectorTrace, GridSpec, MacVelocity,
                          ScalarField, density_at_faces, divergence,
                          gradient_interior_faces, norms)
from nlcflow.momentum import (FlowParams, SolveHistory, elastic_force,
                              predict_velocity, project)
from nlcflow.runner import StepperState, initial_state, preset_config, step
from nlcflow.solvers import _EigenSolver
from stencils import _lap_u_interior, _lap_v_interior


@pytest.fixture
def grid():
    return GridSpec(32, 32, 1.0, 1.0)


def _rho(grid, const=None):
    X, Y = grid.cell_centers()
    vals = np.full((grid.nx, grid.ny), const) if const is not None else \
        1.5 + 0.3 * np.sin(2 * np.pi * X) * np.sin(2 * np.pi * Y)
    return ScalarField(grid, vals, "extrapolate")


def _uniform_director(grid):
    return DirectorField(grid, np.ones((grid.nx, grid.ny)),
                         np.zeros((grid.nx, grid.ny)),
                         DirectorTrace.sample(grid, lambda x, y: (
                             np.ones_like(x), np.zeros_like(x))))


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
    v = MacVelocity.zeros(grid)
    vs = predict_velocity(_rho(grid), v, _uniform_director(grid), None,
                          params, glp, 1e-2)
    assert norms(vs, "Linf") < 1e-14


def test_projection_divergence_bound(grid):
    params = FlowParams(tol_proj=1e-8)
    vs = _smooth_velocity(grid)
    out, _ = project(_rho(grid), vs, 1e-2, params)
    assert np.abs(divergence(out).values).max() <= 1e-8


def test_projection_is_idempotent(grid):
    params = FlowParams(tol_proj=1e-10)
    vs = _smooth_velocity(grid)
    v1, _ = project(_rho(grid), vs, 1e-2, params)
    v2, _ = project(_rho(grid), v1, 1e-2, params)
    assert np.abs(v2.u - v1.u).max() < 1e-7
    assert np.abs(v2.v - v1.v).max() < 1e-7


def test_projection_decreases_kinetic_energy(grid):
    from nlcflow.diagnostics import kinetic_energy
    rho = _rho(grid)
    vs = _smooth_velocity(grid)
    out, _ = project(rho, vs, 1e-2, FlowParams())
    assert kinetic_energy(rho, out) <= kinetic_energy(rho, vs) + 1e-14


def test_projection_annihilates_discrete_gradient_constant_rho(grid):
    """A pure discrete-gradient field projects to ~zero when the density
    is constant."""
    X, Y = grid.cell_centers()
    phi = 0.2 * np.cos(np.pi * X) * np.cos(np.pi * Y)
    g = gradient_interior_faces(phi, grid)
    params = FlowParams(tol_proj=1e-9)
    out, _ = project(_rho(grid, const=1.5), g, 1.0, params)
    assert norms(out, "Linf") <= 10 * params.tol_proj


def test_pressure_has_zero_mean(grid):
    _, q = project(_rho(grid), _smooth_velocity(grid), 1e-2, FlowParams())
    assert abs(q.values.mean()) < 1e-15


def test_predicted_velocity_keeps_noslip(grid):
    params = FlowParams()
    glp = GLParams(gamma=1.0, eta=0.5, lam=1.0)
    vs = predict_velocity(_rho(grid), _smooth_velocity(grid),
                          _uniform_director(grid), None, params, glp, 1e-2)
    assert vs.u[0].max() == 0.0 and vs.u[-1].max() == 0.0
    assert vs.v[:, 0].max() == 0.0 and vs.v[:, -1].max() == 0.0


def test_viscous_decay_rate(grid):
    """Without forcing or coupling, the implicit viscous step damps the
    first Stokes-like mode at a physically sensible rate."""
    params = FlowParams(nu=1.0)
    glp = GLParams(gamma=1.0, eta=0.5, lam=1.0)
    rho = _rho(grid, const=1.0)
    v = _smooth_velocity(grid, amp=0.1)
    v, _ = project(rho, v, 1e-2, params)
    e0 = norms(v, "L2")
    dt = 1e-2
    for _ in range(20):
        vs = predict_velocity(rho, v, _uniform_director(grid), None,
                              params, glp, dt)
        v, _ = project(rho, vs, dt, params)
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
    its right-hand side, the kept solutions of its component (None
    without any), the lagged velocity it used and its solution."""
    solves = []
    face_solve = momentum._face_solve
    guess = SolveHistory.velocity_guess

    def spy_guess(self, axis, rhs, diag):
        solves[-1]["x_hat"] = x0 = guess(self, axis, rhs, diag)
        return x0

    def spy(g, axis, rho_f, rhs, rbar, dt, params, history, w_face):
        kept = None
        if history is not None and history.count:
            ring = history.u if axis == 0 else history.v
            kept = ring[:history.filled].copy()
        rec = dict(rhs=rhs.copy(), kept=kept, x_hat=w_face)
        solves.append(rec)
        rec["x"] = face_solve(g, axis, rho_f, rhs, rbar, dt, params,
                              history, w_face)
        return rec["x"]

    monkeypatch.setattr(momentum, "_face_solve", spy)
    monkeypatch.setattr(SolveHistory, "velocity_guess", spy_guess)
    return solves


def _face_systems(rho):
    """(rho_f, reference stencil) of the u and v solves."""
    ru, rv = density_at_faces(rho.values, rho.grid)
    return ((ru[1:-1, :], _lap_u_interior), (rv[:, 1:-1], _lap_v_interior))


def _assert_solves_split_system(solves, rho, nu, dt):
    # (rbar/dt - nu*Lap) v* = rhs - (rho_f - rbar)/dt * x_hat, checked with
    # the reference face stencil; rbar is the mean cell density
    g, rbar = rho.grid, rho.values.mean()
    assert len(solves) == 2
    for (rho_f, lap), s in zip(_face_systems(rho), solves):
        x = s["x"]
        b = s["rhs"] - (rho_f - rbar) / dt * s["x_hat"]
        res = rbar / dt * x - nu * lap(x, g) - b
        assert np.linalg.norm(res) <= 1e-12 * np.linalg.norm(b)


def _unsplit_residuals(solves, rho, nu, dt):
    """||rhs - (rho_f/dt - nu*Lap) v*|| / ||rhs|| of each solve."""
    g = rho.grid
    return [np.linalg.norm(s["rhs"] - (rho_f / dt * s["x"]
                                       - nu * lap(s["x"], g)))
            / np.linalg.norm(s["rhs"])
            for (rho_f, lap), s in zip(_face_systems(rho), solves)]


@lru_cache(maxsize=4)
def _face_laplacian_matrix(g, axis):
    """The reference face stencil as a dense matrix, column by column."""
    lap = _lap_u_interior if axis == 0 else _lap_v_interior
    shape = (g.nx - 1, g.ny) if axis == 0 else (g.nx, g.ny - 1)
    return np.stack([lap(e.reshape(shape), g).ravel()
                     for e in np.eye(shape[0] * shape[1])], axis=1)


def _unsplit_solution(g, axis, rho_f, rhs, nu, dt):
    """(rho_f/dt - nu*Lap) x = rhs by a dense solve."""
    a = np.diag((rho_f / dt).ravel()) - nu * _face_laplacian_matrix(g, axis)
    return np.linalg.solve(a, rhs.ravel()).reshape(rhs.shape)


def _push(history, w, nu):
    """Push both components of w, with nu*L from the reference stencils."""
    g = w.grid
    for axis, (x, lap) in enumerate(((w.u[1:-1, :], _lap_u_interior),
                                     (w.v[:, 1:-1], _lap_v_interior))):
        history.push(axis, x, nu * lap(x, g))


def _tilted_director(g):
    X, Y = g.cell_centers()
    theta = 0.4 * np.sin(np.pi * X) * np.sin(np.pi * Y)
    return DirectorField(g, np.cos(theta), np.sin(theta),
                         _uniform_director(g).trace)


def test_predicted_velocity_solves_the_stencil_system(monkeypatch):
    # Without a history the predictor lags the old velocity. It never
    # applies its Laplacian; check v* against the split system with the
    # reference face stencil
    g = GridSpec(64, 64, 1.0, 1.0)
    params, dt = FlowParams(nu=1.0), 5e-3
    rho, w = _rho(g), _smooth_velocity(g)
    solves = _recording_solves(monkeypatch)
    predict_velocity(rho, w, _tilted_director(g), None, params,
                     GLParams(gamma=1.0, eta=0.5, lam=1.0), dt)
    assert all(s["kept"] is None for s in solves)
    assert np.array_equal(solves[0]["x_hat"], w.u[1:-1, :])
    assert np.array_equal(solves[1]["x_hat"], w.v[:, 1:-1])
    _assert_solves_split_system(solves, rho, params.nu, dt)


def test_warm_started_predictor_solves_the_stencil_system(monkeypatch):
    # From a one-solution history, a noisy copy x1 of the unsplit solution,
    # the lagged velocity is (x1.b)/(x1.A x1) x1 with A from the reference
    # stencils, v* solves the split system with it, and v* is nearer the
    # unsplit solution than when the old velocity is lagged
    g = GridSpec(32, 32, 1.0, 1.0)
    params, dt = FlowParams(nu=1.0), 5e-3
    glp = GLParams(gamma=1.0, eta=0.5, lam=1.0)
    rho, w, d = _rho(g), _smooth_velocity(g), _tilted_director(g)
    solves = _recording_solves(monkeypatch)
    cold = predict_velocity(rho, w, d, None, params, glp, dt)
    exact = [_unsplit_solution(g, axis, rho_f, s["rhs"], params.nu, dt)
             for axis, ((rho_f, _), s) in enumerate(zip(_face_systems(rho),
                                                        solves))]
    rng = np.random.default_rng(11)
    noisy = MacVelocity.zeros(g)
    noisy.u[1:-1, :] = exact[0] + 1e-4 * rng.normal(size=exact[0].shape)
    noisy.v[:, 1:-1] = exact[1] + 1e-4 * rng.normal(size=exact[1].shape)
    history = SolveHistory()
    _push(history, noisy, params.nu)
    vs = predict_velocity(rho, w, d, None, params, glp, dt, history=history)
    solves = solves[2:]
    for (rho_f, lap), s in zip(_face_systems(rho), solves):
        x1, b = s["kept"][0], s["rhs"]
        ax1 = rho_f / dt * x1 - params.nu * lap(x1, g)
        ref = np.vdot(x1, b) / np.vdot(x1, ax1) * x1
        assert np.abs(s["x_hat"] - ref).max() <= 1e-12 * np.abs(ref).max()
    _assert_solves_split_system(solves, rho, params.nu, dt)
    for new, old, ref in ((vs.u[1:-1, :], cold.u[1:-1, :], exact[0]),
                          (vs.v[:, 1:-1], cold.v[:, 1:-1], exact[1])):
        assert np.abs(new - ref).max() < 1e-2 * np.abs(old - ref).max()


def test_time_loop_solves_from_the_projected_guess(monkeypatch):
    # Step 8 lags the projection onto a full ring of six earlier
    # solutions, whose slots have wrapped; its v* must solve the split
    # system with it, its unsplit residual must be small, and its v' must
    # meet tol_proj
    cfg = preset_config("gzero", nx=32, ny=32)
    state = initial_state(cfg)
    stepper = StepperState(dt=cfg.dt)
    for _ in range(7):
        state = step(state, cfg, stepper)
    assert stepper.history.count == 7 and stepper.history.filled == 6
    solves = _recording_solves(monkeypatch)
    new = step(state, cfg, stepper)
    # each lagged velocity lies in the span of its kept solutions
    for s in solves:
        basis, x0 = s["kept"], s["x_hat"]
        assert len(basis) == 6
        coef = np.linalg.lstsq(basis.reshape(len(basis), -1).T,
                               x0.ravel(), rcond=None)[0]
        fit = np.tensordot(coef, basis, 1)
        assert np.abs(fit - x0).max() <= 1e-12 * np.abs(x0).max()
    _assert_solves_split_system(solves, new.rho, cfg.nu, cfg.dt)
    # measured 4.0e-6; lagging the old velocity instead reads 1.6e-2
    assert max(_unsplit_residuals(solves, new.rho, cfg.nu, cfg.dt)) <= 1e-4
    assert np.abs(divergence(new.v).values).max() <= cfg.tol_proj


def test_projected_guess_residual_matches_the_stencils(monkeypatch):
    # The lagged velocity is the A-norm projection onto the kept solutions,
    # so its residual b - A x0, with A built from the reference stencils
    # and the fresh density, is orthogonal to each of them. nu != 1, so a
    # kept product that lost nu cannot pass.
    cfg = preset_config("gzero", nx=32, ny=32, nu=0.5)
    state = initial_state(cfg)
    stepper = StepperState(dt=cfg.dt)
    for _ in range(7):
        state = step(state, cfg, stepper)
    assert stepper.history.filled == 6
    solves = _recording_solves(monkeypatch)
    state = step(state, cfg, stepper)
    g, dt = cfg.grid, cfg.dt
    for (rho_f, lap), s in zip(_face_systems(state.rho), solves):
        b, x0 = s["rhs"], s["x_hat"]
        r = b - (rho_f / dt * x0 - cfg.nu * lap(x0, g))
        for x in s["kept"]:
            assert abs(np.vdot(x, r)) \
                <= 1e-10 * np.linalg.norm(x) * np.linalg.norm(b)


def test_kept_products_match_the_stencils():
    # after 8 steps (the ring has wrapped) each component's S, formed from
    # nu*L v* of the predictor's own equations, is X (nu*L X)^T with the
    # reference stencils; nu != 1, so a product that lost nu cannot pass
    cfg = preset_config("gzero", nx=16, ny=16, nu=0.5)
    state = initial_state(cfg)
    stepper = StepperState(dt=cfg.dt)
    for _ in range(8):
        state = step(state, cfg, stepper)
    history, g = stepper.history, cfg.grid
    k = history.filled
    assert (history.count, k) == (8, 6)
    for axis, lap in ((0, _lap_u_interior), (1, _lap_v_interior)):
        xs, s = history.ring(axis)
        ref = np.array([[np.vdot(xi, cfg.nu * lap(xj, g)) for xj in xs[:k]]
                        for xi in xs[:k]])
        assert np.abs(s[:k, :k] - ref).max() <= 1e-12 * np.abs(ref).max()


def test_splitting_error_is_first_order_in_dt(monkeypatch):
    # f1 at 16^2 to t = 0.2 at dt, dt/2 and dt/4, against runs whose
    # predictor solves the unsplit system densely: the rms difference of
    # the densities falls by about half per halving (measured 2.0e-6,
    # 1.06e-6, 5.5e-7)
    def unsplit(g, axis, rho_f, rhs, rbar, dt, params, history, w_face):
        return _unsplit_solution(g, axis, rho_f, rhs, params.nu, dt)

    def density_after(dt, predictor=None):
        cfg = preset_config("f1-potential", nx=16, ny=16, dt=dt, t_end=0.2)
        state = initial_state(cfg)
        stepper = StepperState(dt=dt)
        with monkeypatch.context() as m:
            if predictor is not None:
                m.setattr(momentum, "_face_solve", predictor)
            while state.t < cfg.t_end - 1e-12:
                state = step(state, cfg, stepper)
        return state.rho.values

    diffs = [np.sqrt(np.mean((density_after(dt) - density_after(dt, unsplit))
                             ** 2)) for dt in (4e-3, 2e-3, 1e-3)]
    ratios = [b / a for a, b in zip(diffs, diffs[1:])]
    assert all(0.35 <= r <= 0.65 for r in ratios), (diffs, ratios)


def test_a_ring_of_one_repeated_solution_gives_finite_guesses(grid):
    # six pushes of one v*: the Gram matrix is singular to rank one, and
    # the guess is the projection onto that one solution. RuntimeWarnings
    # are errors in this suite.
    params, dt = FlowParams(), 5e-3
    rho, vs = _rho(grid), _smooth_velocity(grid)
    history = SolveHistory()
    for _ in range(6):
        _push(history, vs, params.nu)
    assert history.filled == 6
    ru, _ = density_at_faces(rho.values, grid)
    rhs = np.random.default_rng(14).normal(size=(grid.nx - 1, grid.ny))
    x0 = history.velocity_guess(0, rhs, ru[1:-1, :] / dt)
    assert np.isfinite(x0).all()
    coef = np.vdot(x0, vs.u[1:-1, :]) / np.vdot(vs.u[1:-1, :], vs.u[1:-1, :])
    assert np.abs(x0 - coef * vs.u[1:-1, :]).max() \
        <= 1e-12 * np.abs(x0).max()


# ---------------------------------------------------------------------------
# the split projection

def _pressure(grid, seed):
    q = np.random.default_rng(seed).normal(size=(grid.nx, grid.ny))
    return q - q.mean()


def test_projection_with_constant_density_ignores_the_lagged_pressure(grid):
    # k = c0 on every face, so the lagged term vanishes identically
    rho, vs, dt = _rho(grid, const=1.5), _smooth_velocity(grid), 1e-2
    ref, q_ref = project(rho, vs, dt, FlowParams())
    for seed in (16, 17):
        out, q = project(rho, vs, dt, FlowParams(),
                         p_hat=_pressure(grid, seed))
        for a, b in ((out.u, ref.u), (out.v, ref.v),
                     (q.values, q_ref.values)):
            assert np.array_equal(a, b)


def test_projection_with_a_lagged_pressure_is_divergence_free(grid):
    rho, vs, dt = _rho(grid), _smooth_velocity(grid), 1e-2
    out, q = project(rho, vs, dt, FlowParams(), p_hat=_pressure(grid, 18))
    assert np.abs(divergence(out).values).max() <= 1e-12
    assert abs(q.values.mean()) < 1e-15


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
    for p_hat in (None, _pressure(grid, 19)):
        calls["poisson"] = 0
        project(rho, vs, 1e-2, FlowParams(), p_hat=p_hat)
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
        project(_rho(grid), _smooth_velocity(grid), 1e-2, FlowParams())
