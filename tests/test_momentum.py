import numpy as np
import pytest

from nlcflow import momentum
from nlcflow.director import GLParams
from nlcflow.errors import LinearSolveFailure
from nlcflow.grid import (DirectorField, DirectorTrace, GridSpec, MacVelocity,
                          ScalarField, density_at_faces, divergence,
                          gradient_interior_faces, norms)
from nlcflow.momentum import (FlowParams, SolveHistory, elastic_force,
                              predict_velocity, project)
from nlcflow.runner import (StepperState, initial_state, preset_config, run,
                            step)
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
    assert kinetic_energy(rho.values, out) \
        <= kinetic_energy(rho.values, vs) + 1e-14


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


def _recording_pcg(monkeypatch):
    """Wrap momentum.pcg; each solve appends (b, iterations, x0, r0)."""
    solves = []
    pcg = momentum.pcg

    def spy(apply_n, b, precond, **kwargs):
        iters = 0

        def counted(p):
            nonlocal iters
            iters += 1
            return apply_n(p)

        x = pcg(counted, b, precond, **kwargs)
        solves.append((b, iters, kwargs.get("x0"), kwargs.get("r0")))
        return x

    monkeypatch.setattr(momentum, "pcg", spy)
    return solves


def _assert_solves_stencil_system(solves, rho, vs, params, dt):
    # (rho_f/dt - nu*Lap) v* = rhs, checked with the reference face stencil
    g = rho.grid
    ru, rv = density_at_faces(rho.values, g)
    systems = [(ru[1:-1, :], _lap_u_interior, vs.u[1:-1, :]),
               (rv[:, 1:-1], _lap_v_interior, vs.v[:, 1:-1])]
    assert len(solves) == 2
    for (rho_f, lap, sol), (rhs, _, _, _) in zip(systems, solves):
        res = rho_f / dt * sol - params.nu * lap(sol, g) - rhs
        assert np.linalg.norm(res) \
            <= 10 * params.tol_lin * np.linalg.norm(rhs)


def _tilted_director(g):
    X, Y = g.cell_centers()
    theta = 0.4 * np.sin(np.pi * X) * np.sin(np.pi * Y)
    return DirectorField(g, np.cos(theta), np.sin(theta),
                         _uniform_director(g).trace)


def test_predicted_velocity_solves_the_stencil_system(monkeypatch):
    # The predictor never applies its Laplacian; check v* against
    # (rho_f/dt - nu*Lap) v* = rhs with the reference face stencil
    g = GridSpec(64, 64, 1.0, 1.0)
    params, dt = FlowParams(nu=1.0), 5e-3
    rho = _rho(g)
    solves = _recording_pcg(monkeypatch)
    vs = predict_velocity(rho, _smooth_velocity(g), _tilted_director(g),
                          None, params, GLParams(gamma=1.0, eta=0.5, lam=1.0),
                          dt)
    _assert_solves_stencil_system(solves, rho, vs, params, dt)


def _guess_residual_norms(rho, solves, params, dt):
    """||b - A x0|| and ||b|| of each predictor solve, with the stencil."""
    g = rho.grid
    ru, rv = density_at_faces(rho.values, g)
    out = []
    for rho_f, lap, (rhs, _, x0, _) in zip(
            (ru[1:-1, :], rv[:, 1:-1]), (_lap_u_interior, _lap_v_interior),
            solves):
        res = rhs - (rho_f / dt * x0 - params.nu * lap(x0, g))
        out.append((np.linalg.norm(res), np.linalg.norm(rhs)))
    return out


def test_warm_started_predictor_solves_the_stencil_system(monkeypatch):
    # From the projection onto a noisy copy of the solution, taken because
    # its residual is below ||b||, the solve still meets tol_lin relative
    # to ||b||
    g = GridSpec(32, 32, 1.0, 1.0)
    params, dt = FlowParams(nu=1.0), 5e-3
    glp = GLParams(gamma=1.0, eta=0.5, lam=1.0)
    rho, w, d = _rho(g), _smooth_velocity(g), _tilted_director(g)
    solves = _recording_pcg(monkeypatch)
    cold = predict_velocity(rho, w, d, None, params, glp, dt)
    rng = np.random.default_rng(11)
    noisy = MacVelocity(g, cold.u + 1e-4 * rng.normal(size=cold.u.shape),
                        cold.v + 1e-4 * rng.normal(size=cold.v.shape))
    history = SolveHistory()
    history.push(noisy, params.nu)
    vs = predict_velocity(rho, w, d, None, params, glp, dt, history=history)
    cold_solves, solves = solves[:2], solves[2:]
    assert all(r < b for r, b in
               _guess_residual_norms(rho, solves, params, dt))
    # fewer iterations: the solves started from the guess
    assert all(s[1] < c[1] for s, c in zip(solves, cold_solves))
    _assert_solves_stencil_system(solves, rho, vs, params, dt)


def test_time_loop_solves_from_the_projected_guess(monkeypatch):
    # Step 8 projects onto a full ring of six earlier solutions, whose
    # slots have wrapped; its v* must solve the stencil system and its v'
    # meet tol_proj as from a zero guess
    cfg = preset_config("gzero", nx=32, ny=32)
    state = initial_state(cfg)
    stepper = StepperState(dt=cfg.dt)
    for _ in range(7):
        state = step(state, cfg, stepper)
    history = stepper.history
    assert history.count == 7 and history.filled == 6
    kept = [history.u.copy(), history.v.copy()]
    solves = _recording_pcg(monkeypatch)
    new = step(state, cfg, stepper)
    assert all(s[2] is not None for s in solves)
    # each guess lies in the span of its kept solutions
    for (_, _, x0, _), basis in zip(solves, kept):
        coef = np.linalg.lstsq(basis.reshape(len(basis), -1).T,
                               x0.ravel(), rcond=None)[0]
        fit = np.tensordot(coef, basis, 1)
        assert np.abs(fit - x0).max() <= 1e-12 * np.abs(x0).max()
    n = (history.count - 1) % 6  # the slot step 8 pushed
    _assert_solves_stencil_system(
        solves, new.rho,
        MacVelocity(cfg.grid, np.pad(history.u[n], ((1, 1), (0, 0))),
                    np.pad(history.v[n], ((0, 0), (1, 1)))), cfg.flow,
        cfg.dt)
    assert np.abs(divergence(new.v).values).max() <= cfg.tol_proj


def test_projected_guess_residual_matches_the_stencils(monkeypatch):
    # r0 is formed by linearity from the kept products; it must be
    # b - A x0 with A built from the reference stencils. nu != 1, so a
    # product that lost nu cannot pass.
    cfg = preset_config("gzero", nx=32, ny=32, nu=0.5)
    state = initial_state(cfg)
    stepper = StepperState(dt=cfg.dt)
    for _ in range(7):
        state = step(state, cfg, stepper)
    assert stepper.history.filled == 6
    solves = _recording_pcg(monkeypatch)
    state = step(state, cfg, stepper)
    assert len(solves) == 2
    g, dt = cfg.grid, cfg.dt
    ru, rv = density_at_faces(state.rho.values, g)
    for rho_f, lap, (b, _, x0, r0) in zip(
            (ru[1:-1, :], rv[:, 1:-1]), (_lap_u_interior, _lap_v_interior),
            solves):
        ref = b - (rho_f / dt * x0 - cfg.nu * lap(x0, g))
        assert np.linalg.norm(r0 - ref) <= 1e-12 * np.linalg.norm(b)


def test_pcg_iterations_per_solve_are_pinned(monkeypatch):
    # Cold pins: every predictor solve from the zero guess, as the unsplit
    # PCG that applied A in full counted them. Step 1 has no history and
    # must match them; later steps start from the projected guesses and
    # may only save iterations. The projection makes no pcg call.
    cold = [8] * 12
    warm = [8, 8] + [7] * 4 + [6] * 4 + [5] * 2
    cfg = preset_config("gzero", nx=32, ny=32, t_end=6 * 5e-3)
    solves = _recording_pcg(monkeypatch)
    run(cfg, write_outputs=False, with_stationary=False)
    iters = [n for _, n, _, _ in solves]
    assert iters == warm
    assert warm[:2] == cold[:2]
    assert all(w <= c for w, c in zip(warm, cold))


def test_a_ring_of_one_repeated_solution_gives_finite_guesses(grid):
    # six pushes of one v*: the Gram matrix is singular to rank one, and
    # the guess is the projection onto that one solution. RuntimeWarnings
    # are errors in this suite.
    params, dt = FlowParams(), 5e-3
    rho, vs = _rho(grid), _smooth_velocity(grid)
    history = SolveHistory()
    for _ in range(6):
        history.push(vs, params.nu)
    assert history.filled == 6
    ru, _ = density_at_faces(rho.values, grid)
    rhs = np.random.default_rng(14).normal(size=(grid.nx - 1, grid.ny))
    x0, r0 = history.velocity_guess(0, rhs, ru[1:-1, :] / dt)
    assert np.isfinite(x0).all() and np.isfinite(r0).all()
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
    calls = {"solve": 0, "pcg": 0}
    solve = momentum.NeumannPoisson.solve

    def counted_solve(self, b):
        calls["solve"] += 1
        return solve(self, b)

    def no_pcg(*args, **kwargs):
        calls["pcg"] += 1
        raise AssertionError("the projection called pcg")

    monkeypatch.setattr(momentum.NeumannPoisson, "solve", counted_solve)
    monkeypatch.setattr(momentum, "pcg", no_pcg)
    rho, vs = _rho(grid), _smooth_velocity(grid)
    for p_hat in (None, _pressure(grid, 19)):
        calls["solve"] = 0
        project(rho, vs, 1e-2, FlowParams(), p_hat=p_hat)
        assert calls == {"solve": 1, "pcg": 0}


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
