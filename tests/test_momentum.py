import numpy as np
import pytest

from nlcflow import momentum
from nlcflow.director import GLParams
from nlcflow.grid import (DirectorField, DirectorTrace, GridSpec, MacVelocity,
                          ScalarField, density_at_faces, divergence,
                          gradient_interior_faces, norms)
from nlcflow.momentum import (FlowParams, elastic_force, predict_velocity,
                              project)
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
    """Wrap momentum.pcg; each solve appends (site, b, iterations, x0)."""
    solves = []
    pcg = momentum.pcg

    def spy(apply_n, b, precond, **kwargs):
        iters = 0

        def counted(p):
            nonlocal iters
            iters += 1
            return apply_n(p)

        x = pcg(counted, b, precond, **kwargs)
        site = "project" if "project" in kwargs else "predict"
        solves.append((site, b, iters, kwargs.get("x0")))
        return x

    monkeypatch.setattr(momentum, "pcg", spy)
    return solves


def _assert_solves_stencil_system(solves, rho, vs, params, dt):
    # (rho_f/dt - nu*Lap) v* = rhs, checked with the reference face stencil
    g = rho.grid
    ru, rv = density_at_faces(rho.values, g)
    systems = [(ru[1:-1, :], _lap_u_interior, vs.u[1:-1, :]),
               (rv[:, 1:-1], _lap_v_interior, vs.v[:, 1:-1])]
    assert [s[0] for s in solves] == ["predict", "predict"]
    for (rho_f, lap, sol), (_, rhs, _, _) in zip(systems, solves):
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


def _guess_residual_norms(rho, guess, solves, params, dt):
    """||b - A x0|| of each predictor solve's guess, with the stencil."""
    g = rho.grid
    ru, rv = density_at_faces(rho.values, g)
    out = []
    for rho_f, lap, x0, (_, rhs, _, _) in zip(
            (ru[1:-1, :], rv[:, 1:-1]), (_lap_u_interior, _lap_v_interior),
            (guess.u[1:-1, :], guess.v[:, 1:-1]), solves):
        res = rhs - (rho_f / dt * x0 - params.nu * lap(x0, g))
        out.append((np.linalg.norm(res), np.linalg.norm(rhs)))
    return out


def test_warm_started_predictor_solves_the_stencil_system(monkeypatch):
    # From a random guess near the solution, taken because its residual is
    # below ||b||, the solve still meets tol_lin relative to ||b||
    g = GridSpec(32, 32, 1.0, 1.0)
    params, dt = FlowParams(nu=1.0), 5e-3
    glp = GLParams(gamma=1.0, eta=0.5, lam=1.0)
    rho, w, d = _rho(g), _smooth_velocity(g), _tilted_director(g)
    solves = _recording_pcg(monkeypatch)
    cold = predict_velocity(rho, w, d, None, params, glp, dt)
    rng = np.random.default_rng(11)
    guess = MacVelocity(g, cold.u + 1e-4 * rng.normal(size=cold.u.shape),
                        cold.v + 1e-4 * rng.normal(size=cold.v.shape))
    vs = predict_velocity(rho, w, d, None, params, glp, dt, guess=guess)
    cold_solves, solves = solves[:2], solves[2:]
    assert all(r < b for r, b in
               _guess_residual_norms(rho, guess, solves, params, dt))
    # fewer iterations: the solves started from the guess
    assert all(s[2] < c[2] for s, c in zip(solves, cold_solves))
    _assert_solves_stencil_system(solves, rho, vs, params, dt)


def test_time_loop_solves_from_the_extrapolated_guess(monkeypatch):
    # Step 5 extrapolates from three earlier solves; its v* must solve the
    # stencil system and its v' meet tol_proj as from a zero guess
    cfg = preset_config("gzero", nx=32, ny=32)
    state = initial_state(cfg)
    stepper = StepperState(dt=cfg.dt)
    for _ in range(4):
        state = step(state, cfg, stepper)
    solves = _recording_pcg(monkeypatch)
    state = step(state, cfg, stepper)
    assert all(s[3] is not None for s in solves)
    _assert_solves_stencil_system(solves[:2], state.rho,
                                  state.solves[-1][1], cfg.flow, cfg.dt)
    assert np.abs(divergence(state.v).values).max() <= cfg.tol_proj


def test_warm_started_projection_matches_the_cold_one(monkeypatch):
    g = GridSpec(32, 32, 1.0, 1.0)
    params, dt = FlowParams(tol_proj=1e-8), 1e-2
    X, Y = g.cell_centers()
    grad = gradient_interior_faces(
        0.2 * np.cos(np.pi * X) * np.cos(np.pi * Y), g)
    sol = _smooth_velocity(g)
    rho, vs = _rho(g), MacVelocity(g, sol.u + grad.u, sol.v + grad.v)
    solves = _recording_pcg(monkeypatch)
    cold, q_cold = project(rho, vs, dt, params)
    rng = np.random.default_rng(12)
    guess = q_cold.values + 1e-3 * rng.normal(size=(g.nx, g.ny))
    # the guess's residual, with the grid's own gradient and divergence,
    # is below ||b||, so the solve must start from it
    ru, rv = density_at_faces(rho.values, g)
    gq = gradient_interior_faces(guess, g)
    flux = MacVelocity(g, gq.u / ru, gq.v / rv)
    rhs = -divergence(vs).values / dt
    res = rhs + divergence(flux).values
    assert np.linalg.norm(res - res.mean()) < np.linalg.norm(rhs)
    warm, _ = project(rho, vs, dt, params, guess=guess)
    # fewer iterations: the solve started from the guess
    assert solves[1][2] < solves[0][2]
    assert np.abs(divergence(warm).values).max() <= params.tol_proj
    assert np.abs(warm.u - cold.u).max() <= params.tol_proj
    assert np.abs(warm.v - cold.v).max() <= params.tol_proj


def test_a_guess_worse_than_zero_gives_the_cold_result_bitwise():
    g = GridSpec(32, 32, 1.0, 1.0)
    params, dt = FlowParams(), 1e-2
    glp = GLParams(gamma=1.0, eta=0.5, lam=1.0)
    rho, w, d = _rho(g), _smooth_velocity(g), _tilted_director(g)
    rng = np.random.default_rng(13)
    noise = MacVelocity(g, 1e3 * rng.normal(size=(g.nx + 1, g.ny)),
                        1e3 * rng.normal(size=(g.nx, g.ny + 1)))
    cold = predict_velocity(rho, w, d, None, params, glp, dt)
    warm = predict_velocity(rho, w, d, None, params, glp, dt, guess=noise)
    assert warm.u.tobytes() == cold.u.tobytes()
    assert warm.v.tobytes() == cold.v.tobytes()
    cold_v, cold_q = project(rho, cold, dt, params)
    warm_v, warm_q = project(rho, cold, dt, params,
                             guess=1e3 * rng.normal(size=(g.nx, g.ny)))
    for a, b in ((cold_v.u, warm_v.u), (cold_v.v, warm_v.v),
                 (cold_q.values, warm_q.values)):
        assert a.tobytes() == b.tobytes()


def test_pcg_iterations_per_solve_are_pinned(monkeypatch):
    # Cold pins: every solve from the zero guess, as the unsplit PCG that
    # applied A in full counted them. Step 1 has no history and must match
    # them; later steps start from the extrapolated guesses and may only
    # save iterations. The initial projection meets tol_proj before any
    # iteration.
    cold = {"predict": [8] * 12, "project": [0, 10, 10, 10, 9, 9, 9]}
    warm = {"predict": [8] * 4 + [7] * 8,
            "project": [0, 10, 9, 8, 8, 7, 7]}
    cfg = preset_config("gzero", nx=32, ny=32, t_end=6 * 5e-3)
    solves = _recording_pcg(monkeypatch)
    run(cfg, write_outputs=False, with_stationary=False)
    iters = {"predict": [], "project": []}
    for site, _, n, _ in solves:
        iters[site].append(n)
    assert iters == warm
    # step 1: two predictor solves; the initial and the step's projection
    assert warm["predict"][:2] == cold["predict"][:2]
    assert warm["project"][:2] == cold["project"][:2]
    for site in cold:
        assert all(w <= c for w, c in zip(warm[site], cold[site]))
