import numpy as np
import pytest

from nlcflow import momentum
from nlcflow.director import GLParams
from nlcflow.grid import (DirectorField, DirectorTrace, GridSpec, MacVelocity,
                          ScalarField, density_at_faces, divergence,
                          gradient_interior_faces, norms)
from nlcflow.momentum import (FlowParams, elastic_force, predict_velocity,
                              project)
from nlcflow.runner import preset_config, run
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
    """Wrap momentum.pcg; each solve appends (site, b, iterations)."""
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
        solves.append((site, b, iters))
        return x

    monkeypatch.setattr(momentum, "pcg", spy)
    return solves


def test_predicted_velocity_solves_the_stencil_system(monkeypatch):
    # The predictor never applies its Laplacian; check v* against
    # (rho_f/dt - nu*Lap) v* = rhs with the reference face stencil
    g = GridSpec(64, 64, 1.0, 1.0)
    params, dt = FlowParams(nu=1.0), 5e-3
    rho = _rho(g)
    X, Y = g.cell_centers()
    theta = 0.4 * np.sin(np.pi * X) * np.sin(np.pi * Y)
    d = DirectorField(g, np.cos(theta), np.sin(theta),
                      _uniform_director(g).trace)
    solves = _recording_pcg(monkeypatch)
    vs = predict_velocity(rho, _smooth_velocity(g), d, None, params,
                          GLParams(gamma=1.0, eta=0.5, lam=1.0), dt)
    ru, rv = density_at_faces(rho.values, g)
    systems = [(ru[1:-1, :], _lap_u_interior, vs.u[1:-1, :]),
               (rv[:, 1:-1], _lap_v_interior, vs.v[:, 1:-1])]
    assert [s[0] for s in solves] == ["predict", "predict"]
    for (rho_f, lap, sol), (_, rhs, _) in zip(systems, solves):
        res = rho_f / dt * sol - params.nu * lap(sol, g) - rhs
        assert np.linalg.norm(res) \
            <= 10 * params.tol_lin * np.linalg.norm(rhs)


def test_pcg_iterations_per_solve_are_pinned(monkeypatch):
    # Counts of the unsplit PCG, which applied A in full: splitting
    # A = M + N must not cost an iteration at either solve site
    cfg = preset_config("gzero", nx=32, ny=32, t_end=6 * 5e-3)
    solves = _recording_pcg(monkeypatch)
    run(cfg, write_outputs=False, with_stationary=False)
    iters = {"predict": [], "project": []}
    for site, _, n in solves:
        iters[site].append(n)
    # the initial projection meets tol_proj before any iteration
    assert iters == {"predict": [8] * 12,
                     "project": [0, 10, 10, 10, 9, 9, 9]}
