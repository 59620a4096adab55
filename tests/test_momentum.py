import numpy as np
import pytest

from nlcflow.director import GLParams
from nlcflow.grid import (DirectorField, DirectorTrace, GridSpec, MacVelocity,
                          ScalarField, density_at_faces, divergence,
                          gradient_interior_faces, norms)
from nlcflow.momentum import (FlowParams, elastic_force, predict_velocity,
                              project)


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
