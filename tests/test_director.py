import numpy as np
import pytest

from nlcflow.director import (GLParams, advance_director, advect_director,
                              director_energy, director_energy_terms, gl_f,
                              gl_residual, gl_residual_l2)
from nlcflow.grid import (DirectorField, DirectorTrace, GridSpec, MacVelocity,
                          laplacian, norms)
from nlcflow.momentum import elastic_force


@pytest.fixture
def grid():
    return GridSpec(32, 32, 1.0, 1.0)


def _uniform(grid, c1, c2):
    return DirectorField(grid,
                         np.full((grid.nx, grid.ny), c1),
                         np.full((grid.nx, grid.ny), c2),
                         DirectorTrace.sample(
                             grid, lambda x, y: (np.full_like(x, c1),
                                                 np.full_like(x, c2))))


def _wavy(grid, amp=0.4):
    def trace(x, y):
        th = amp * np.sin(np.pi * x) * np.sin(np.pi * y)
        return np.cos(th), np.sin(th)

    X, Y = grid.cell_centers()
    d1, d2 = trace(X, Y)
    return DirectorField(grid, d1, d2, DirectorTrace.sample(grid, trace))


def test_penalty_gradient_vanishes_on_unit_vectors(grid):
    d = _uniform(grid, 0.6, 0.8)
    f1, f2 = gl_f(d, eta=0.5)
    assert np.abs(f1).max() == 0.0 and np.abs(f2).max() == 0.0


def test_penalty_value_at_zero(grid):
    d = _uniform(grid, 0.0, 0.0)
    # F(0) = 1/(4 eta^2); eta=1 on the unit square integrates to 1/4
    assert director_energy_terms(d, 1.0)[1] == pytest.approx(0.25)


def test_uniform_unit_director_is_equilibrium(grid):
    d = _uniform(grid, 1.0, 0.0)
    assert gl_residual_l2(d, eta=0.5) == 0.0
    p = GLParams(gamma=1.0, eta=0.5, lam=1.0)
    out = advance_director(d, MacVelocity.zeros(grid), p, 1e-2)
    assert np.abs(out.d1 - 1.0).max() < 1e-12
    assert np.abs(out.d2).max() < 1e-12


def test_gl_residual_uniform_overstretched(grid):
    # |d|=2 uniform: lap d = 0, f(d) = 3*d/eta^2, so residual = |f| = 6
    d = _uniform(grid, 2.0, 0.0)
    r1, r2 = gl_residual(d, eta=1.0)
    assert np.allclose(r1, -6.0) and np.allclose(r2, 0.0)


def test_max_principle_without_flow(grid):
    d = _wavy(grid)
    p = GLParams(gamma=1.0, eta=0.5, lam=1.0)
    w = MacVelocity.zeros(grid)
    for _ in range(100):
        d = advance_director(d, w, p, 5e-3)
        assert norms(d, "Linf") <= 1.0 + 1e-6


def test_max_principle_with_advection(grid):
    from nlcflow.grid import density_at_faces
    from nlcflow.momentum import FlowParams, project
    Xu, Yu = grid.uface_coords()
    Xv, Yv = grid.vface_coords()
    w = MacVelocity(grid,
                    np.pi * np.sin(np.pi * Xu) ** 2 * np.sin(2 * np.pi * Yu),
                    -np.pi * np.sin(2 * np.pi * Xv) * np.sin(np.pi * Yv) ** 2)
    w.enforce_noslip()
    faces = density_at_faces(np.ones((grid.nx, grid.ny)), grid)
    w, _ = project(faces, w, 1.0, FlowParams(tol_proj=1e-10))
    d = _wavy(grid)
    p = GLParams(gamma=1.0, eta=0.5, lam=1.0)
    for _ in range(100):
        d = advance_director(d, w, p, 2e-3)
        assert norms(d, "Linf") <= 1.0 + 1e-6


def test_energy_decreases_without_flow(grid):
    d = _wavy(grid)
    p = GLParams(gamma=1.0, eta=0.5, lam=1.0)
    w = MacVelocity.zeros(grid)
    prev = director_energy(d, p.eta)
    for _ in range(50):
        d = advance_director(d, w, p, 5e-3)
        cur = director_energy(d, p.eta)
        assert cur <= prev + 1e-10
        prev = cur


def test_residual_decays_to_equilibrium(grid):
    d = _wavy(grid)
    p = GLParams(gamma=1.0, eta=0.5, lam=1.0)
    w = MacVelocity.zeros(grid)
    r0 = gl_residual_l2(d, p.eta)
    for _ in range(400):
        d = advance_director(d, w, p, 1e-2)
    assert gl_residual_l2(d, p.eta) < 1e-3 * r0


def test_step_output_satisfies_implicit_system():
    # non-square cells (hx != hy) and an asymmetric trace, so a wall or a
    # spacing swapped in the step's assembly leaves a residual
    g = GridSpec(16, 12, 1.0, 1.5)

    def trace(x, y):
        return x + 2.0 * y**2, np.sin(3.0 * x) * y

    rng = np.random.default_rng(12)
    d = DirectorField(g, *rng.uniform(-0.7, 0.7, size=(2, g.nx, g.ny)),
                      DirectorTrace.sample(g, trace))
    w = MacVelocity(g, rng.normal(size=(g.nx + 1, g.ny)),
                    rng.normal(size=(g.nx, g.ny + 1)))
    w.enforce_noslip()
    p = GLParams(gamma=1.3, eta=0.5, lam=1.0)
    dt = 0.01
    s, c = p.stabilization, p.gamma * dt
    out = advance_director(d, w, p, dt)
    adv = advect_director(d, w)
    f = gl_f(d, p.eta)
    for k, old in enumerate((d.d1, d.d2)):
        new = (out.d1, out.d2)[k]
        lhs = (1.0 + c * s) * new - c * laplacian(new, g, d.trace.walls[k])
        rhs = old - dt * adv[k] - c * (f[k] - s * old)
        assert np.abs(lhs - rhs).max() <= 1e-12 * np.abs(rhs).max()


def test_advance_keeps_the_laplacian_of_its_equation():
    # Lap d' = (a d' - r)/c from the solved equation, against the stencil
    # Laplacian of d': they differ by the solve's residual over c, of
    # order eps * (a/c + 4/hx^2 + 4/hy^2) * max|d'| (measured up to 6x that)
    g = GridSpec(32, 24, 1.0, 1.5)

    def trace(x, y):
        return x + 2.0 * y**2, np.sin(3.0 * x) * y

    rng = np.random.default_rng(13)
    d = DirectorField(g, *rng.uniform(-0.7, 0.7, size=(2, g.nx, g.ny)),
                      DirectorTrace.sample(g, trace))
    w = MacVelocity(g, rng.normal(size=(g.nx + 1, g.ny)),
                    rng.normal(size=(g.nx, g.ny + 1)))
    w.enforce_noslip()
    p = GLParams(gamma=1.3, eta=0.5, lam=1.0)
    for dt in (1e-2, 1e-4):
        out = advance_director(d, w, p, dt)
        a, c = 1.0 + p.gamma * dt * p.stabilization, p.gamma * dt
        scale = np.finfo(float).eps * (a / c + 4.0 / g.hx**2
                                       + 4.0 / g.hy**2)
        for k in range(2):
            new = (out.d1, out.d2)[k]
            ref = laplacian(new, g, d.trace.walls[k])
            assert np.abs(out.lap[k] - ref).max() \
                <= 16.0 * scale * np.abs(new).max()


def test_trace_is_respected(grid):
    d = _wavy(grid)
    p = GLParams(gamma=1.0, eta=0.5, lam=1.0)
    out = advance_director(d, MacVelocity.zeros(grid), p, 1e-2)
    # ghost fill of the output still realizes the same boundary trace
    assert out.trace is d.trace


def test_time_loop_never_calls_the_trace(grid):
    calls = []

    def trace(x, y):
        calls.append(1)
        th = 0.4 * np.sin(np.pi * x) * np.sin(np.pi * y) + 0.3 * x * y
        return np.cos(th), np.sin(th)

    X, Y = grid.cell_centers()
    d = DirectorField(grid, *trace(X, Y), DirectorTrace.sample(grid, trace))
    sampled = len(calls)
    p = GLParams(gamma=1.0, eta=0.5, lam=1.0)
    w = MacVelocity.zeros(grid)
    for _ in range(10):
        d = advance_director(d, w, p, 1e-2)
        elastic_force(d, p)
    assert len(calls) == sampled

