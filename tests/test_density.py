import numpy as np
import pytest

from nlcflow.density import (DensityState, advance_density, cfl_number,
                             upwind_flux_divergence)
from nlcflow.errors import CflViolation
from nlcflow.grid import GridSpec, MacVelocity, density_at_faces, inner
from nlcflow.momentum import FlowParams, project


@pytest.fixture
def grid():
    return GridSpec(32, 32, 1.0, 1.0)


def _divfree_velocity(grid, amp=0.5, seed=0):
    """A discretely divergence-free no-slip field via one projection."""
    rng = np.random.default_rng(seed)
    Xu, Yu = grid.uface_coords()
    Xv, Yv = grid.vface_coords()
    w = MacVelocity(grid,
                    amp * np.sin(np.pi * Xu) ** 2 * np.sin(2 * np.pi * Yu),
                    -amp * np.sin(2 * np.pi * Xv) * np.sin(np.pi * Yv) ** 2)
    w.u += 0.05 * amp * rng.normal(size=w.u.shape)
    w.v += 0.05 * amp * rng.normal(size=w.v.shape)
    w.enforce_noslip()
    faces = density_at_faces(np.ones((grid.nx, grid.ny)), grid)
    w, _ = project(faces, w, 1.0, FlowParams(tol_proj=1e-12))
    return w


def _state(grid):
    X, Y = grid.cell_centers()
    return DensityState.initial(grid, 1.5 + 0.3 * np.sin(2 * np.pi * X)
                                * np.sin(2 * np.pi * Y))


def test_constant_density_is_fixed_point(grid):
    w = _divfree_velocity(grid)
    state = DensityState.initial(grid, np.full((32, 32), 2.0))
    out = advance_density(state, w, 1e-3)
    # constant rho: flux divergence reduces to rho * div w = solver residual
    assert np.abs(out.values - 2.0).max() < 1e-12


def test_zero_velocity_is_fixed_point(grid):
    state = _state(grid)
    out = advance_density(state, MacVelocity.zeros(grid), 1e-2)
    assert np.array_equal(out.values, state.values)


def test_mass_conserved_to_roundoff(grid):
    w = _divfree_velocity(grid)
    state = _state(grid)
    for _ in range(200):
        state = advance_density(state, w, 1e-3)
    assert abs(state.mass() - state.mass0) <= 1e-13 * state.mass0


def test_bounds_preserved(grid):
    w = _divfree_velocity(grid)
    state = _state(grid)
    lo, hi = state.values.min(), state.values.max()
    for _ in range(200):
        state = advance_density(state, w, 1e-3)
        assert state.values.min() >= lo - 1e-12
        assert state.values.max() <= hi + 1e-12


def test_l2_norm_nonincreasing(grid):
    w = _divfree_velocity(grid)
    state = _state(grid)

    def l2(rho):
        return float(np.sqrt(inner(rho.values, rho.values) * grid.cell_area))

    prev = l2(state)
    for _ in range(50):
        state = advance_density(state, w, 1e-3)
        cur = l2(state)
        assert cur <= prev + 1e-12
        prev = cur


def test_cfl_violation_raises(grid):
    w = _divfree_velocity(grid, amp=1.0)
    state = _state(grid)
    dt_bad = 1.5 / (w.max_speed()[0] / grid.hx + w.max_speed()[1] / grid.hy)
    with pytest.raises(CflViolation):
        advance_density(state, w, dt_bad)


def test_cfl_number_formula(grid):
    w = MacVelocity(grid, np.full((33, 32), 0.5), np.full((32, 33), 0.25))
    assert cfl_number(w, 1e-2) == pytest.approx(
        1e-2 * (0.5 / grid.hx + 0.25 / grid.hy))


def test_upwind_wall_flux_is_zero(grid):
    w = _divfree_velocity(grid)
    rho = _state(grid).values
    div = upwind_flux_divergence(rho, w)
    # total divergence telescopes to the (zero) wall fluxes
    assert abs(div.sum()) * grid.cell_area < 1e-13


def test_upwind_picks_donor_cell():
    g = GridSpec(4, 4, 4.0, 4.0)
    rho = np.outer([1.0, 3.0, 5.0, 7.0], np.ones(4))
    u = np.zeros((5, 4))
    u[2, :] = 1.0  # rightward flow through one column of x-faces
    w = MacVelocity(g, u, np.zeros((4, 5)))
    div = upwind_flux_divergence(rho, w)
    # the active faces carry the upwind (left, rho=3) value; hx = 1, so
    # the donor cell loses 3 and the receiving cell gains 3 per unit time
    assert np.allclose(div[1, :], 3.0)
    assert np.allclose(div[2, :], -3.0)
    assert np.allclose(div[0, :], 0.0) and np.allclose(div[3, :], 0.0)


def test_density_rejects_values_of_another_shape(grid):
    with pytest.raises(ValueError, match=r"shape \(nx, ny\)"):
        DensityState.initial(grid, np.ones((grid.nx, grid.ny + 1)))
