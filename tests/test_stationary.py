import numpy as np
import pytest

from nlcflow.director import (GLParams, advance_director, director_energy,
                              gl_residual_l2)
from nlcflow.errors import DegenerateFit, InsufficientSamples, NlcflowError
from nlcflow import stationary
from nlcflow.grid import (DirectorField, DirectorTrace, GridSpec, MacVelocity,
                          laplacian)
from nlcflow.stationary import (decay_rate_fit, kappa_predicted,
                                lojasiewicz_probe, solve_stationary)


@pytest.fixture(scope="module")
def grid():
    return GridSpec(32, 32, 1.0, 1.0)


def _wavy_trace(x, y):
    th = 0.4 * np.sin(np.pi * x) * np.sin(np.pi * y)
    return np.cos(th), np.sin(th)


@pytest.fixture(scope="module")
def wavy_equilibrium(grid):
    return solve_stationary(grid, DirectorTrace.sample(grid, _wavy_trace),
                            eta=0.5, tol_stationary=1e-9)


def test_energy_of_constant_unit_director(grid):
    d = DirectorField(grid, np.ones((32, 32)), np.zeros((32, 32)),
                      DirectorTrace.sample(grid, lambda x, y: (
                          np.ones_like(x), np.zeros_like(x))))
    assert director_energy(d, eta=0.5) == 0.0


def test_energy_of_zero_director(grid):
    d = DirectorField(grid, np.zeros((32, 32)), np.zeros((32, 32)),
                      DirectorTrace.sample(grid, lambda x, y: (
                          np.zeros_like(x), np.zeros_like(x))))
    # grad term 0, potential term area/(4 eta^2) with eta=1: 1/4
    assert director_energy(d, eta=1.0) == pytest.approx(0.25)


def test_constant_trace_gives_constant_solution(grid):
    res = solve_stationary(
        grid, DirectorTrace.sample(grid, lambda x, y: (
            np.full_like(x, 0.6), np.full_like(x, 0.8))),
        eta=0.5, tol_stationary=1e-10)
    assert res.residual <= 1e-10
    assert np.abs(res.d_inf.d1 - 0.6).max() < 1e-9
    assert np.abs(res.d_inf.d2 - 0.8).max() < 1e-9


def test_zero_trace_large_eta_gives_zero_field(grid):
    res = solve_stationary(
        grid, DirectorTrace.sample(grid, lambda x, y: (
            np.zeros_like(x), np.zeros_like(x))),
        eta=10.0, tol_stationary=1e-10)
    assert res.residual <= 1e-10
    assert np.abs(res.d_inf.d1).max() < 1e-6
    assert np.abs(res.d_inf.d2).max() < 1e-6


def test_stationary_residual_meets_tolerance(grid, wavy_equilibrium):
    assert wavy_equilibrium.residual <= 1e-9
    assert gl_residual_l2(wavy_equilibrium.d_inf, 0.5) <= 1e-9


def test_stationary_is_fixed_point_of_flow(grid, wavy_equilibrium):
    p = GLParams(gamma=1.0, eta=0.5, lam=1.0)
    d = wavy_equilibrium.d_inf
    out = advance_director(d, MacVelocity.zeros(grid), p, 1e-2)
    drift = max(np.abs(out.d1 - d.d1).max(), np.abs(out.d2 - d.d2).max())
    assert drift <= 1e-9


def test_energy_decreases_along_gradient_flow(grid):
    p = GLParams(gamma=1.0, eta=0.5, lam=1.0)
    X, Y = grid.cell_centers()
    d1, d2 = _wavy_trace(X, Y)
    d = DirectorField(grid, 0.9 * d1, 0.9 * d2,
                      DirectorTrace.sample(grid, _wavy_trace))
    w = MacVelocity.zeros(grid)
    prev = director_energy(d, 0.5)
    for _ in range(30):
        d = advance_director(d, w, p, 0.1)
        cur = director_energy(d, 0.5)
        assert cur <= prev + 1e-12
        prev = cur


def test_equilibrium_is_local_minimum(grid, wavy_equilibrium):
    """E does not decrease along small trace-respecting perturbations in
    the convex (large-eta-like) regime."""
    d = wavy_equilibrium.d_inf
    e0 = wavy_equilibrium.energy
    rng = np.random.default_rng(42)
    eps = 1e-3
    for _ in range(20):
        p1 = rng.normal(size=d.d1.shape)
        p2 = rng.normal(size=d.d2.shape)
        pert = DirectorField(grid, d.d1 + eps * p1 / np.abs(p1).max(),
                             d.d2 + eps * p2 / np.abs(p2).max(),
                             d.trace)
        assert director_energy(pert, 0.5) >= e0 - 1e-8


def test_harmonic_extension_preconditioner_inverts_minus_laplacian():
    # each component is discretely harmonic with the trace's ghosts,
    # measured against the trace load that drives the solve
    g = GridSpec(16, 12, 2.0, 1.5)

    trace = DirectorTrace.sample(
        g, lambda x, y: (x + 2.0 * y**2, np.sin(3.0 * x) * y))
    d = stationary._harmonic_extension(g, trace)
    for comp, load in zip(d.components(), trace.load):
        assert np.abs(load).max() > 0.0
        assert np.abs(laplacian(comp).values).max() \
            <= 1e-12 * np.abs(load).max()


def test_nan_residual_is_not_taken_for_convergence(grid):
    # `res > tol` is False for NaN, so a NaN trace once "converged" at once
    def trace(x, y):
        d1 = np.where((x == 0.0) & (y < grid.hy), np.nan, 1.0)
        return d1, np.zeros_like(x)

    with pytest.raises(NlcflowError, match="non-finite residual"):
        solve_stationary(grid, DirectorTrace.sample(grid, trace), eta=0.5)


def test_probe_recovers_planted_exponent():
    gaps = np.geomspace(1e-9, 1e-2, 12)
    theta = 0.25
    samples = [(g, g ** (1 - theta)) for g in gaps]
    assert lojasiewicz_probe(samples) == pytest.approx(theta, abs=1e-12)


def test_probe_clamps_at_half():
    gaps = np.geomspace(1e-9, 1e-2, 12)
    samples = [(g, g ** 0.5) for g in gaps]
    assert lojasiewicz_probe(samples) == 0.5


def test_probe_filters_and_requires_samples():
    with pytest.raises(InsufficientSamples):
        lojasiewicz_probe([(2.0, 0.5), (0.5, 3.0), (0.1, 0.2)])


def test_probe_certifies_inequality_on_samples():
    rng = np.random.default_rng(1)
    gaps = rng.uniform(1e-8, 0.5, 30)
    samples = [(g, g ** rng.uniform(0.5, 0.9)) for g in gaps]
    theta = lojasiewicz_probe(samples)
    assert 0 < theta <= 0.5
    for g, r in samples:
        assert r >= g ** (1 - theta) * (1 - 1e-12)


def test_kappa_formula():
    assert kappa_predicted(0.25, 1.0) == pytest.approx(0.5)
    assert kappa_predicted(0.5, 1.0) == pytest.approx(0.5)
    # theta/(1-2*theta) = 2 but xi/2 = 1.5 wins the min
    assert kappa_predicted(0.4, 3.0) == pytest.approx(1.5)


def test_rate_fit_exact_power_law():
    ts = np.linspace(0.0, 49.0, 50)
    fit = decay_rate_fit(ts, (1 + ts) ** -2.0, theta_est=0.25, xi=1.0)
    assert fit.kappa_fit == pytest.approx(2.0, abs=1e-6)
    assert fit.kappa_pred == pytest.approx(0.5)
    assert fit.exceeds_prediction


def test_rate_fit_constant_series():
    ts = np.linspace(0.0, 49.0, 50)
    fit = decay_rate_fit(ts, np.ones(50), theta_est=0.25, xi=1.0)
    assert fit.kappa_fit == pytest.approx(0.0, abs=1e-12)


def test_rate_fit_degenerate_floor():
    ts = np.linspace(0.0, 49.0, 50)
    vals = np.full(50, 1e-320)
    with pytest.raises(DegenerateFit):
        decay_rate_fit(ts, vals, theta_est=0.25, xi=1.0)
