import numpy as np
import pytest

from nlcflow import director as director_module
from nlcflow import grid as grid_module
from nlcflow.director import (GLParams, advance_director, director_energy,
                              gl_f, gl_residual_l2)
from nlcflow.errors import DegenerateFit, InsufficientSamples, NlcflowError
from nlcflow import stationary
from nlcflow.grid import (DirectorField, DirectorTrace, GridSpec, MacVelocity,
                          laplacian)
from nlcflow.stationary import (decay_rate_fit, kappa_predicted,
                                lojasiewicz_probe, solve_stationary)
from stencils import reference_gradient_flow


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
    for comp, walls, load in zip((d.d1, d.d2), trace.walls, trace.load):
        assert np.abs(load).max() > 0.0
        assert np.abs(laplacian(comp, g, walls)).max() \
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


# -- the descent against the gradient flow it replaced, and its parts -------

def _angle_trace(grid, theta):
    return DirectorTrace.sample(grid, lambda x, y: (
        np.cos(theta(x, y)), np.sin(theta(x, y))))


def _bistable_problem(ratio, tol):
    """Zero trace at 32^2 with 1/eta^2 = ratio * mu_1 > mu_1, mu_1 the
    smallest eigenvalue of -lap_0: d = 0 is a saddle of E, and the seed
    0.3 sin(pi x) sin(pi y) in d1 lies on its unstable side."""
    g = GridSpec(32, 32)
    mu_1 = 2.0 * (2.0 - 2.0 * np.cos(np.pi / 32)) / g.hx**2
    trace = DirectorTrace.sample(g, lambda x, y: (np.zeros_like(x),
                                                  np.zeros_like(x)))
    X, Y = g.cell_centers()
    seed = DirectorField(g, 0.3 * np.sin(np.pi * X) * np.sin(np.pi * Y),
                         np.zeros_like(X), trace)
    return g, trace, 1.0 / np.sqrt(ratio * mu_1), seed, tol


_REFERENCE_CASES = {
    "wavy-32": lambda: (GridSpec(32, 32),
                        DirectorTrace.sample(GridSpec(32, 32), _wavy_trace),
                        0.5, None, 1e-9),
    "half-pi-xy-64": lambda: (GridSpec(64, 64), _angle_trace(
        GridSpec(64, 64), lambda x, y: 0.5 * np.pi * x * y), 0.5, None, 1e-9),
    "stiff-32": lambda: (GridSpec(32, 32), _angle_trace(
        GridSpec(32, 32), lambda x, y: 2.0 * np.pi * x * y), 0.2, None, 1e-9),
    # max|d_inf| = 0.886 and 0.289. Near the pitchfork E is flat about its
    # minimum, so a residual of 1e-9 leaves the two limits ~1e-9 apart:
    # that case solves to 1e-10
    "bistable-seed-32": lambda: _bistable_problem(2.1, 1e-9),
    "near-pitchfork-seed-32": lambda: _bistable_problem(1.05, 1e-10),
}


@pytest.mark.parametrize("case", list(_REFERENCE_CASES))
def test_descent_reaches_the_gradient_flows_equilibrium(monkeypatch, case):
    g, trace, eta, seed, tol = _REFERENCE_CASES[case]()
    ref = reference_gradient_flow(g, trace, eta, tol, seed)
    if seed is not None:
        monkeypatch.setattr(stationary, "_harmonic_extension",
                            lambda grid, tr: seed)
    res = solve_stationary(g, trace, eta, tol_stationary=tol)
    gap = max(np.abs(res.d_inf.d1 - ref.d1).max(),
              np.abs(res.d_inf.d2 - ref.d2).max())
    assert gap <= 1e-9
    assert res.energy == pytest.approx(director_energy(ref, eta),
                                       rel=1e-11, abs=1e-14)
    if seed is not None:
        # the nonzero minimum, not the saddle d = 0
        assert np.sqrt(res.d_inf.norm_sq.max()) > 0.25


def test_final_check_restarts_from_the_stencils_laplacian(monkeypatch):
    # a start that keeps a wrong Laplacian (zero, for a non-harmonic
    # seed) misleads the carried residual; the stencil's check catches it
    # and the descent goes on from the stencil's Laplacian
    g, trace, eta, seed, tol = _bistable_problem(2.1, 1e-9)
    ref = reference_gradient_flow(g, trace, eta, tol, seed)
    wrong = DirectorField(g, seed.d1, seed.d2, trace)
    wrong.derived("lap", lambda: (np.zeros_like(seed.d1),) * 2)
    monkeypatch.setattr(stationary, "_harmonic_extension",
                        lambda grid, tr: wrong)
    descents = []
    descend = stationary._descend

    def counted(*args):
        descents.append(args)
        return descend(*args)

    monkeypatch.setattr(stationary, "_descend", counted)
    res = solve_stationary(g, trace, eta, tol_stationary=tol)
    assert len(descents) == 2
    assert res.residual <= tol
    assert np.abs(res.d_inf.d1 - ref.d1).max() <= 1e-9


def _spy(fn, calls):
    """fn, recording the values array of each call in `calls`."""
    def spied(values, *args):
        calls.append(values)
        return fn(values, *args)
    return spied


def test_solve_applies_no_stencil_before_its_final_check(monkeypatch):
    g = GridSpec(32, 32)
    trace = _angle_trace(g, lambda x, y: 0.5 * np.pi * x * y)
    trace.load  # the run's first use of the trace applies the stencil
    # every Dirichlet stencil goes through one of these two, a Laplacian
    # through gradient_to_faces
    stencils, advected = [], []
    for name in ("gradient_to_faces", "centered_gradient_at_centers"):
        monkeypatch.setattr(grid_module, name,
                            _spy(getattr(grid_module, name), stencils))
    monkeypatch.setattr(director_module, "advect_director",
                        lambda *args: advected.append(args))
    res = solve_stationary(g, trace, eta=0.5)
    assert res.iterations > 0
    assert advected == []
    # the residual check's stencil, one per component
    assert len(stencils) == 2


def test_carried_laplacian_matches_the_stencil():
    # the descent's Laplacian is summed from the solves; it stays within
    # 32 ulps of the stencil's scale (4/hx^2 + 4/hy^2) max|d| of it
    g = GridSpec(48, 40, 1.0, 0.8)
    trace = _angle_trace(g, lambda x, y: 2.0 * np.pi * x * y)
    start = stationary._harmonic_extension(g, trace)
    x = [start.d1.copy(), start.d2.copy()]
    lap = [a.copy() for a in start.lap]
    assert stationary._descend(g, 0.2, x, lap, 1e-9, 0) > 5
    scale = (4.0 / g.hx**2 + 4.0 / g.hy**2) * max(np.abs(x[0]).max(),
                                                  np.abs(x[1]).max())
    for xk, lk, walls in zip(x, lap, trace.walls):
        stencil = laplacian(xk, g, walls)
        assert np.abs(lk - stencil).max() <= 32 * np.finfo(float).eps * scale


def test_descent_reads_the_residual_of_gl_residual_l2():
    # to the bit, so that a descent restarted from the stencil's
    # Laplacian after a failed check makes at least one iteration
    g = GridSpec(32, 32)
    start = stationary._harmonic_extension(
        g, _angle_trace(g, lambda x, y: 0.5 * np.pi * x * y))
    d = DirectorField(g, start.d1, start.d2, start.trace)
    res = gl_residual_l2(d, 0.7)

    def descend(tol):
        x, lap = [d.d1.copy(), d.d2.copy()], [a.copy() for a in d.lap]
        return stationary._descend(g, 0.7, x, lap, tol, 0)
    assert descend(res) == 0
    assert descend(np.nextafter(res, 0.0)) >= 1


def _ray(g, d, p, eta):
    """The cubic of `_ray_cubic` for d and p, and E(d + alpha p)."""
    lap_p = [laplacian(pk, g) for pk in p]
    grad = [fk - lk for fk, lk in zip(gl_f(d, eta), d.lap)]
    c = stationary._ray_cubic([d.d1, d.d2], d.norm_sq - 1.0, grad, p, lap_p,
                              eta)

    def energy(alpha):
        return director_energy(DirectorField(
            g, d.d1 + alpha * p[0], d.d2 + alpha * p[1], d.trace), eta)
    return c, energy


def _slope(energy, alpha, h):
    # the five-point central difference, exact on a quartic up to rounding
    return (8.0 * (energy(alpha + h) - energy(alpha - h))
            - (energy(alpha + 2 * h) - energy(alpha - 2 * h))) / (12.0 * h)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ray_cubic_roots_zero_the_energys_slope(seed):
    g = GridSpec(16, 12, 1.0, 0.75)
    trace = _angle_trace(g, lambda x, y: 2.0 * x * y)
    X, Y = g.cell_centers()
    rng = np.random.default_rng(seed)
    d = DirectorField(g, np.cos(2 * X * Y) + 0.3 * rng.normal(size=X.shape),
                      np.sin(2 * X * Y) + 0.3 * rng.normal(size=X.shape),
                      trace)
    p = [rng.normal(size=X.shape), rng.normal(size=X.shape)]
    c, energy = _ray(g, d, p, 0.3)
    if c[0] > 0.0:  # descend along the ray
        p = [-pk for pk in p]
        c, energy = _ray(g, d, p, 0.3)
    alpha = stationary._first_minimum(*c)
    scale = g.cell_area * abs(c[0])
    assert _slope(energy, 0.0, 1e-3 * alpha) == pytest.approx(
        g.cell_area * c[0], rel=1e-8)
    roots = np.roots(c[::-1])
    real = roots.real[roots.imag == 0.0]
    assert alpha == real[real > 0].min()
    for root in real:
        assert abs(_slope(energy, root, 1e-3 * abs(root))) <= 1e-8 * scale


def test_line_search_takes_the_first_of_two_minima():
    # along d + alpha p, d = -1.2 b and p = b, E is a double well in
    # t = alpha - 1.2 with minima at +-t*: the search stops at -t*
    g = GridSpec(16, 16)
    X, Y = g.cell_centers()
    b = np.sin(np.pi * X) * np.sin(np.pi * Y)
    trace = DirectorTrace.sample(g, lambda x, y: (np.zeros_like(x),
                                                  np.zeros_like(x)))
    d = DirectorField(g, -1.2 * b, np.zeros_like(b), trace)
    c, energy = _ray(g, d, [b, np.zeros_like(b)], 0.1)
    roots = np.sort(np.roots(c[::-1]).real)
    assert roots[0] > 0 and roots[1] - 1.2 == pytest.approx(0.0, abs=1e-12)
    assert roots[2] - 1.2 == pytest.approx(1.2 - roots[0], rel=1e-10)
    alpha = stationary._first_minimum(*c)
    assert alpha == roots[0]
    assert energy(alpha) < energy(0.0)
