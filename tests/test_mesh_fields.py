import numpy as np
import pytest

from nlcflow.grid import (DirectorField, DirectorTrace, GridSpec, MacVelocity,
                          ScalarField, cell_h1_sq,
                          centered_gradient_at_centers, density_at_faces,
                          divergence, elastic_identity_residual,
                          gradient_interior_faces, gradient_to_faces,
                          laplacian, norms, sample_walls)
from nlcflow.diagnostics import kinetic_energy
from stencils import (_lap_u_interior, _lap_v_interior,
                      laplacian_interior_faces, pad_with_ghosts,
                      padded_centered_gradient, padded_gradient_to_faces,
                      padded_laplacian, reference_cell_h1,
                      reference_elastic_identity_residual,
                      reference_kinetic_energy, reference_norm)


@pytest.fixture
def grid():
    return GridSpec(16, 12, 2.0, 1.5)


def _zero_trace(x, y):
    return np.zeros_like(x), np.zeros_like(x)


def test_grid_spacings(grid):
    assert grid.hx == pytest.approx(2.0 / 16)
    assert grid.hy == pytest.approx(1.5 / 12)
    assert grid.cell_area == pytest.approx(grid.hx * grid.hy)


def test_cell_centers_cover_domain(grid):
    X, Y = grid.cell_centers()
    assert X.shape == (16, 12)
    assert X[0, 0] == pytest.approx(grid.hx / 2)
    assert X[-1, 0] == pytest.approx(2.0 - grid.hx / 2)
    assert Y[0, -1] == pytest.approx(1.5 - grid.hy / 2)


def test_poincare_constant_rectangle(grid):
    expected = 1.0 / np.sqrt(np.pi**2 * (1 / 4.0 + 1 / 2.25))
    assert grid.poincare_constant() == pytest.approx(expected, rel=1e-14)


def test_divergence_of_noslip_field_sums_to_zero(grid):
    rng = np.random.default_rng(7)
    w = MacVelocity(grid, rng.normal(size=(17, 12)),
                    rng.normal(size=(16, 13)))
    w.enforce_noslip()
    assert abs(divergence(w).values.sum()) < 1e-12


def test_gradient_divergence_adjoint(grid):
    """<grad p, w> = -<p, div w> for interior-face gradients and no-slip w,
    with the half-weight boundary-face quadrature."""
    rng = np.random.default_rng(3)
    p = rng.normal(size=(16, 12))
    w = MacVelocity(grid, rng.normal(size=(17, 12)),
                    rng.normal(size=(16, 13)))
    w.enforce_noslip()
    gp = gradient_interior_faces(p, grid)
    lhs = (np.sum(gp.u * w.u) + np.sum(gp.v * w.v)) * grid.cell_area
    rhs = -np.sum(p * divergence(w).values) * grid.cell_area
    assert lhs == pytest.approx(rhs, rel=1e-13)


def test_laplacian_is_div_of_grad(grid):
    rng = np.random.default_rng(11)
    s = rng.normal(size=(16, 12))
    composed = divergence(gradient_to_faces(s, grid)).values
    assert np.array_equal(laplacian(s, grid), composed)


# The cell stencils build their wall rows from slices with the Dirichlet
# ghost 2g - interior; each element goes through the operations of the
# padded formula, so the two agree to the bit.

@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("grid_args", [(16, 12, 2.0, 1.5), (16, 12, 1.0, 1.5),
                                       (4, 5, 1.0, 1.5)])
def test_stencils_from_slices_equal_the_padded_reference(grid_args, traced):
    g = GridSpec(*grid_args)
    values = np.random.default_rng(29).normal(size=(g.nx, g.ny))
    walls = sample_walls(g, lambda x, y: np.cos(1.0 + x + 2.0 * y)) \
        if traced else None
    got, ref = (gradient_to_faces(values, g, walls),
                padded_gradient_to_faces(values, g, walls))
    assert np.array_equal(got.u, ref.u) and np.array_equal(got.v, ref.v)
    assert np.array_equal(laplacian(values, g, walls),
                          padded_laplacian(values, g, walls))
    for a, b in zip(centered_gradient_at_centers(values, g, walls),
                    padded_centered_gradient(values, g, walls)):
        assert np.array_equal(a, b)


def _padded_face_laplacian(x, g, axis):
    """The face Laplacian from a ghost-padded copy: zero node values along
    the component's axis, -interior ghosts across it."""
    cx, cy = 1.0 / g.hx**2, 1.0 / g.hy**2
    p = np.zeros((x.shape[0] + 2, x.shape[1] + 2))
    p[1:-1, 1:-1] = x
    if axis == 0:
        p[1:-1, 0], p[1:-1, -1] = -x[:, 0], -x[:, -1]
    else:
        p[0, 1:-1], p[-1, 1:-1] = -x[0, :], -x[-1, :]
    lap = (p[2:, 1:-1] + p[:-2, 1:-1]) * cx
    lap += (p[1:-1, 2:] + p[1:-1, :-2]) * cy
    lap -= (2.0 * (cx + cy)) * x
    return lap


@pytest.mark.parametrize("axis", [0, 1])
def test_face_laplacian_from_slices_equals_the_padded_formula(grid, axis):
    shape = (grid.nx - 1, grid.ny) if axis == 0 else (grid.nx, grid.ny - 1)
    x = np.random.default_rng(22 + axis).normal(size=shape)
    ref = _padded_face_laplacian(x, grid, axis)
    out, work = np.empty(shape), np.empty(shape)
    assert laplacian_interior_faces(x, grid, axis, out=out, work=work) \
        is out
    assert (out == ref).all()
    assert (laplacian_interior_faces(x, grid, axis) == ref).all()


def test_kept_values_make_their_field_read_only(grid):
    # a value derived once and kept with its field cannot go stale: the
    # field's arrays and the kept ones refuse writes
    rng = np.random.default_rng(23)
    d = DirectorField(grid, *rng.normal(size=(2, grid.nx, grid.ny)),
                      DirectorTrace.sample(grid, _zero_trace))
    rho = ScalarField(grid, 1.0 + rng.uniform(size=(grid.nx, grid.ny)))
    w = MacVelocity(grid, rng.normal(size=(grid.nx + 1, grid.ny)),
                    rng.normal(size=(grid.nx, grid.ny + 1)))
    kept = [*d.lap, *d.gradients[0], *d.gradients[1], *rho.faces]
    assert w.div_inf == np.abs(divergence(w).values).max()
    for a in (d.d1, d.d2, rho.values, w.u, w.v, *kept):
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0] = 0.0
    # the kept values are those of the operators
    assert np.array_equal(d.lap[1], laplacian(d.d2, grid, d.trace.walls[1]))
    assert np.array_equal(rho.faces[0], density_at_faces(rho.values,
                                                         grid)[0])


def test_dirichlet_ghost_linear_extrapolation():
    g = GridSpec(4, 4, 1.0, 1.0)
    s = np.ones((4, 4))
    grad = gradient_to_faces(
        s, g, sample_walls(g, lambda x, y: 2.0 * np.ones_like(x)))
    # the ghost behind a boundary face's difference: ghost = 2*g -
    # interior = 4 - 1
    assert np.allclose(s[0] - g.hx * grad.u[0], 3.0)
    assert np.allclose(s[:, -1] + g.hy * grad.v[:, -1], 3.0)


def test_h1_semi_linear_scalar():
    g = GridSpec(32, 32, 1.0, 1.0)
    X, _ = g.cell_centers()
    # |grad| = 2 everywhere on the unit square; with the exact trace the
    # boundary faces' differences are exact too
    walls = sample_walls(g, lambda x, y: 2.0 * x)
    assert np.sqrt(cell_h1_sq(g, 2.0 * X, walls)) == pytest.approx(
        2.0, rel=1e-12)


# Summation by parts: the energy law turns <s, -lap s> into ||grad s||^2.
# The half weights on boundary faces in H1_semi are what make it exact.

@pytest.mark.parametrize("walls", [None], ids=["dirichlet"])
def test_scalar_h1_semi_summation_by_parts(grid, walls):
    rng = np.random.default_rng(11)
    s = rng.normal(size=(16, 12))
    form = -np.sum(s * laplacian(s, grid, walls)) * grid.cell_area
    assert cell_h1_sq(grid, s, walls) == pytest.approx(form, rel=1e-12)


def test_noslip_velocity_h1_semi_summation_by_parts(grid):
    rng = np.random.default_rng(12)
    w = MacVelocity(grid, rng.normal(size=(17, 12)),
                    rng.normal(size=(16, 13)))
    w.enforce_noslip()
    ui, vi = w.u[1:-1, :], w.v[:, 1:-1]
    form = -(np.sum(ui * _lap_u_interior(ui, grid))
             + np.sum(vi * _lap_v_interior(vi, grid))) * grid.cell_area
    assert norms(w, "H1_semi") ** 2 == pytest.approx(form, rel=1e-12)


# The norms sum their quadratures from slices, without ghost-padded copies,
# weight arrays or wrappers; the padded formulas they replace are the
# reference. A field's values are smooth plus noise, so that its
# differences are small against its values, and no wall value is zero.

def _wavy_trace(x, y):
    return np.cos(1.0 + x + 2.0 * y), np.sin(0.5 + 3.0 * x * y)


def _quadrature_case(name, g):
    rng = np.random.default_rng(17)
    X, Y = g.cell_centers()

    def smooth(shift):
        return (np.sin(2.0 * X + shift) * np.cos(Y) + 0.5
                + 1e-3 * rng.normal(size=X.shape))

    if name == "velocity":
        Xu, Yu = g.uface_coords()
        Xv, Yv = g.vface_coords()
        return MacVelocity(g, np.cos(Xu) * np.sin(Yu + 1.0) + 0.3,
                           rng.normal(size=Xv.shape))
    if name.startswith("director"):
        # "director_none": the zero trace
        trace = _wavy_trace if name == "director_trace" else _zero_trace
        return DirectorField(g, smooth(0.0), smooth(1.0),
                             DirectorTrace.sample(g, trace))
    # a cell array and its Dirichlet walls ("dirichlet": none)
    walls = sample_walls(g, lambda x, y: 2.0 + x * y) \
        if name == "dirichlet:trace" else None
    return smooth(0.0), walls


@pytest.mark.parametrize("shape", [(16, 12), (128, 128)])
@pytest.mark.parametrize("case", [
    "dirichlet", "dirichlet:trace",
    "director_trace", "director_none", "velocity"])
def test_norms_match_the_padded_reference(case, shape):
    g = GridSpec(*shape, 2.0, 1.5)
    f = _quadrature_case(case, g)
    if isinstance(f, tuple):
        values, walls = f
        assert np.sqrt(cell_h1_sq(g, values, walls)) == pytest.approx(
            reference_cell_h1(values, g, walls), rel=1e-12, abs=0.0)
        return
    for kind in ("L2", "H1_semi"):
        assert norms(f, kind) == pytest.approx(reference_norm(f, kind),
                                               rel=1e-12, abs=0.0)
    if isinstance(f, DirectorField):
        # max|d| is the square root of max |d|^2, bitwise
        assert norms(f, "Linf") == np.sqrt(f.d1**2 + f.d2**2).max()
    if isinstance(f, MacVelocity):
        rho = ScalarField(g, 1.5 + 0.3 * np.cos(sum(g.cell_centers())))
        assert kinetic_energy(rho, f) == pytest.approx(
            reference_kinetic_energy(rho, f), rel=1e-12, abs=0.0)


def test_mac_velocity_noslip_and_maxspeed(grid):
    w = MacVelocity(grid, np.ones((17, 12)), np.ones((16, 13)))
    w.enforce_noslip()
    assert w.u[0].max() == 0.0 and w.u[-1].max() == 0.0
    assert w.v[:, 0].max() == 0.0 and w.v[:, -1].max() == 0.0
    assert w.max_speed() == (1.0, 1.0)


def test_director_component_trace():
    g = GridSpec(8, 8, 1.0, 1.0)
    d = DirectorField(g, np.ones((8, 8)), np.zeros((8, 8)),
                      DirectorTrace.sample(g, lambda x, y: (
                          np.ones_like(x), np.zeros_like(x))))
    p = pad_with_ghosts(g, d.d1, "dirichlet", d.trace.walls[0])
    assert np.allclose(p, 1.0)  # constant extends exactly


def test_director_walls_sit_at_their_face_midpoints(grid):
    # an asymmetric trace on a non-square grid: swapping any two walls or
    # the x/y roles would put the wrong values at some face
    def trace(x, y):
        return x + 2.0 * y**2, np.sin(3.0 * x) * y

    rng = np.random.default_rng(3)
    d = DirectorField(grid, rng.normal(size=(16, 12)),
                      rng.normal(size=(16, 12)),
                      DirectorTrace.sample(grid, trace))
    xc = (np.arange(grid.nx) + 0.5) * grid.hx
    yc = (np.arange(grid.ny) + 0.5) * grid.hy
    faces = {"west": (np.s_[0, 1:-1], np.s_[1, 1:-1], 0.0 * yc, yc),
             "east": (np.s_[-1, 1:-1], np.s_[-2, 1:-1], grid.Lx + 0.0 * yc, yc),
             "south": (np.s_[1:-1, 0], np.s_[1:-1, 1], xc, 0.0 * xc),
             "north": (np.s_[1:-1, -1], np.s_[1:-1, -2], xc, grid.Ly + 0.0 * xc)}
    for k in range(2):
        p = pad_with_ghosts(grid, (d.d1, d.d2)[k], "dirichlet",
                            d.trace.walls[k])
        for name, (ghost, inner, x, y) in faces.items():
            face = 0.5 * (p[ghost] + p[inner])
            assert np.abs(face - trace(x, y)[k]).max() <= 1e-14, (k, name)


def test_director_trace_arrays_are_read_only(grid):
    trace = DirectorTrace.sample(
        grid, lambda x, y: (x + 2.0 * y**2, np.sin(3.0 * x) * y))
    for arr in [*trace.walls[0], *trace.walls[1], *trace.load]:
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0
    # computed once, on first use
    assert trace.load is trace.load


def test_director_rejects_a_trace_from_another_grid(grid):
    other = GridSpec(16, 12, 1.0, 1.0)
    trace = DirectorTrace.sample(other, lambda x, y: (x, y))
    with pytest.raises(ValueError, match="another grid"):
        DirectorField(grid, np.ones((16, 12)), np.ones((16, 12)), trace)


def test_scalar_field_rejects_a_callable_trace():
    # a ScalarField carries no boundary data at all; the director's trace
    # is sampled into wall arrays
    g = GridSpec(4, 4, 1.0, 1.0)
    with pytest.raises(TypeError):
        ScalarField(g, np.ones((4, 4)), "dirichlet", lambda x, y: 0.0 * x)


def test_density_at_faces_constant(grid):
    ru, rv = density_at_faces(np.full((16, 12), 2.5), grid)
    assert np.allclose(ru, 2.5) and np.allclose(rv, 2.5)


def test_elastic_identity_residual_smooth_field_small():
    g = GridSpec(64, 64, 1.0, 1.0)
    X, Y = g.cell_centers()
    th = 0.4 * np.sin(np.pi * X) * np.sin(np.pi * Y)

    def trace(x, y):
        t = 0.4 * np.sin(np.pi * x) * np.sin(np.pi * y)
        return np.cos(t), np.sin(t)

    d = DirectorField(g, np.cos(th), np.sin(th),
                      DirectorTrace.sample(g, trace))
    assert elastic_identity_residual(d) < 0.05


def test_elastic_identity_residual_needs_a_margin():
    g = GridSpec(8, 8, 1.0, 1.0)
    d = DirectorField(g, np.ones((8, 8)), np.zeros((8, 8)),
                      DirectorTrace.sample(g, lambda x, y: (
                          np.ones_like(x), np.zeros_like(x))))
    for margin in (0, -1):
        with pytest.raises(ValueError, match="margin"):
            elastic_identity_residual(d, margin)


@pytest.mark.parametrize("margin", [1, 2])
def test_elastic_identity_residual_equals_the_padded_reference(margin):
    # the outer derivatives' wall rows, which the padded form filled with
    # extrapolated ghosts, lie outside every margin
    g = GridSpec(16, 12, 2.0, 1.5)
    X, Y = g.cell_centers()
    th = 0.6 * np.sin(X + 2.0 * Y)
    d = DirectorField(g, np.cos(th), np.sin(th),
                      DirectorTrace.sample(g, lambda x, y: (
                          np.cos(0.6 * np.sin(x + 2.0 * y)),
                          np.sin(0.6 * np.sin(x + 2.0 * y)))))
    assert elastic_identity_residual(d, margin) \
        == reference_elastic_identity_residual(d, margin)
