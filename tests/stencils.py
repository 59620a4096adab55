"""Reference stencils and quadratures, which the package no longer applies.

The ghost fill `pad_with_ghosts` and the padded cell stencils built on it
are the package's former wall handling: an (nx+2) x (ny+2) copy of a cell
field with Dirichlet, zero-Neumann or linearly extrapolated ghosts. The
package builds its Dirichlet stencils from slices; the tests check them
bitwise against these, and `NeumannPoisson` against the Neumann Laplacian.

The 5-point Laplacians of the MAC velocity components on interior faces
are the stencils that `FaceHelmholtz` inverts. The tests check the
eigenbasis solvers and the predictor's solution against them.

The quadratures are the padded formulas of `grid.norms`, `grid.cell_h1_sq`
and `diagnostics.kinetic_energy`: a cell field's H1 seminorm as the face
L2 norm of the padded face gradient, a velocity's L2 norm and H1 seminorm
summed from scaled differences, and the kinetic energy with per-call
weight arrays. The package sums the same quadratures from slices;
the tests compare the two.

The reference gradient flow is the stationary solve's former method: the
director step with a zero velocity and a pseudo time step of 50, iterated
to the Ginzburg-Landau residual. Its fixed points are the equilibria, and
like the descent that replaced it, it lowers E on every step; the tests
compare the equilibria the two reach.
"""

import numpy as np

from nlcflow import stationary
from nlcflow.director import GLParams, advance_director, gl_residual_l2
from nlcflow.density import DensityState
from nlcflow.grid import (DirectorField, DirectorTrace, GridSpec, MacVelocity,
                          Walls, divergence)


def pad_with_ghosts(grid: GridSpec, values: np.ndarray, kind: str,
                    bv: Walls | None) -> np.ndarray:
    """Deterministic ghost fill: Dirichlet by linear extrapolation through the
    boundary face (``bv`` the wall arrays, ``None`` for zero), zero-Neumann
    by mirror, extrapolate linearly from the two nearest interior cells.
    Corners are averaged from the two adjacent ghosts (no operator uses
    them; they just keep the array finite)."""
    nx, ny = grid.nx, grid.ny
    p = np.empty((nx + 2, ny + 2), dtype=np.float64)
    p[1:-1, 1:-1] = values
    if kind == "dirichlet":
        gw, ge, gs, gn = (0.0,) * 4 if bv is None else bv
        p[0, 1:-1] = 2.0 * gw - values[0, :]
        p[-1, 1:-1] = 2.0 * ge - values[-1, :]
        p[1:-1, 0] = 2.0 * gs - values[:, 0]
        p[1:-1, -1] = 2.0 * gn - values[:, -1]
    elif kind == "neumann_zero":
        p[0, 1:-1] = values[0, :]
        p[-1, 1:-1] = values[-1, :]
        p[1:-1, 0] = values[:, 0]
        p[1:-1, -1] = values[:, -1]
    else:  # extrapolate
        p[0, 1:-1] = 2.0 * values[0, :] - values[1, :]
        p[-1, 1:-1] = 2.0 * values[-1, :] - values[-2, :]
        p[1:-1, 0] = 2.0 * values[:, 0] - values[:, 1]
        p[1:-1, -1] = 2.0 * values[:, -1] - values[:, -2]
    p[0, 0] = 0.5 * (p[0, 1] + p[1, 0])
    p[-1, 0] = 0.5 * (p[-1, 1] + p[-2, 0])
    p[0, -1] = 0.5 * (p[0, -2] + p[1, -1])
    p[-1, -1] = 0.5 * (p[-1, -2] + p[-2, -1])
    return p


def padded_gradient_to_faces(values: np.ndarray, grid: GridSpec,
                             walls: Walls | None = None,
                             kind: str = "dirichlet") -> MacVelocity:
    """Face-centered gradient from the ghost fill of `kind`."""
    pp = pad_with_ghosts(grid, values, kind, walls)
    u = (pp[1:, 1:-1] - pp[:-1, 1:-1]) / grid.hx
    v = (pp[1:-1, 1:] - pp[1:-1, :-1]) / grid.hy
    return MacVelocity(grid, u, v)


def padded_laplacian(values: np.ndarray, grid: GridSpec,
                     walls: Walls | None = None,
                     kind: str = "dirichlet") -> np.ndarray:
    """5-point Laplacian, divergence of `padded_gradient_to_faces`."""
    return divergence(padded_gradient_to_faces(values, grid, walls, kind))


def padded_centered_gradient(values: np.ndarray, grid: GridSpec,
                             walls: Walls | None = None,
                             kind: str = "dirichlet"
                             ) -> tuple[np.ndarray, np.ndarray]:
    """Centered first derivatives at cell centers from the ghost fill."""
    p = pad_with_ghosts(grid, values, kind, walls)
    dx = (p[2:, 1:-1] - p[:-2, 1:-1]) / (2.0 * grid.hx)
    dy = (p[1:-1, 2:] - p[1:-1, :-2]) / (2.0 * grid.hy)
    return dx, dy


def reference_elastic_identity_residual(d: DirectorField,
                                        margin: int) -> float:
    """`grid.elastic_identity_residual` from padded stencils: the
    director's gradients and Laplacians with the trace's ghosts, and the
    outer derivatives with linearly extrapolated ghosts, which the
    margin then cuts off."""
    g = d.grid
    (d1x, d1y), (d2x, d2y) = (padded_centered_gradient(c, g, w) for c, w in
                              zip((d.d1, d.d2), d.trace.walls))
    lap1, lap2 = (padded_laplacian(c, g, w) for c, w in
                  zip((d.d1, d.d2), d.trace.walls))
    s11 = d1x * d1x + d2x * d2x
    s12 = d1x * d1y + d2x * d2y
    s22 = d1y * d1y + d2y * d2y

    def ddx(a):
        return padded_centered_gradient(a, g, kind="extrapolate")[0]

    def ddy(a):
        return padded_centered_gradient(a, g, kind="extrapolate")[1]

    lhs_x = ddx(s11) + ddy(s12)
    lhs_y = ddx(s12) + ddy(s22)
    grad_sq = s11 + s22
    rhs_x = 0.5 * ddx(grad_sq) + lap1 * d1x + lap2 * d2x
    rhs_y = 0.5 * ddy(grad_sq) + lap1 * d1y + lap2 * d2y
    m = margin
    res = np.maximum(np.abs(lhs_x - rhs_x), np.abs(lhs_y - rhs_y))
    return float(res[m:-m, m:-m].max())


def laplacian_interior_faces(x: np.ndarray, grid: GridSpec, axis: int,
                             out: np.ndarray | None = None,
                             work: np.ndarray | None = None) -> np.ndarray:
    """5-point Laplacian of one MAC velocity component on its interior
    faces, the stencil `FaceHelmholtz` inverts: axis=0 for u (input
    shape (nx-1, ny)), axis=1 for v ((nx, ny-1)). Walls: zero node values
    along the component's own axis, -interior ghosts across it. Written
    into `out` when given; `work`, of x's shape, is overwritten as scratch
    when given, so that nothing is allocated.

    Built from slices of x, without a ghost-padded copy, in the order of
    the padded formula cx*(east + west) + cy*(north + south) - 2(cx+cy)*x:
    a wall neighbour's zero drops out of its sum (a + 0 is a) and a
    -interior ghost turns the sum into a difference (a + (-b) is a - b),
    so the result is the padded formula's up to the sign of a zero."""
    cx, cy = 1.0 / grid.hx**2, 1.0 / grid.hy**2
    lap = np.empty_like(x) if out is None else out
    across = np.empty_like(x) if work is None else work
    # the x-direction sum into lap, the y-direction sum into across
    _neighbour_sum(x, 0, axis == 1, lap)
    _neighbour_sum(x, 1, axis == 0, across)
    lap *= cx
    across *= cy
    lap += across
    np.multiply(x, 2.0 * (cx + cy), out=across)
    lap -= across
    return lap


def _neighbour_sum(x: np.ndarray, axis: int, odd: bool,
                   out: np.ndarray) -> None:
    """x[i+1] + x[i-1] along `axis`, into `out`, with zero values beyond
    both ends, or the -interior ghosts there if `odd`."""
    xa, oa = np.moveaxis(x, axis, 0), np.moveaxis(out, axis, 0)
    np.add(xa[2:], xa[:-2], out=oa[1:-1])
    if odd:
        np.subtract(xa[1], xa[0], out=oa[0])
        np.subtract(xa[-2], xa[-1], out=oa[-1])
    else:
        oa[0] = xa[1]
        oa[-1] = xa[-2]


def _lap_u_interior(x: np.ndarray, g: GridSpec) -> np.ndarray:
    """Laplacian of the u component on interior faces (shape (nx-1, ny))."""
    return laplacian_interior_faces(x, g, 0)


def _lap_v_interior(x: np.ndarray, g: GridSpec) -> np.ndarray:
    """Laplacian of the v component on interior faces (shape (nx, ny-1))."""
    return laplacian_interior_faces(x, g, 1)


def _mac_component_h1_sq(grid: GridSpec, comp: np.ndarray, axis: int) -> float:
    """Squared H1 seminorm of one MAC component with no-slip wall ghosts.

    `axis` 0 for u (normal direction x), 1 for v. Along the normal direction
    the component is node-centered with homogeneous Dirichlet end values
    already stored in the array; across it the wall ghost is -interior and the
    wall term carries half a cell of weight, matching the quadratic form of
    the viscous operator."""
    a = grid.cell_area
    if axis == 0:
        h_n, h_t = grid.hx, grid.hy
        normal_diff = (comp[1:, :] - comp[:-1, :]) / h_n          # at centers
        tang_diff = (comp[:, 1:] - comp[:, :-1]) / h_t            # interior rows
        wall_sq = (2.0 * comp[:, 0] / h_t) ** 2 + (2.0 * comp[:, -1] / h_t) ** 2
    else:
        h_n, h_t = grid.hy, grid.hx
        normal_diff = (comp[:, 1:] - comp[:, :-1]) / h_n
        tang_diff = (comp[1:, :] - comp[:-1, :]) / h_t
        wall_sq = (2.0 * comp[0, :] / h_t) ** 2 + (2.0 * comp[-1, :] / h_t) ** 2
    return float(a * (np.sum(normal_diff**2) + np.sum(tang_diff**2))
                 + 0.5 * a * np.sum(wall_sq))


def _mac_l2_sq(w: MacVelocity) -> float:
    g = w.grid
    a = g.cell_area
    s = a * (np.sum(w.u[1:-1, :] ** 2) + np.sum(w.v[:, 1:-1] ** 2))
    s += 0.5 * a * (np.sum(w.u[0, :] ** 2) + np.sum(w.u[-1, :] ** 2)
                    + np.sum(w.v[:, 0] ** 2) + np.sum(w.v[:, -1] ** 2))
    return float(s)


def reference_cell_h1(values: np.ndarray, grid: GridSpec,
                      walls: Walls | None = None) -> float:
    """A cell field's H1 seminorm with the Dirichlet ghosts of `walls`:
    the face L2 norm of its padded face gradient (`grid.cell_h1_sq`'s
    square root)."""
    return float(np.sqrt(_mac_l2_sq(padded_gradient_to_faces(values, grid,
                                                             walls))))


def _cell_l2(values: np.ndarray, grid: GridSpec) -> float:
    return float(np.sqrt(np.sum(values**2) * grid.cell_area))


def reference_norm(fieldlike, kind: str) -> float:
    """The padded formulas of `norms` for L2 and H1_semi."""
    if isinstance(fieldlike, DirectorField):
        g, walls = fieldlike.grid, fieldlike.trace.walls
        comps = (fieldlike.d1, fieldlike.d2)
        if kind == "L2":
            return float(np.hypot(*(_cell_l2(c, g) for c in comps)))
        return float(np.sqrt(sum(
            _mac_l2_sq(padded_gradient_to_faces(c, g, w))
            for c, w in zip(comps, walls))))
    if kind == "L2":
        return float(np.sqrt(_mac_l2_sq(fieldlike)))
    g = fieldlike.grid
    return float(np.sqrt(_mac_component_h1_sq(g, fieldlike.u, 0)
                         + _mac_component_h1_sq(g, fieldlike.v, 1)))


def reference_kinetic_energy(rho: DensityState, v: MacVelocity) -> float:
    """(1/2) integral of rho |v|^2 with weight arrays: 1 on interior faces,
    1/2 on boundary faces."""
    g = v.grid
    ru, rv = rho.faces
    wu = np.ones_like(v.u)
    wu[0, :] = wu[-1, :] = 0.5
    wv = np.ones_like(v.v)
    wv[:, 0] = wv[:, -1] = 0.5
    return 0.5 * g.cell_area * (float(np.sum(ru * wu * v.u**2))
                                + float(np.sum(rv * wv * v.v**2)))


def reference_gradient_flow(grid: GridSpec, trace: DirectorTrace, eta: float,
                            tol: float,
                            start: DirectorField | None = None
                            ) -> DirectorField:
    """The pseudo-time gradient flow of the director energy,
    implicit director steps with a zero velocity and dt = 50, from
    ``start`` (the harmonic extension of the trace when None) until the
    Ginzburg-Landau residual is at most tol."""
    p = GLParams(gamma=1.0, eta=eta, lam=1.0)
    if start is None:
        start = stationary._harmonic_extension(grid, trace)
    d = DirectorField(grid, start.d1, start.d2, trace)
    w = MacVelocity.zeros(grid)
    steps = 0
    while not gl_residual_l2(d, eta) <= tol:
        if steps >= 20000:
            raise AssertionError(f"reference flow stalled after {steps} steps")
        d = advance_director(d, w, p, 50.0)
        steps += 1
    return d
