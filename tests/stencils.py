"""Reference stencils and quadratures, which the package no longer applies.

The 5-point Laplacians of the MAC velocity components on interior faces
are the stencils that `FaceHelmholtz` inverts. The tests check the
eigenbasis solvers and the predictor's solution against them.

The quadratures are the padded formulas of `grid.norms` and
`diagnostics.kinetic_energy`: a scalar's H1 seminorm as the face L2 norm
of `gradient_to_faces`, which fills ghosts, a velocity's L2 norm and H1
seminorm summed from scaled differences, and the kinetic energy with
per-call weight arrays. The package sums the same quadratures from slices;
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
from nlcflow.grid import (DirectorField, DirectorTrace, GridSpec, MacVelocity,
                          ScalarField, gradient_to_faces)


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


def reference_norm(fieldlike, kind: str) -> float:
    """The padded formulas of `norms` for L2 and H1_semi."""
    if isinstance(fieldlike, DirectorField):
        c1, c2 = fieldlike.components()
        if kind == "L2":
            return float(np.hypot(reference_norm(c1, "L2"),
                                  reference_norm(c2, "L2")))
        return float(np.sqrt(_mac_l2_sq(gradient_to_faces(c1))
                             + _mac_l2_sq(gradient_to_faces(c2))))
    if isinstance(fieldlike, MacVelocity):
        if kind == "L2":
            return float(np.sqrt(_mac_l2_sq(fieldlike)))
        g = fieldlike.grid
        return float(np.sqrt(_mac_component_h1_sq(g, fieldlike.u, 0)
                             + _mac_component_h1_sq(g, fieldlike.v, 1)))
    if kind == "L2":
        return float(np.sqrt(np.sum(fieldlike.values**2)
                             * fieldlike.grid.cell_area))
    return float(np.sqrt(_mac_l2_sq(gradient_to_faces(fieldlike))))


def reference_kinetic_energy(rho: ScalarField, v: MacVelocity) -> float:
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
