"""The reference 5-point Laplacians of the MAC velocity components on
interior faces, the stencils that `FaceHelmholtz` inverts. The package
applies none of them: the predictor takes nu*L v* from the equation it has
just solved. The tests check the eigenbasis solvers, the predictor's
solution, its kept products and its guesses' residuals against them."""

import numpy as np

from nlcflow.grid import GridSpec


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
