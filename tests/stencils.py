"""Reference 5-point Laplacians of the MAC velocity components on interior
faces, the stencils that `FaceHelmholtz` inverts. The package never applies
them (the momentum predictor's PCG needs only the diagonal remainder of its
split), so the tests keep them as the operator to check against."""

import numpy as np

from nlcflow.grid import GridSpec


def _lap_u_interior(x: np.ndarray, g: GridSpec) -> np.ndarray:
    """Laplacian of the u component on interior faces (input shape
    (nx-1, ny)); walls: zero node values in x, -interior ghosts in y."""
    p = np.zeros((g.nx + 1, g.ny + 2))
    p[1:-1, 1:-1] = x
    p[1:-1, 0] = -x[:, 0]
    p[1:-1, -1] = -x[:, -1]
    return (p[2:, 1:-1] - 2 * p[1:-1, 1:-1] + p[:-2, 1:-1]) / g.hx**2 \
        + (p[1:-1, 2:] - 2 * p[1:-1, 1:-1] + p[1:-1, :-2]) / g.hy**2


def _lap_v_interior(x: np.ndarray, g: GridSpec) -> np.ndarray:
    """Laplacian of the v component on interior faces (input shape
    (nx, ny-1)); walls: zero node values in y, -interior ghosts in x."""
    p = np.zeros((g.nx + 2, g.ny + 1))
    p[1:-1, 1:-1] = x
    p[0, 1:-1] = -x[0, :]
    p[-1, 1:-1] = -x[-1, :]
    return (p[2:, 1:-1] - 2 * p[1:-1, 1:-1] + p[:-2, 1:-1]) / g.hx**2 \
        + (p[1:-1, 2:] - 2 * p[1:-1, 1:-1] + p[1:-1, :-2]) / g.hy**2
