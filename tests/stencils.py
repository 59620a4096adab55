"""The tests' names for the 5-point Laplacians of the MAC velocity
components on interior faces, the stencils that `FaceHelmholtz` inverts.
The one copy is the package's `grid.laplacian_interior_faces`, which the
time loop applies once per component and step, to keep nu*L v* for the
next steps' initial guesses; the tests check the eigenbasis solvers, the
predictor's solution and those guesses' residuals against it."""

import numpy as np

from nlcflow.grid import GridSpec, laplacian_interior_faces


def _lap_u_interior(x: np.ndarray, g: GridSpec) -> np.ndarray:
    """Laplacian of the u component on interior faces (shape (nx-1, ny))."""
    return laplacian_interior_faces(x, g, 0)


def _lap_v_interior(x: np.ndarray, g: GridSpec) -> np.ndarray:
    """Laplacian of the v component on interior faces (shape (nx, ny-1))."""
    return laplacian_interior_faces(x, g, 1)
