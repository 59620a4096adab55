"""The tests' names for the 5-point Laplacians of the MAC velocity
components on interior faces, the stencils that `FaceHelmholtz` inverts.
The one copy is the package's `grid.laplacian_interior_faces`, which the
momentum predictor applies only to form the residual of its initial guess;
the tests check the eigenbasis solvers and the predictor's solution
against it."""

import numpy as np

from nlcflow.grid import GridSpec, laplacian_interior_faces


def _lap_u_interior(x: np.ndarray, g: GridSpec) -> np.ndarray:
    """Laplacian of the u component on interior faces (shape (nx-1, ny))."""
    return laplacian_interior_faces(x, g, 0)


def _lap_v_interior(x: np.ndarray, g: GridSpec) -> np.ndarray:
    """Laplacian of the v component on interior faces (shape (nx, ny-1))."""
    return laplacian_interior_faces(x, g, 1)
