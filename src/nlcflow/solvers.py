"""Direct Helmholtz/Poisson solvers by dense eigenbasis transforms. Every
linear solve of a step is one direct solve: the director step, the
harmonic extension and the pressure correction (a unit-scale Poisson
solve for the potential of the velocity's correction) invert their
constant-coefficient operators exactly, and so does the momentum
predictor, whose variable-density operator A = M + N, with
M = rbar/dt - nu*Lap and the diagonal N = (rho_f - rbar)/dt, is split:
N acts on an extrapolated velocity in the right-hand side, and M is
inverted exactly (see `momentum.predict_velocity`). The face solver is
written for the u-faces; the v-faces are the u-faces of the transposed
grid `GridSpec.T`, solved on transposed views.

The cell-centered Dirichlet Laplacian (ghost = 2g - interior) is
diagonalized by the orthonormal DST-II basis on cells; the node-centered
Dirichlet Laplacian (MAC normal direction) by the DST-I basis on interior
nodes; the cell-centered zero-Neumann Laplacian (mirror ghost) by the
DCT-II basis on cells. Each basis is an explicit n x n matrix, built once
per (kind, n) and stored read-only, so a solve is two matrix products into
the eigenbasis, a division by the eigenvalue denominators and two products
back. The three intermediate products go to buffers allocated once per
solver; only the result is a fresh array. gemm's results do not depend on
the BLAS thread count, so neither do the solves' (a test runs the time
loop at one and two threads).

The dense products cost O(nx*ny*(nx + ny)) flops against the FFT's
O(nx*ny*log(nx*ny)), but run as BLAS gemm with no per-call planning.
Measured per face solve with one BLAS thread (2-vCPU Xeon VM, scipy 1.17
as the FFT): 60 against 170 us at 64^2, 450 against 550 us at 128^2, even
at about 160^2, and a loss above that (3.9 against 2.8 ms at 256^2). No
preset, test or benchmark workload runs above 128^2; choosing the transform
by size is left until one does.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .grid import GridSpec


def _modes(kind: str, n: int) -> np.ndarray:
    """Mode numbers k of a basis; the eigenvalue of k is
    2*(cos(k*pi/n) - 1)/h^2 for all three kinds."""
    if kind == "dst1":   # n-1 interior nodes of a segment of n intervals
        return np.arange(1, n)
    if kind == "dst2":   # n cells, odd extension through the walls
        return np.arange(1, n + 1)
    return np.arange(n)  # "dct2": n cells, even extension


def _eigenvalues(kind: str, n: int, h: float) -> np.ndarray:
    return 2.0 * (np.cos(_modes(kind, n) * np.pi / n) - 1.0) / h**2


@lru_cache(maxsize=16)
def _basis(kind: str, n: int) -> np.ndarray:
    """Read-only orthonormal eigenbasis: row k is mode `_modes(kind, n)[k]`
    sampled at the points. Phases are reduced exactly in integers before
    the sine/cosine, so every entry is accurate to round-off for any n."""
    k = _modes(kind, n)[:, None]
    if kind == "dst1":
        # sin(pi*k*j/n), j = 1..n-1
        basis = np.sin(np.pi / n * (k * np.arange(1, n) % (2 * n)))
    else:
        # phase pi*k*(2j+1)/(2n), j = 0..n-1
        phase = np.pi / (2 * n) * (k * (2 * np.arange(n) + 1) % (4 * n))
        basis = np.sin(phase) if kind == "dst2" else np.cos(phase)
    basis *= np.sqrt(2.0 / n)
    if kind == "dst2":
        basis[-1] /= np.sqrt(2.0)   # k = n: the alternating mode
    elif kind == "dct2":
        basis[0] /= np.sqrt(2.0)    # k = 0: the constant mode
    basis.flags.writeable = False
    return basis


class _EigenSolver:
    """Direct solver for a - c*Lap, diagonal in the basis of kind `kx`
    along x and `ky` along y."""

    def __init__(self, kx: str, ky: str, grid: GridSpec, a: float, c: float):
        nx, ny = grid.nx, grid.ny
        self._bx = _basis(kx, nx)
        self._by = _basis(ky, ny)
        lx = _eigenvalues(kx, nx, grid.hx)
        ly = _eigenvalues(ky, ny, grid.hy)
        self._denom = a - c * (lx[:, None] + ly[None, :])
        self._t = np.empty((len(lx), len(ly)))
        self._w = np.empty((len(lx), len(ly)))

    def solve(self, b: np.ndarray) -> np.ndarray:
        t, w = self._t, self._w
        np.matmul(self._bx, b, out=t)
        np.matmul(t, self._by.T, out=w)
        w /= self._denom
        np.matmul(self._bx.T, w, out=t)
        return t @ self._by


class CellHelmholtz(_EigenSolver):
    """Direct solver for (a - c*Lap) x = b, cell-centered scalars with
    homogeneous Dirichlet walls (linear-extrapolation ghosts)."""

    def __init__(self, grid: GridSpec, a: float, c: float):
        super().__init__("dst2", "dst2", grid, a, c)


class FaceHelmholtz(_EigenSolver):
    """Direct solver for (a - c*Lap) on the interior u-faces, arrays of
    shape (nx-1, ny): node-centered in x with zero walls, cell-centered in
    y with -interior ghosts. The v-faces of a grid are the u-faces of its
    transpose: solve on `grid.T` with b transposed."""

    def __init__(self, grid: GridSpec, a: float, c: float):
        super().__init__("dst1", "dst2", grid, a, c)


class NeumannPoisson(_EigenSolver):
    """Direct solver for -Lap x = b with zero-Neumann walls and zero mean;
    the constant mode of b is discarded."""

    def __init__(self, grid: GridSpec):
        super().__init__("dct2", "dct2", grid, 0.0, 1.0)
        self._denom[0, 0] = np.inf  # the null mode: b's mean divides to 0


@lru_cache(maxsize=64)
def cached_solver(kind: type, grid: GridSpec, *coeffs: float) -> _EigenSolver:
    """``kind(grid, *coeffs)``, built once per arguments, so that a run
    reuses one solver, and its buffers, per (grid, a, c)."""
    return kind(grid, *coeffs)
