"""Direct Helmholtz/Poisson solvers by dense eigenbasis transforms, and
the products and Gram solve of the A-norm projection that gives the
momentum predictor its lagged velocity. Every linear solve of a step is
one direct solve: the director step, the harmonic extension and the
pressure projection invert their constant-coefficient operators exactly
(the projection's variable coefficient is split off into its right-hand
side, see `momentum.project`), and so does the momentum predictor. Its
variable-density operator A = M + N, with M = rbar/dt - nu*Lap and the
diagonal N = (rho_f - rbar)/dt, is split the same way: N acts on a lagged
velocity in the right-hand side, and M is inverted exactly. The lagged
velocity is the combination of the last solutions of the same solve
nearest to the new solution in the A-norm (`momentum.SolveHistory`): its
Gram matrix X (A X)^T is one BLAS product of the kept solutions with
their density-scaled copies (`row_products`), less the density-independent
part X (nu*L X)^T kept with them, and `gram_coefficients` solves it; no
stencil is applied to a kept solution.

The cell-centered Dirichlet Laplacian (ghost = 2g - interior) is
diagonalized by the orthonormal DST-II basis on cells; the node-centered
Dirichlet Laplacian (MAC normal direction) by the DST-I basis on interior
nodes; the cell-centered zero-Neumann Laplacian (mirror ghost) by the
DCT-II basis on cells. Each basis is an explicit n x n matrix, built once
per (kind, n) and stored read-only, so a solve is two matrix products into
the eigenbasis, a division by the eigenvalue denominators and two products
back. The three intermediate products go to buffers allocated once per
solver; only the result is a fresh array.

The dense products cost O(nx*ny*(nx + ny)) flops against the FFT's
O(nx*ny*log(nx*ny)), but run as BLAS gemm with no per-call planning.
Measured per face solve with one BLAS thread (2-vCPU Xeon VM, scipy 1.17
as the FFT): 60 against 170 us at 64^2, 450 against 550 us at 128^2, even
at about 160^2, and a loss above that (3.9 against 2.8 ms at 256^2). No
preset, test or benchmark workload runs above 128^2; choosing the transform
by size is left until one does.

The guesses' inner products of stacked solutions are BLAS matrix
products; with two to six rows their results were bitwise the same at one
and two threads (OpenBLAS 0.3.31), and a test runs the time loop at both.
numpy sends the products of one kept solution, (1, N) @ (N, 1), to the
BLAS dot instead, which OpenBLAS splits across threads above about 10^4
elements, so its summation order and result change with the thread count;
for those `row_products` uses an einsum product. Together with gemm, whose
results do not depend on the thread count, this keeps results bitwise
reproducible for a fixed configuration at any BLAS thread count.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .grid import GridSpec, inner


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
    """Direct solver for (a - c*Lap) on one MAC component's interior faces.

    axis=0 for u (node-centered in x, cell-centered in y with -interior
    ghosts), axis=1 for v. Operates on arrays holding interior faces only:
    shape (nx-1, ny) for u, (nx, ny-1) for v.
    """

    def __init__(self, grid: GridSpec, a: float, c: float, axis: int):
        kinds = ("dst1", "dst2") if axis == 0 else ("dst2", "dst1")
        super().__init__(*kinds, grid, a, c)


class NeumannPoisson(_EigenSolver):
    """Direct solver for -c*Lap x = b with zero-Neumann walls and zero mean;
    the constant mode of b is discarded. `set_scale` re-targets one solver
    to another c."""

    def __init__(self, grid: GridSpec, c: float = 1.0):
        super().__init__("dct2", "dct2", grid, 0.0, 1.0)
        self._unit = self._denom.copy()
        self._unit[0, 0] = np.inf  # the null mode: b's mean divides to 0
        self.set_scale(c)

    def set_scale(self, c: float) -> None:
        """Solve -c*Lap from now on. c*(-lambda) is -(c*lambda) exactly, so
        the denominators are bitwise those built for c directly."""
        np.multiply(self._unit, c, out=self._denom)


_EPS = float(np.finfo(float).eps)


def row_products(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """The (k, m) matrix of inner products x_i . y_j of the stacked 2D
    arrays xs (k, n0, n1) and ys (m, n0, n1): one BLAS product. With one
    row and one column numpy hands it to the BLAS dot, which OpenBLAS
    splits across threads; k = 1 goes through `inner` instead."""
    k, m = len(xs), len(ys)
    if k == 1:
        return np.array([[inner(xs[0], y) for y in ys]])
    return xs.reshape(k, -1) @ ys.reshape(m, -1).T


def combine_rows(c: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """sum_k c_k x_k of the stacked arrays xs (k, n0, n1), as a fresh
    array. Each entry sums k products of its own column only, so the BLAS
    product's result does not depend on its thread count."""
    out = np.empty(xs.shape[1:])
    np.matmul(c, xs.reshape(len(xs), -1), out=out.reshape(-1))
    return out


def gram_coefficients(gram: np.ndarray, f: np.ndarray) -> np.ndarray:
    """c with G c = f for a Gram matrix G, read from its upper triangle,
    by Gaussian elimination that pivots on the largest remaining diagonal
    entry. Successive solutions are nearly dependent, so G can be singular
    to round-off: elimination stops at the first pivot not above K*eps
    times G's largest diagonal entry, and the unknowns left get 0. The
    guess is then the A-norm projection onto the vectors taken, finite for
    any basis. The K <= 6 system is solved in Python floats: inside a run
    LAPACK's eigh took as long (about 50 us at K = 6), and an LU solve,
    though faster, fails on the singular G that successive solutions
    give."""
    k = len(f)
    g = gram.tolist()  # rows become the Schur complements
    for i in range(1, k):  # G symmetric, from its upper triangle
        for j in range(i):
            g[i][j] = g[j][i]
    rhs = f.tolist()
    diag = [g[i][i] for i in range(k)]
    floor = k * _EPS * max(diag)
    rest, pivots = list(range(k)), []
    while rest:
        p = max(rest, key=diag.__getitem__)
        pivot = diag[p]
        if not pivot > floor:  # also stops on NaN
            break
        rest.remove(p)
        row, rp = g[p], rhs[p]
        pivots.append((p, row))
        # whole rows: the columns already eliminated are never read again
        for i in rest:
            m = row[i] / pivot
            g[i] = gi = [a - m * b for a, b in zip(g[i], row)]
            diag[i] = gi[i]
            rhs[i] -= m * rp
    c, done = [0.0] * k, []
    for p, row in reversed(pivots):
        c[p] = (rhs[p] - sum([row[j] * c[j] for j in done])) / row[p]
        done.append(p)
    return np.array(c)
