"""Inner linear solvers: direct Helmholtz/Poisson solvers by dense
eigenbasis transforms, and a matrix-free preconditioned conjugate gradient
in split form. The director step and the harmonic extension call a direct
solver alone, since it inverts their constant-coefficient Dirichlet
operators exactly. The momentum predictor (variable density) and the
projection solve A x = b with A = M + N, where M is a constant-coefficient
operator that a direct solver inverts exactly and N = A - M is cheap to
apply: a diagonal for the predictor, a stencil weighted by 1/rho - mean for
the projection. `pcg` takes N and M^-1, never A. Its initial guess is
zero unless the caller passes one with its residual b - A x0, formed with
the full operator; the time loop passes an extrapolation of the previous
steps' solutions. The stopping tests stay relative to ||b||, so a guess
saves iterations without loosening any tolerance.

The cell-centered Dirichlet Laplacian (ghost = 2g - interior) is
diagonalized by the orthonormal DST-II basis on cells; the node-centered
Dirichlet Laplacian (MAC normal direction) by the DST-I basis on interior
nodes; the cell-centered zero-Neumann Laplacian (mirror ghost) by the
DCT-II basis on cells. Each basis is an explicit n x n matrix, built once
per (kind, n) and stored read-only, so a solve is two matrix products into
the eigenbasis, a division by the eigenvalue denominators and two products
back.

The dense products cost O(nx*ny*(nx + ny)) flops against the FFT's
O(nx*ny*log(nx*ny)), but run as BLAS gemm with no per-call planning.
Measured per face solve with one BLAS thread (2-vCPU Xeon VM, scipy 1.17
as the FFT): 60 against 170 us at 64^2, 450 against 550 us at 128^2, even
at about 160^2, and a loss above that (3.9 against 2.8 ms at 256^2). No
preset, test or benchmark workload runs above 128^2; choosing the transform
by size is left until one does.

Reductions in `pcg` go through one einsum-based inner product, never the
BLAS dot: OpenBLAS splits a dot across threads above about 10^4 elements,
which changes its summation order. Together with gemm, whose results do not
depend on the thread count, this keeps results bitwise reproducible for a
fixed configuration at any BLAS thread count.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import LinearSolveFailure
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

    def solve(self, b: np.ndarray) -> np.ndarray:
        w = self._bx @ b @ self._by.T
        w /= self._denom
        return self._bx.T @ w @ self._by


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
    the constant mode of b is discarded."""

    def __init__(self, grid: GridSpec, c: float):
        super().__init__("dct2", "dct2", grid, 0.0, c)
        self._denom[0, 0] = np.inf  # the null mode: b's mean divides to 0


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Inner product whose summation order depends only on the arrays."""
    return float(np.einsum("ij,ij->", a, b))


def pcg(apply_n, b: np.ndarray, precond, tol_rel: float = 1e-10,
        tol_abs_inf: float | None = None, maxiter: int = 500,
        project=None, x0: np.ndarray | None = None,
        r0: np.ndarray | None = None) -> np.ndarray:
    """Preconditioned conjugate gradient for A x = b with A = M + N, on 2D
    arrays. `precond(r)` returns M^-1 r, exactly up to round-off;
    `apply_n(p)` returns N p, which pcg uses as scratch until the next
    call, so it may return the same buffer every time. A is never applied:
    since M z_k = r_k, M p follows from M p_0 = r_0,
    M p_k = r_k + beta_k M p_{k-1} (Eisenstat, SIAM J. Sci. Stat. Comput.
    2(1), 1981), and A p = M p + N p.

    The initial guess is zero, or `x0` when it is given with its residual
    `r0` = b - A x0, which the caller forms with the full operator; pcg
    applies N once per iteration and never for the guess. A guess whose
    residual is not below ||b||_2, or is not finite, is dropped for the
    zero guess. x0 and r0 are left unchanged.

    Stops when ||r||_2 <= tol_rel * ||b||_2, or (if given) when
    ||r||_inf <= tol_abs_inf: both tests are measured against b, never
    against the guess's residual, so a guess changes the iteration count
    but not the accuracy asked for. Convergence is tested as soon as a
    residual is formed, so the preconditioner is applied only to
    residuals that feed a further iteration. `project` (mean removal for
    the singular Neumann problem) is applied in place to the copies of b
    and r0 and to every residual; `precond` must then map the projected
    space into itself. Vector updates are in place, on x, r, p and M p,
    with N p as scratch. Raises LinearSolveFailure on a non-finite b,
    before any iteration, and at the iteration cap.
    """
    r = b.copy()
    if project is not None:
        project(r)
    bnorm = np.sqrt(_dot(r, r))
    if not np.isfinite(bnorm):
        raise LinearSolveFailure(
            f"CG got a non-finite right-hand side (||b|| = {bnorm})")
    x = np.zeros_like(b)
    if bnorm == 0.0:
        return x
    if x0 is not None:
        r_guess = r0.copy()
        if project is not None:
            project(r_guess)
        # a guess no better than zero, or not finite, is dropped
        if np.sqrt(_dot(r_guess, r_guess)) < bnorm:
            x, r = x0.copy(), r_guess
    if _converged(r, bnorm, tol_rel, tol_abs_inf, np.empty_like(r)):
        return x
    z = precond(r)
    p = z.copy()
    mp = r.copy()
    rz = _dot(r, z)
    for _ in range(maxiter):
        s = apply_n(p)
        s += mp   # s = A p
        alpha = rz / _dot(p, s)
        s *= alpha
        r -= s
        np.multiply(p, alpha, out=s)
        x += s
        if project is not None:
            project(r)
        if _converged(r, bnorm, tol_rel, tol_abs_inf, s):
            return x
        z = precond(r)
        rz_new = _dot(r, z)
        beta = rz_new / rz
        p *= beta
        p += z
        mp *= beta
        mp += r
        rz = rz_new
    raise LinearSolveFailure(
        f"CG hit iteration cap {maxiter}; "
        f"||r||/||b|| = {np.sqrt(_dot(r, r)) / bnorm:.3e}")


def _converged(r, bnorm, tol_rel, tol_abs_inf, scratch) -> bool:
    if tol_abs_inf is not None \
            and np.abs(r, out=scratch).max() <= tol_abs_inf:
        return True
    return np.sqrt(_dot(r, r)) <= tol_rel * bnorm
