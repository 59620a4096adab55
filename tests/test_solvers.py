"""The direct eigenbasis solvers against the stencils they invert, the
split-form PCG's contract (A = M + N from N and M^-1 alone), its stopping
and failure behaviour, and thread-count independence."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nlcflow
from nlcflow.errors import LinearSolveFailure
from nlcflow.grid import GridSpec, ScalarField, laplacian
from nlcflow.solvers import (CellHelmholtz, FaceHelmholtz, NeumannPoisson,
                             pcg)
from stencils import _lap_u_interior, _lap_v_interior

# Non-square in cells, so a basis applied along the wrong axis cannot
# pass; the second grid also has hx != hy, so swapped spacings cannot.
GRIDS = [GridSpec(16, 12, 2.0, 1.5), GridSpec(16, 12, 1.0, 1.5)]
GRID = GRIDS[0]
A, C = 3.0, 0.7


def _rel_err(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


def _cell_op(x, g=GRID):
    return A * x - C * laplacian(ScalarField(g, x, "dirichlet")).values


@pytest.mark.parametrize("g", GRIDS)
def test_cell_helmholtz_inverts_dirichlet_stencil(g):
    b = np.random.default_rng(1).normal(size=(g.nx, g.ny))
    x = CellHelmholtz(g, A, C).solve(b)
    assert _rel_err(_cell_op(x, g), b) <= 1e-12


@pytest.mark.parametrize("g", GRIDS)
@pytest.mark.parametrize("axis, lap", [(0, _lap_u_interior),
                                       (1, _lap_v_interior)])
def test_face_helmholtz_inverts_face_stencil(g, axis, lap):
    shape = (g.nx - 1, g.ny) if axis == 0 else (g.nx, g.ny - 1)
    b = np.random.default_rng(2 + axis).normal(size=shape)
    x = FaceHelmholtz(g, A, C, axis).solve(b)
    assert x.shape == shape
    assert _rel_err(A * x - C * lap(x, g), b) <= 1e-12


@pytest.mark.parametrize("g", GRIDS)
def test_neumann_poisson_inverts_stencil_and_drops_the_mean(g):
    b = np.random.default_rng(4).normal(size=(g.nx, g.ny))
    b -= b.mean()
    solver = NeumannPoisson(g, C)
    x = solver.solve(b)
    lap = laplacian(ScalarField(g, x, "neumann_zero")).values
    assert _rel_err(-C * lap, b) <= 1e-12
    assert abs(x.mean()) <= 1e-13 * np.abs(x).max()
    assert _rel_err(solver.solve(b + 5.0), x) <= 1e-12


def _counted(fn, counts, key):
    def wrapped(x):
        counts[key] += 1
        return fn(x)
    return wrapped


def _zero_n(x):
    return np.zeros_like(x)


def _cell_n_of_identity(x):
    # N = A - I, for PCG preconditioned by the identity
    return _cell_op(x) - x


def test_pcg_with_exact_preconditioner_applies_each_once():
    # N = 0: M is all of A, so one iteration solves the system
    b = np.random.default_rng(5).normal(size=(GRID.nx, GRID.ny))
    counts = {"apply": 0, "precond": 0}
    x = pcg(_counted(_zero_n, counts, "apply"), b,
            _counted(CellHelmholtz(GRID, A, C).solve, counts, "precond"),
            tol_rel=1e-10)
    assert counts == {"apply": 1, "precond": 1}
    assert _rel_err(_cell_op(x), b) <= 1e-10


@pytest.mark.parametrize("axis, lap", [(0, _lap_u_interior),
                                       (1, _lap_v_interior)])
def test_pcg_split_form_reaches_true_residual(axis, lap):
    # M = (A - C*Lap) inverted by FaceHelmholtz, N a diagonal as large as
    # the predictor's density contrast; the residual PCG carries must match
    # b - (M + N) x measured with the stencil
    g, tol = GRID, 1e-10
    shape = (g.nx - 1, g.ny) if axis == 0 else (g.nx, g.ny - 1)
    rng = np.random.default_rng(8 + axis)
    diag = rng.uniform(-0.3, 0.3, size=shape) * A
    b = rng.normal(size=shape)
    counts = {"apply": 0}
    x = pcg(_counted(lambda p: diag * p, counts, "apply"), b,
            FaceHelmholtz(g, A, C, axis).solve, tol_rel=tol)
    true_res = b - ((A + diag) * x - C * lap(x, g))
    assert counts["apply"] > 2  # N is far from 0: this took iterations
    assert np.linalg.norm(true_res) <= 10 * tol * np.linalg.norm(b)


def test_pcg_zero_rhs_returns_zeros_without_work():
    counts = {"apply": 0, "precond": 0}
    x = pcg(_counted(_zero_n, counts, "apply"),
            np.zeros((GRID.nx, GRID.ny)),
            _counted(CellHelmholtz(GRID, A, C).solve, counts, "precond"))
    assert not x.any()
    assert counts == {"apply": 0, "precond": 0}


def test_pcg_raises_at_iteration_cap():
    b = np.random.default_rng(6).normal(size=(GRID.nx, GRID.ny))
    with pytest.raises(LinearSolveFailure, match="iteration cap 3"):
        pcg(_cell_n_of_identity, b, lambda r: r, tol_rel=1e-14, maxiter=3)


def test_pcg_rejects_nonfinite_rhs_before_any_work():
    b = np.random.default_rng(7).normal(size=(GRID.nx, GRID.ny))
    b[3, 4] = np.nan
    counts = {"apply": 0, "precond": 0}
    with pytest.raises(LinearSolveFailure, match="non-finite"):
        pcg(_counted(_zero_n, counts, "apply"), b,
            _counted(CellHelmholtz(GRID, A, C).solve, counts, "precond"))
    assert counts == {"apply": 0, "precond": 0}


_PROJECT_HASH = """
import hashlib
import numpy as np
from nlcflow.grid import GridSpec, MacVelocity, ScalarField
from nlcflow.momentum import FlowParams, project
g = GridSpec(128, 128)
X, Y = g.cell_centers()
rho = ScalarField(g, 1.5 + 0.3 * np.sin(2 * np.pi * X) * np.sin(2 * np.pi * Y))
rng = np.random.default_rng(7)
w = MacVelocity(g, rng.normal(size=(129, 128)), rng.normal(size=(128, 129)))
w.enforce_noslip()
out, q = project(rho, w, 5e-3, FlowParams())
h = hashlib.sha256()
for a in (out.u, out.v, q.values):
    h.update(a.tobytes())
print(h.hexdigest())
"""


def _project_hash(threads: int) -> str:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               OMP_NUM_THREADS=str(threads),
               PYTHONPATH=str(Path(nlcflow.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", _PROJECT_HASH], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_projection_is_bitwise_independent_of_blas_threads():
    # A threaded BLAS dot reorders its sum above ~1e4 elements, as at
    # 128^2. On a one-core machine BLAS runs one thread either way, so
    # there this test cannot fail.
    assert _project_hash(1) == _project_hash(2)
