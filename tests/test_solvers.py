"""The direct eigenbasis solvers against the stencils they invert, and
thread-count independence."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nlcflow
from nlcflow.grid import GridSpec, laplacian
from nlcflow.solvers import CellHelmholtz, FaceHelmholtz, NeumannPoisson
from stencils import _lap_u_interior, _lap_v_interior, padded_laplacian

# Non-square in cells, so a basis applied along the wrong axis cannot
# pass; the second grid also has hx != hy, so swapped spacings cannot.
GRIDS = [GridSpec(16, 12, 2.0, 1.5), GridSpec(16, 12, 1.0, 1.5)]
GRID = GRIDS[0]
A, C = 3.0, 0.7


def _rel_err(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


def _cell_op(x, g=GRID):
    return A * x - C * laplacian(x, g)


@pytest.mark.parametrize("g", GRIDS)
def test_cell_helmholtz_inverts_dirichlet_stencil(g):
    b = np.random.default_rng(1).normal(size=(g.nx, g.ny))
    x = CellHelmholtz(g, A, C).solve(b)
    assert _rel_err(_cell_op(x, g), b) <= 1e-12


@pytest.mark.parametrize("g", GRIDS)
@pytest.mark.parametrize("axis, lap", [(0, _lap_u_interior),
                                       (1, _lap_v_interior)])
def test_face_helmholtz_inverts_face_stencil(g, axis, lap):
    # the v-faces are the u-faces of the transposed grid: the solve runs on
    # b transposed, and its result is checked with v's own stencil
    shape = (g.nx - 1, g.ny) if axis == 0 else (g.nx, g.ny - 1)
    b = np.random.default_rng(2 + axis).normal(size=shape)
    x = FaceHelmholtz(g, A, C).solve(b) if axis == 0 \
        else FaceHelmholtz(g.T, A, C).solve(b.T).T
    assert x.shape == shape
    assert _rel_err(A * x - C * lap(x, g), b) <= 1e-12


@pytest.mark.parametrize("g", GRIDS)
def test_neumann_poisson_inverts_stencil_and_drops_the_mean(g):
    b = np.random.default_rng(4).normal(size=(g.nx, g.ny))
    b -= b.mean()
    solver = NeumannPoisson(g)
    x = solver.solve(b)
    lap = padded_laplacian(x, g, kind="neumann_zero")
    assert _rel_err(-lap, b) <= 1e-12
    assert abs(x.mean()) <= 1e-13 * np.abs(x).max()
    assert _rel_err(solver.solve(b + 5.0), x) <= 1e-12


def test_direct_solve_returns_a_fresh_array():
    # the intermediate products are buffered; the result must not be
    solver = CellHelmholtz(GRID, A, C)
    rng = np.random.default_rng(9)
    x = solver.solve(rng.normal(size=(GRID.nx, GRID.ny)))
    kept = x.copy()
    solver.solve(rng.normal(size=(GRID.nx, GRID.ny)))
    assert x.tobytes() == kept.tobytes()


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


# Ten f2 steps at 128^2, whose solves are BLAS matrix products. The records
# of steps 1, 5 and 10 are hashed too, field by field, so a record's
# reduction that went through the BLAS dot would show.
_STEPS_HASH = """
import hashlib
import numpy as np
from nlcflow.diagnostics import FIELD_ORDER
from nlcflow.runner import preset_config, run
cfg = preset_config("f2-decaying", nx=128, ny=128, t_end=10 * 5e-3,
                    record_every=5)
res = run(cfg, write_outputs=False, with_stationary=False)
assert res.report["invariants"]["steps"] == 10
h = hashlib.sha256()
for rec in res.records:
    h.update(np.array([getattr(rec, f) for f in FIELD_ORDER]).tobytes())
fin = res.final
for a in (fin.rho.values, fin.v.u, fin.v.v, fin.d.d1, fin.d.d2,
          fin.pressure.values):
    h.update(a.tobytes())
print(h.hexdigest())
"""


def _hash_in_subprocess(script: str, threads: int) -> str:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               OMP_NUM_THREADS=str(threads),
               PYTHONPATH=str(Path(nlcflow.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_projection_is_bitwise_independent_of_blas_threads():
    # A threaded BLAS dot reorders its sum above ~1e4 elements, as at
    # 128^2. On a one-core machine BLAS runs one thread either way, so
    # there this test cannot fail.
    assert _hash_in_subprocess(_PROJECT_HASH, 1) \
        == _hash_in_subprocess(_PROJECT_HASH, 2)


def test_time_loop_is_bitwise_independent_of_blas_threads():
    # the same for the step's solves and the records' reductions
    assert _hash_in_subprocess(_STEPS_HASH, 1) \
        == _hash_in_subprocess(_STEPS_HASH, 2)


def test_no_full_grid_reduction_reaches_the_blas_dot(monkeypatch):
    # A sum of squares gives the same bits at one and two BLAS threads on
    # some machines, so the two tests above cannot catch one sent to the
    # BLAS dot. This spies on numpy's dot and vdot instead: over two 128^2
    # steps, a record and a stationary solve with a non-constant trace, no
    # operand may be longer than a wall row, max(nx, ny) + 1 long on the
    # faces.
    from nlcflow.diagnostics import DiagContext, compute_record
    from nlcflow.runner import initial_state, preset_config, step
    from nlcflow.stationary import solve_stationary
    cfg = preset_config("f2-decaying", nx=128, ny=128,
                        d0x="cos(0.5*pi*x*y)", d0y="sin(0.5*pi*x*y)")
    a = initial_state(cfg)
    sizes = []

    def spy(fn):
        def reduction(x, y, *args, **kwargs):
            sizes.append(max(np.size(x), np.size(y)))
            return fn(x, y, *args, **kwargs)
        return reduction

    monkeypatch.setattr(np, "dot", spy(np.dot))
    monkeypatch.setattr(np, "vdot", spy(np.vdot))
    b = step(a, cfg)
    c = step(b, cfg)
    st = solve_stationary(cfg.grid, a.d.trace, cfg.eta, cfg.tol_stationary)
    assert st.iterations > 0
    compute_record(b, c, DiagContext(glp=cfg.glp, flow=cfg.flow,
                                     spec=cfg.forcing, d_inf=st.d_inf))
    assert sizes, "the spy saw no call"
    assert max(sizes) <= max(cfg.grid.nx, cfg.grid.ny) + 1
