"""Energy bookkeeping, bound monitors, and CSV round-trips."""

import numpy as np
import pytest

from nlcflow.density import DensityState
from nlcflow.diagnostics import (FIELD_ORDER, DiagContext, DiagRecord,
                                 compute_record, convergence_monitor,
                                 kinetic_energy, read_csv, write_csv)
from nlcflow.director import (GLParams, director_energy,
                              director_energy_terms)
from nlcflow.forcing import ForcingSpec
from nlcflow.grid import DirectorField, DirectorTrace, GridSpec, MacVelocity
from nlcflow.momentum import FlowParams
from nlcflow.state import SimState


def _zero_trace(x, y):
    return np.zeros_like(x), np.zeros_like(x)


def _const_trace(c1, c2):
    def trace(x, y):
        return np.full_like(x, c1), np.full_like(x, c2)
    return trace


def _sim_state(t, rho, v, d):
    """A state with the zero pressure, v as its own previous velocity and
    a unit step length: a record reads none of the three."""
    g = v.grid
    return SimState(t, rho, v, d, np.zeros((g.nx, g.ny)), v, 1.0)


def _state(grid, t=0.0, rho=1.0, d=(1.0, 0.0), v=None):
    dens = DensityState.initial(grid, np.full((grid.nx, grid.ny), rho))
    if v is None:
        v = MacVelocity.zeros(grid)
    d_f = DirectorField(grid, np.full((grid.nx, grid.ny), d[0]),
                        np.full((grid.nx, grid.ny), d[1]),
                        DirectorTrace.sample(grid, _const_trace(*d)))
    return _sim_state(t, dens, v, d_f)


def _ctx(variant="none", **kw):
    return DiagContext(glp=GLParams(eta=kw.pop("eta", 1.0),
                                    lam=kw.pop("lam", 1.0),
                                    gamma=kw.pop("gamma", 1.0)),
                       flow=FlowParams(),
                       spec=ForcingSpec(variant=variant, **kw))


def test_kinetic_energy_constant_velocity_interior():
    grid = GridSpec(8, 8)
    v = MacVelocity.zeros(grid)
    v.u[1:-1, :] = 2.0
    # rho = 3: (1/2) * 3 * 4 over interior x-faces with half-weight walls
    rho = DensityState.initial(grid, np.full((8, 8), 3.0))
    ke = kinetic_energy(rho.faces, v)
    expected = 0.5 * 3.0 * 4.0 * grid.cell_area * (grid.nx - 1) * grid.ny
    assert ke == pytest.approx(expected, rel=1e-14)


def test_record_of_equilibrium_unit_director_is_quiet():
    grid = GridSpec(8, 8)
    prev = _state(grid, t=0.0)
    curr = _state(grid, t=0.1)
    rec = compute_record(prev, curr, _ctx())
    assert rec.kinetic == 0.0
    assert rec.elastic == 0.0
    assert rec.potential == 0.0
    assert rec.E_total == 0.0
    assert rec.gl_res_L2 == 0.0
    assert rec.A_val == 0.0
    assert rec.B_val == 0.0
    assert rec.law_residual == 0.0
    assert rec.d_maxnorm == pytest.approx(1.0)
    assert rec.mass == pytest.approx(1.0, rel=1e-14)


def test_gl_residual_feeds_A_val():
    # |d| = 2 everywhere (matching trace): lap d = 0, f(d) = (|d|^2-1)d/eta
    # has magnitude 6, so ||residual||_L2^2 = 36 on the unit square.
    grid = GridSpec(16, 16)
    prev = _state(grid, t=0.0, d=(2.0, 0.0))
    curr = _state(grid, t=0.1, d=(2.0, 0.0))
    rec = compute_record(prev, curr, _ctx())
    assert rec.gl_res_L2**2 == pytest.approx(36.0, rel=1e-12)
    assert rec.A_val == pytest.approx(36.0, rel=1e-12)
    # potential energy lam * (1/4)(|d|^2-1)^2 = 9/4 per unit area
    assert rec.potential == pytest.approx(2.25, rel=1e-12)
    assert rec.E_total == pytest.approx(rec.kinetic + rec.elastic
                                        + rec.potential, rel=1e-14)


def test_record_scales_director_terms_by_lambda():
    grid = GridSpec(16, 16)
    X, Y = grid.cell_centers()
    th = 0.7 * np.sin(np.pi * X) * np.sin(np.pi * Y)
    d = DirectorField(grid, 0.9 * np.cos(th), 0.9 * np.sin(th),
                      DirectorTrace.sample(grid, _const_trace(0.9, 0.0)))
    prev = _state(grid, t=0.0)
    curr = _sim_state(0.1, prev.rho, MacVelocity.zeros(grid), d)
    lam, eta = 0.8, 0.5
    rec = compute_record(prev, curr, _ctx(lam=lam, eta=eta))
    elastic, penalty = director_energy_terms(d, eta)
    assert elastic > 0.0 and penalty > 0.0
    assert rec.elastic == lam * elastic
    assert rec.potential == lam * penalty
    assert rec.elastic + rec.potential == pytest.approx(
        lam * director_energy(d, eta), rel=1e-15, abs=0.0)


def test_law_residual_balances_pure_relaxation():
    # One director step with v = 0: the discrete law residual should be far
    # smaller than either the energy change rate or the dissipation alone.
    from nlcflow.director import advance_director

    grid = GridSpec(32, 32)
    xc = (np.arange(32) + 0.5) / 32
    X, Y = np.meshgrid(xc, xc, indexing="ij")
    th = 0.7 * np.sin(np.pi * X) * np.sin(np.pi * Y)
    d0 = DirectorField(grid, np.cos(th), np.sin(th),
                       DirectorTrace.sample(grid, lambda x, y: (
                           np.ones_like(x), np.zeros_like(x))))
    ctx = _ctx()
    dt = 1e-3
    rho = DensityState.initial(grid, np.ones((32, 32)))
    prev = _sim_state(0.0, rho, MacVelocity.zeros(grid), d0)
    d1 = advance_director(d0, MacVelocity.zeros(grid), ctx.glp, dt)
    curr = _sim_state(dt, DensityState.initial(grid, rho.values.copy()),
                      MacVelocity.zeros(grid), d1)
    res = compute_record(prev, curr, ctx).law_residual
    diss = compute_record(prev, curr, ctx).gl_res_L2 ** 2
    assert abs(res) < 0.1 * diss


def test_f1_record_subtracts_the_potential_energy_from_the_spec():
    # uniform unit director at rest: E_total = 0, and for phi = x on the
    # unit square the midpoint rule integrates rho*phi exactly, to 1.5/2
    grid = GridSpec(8, 8)
    prev = _state(grid, t=0.0, rho=1.5)
    curr = _state(grid, t=0.1, rho=1.5)
    rec = compute_record(prev, curr, _ctx("f1", phi="x"))
    assert rec.E_total == 0.0
    assert rec.E_tilde == pytest.approx(-0.75, rel=0.0, abs=1e-14)


def test_f2_excess_is_clipped_nonnegative():
    grid = GridSpec(8, 8)
    ctx = _ctx("f2", ax="0", ay="0", xi=1.0, amplitude=1.0)
    prev = _state(grid, t=0.0)
    curr = _state(grid, t=0.1)
    assert compute_record(prev, curr, ctx).law_residual == 0.0


def test_law_residual_rejects_nonpositive_dt():
    grid = GridSpec(8, 8)
    a = _state(grid, t=0.5)
    b = _state(grid, t=0.5)
    with pytest.raises(ValueError):
        compute_record(a, b, _ctx())


def test_d_dist_measures_gap_to_reference():
    grid = GridSpec(8, 8)
    prev = _state(grid, t=0.0, d=(1.0, 0.0))
    curr = _state(grid, t=0.1, d=(1.0, 0.0))
    ref = DirectorField(grid, np.zeros((8, 8)), np.zeros((8, 8)),
                        DirectorTrace.sample(grid, _zero_trace))
    ctx = _ctx()
    ctx = DiagContext(glp=ctx.glp, flow=ctx.flow, spec=ctx.spec, d_inf=ref)
    rec = compute_record(prev, curr, ctx)
    assert rec.d_dist == pytest.approx(1.0, rel=1e-14)


def _fake_records(n=20, decay=0.5):
    recs = []
    for k in range(n):
        val = decay**k
        recs.append(DiagRecord(t=float(k), kinetic=0, elastic=0, potential=0,
                               E_total=0, E_tilde=0, grad_v_L2=0,
                               gl_res_L2=val, A_val=0, B_val=val, mass=1,
                               rho_min=1, rho_max=1, d_maxnorm=1, div_v_inf=0,
                               law_residual=0, g_L2=0, d_dist=val, v_H1=val))
    return recs


def test_convergence_monitor_ratios_and_tail():
    recs = _fake_records()
    summary = convergence_monitor(recs)
    assert summary["v_H1_ratio"] == pytest.approx(0.5**19)
    assert summary["gl_res_ratio"] == pytest.approx(0.5**19)
    assert summary["B_ratio"] == pytest.approx(0.5**19)
    assert summary["monotone_tail"] is True
    assert summary["final_t"] == 19.0


def test_convergence_monitor_zero_denominator_is_trivial_pass():
    recs = _fake_records()
    flat = [DiagRecord(**{**r.__dict__, "v_H1": 0.0}) for r in recs]
    assert convergence_monitor(flat)["v_H1_ratio"] == 0.0


def test_convergence_monitor_needs_enough_records():
    with pytest.raises(ValueError):
        convergence_monitor(_fake_records(5))


def test_csv_round_trip_is_bitwise(tmp_path):
    recs = _fake_records(12)
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    write_csv(p1, recs)
    back = read_csv(p1)
    write_csv(p2, back)
    assert p1.read_bytes() == p2.read_bytes()
    for a, b in zip(recs, back):
        for name in FIELD_ORDER:
            assert getattr(a, name) == getattr(b, name)


def test_csv_rejects_foreign_header(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("time,stuff\n0,1\n")
    with pytest.raises(ValueError):
        read_csv(p)


def test_csv_rejects_a_row_of_another_length(tmp_path):
    p = tmp_path / "bad.csv"
    write_csv(p, _fake_records(2))
    with open(p, "a") as fh:
        fh.write("1.0,2.0\n")
    with pytest.raises(ValueError, match="line 4 has 2 fields"):
        read_csv(p)
