"""Config handling, the coupled time loop, checkpointing, and the CLI."""

import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nlcflow
from nlcflow import density as density_module
from nlcflow import diagnostics
from nlcflow import grid as grid_module
from nlcflow.cli import main as cli_main
from nlcflow.diagnostics import (FIELD_ORDER, DiagContext, compute_record,
                                 write_csv)
from nlcflow import runner
from nlcflow.errors import (CheckpointError, ConfigError,
                            LinearSolveFailure, StepFailed, StepRejected)
from nlcflow.forcing import ForcingSpec
from nlcflow.runner import (PRESETS, RunConfig, RunLog, after_step,
                            initial_state, load_checkpoint, load_config,
                            preset_config, run, run_report, save_checkpoint,
                            step, validate_config)
from nlcflow.stationary import solve_stationary

FAST = dict(nx=16, ny=16, dt=5e-3, t_end=0.05, record_every=2,
            rho0="1.5 + 0.3*sin(2*pi*x)*sin(2*pi*y)",
            v0x="0.2*sin(pi*x)*sin(pi*x)*sin(2*pi*y)",
            v0y="-0.2*sin(2*pi*x)*sin(pi*y)*sin(pi*y)",
            d0x="cos(0.4*sin(pi*x)*sin(pi*y))",
            d0y="sin(0.4*sin(pi*x)*sin(pi*y))")


def _cfg(**overrides):
    kw = dict(FAST)
    kw.update(overrides)
    return RunConfig(**kw)


# ---------------------------------------------------------------------------
# configuration

def test_load_config_round_trip(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(
        "[grid]\nnx = 24\nny = 12\nLx = 2.0\n"
        "[physics]\nnu = 2.0\nrho_low = 0.5\nrho_high = 3.0\n"
        "[initial]\nrho0 = 1.0 + 0.25*cos(pi*x)\n"
        "[stepping]\ndt = 0.001\nt_end = 0.5\n"
        "[forcing]\nvariant = f2\nax = sin(pi*x)*sin(pi*y)\nay = 0\n"
        "xi = 2.0\namplitude = 0.5\n"
        "[output]\nout_dir = here\n")
    cfg = load_config(p)
    assert (cfg.nx, cfg.ny, cfg.Lx) == (24, 12, 2.0)
    assert cfg.nu == 2.0
    assert cfg.forcing.variant == "f2"
    assert cfg.forcing.xi == 2.0
    assert cfg.out_dir == "here"
    assert cfg.lam == 1.0  # untouched default


def test_load_config_rejects_the_removed_tol_lin(tmp_path):
    # the predictor makes one direct solve per component; no linear
    # tolerance is left to set
    p = tmp_path / "run.cfg"
    p.write_text("[tolerances]\ntol_lin = 1e-10\ntol_proj = 1e-8\n")
    with pytest.raises(ConfigError, match="'tol_lin'"):
        load_config(p)


def test_load_config_rejects_unknown_key(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("[grid]\nnx = 16\nresolution = 99\n")
    with pytest.raises(ConfigError, match="resolution"):
        load_config(p)


@pytest.mark.parametrize("text, name", [
    # xi would stay 1.0, and kappa_pred = xi/2 would read the wrong xi
    ("[forcing]\nvariant = f2\nksi = 3.0\n", "'ksi'"),
    # the run would fall back to the 64^2 default grid
    ("[grdi]\nnx = 8\n", r"\[grdi\]"),
    # configparser copies [DEFAULT] keys into every section: nx would be
    # blamed on [stepping], or, with no section, dropped unread
    ("[DEFAULT]\nnx = 8\n[stepping]\ndt = 1e-3\n", r"\[DEFAULT\]"),
    ("[DEFAULT]\nnx = 8\n", r"\[DEFAULT\]"),
    # the maximum principle's tolerance is the constant runner.TOL_MAX
    ("[tolerances]\ntol_max = 1e-3\n", "'tol_max'"),
], ids=["forcing_key", "section", "default_with_section", "default_alone",
        "tol_max_is_a_constant"])
def test_load_config_names_an_unknown_key_or_section(tmp_path, text, name):
    p = tmp_path / "typo.cfg"
    p.write_text(text)
    with pytest.raises(ConfigError, match=name):
        load_config(p)


def test_load_config_missing_file():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/run.cfg")


def test_validate_rejects_density_out_of_bounds():
    with pytest.raises(ConfigError, match="density"):
        validate_config(_cfg(rho0="3.5"))


def test_validate_rejects_nonpositive_rho_low():
    with pytest.raises(ConfigError, match="rho_low"):
        validate_config(_cfg(rho_low=0.0))


def test_validate_rejects_supercritical_director():
    with pytest.raises(ConfigError, match="d0"):
        validate_config(_cfg(d0x="1.5", d0y="0"))


def test_validate_rejects_bad_cfl_safety():
    with pytest.raises(ConfigError, match="cfl_safety"):
        validate_config(_cfg(cfl_safety=0.0))


# the section of each key below other than the stepping ones
_SECTION_OF = {"tol_stationary": "tolerances", "tol_proj": "tolerances",
               "nu": "physics", "eta": "physics", "rho_low": "physics",
               "amplitude": "forcing"}


@pytest.mark.parametrize("key, value", [
    # a NaN t_end made no step and passed every check; an infinite one
    # never ended
    ("t_end", "nan"), ("t_end", "inf"),
    # the CFL loop halves an infinite dt forever
    ("dt", "inf"), ("dt_min", "0"),
    # the stationary line search failed on it, after the set-up
    ("tol_stationary", "0"),
    # a NaN viscosity or force amplitude failed the first step's solve
    ("nu", "nan"), ("amplitude", "nan"),
    # an infinite tol_proj made the div_free check unable to fail, and a
    # run with an infinite eta reported every check as true
    ("tol_proj", "inf"), ("eta", "inf"),
    # a NaN density bound passed the range checks and failed the run's
    # rho_in_bounds check, as if the scheme had broken the bound
    ("rho_low", "nan"),
])
def test_load_config_rejects_a_nonfinite_or_nonpositive_step_value(
        tmp_path, key, value):
    section = _SECTION_OF.get(key, "stepping")
    p = tmp_path / "run.cfg"
    p.write_text(f"[{section}]\n{key} = {value}\n")
    with pytest.raises(ConfigError, match=f"^{key} = "):
        load_config(p)


@pytest.mark.parametrize("forcing", [
    ForcingSpec(variant="f1", phi="exp(x)"),
    ForcingSpec(variant="f2", ax="exp(x)"),
    ForcingSpec(variant="f2", ay="x.real"),
])
def test_validate_parses_forcing_expressions(forcing):
    with pytest.raises(ConfigError, match="cannot parse"):
        validate_config(_cfg(forcing=forcing))


@pytest.mark.parametrize("key, overrides", [
    ("rho0", dict(rho0="1.5 + 0*x/0")),
    ("d0x", dict(d0x="0*x/0")),
    ("v0x", dict(v0x="x/0")),
    ("ax", dict(forcing=ForcingSpec(variant="f2", ax="1/0*x"))),
    # finite at every cell centre, NaN on the x = 0 wall the trace samples
    ("d0x", dict(d0x="1 + 0*(1/x)")),
    ("phi", dict(forcing=ForcingSpec(variant="f1", phi="x/0"))),
])
def test_validate_rejects_nonfinite_samples(key, overrides):
    # NaN passes the range checks, so finiteness is checked on its own
    with pytest.raises(ConfigError, match=f"^{key} is not finite"):
        validate_config(_cfg(**overrides))


def test_preset_names_and_unknown():
    for name in PRESETS:
        cfg = preset_config(name, t_end=0.1)
        validate_config(cfg)
    with pytest.raises(ConfigError, match="unknown preset"):
        preset_config("vortex-street")


# ---------------------------------------------------------------------------
# the coupled loop

def test_initial_state_is_divergence_free():
    from nlcflow.grid import divergence
    cfg = _cfg()
    st = initial_state(cfg)
    assert np.abs(divergence(st.v)).max() <= cfg.tol_proj
    assert st.v.u[0, :].max() == 0.0 and st.v.v[:, -1].max() == 0.0


def test_uniform_equilibrium_is_a_fixed_point():
    cfg = _cfg(rho0="1.5", v0x="0", v0y="0", d0x="1", d0y="0")
    state = initial_state(cfg)
    nxt = step(state, cfg)
    assert np.array_equal(nxt.rho.values, state.rho.values)
    assert np.abs(nxt.v.u).max() <= 1e-14
    assert np.abs(nxt.v.v).max() <= 1e-14
    assert np.allclose(nxt.d.d1, 1.0, atol=1e-12)
    assert np.abs(nxt.d.d2).max() <= 1e-12


def test_step_halves_dt_under_cfl_and_keeps_it():
    cfg = _cfg(v0x="0.9*sin(pi*x)*sin(pi*x)*sin(2*pi*y)",
               v0y="-0.9*sin(2*pi*x)*sin(pi*y)*sin(pi*y)",
               dt=0.05, cfl_safety=0.5)
    state = step(initial_state(cfg), cfg)
    assert state.dt < 0.05
    # power-of-two subdivision only
    assert np.log2(0.05 / state.dt) == pytest.approx(
        round(np.log2(0.05 / state.dt)))


def _spy(fn, calls):
    """fn, recording the values array of each call in `calls`."""
    def spied(values, *args):
        calls.append(values)
        return fn(values, *args)
    return spied


_CELL_STENCILS = ("gradient_to_faces", "laplacian",
                  "centered_gradient_at_centers")


def test_a_step_applies_no_laplacian_stencil_and_takes_d_gradients_once(
        monkeypatch):
    # From step 2 on, a step takes both Laplacians from its solves and
    # reuses each field's kept values: it calls no Laplacian (face or cell)
    # and no face gradient, and takes the centred gradients of each
    # component of the new director once, and of nothing else
    cfg = _cfg()
    state = step(initial_state(cfg), cfg)
    grads = []
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code.co_name)

    monkeypatch.setattr(grid_module, "centered_gradient_at_centers",
                        _spy(grid_module.centered_gradient_at_centers, grads))
    for _ in range(3):
        grads.clear()
        sys.setprofile(profile)
        try:
            state = step(state, cfg)
        finally:
            sys.setprofile(None)
        assert len(grads) == 2
        assert grads[0] is state.d.d1 and grads[1] is state.d.d2
    assert not {name for name in called if "laplacian" in name}
    assert "_neighbour_sum" not in called
    assert "gradient_to_faces" not in called


@pytest.mark.parametrize("carried", [False, True])
def test_a_record_applies_no_cell_stencil(monkeypatch, carried):
    # A record sums its quadratures from slices and the trace's wall
    # arrays, and reads its states' Laplacians from the director step, so
    # it applies no cell stencil, whether it measures prev or reads
    # prev_rec. The wall trace is not constant, and f1 forcing and d_inf
    # are on.
    cfg = preset_config("f1-potential", nx=16, ny=16, dt=2e-3,
                        d0x="cos(0.5*pi*x*y)", d0y="sin(0.5*pi*x*y)")
    a = initial_state(cfg)
    b = step(a, cfg)
    c = step(b, cfg)
    ctx = DiagContext(glp=cfg.glp, flow=cfg.flow, spec=cfg.forcing,
                      d_inf=a.d)
    prev_rec = compute_record(a, b, ctx) if carried else None
    stencils = []
    for name in _CELL_STENCILS:
        monkeypatch.setattr(grid_module, name,
                            _spy(getattr(grid_module, name), stencils))
    compute_record(b, c, ctx, prev_rec)
    assert stencils == []


def test_step_rejected_below_dt_min():
    cfg = _cfg(v0x="0.9*sin(pi*x)*sin(pi*x)*sin(2*pi*y)",
               v0y="-0.9*sin(2*pi*x)*sin(pi*y)*sin(pi*y)",
               dt=0.5, dt_min=0.3, cfl_safety=0.5)
    state = initial_state(cfg)
    with pytest.raises(StepRejected):
        step(state, cfg)


def test_step_fails_fast_on_nonfinite_velocity():
    cfg = _cfg()
    state = initial_state(cfg)
    # the projected velocity's arrays are read-only: poison a copy
    u = state.v.u.copy()
    u[5, 7] = np.nan
    state = dataclasses.replace(state, v=dataclasses.replace(state.v, u=u))
    with pytest.raises(LinearSolveFailure, match="non-finite"):
        step(state, cfg)


def _state_bytes(state):
    """Every number a state holds, as bytes and floats."""
    arrays = (state.rho.values, state.v.u, state.v.v, state.d.d1,
              state.d.d2, state.pressure, state.v_prev.u, state.v_prev.v)
    rho = state.rho
    return ([a.tobytes() for a in arrays],
            [float.hex(x) for x in (state.t, state.dt, rho.mass0,
                                    rho.rho_min0, rho.rho_max0)])


@pytest.mark.parametrize("steps", [0, 3])
def test_step_is_a_function_of_its_state(steps):
    # stepping one state twice gives the same state to the bit, and leaves
    # the state as it was; from t = 0 and from a state with a pressure and
    # a previous velocity of its own. The CFL bound halves dt once
    cfg = preset_config("f2-decaying", nx=16, ny=16, dt=0.05, t_end=1.0,
                        v0x="0.4*sin(pi*x)*sin(pi*x)*sin(2*pi*y)",
                        v0y="-0.4*sin(2*pi*x)*sin(pi*y)*sin(pi*y)")
    state = initial_state(cfg)
    for _ in range(steps):
        state = step(state, cfg)
    before = _state_bytes(state)
    a, b = step(state, cfg), step(state, cfg)
    assert _state_bytes(a) == _state_bytes(b)
    assert _state_bytes(state) == before
    assert a.v_prev is state.v and a.dt == 0.025


class _TwoArgError(Exception):
    def __init__(self, code, phase):
        super().__init__(code, phase)
        self.phase = phase


def _fail_at_step(monkeypatch, n_fail):
    calls = 0
    step_ok = runner.step

    def step(*args, **kwargs):
        nonlocal calls
        calls += 1
        if calls == n_fail:
            raise _TwoArgError(7, "predict")
        return step_ok(*args, **kwargs)

    monkeypatch.setattr(runner, "step", step)


def test_run_wraps_a_step_failure_and_chains_it(monkeypatch):
    # a constructor with two arguments cannot be rebuilt from a message
    _fail_at_step(monkeypatch, 3)
    with pytest.raises(StepFailed, match="step 3 .*_TwoArgError") as info:
        run(_cfg(), write_outputs=False)
    assert (info.value.step, info.value.t) == (3, pytest.approx(0.01))
    cause = info.value.__cause__
    assert isinstance(cause, _TwoArgError)
    assert cause.args == (7, "predict") and cause.phase == "predict"


@pytest.mark.parametrize("case", ["missing", "foreign", "short"])
def test_cli_report_exits_2_on_an_unusable_csv(tmp_path, capsys, case):
    path = tmp_path / "diagnostics.csv"
    if case == "foreign":
        path.write_text("a,b,c\n1,2,3\n")
    elif case == "short":
        result = run(_cfg(t_end=0.02, out_dir=str(tmp_path)),
                     with_stationary=False)
        assert 0 < len(result.records) < 10
    rc = cli_main(["report", str(path)])
    out = capsys.readouterr()
    assert rc == 2 and out.out == ""
    assert out.err.startswith("error: ")
    assert "Traceback" not in out.err


def test_cli_exits_2_on_a_step_failure(monkeypatch, tmp_path, capsys):
    _fail_at_step(monkeypatch, 1)
    p = tmp_path / "run.cfg"
    p.write_text("[grid]\nnx = 16\nny = 16\n")
    rc = cli_main(["simulate", str(p), "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert "error: step 1 " in capsys.readouterr().err


def test_run_is_deterministic_bitwise(tmp_path):
    cfg1 = _cfg(out_dir=str(tmp_path / "a"))
    cfg2 = _cfg(out_dir=str(tmp_path / "b"))
    r1 = run(cfg1)
    r2 = run(cfg2)
    assert (tmp_path / "a" / "diagnostics.csv").read_bytes() \
        == (tmp_path / "b" / "diagnostics.csv").read_bytes()
    assert np.array_equal(r1.final.v.u, r2.final.v.u)
    assert np.array_equal(r1.final.d.d1, r2.final.d.d1)
    assert np.array_equal(r1.final.rho.values, r2.final.rho.values)


def test_record_cadence_does_not_perturb_trajectory():
    r1 = run(_cfg(record_every=1), write_outputs=False,
             with_stationary=False)
    r5 = run(_cfg(record_every=5), write_outputs=False,
             with_stationary=False)
    assert np.array_equal(r1.final.v.u, r5.final.v.u)
    assert np.array_equal(r1.final.rho.values, r5.final.rho.values)
    assert np.array_equal(r1.final.d.d2, r5.final.d.d2)
    assert len(r1.records) > len(r5.records)


# ten steps; records at every step, or at steps 1, 3, 6, 9 and 10
TEN_STEPS = dict(nx=16, ny=16, dt=2e-3, t_end=0.02)


def _bits(rec):
    return [float.hex(getattr(rec, name)) for name in FIELD_ORDER]


@pytest.mark.parametrize("every, calls", [(1, 11), (3, 9)])
@pytest.mark.parametrize("preset", ["f1-potential", "f2-decaying"])
def test_each_state_is_measured_once(monkeypatch, preset, every, calls):
    # a record right after another reads the shared state's functionals
    # from it, so prev is measured only when its step made no record
    measured = []

    def spy(d, eta, _real=diagnostics.gl_residual_l2):
        measured.append(d)
        return _real(d, eta)

    monkeypatch.setattr(diagnostics, "gl_residual_l2", spy)
    result = run(preset_config(preset, record_every=every, **TEN_STEPS),
                 write_outputs=False, with_stationary=False)
    assert result.report["invariants"]["steps"] == 10
    assert len(measured) == calls
    assert len({id(d) for d in measured}) == calls


@pytest.mark.parametrize("every", [1, 3])
@pytest.mark.parametrize("preset", ["f1-potential", "f2-decaying"])
def test_carried_record_equals_fresh_record(preset, every):
    cfg = preset_config(preset, record_every=every, **TEN_STEPS)
    state = initial_state(cfg)
    ctx = DiagContext(glp=cfg.glp, flow=cfg.flow, spec=cfg.forcing)
    records, prev_rec = [], None
    for n in range(1, 11):
        prev, state = state, step(state, cfg)
        rec = None
        if n % every == 0 or n in (1, 10):
            rec = compute_record(prev, state, ctx, prev_rec)
            assert _bits(rec) == _bits(compute_record(prev, state, ctx))
            records.append(rec)
        prev_rec = rec
    result = run(cfg, write_outputs=False, with_stationary=False)
    assert [_bits(r) for r in result.records] == [_bits(r) for r in records]


def test_carried_record_must_match_prev_time():
    cfg = _cfg()
    a = initial_state(cfg)
    b = step(a, cfg)
    c = step(b, cfg)
    ctx = DiagContext(glp=cfg.glp, flow=cfg.flow, spec=cfg.forcing)
    with pytest.raises(ValueError, match="prev_rec"):
        compute_record(b, c, ctx, compute_record(a, c, ctx))


def test_run_steps_and_records_through_the_runner_module(monkeypatch):
    # the benchmark times nlcflow.runner.step and traces
    # nlcflow.runner.compute_record from outside: run() must call each
    # through that module, once per step and once per record
    calls = {"step": 0, "compute_record": 0}
    for name in calls:
        def spy(*args, _name=name, _real=getattr(runner, name), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(runner, name, spy)
    result = run(preset_config("f1-potential", record_every=3, **TEN_STEPS),
                 write_outputs=False, with_stationary=False)
    assert calls == {"step": 10, "compute_record": 5}
    # steps 1, 3, 6, 9 and 10
    assert [round(r.t / 2e-3) for r in result.records] == [1, 3, 6, 9, 10]


def test_a_step_and_its_record_form_each_residual_once(monkeypatch):
    # the predictor's elastic force forms lap d - f(d) of the new director,
    # and the record's ||lap d - f(d)|| reads the same arrays; the
    # initial director's is formed by the first record alone
    cfg = preset_config("f2-decaying", record_every=1, **TEN_STEPS)
    built = []
    derived = grid_module.DirectorField.derived

    def counted(self, key, build):
        def counted_build():
            if key == ("res", cfg.eta):
                built.append(self)
            return build()
        return derived(self, key, counted_build)

    monkeypatch.setattr(grid_module.DirectorField, "derived", counted)
    run(cfg, write_outputs=False, with_stationary=False)
    assert len(built) == 11
    assert len({id(d) for d in built}) == 11


def test_a_step_averages_its_density_to_the_faces_once(monkeypatch):
    # the predictor, the projection, the kinetic energy and B_val read the
    # faces each density keeps: one average per step, and one for the
    # initial projection, each of another density
    averaged = []
    real = density_module.density_at_faces

    def spy(rho, grid):
        averaged.append(rho)
        return real(rho, grid)

    monkeypatch.setattr(density_module, "density_at_faces", spy)
    cfg = preset_config("f1-potential", record_every=1, **TEN_STEPS)
    result = run(cfg, write_outputs=False, with_stationary=False)
    assert result.report["invariants"]["steps"] == len(result.records) == 10
    assert len(averaged) == 11
    assert len({id(rho) for rho in averaged}) == 11


def test_checkpoint_round_trip_resumes_bitwise(tmp_path):
    cfg = _cfg(t_end=0.04)
    ctx = DiagContext(glp=cfg.glp, flow=cfg.flow, spec=cfg.forcing)
    state, log = initial_state(cfg), RunLog()
    for _ in range(4):
        prev, state = state, step(state, cfg)
        log = after_step(log, prev, state, cfg, ctx)

    path = tmp_path / "snap.npz"
    save_checkpoint(path, state, log)
    loaded, loaded_log = load_checkpoint(path, cfg)
    assert loaded_log == log and len(log.records) == 3
    assert loaded.dt == state.dt
    assert loaded.t == state.t
    assert np.array_equal(loaded.rho.values, state.rho.values)
    assert np.array_equal(loaded.v.u, state.v.u)
    assert np.array_equal(loaded.d.d1, state.d.d1)
    # conserved references match the run's own initial data
    assert loaded.rho.mass0 == initial_state(cfg).rho.mass0

    cont_a = step(state, cfg)
    cont_b = step(loaded, cfg)
    assert np.array_equal(cont_a.v.u, cont_b.v.u)
    assert np.array_equal(cont_a.rho.values, cont_b.rho.values)
    assert np.array_equal(cont_a.d.d2, cont_b.d.d2)


def _assert_resumes_bitwise(cfg, state, loaded, steps):
    for _ in range(steps):
        state = step(state, cfg)
        loaded = step(loaded, cfg)
        for a, b in ((state.v.u, loaded.v.u), (state.v.v, loaded.v.v),
                     (state.rho.values, loaded.rho.values),
                     (state.d.d1, loaded.d.d1), (state.d.d2, loaded.d.d2),
                     (state.pressure, loaded.pressure)):
            assert a.tobytes() == b.tobytes()


def test_checkpoint_resumes_the_extrapolated_lag_bitwise(tmp_path):
    # from step 2 on the predictor extrapolates from v^{n-1}, which the
    # state holds: the resumed run must restore it, and the saved
    # pressure, to continue as the uninterrupted one does
    cfg = _cfg(t_end=0.1)
    state = initial_state(cfg)
    for _ in range(3):
        state = step(state, cfg)

    path = tmp_path / "snap.npz"
    save_checkpoint(path, state, RunLog())
    loaded, _ = load_checkpoint(path, cfg)
    assert loaded.v_prev.u.tobytes() == state.v_prev.u.tobytes()
    assert loaded.v_prev.v.tobytes() == state.v_prev.v.tobytes()
    assert loaded.pressure.tobytes() == state.pressure.tobytes()
    # with v^n as its own previous velocity the next step would lag v^n
    # and differ
    cold = step(dataclasses.replace(loaded, v_prev=loaded.v), cfg)
    assert cold.v.u.tobytes() != step(state, cfg).v.u.tobytes()
    _assert_resumes_bitwise(cfg, state, loaded, 3)


def test_resumed_run_records_the_saved_state_bitwise(tmp_path):
    # the first record after a resume reads the loaded state's functionals,
    # the director's Laplacian among them: it must be the one the run took
    # from its solve, so the record equals the uninterrupted run's
    cfg = _cfg(t_end=0.1)
    state = initial_state(cfg)
    for _ in range(4):
        state = step(state, cfg)
    path = tmp_path / "snap.npz"
    save_checkpoint(path, state, RunLog())
    loaded, _ = load_checkpoint(path, cfg)
    ctx = DiagContext(glp=cfg.glp, flow=cfg.flow, spec=cfg.forcing)
    a = compute_record(state, step(state, cfg), ctx)
    b = compute_record(loaded, step(loaded, cfg), ctx)
    assert _bits(a) == _bits(b)


def _written_checkpoint(tmp_path, cfg):
    state = initial_state(cfg)
    for _ in range(2):
        state = step(state, cfg)
    path = tmp_path / "snap.npz"
    save_checkpoint(path, state, RunLog())
    return path


@pytest.mark.parametrize("content", [
    b"NLCF1\n16 16 1.0 1.0 0\n",  # a snapshot in the former binary codec
    b"",
], ids=["nlcf1", "empty"])
def test_load_checkpoint_rejects_a_file_that_is_no_archive(tmp_path,
                                                           content):
    path = tmp_path / "snap.npz"
    path.write_bytes(content)
    with pytest.raises(CheckpointError, match="not a checkpoint archive"):
        load_checkpoint(path, _cfg())


# version 3 held no run log
@pytest.mark.parametrize("version", [None, 1, 3, runner.CHECKPOINT_VERSION + 1])
def test_load_checkpoint_rejects_an_unknown_version(tmp_path, version):
    cfg = _cfg()
    path = _written_checkpoint(tmp_path, cfg)
    with np.load(path) as f:
        fields = {k: a for k, a in f.items() if k != "version"}
    if version is not None:
        fields["version"] = np.array(version)
    np.savez(path, **fields)
    with pytest.raises(CheckpointError, match=f"format version {version}"):
        load_checkpoint(path, cfg)


@pytest.mark.parametrize("key", ["rho", "q", "u_prev", "records", "log_steps"])
def test_load_checkpoint_names_a_missing_array(tmp_path, key):
    cfg = _cfg()
    path = _written_checkpoint(tmp_path, cfg)
    with np.load(path) as f:
        fields = {k: a for k, a in f.items() if k != key}
    np.savez(path, **fields)
    with pytest.raises(CheckpointError, match=f"lacks .*{key}"):
        load_checkpoint(path, cfg)


@pytest.mark.parametrize("key, bad", [
    ("records", lambda a: a[:, :18]),
    ("records", lambda a: a.ravel()),
    ("log_steps", lambda a: np.array([a, a])),
    # numpy broadcast a one-row Laplacian into the resumed run's record
    ("lap_d1", lambda a: a[:1]),
    ("q", lambda a: a[:, :-1]),
    ("rho", lambda a: a[:-1]),
    ("u_prev", lambda a: a[:-1]),
    ("t", lambda a: np.array([a, a])),
], ids=["records-18-columns", "records-1d", "log_steps-2", "lap_d1-1-row",
        "q-cut", "rho-cut", "u_prev-cut", "t-2"])
def test_load_checkpoint_names_an_array_of_another_shape(tmp_path, key, bad):
    # a log with records, so that the cut columns hold numbers
    cfg = _cfg()
    ctx = DiagContext(glp=cfg.glp, flow=cfg.flow, spec=cfg.forcing)
    state, log = initial_state(cfg), RunLog()
    for _ in range(2):
        prev, state = state, step(state, cfg)
        log = after_step(log, prev, state, cfg, ctx)
    path = tmp_path / "snap.npz"
    save_checkpoint(path, state, log)
    with np.load(path) as f:
        fields = dict(f.items())
    assert fields["records"].shape == (2, len(FIELD_ORDER))
    fields[key] = bad(fields[key])
    np.savez(path, **fields)
    with pytest.raises(CheckpointError, match=rf"\b{key} of shape"):
        load_checkpoint(path, cfg)


def test_load_checkpoint_reads_an_empty_log(tmp_path):
    # no records save as a (0, 19) array
    cfg = _cfg()
    path = _written_checkpoint(tmp_path, cfg)
    with np.load(path) as f:
        assert f["records"].shape == (0, len(FIELD_ORDER))
    assert load_checkpoint(path, cfg)[1].records == ()


def test_load_checkpoint_rejects_other_initial_data(tmp_path):
    # the conserved references are the saved run's: a config whose t = 0
    # data gives another mass0 or rho_max0 is not that run's
    path = _written_checkpoint(tmp_path, _cfg())
    with pytest.raises(CheckpointError, match=r"\(mass0, rho_max0\)"):
        load_checkpoint(path, _cfg(rho0="1.2"))


@pytest.mark.parametrize("other", [dict(nx=20), dict(Lx=2.0)],
                         ids=["nx", "Lx"])
def test_load_checkpoint_rejects_a_run_on_another_grid(tmp_path, other):
    path = _written_checkpoint(tmp_path, _cfg())
    with pytest.raises(CheckpointError, match="on the grid"):
        load_checkpoint(path, _cfg(**other))


def test_run_writes_snapshots_that_resume_bitwise(tmp_path):
    # nine steps with a snapshot every second one: the last is at step 8,
    # and one step from it must reproduce the run's final state
    cfg = _cfg(t_end=0.045, snapshot_every=2, out_dir=str(tmp_path))
    result = run(cfg, with_stationary=False)
    assert result.report["invariants"]["steps"] == 9
    snaps = sorted(p.name for p in tmp_path.glob("snap_*"))
    assert snaps == [f"snap_{n:07d}.npz" for n in (2, 4, 6, 8)]
    end = step(load_checkpoint(tmp_path / snaps[-1], cfg)[0], cfg)
    final = result.final
    assert end.t == final.t
    for a, b in ((final.v.u, end.v.u), (final.v.v, end.v.v),
                 (final.rho.values, end.rho.values),
                 (final.d.d1, end.d.d1), (final.d.d2, end.d.d2),
                 (final.pressure, end.pressure)):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("k", [8, 10, 39],
                         ids=["at_a_record", "between_records",
                              "before_t_end"])
def test_a_resumed_run_reports_as_the_uninterrupted_one(tmp_path, k):
    # 40 steps with a record every fourth: step 8 makes a record, step 10
    # does not, and step 39 is the one before t_end. Resumed from its
    # snapshot at step k, the run continues with the saved log and must
    # give the uninterrupted run's report, records and CSV to the bit
    whole = tmp_path / "whole"
    cfg = preset_config("f2-decaying", nx=16, ny=16, dt=5e-3, t_end=0.2,
                        record_every=4, snapshot_every=k, out_dir=str(whole))
    result = run(cfg)
    assert result.report["invariants"]["steps"] == 40
    state, log = load_checkpoint(whole / f"snap_{k:07d}.npz", cfg)
    assert log.steps == k
    st = solve_stationary(cfg.grid, state.d.trace, cfg.eta,
                          cfg.tol_stationary)
    ctx = DiagContext(glp=cfg.glp, flow=cfg.flow, spec=cfg.forcing,
                      d_inf=st.d_inf)
    while state.t < cfg.t_end - runner.T_END_TOL:
        prev, state = state, step(state, cfg)
        log = after_step(log, prev, state, cfg, ctx)
    report = run_report(cfg, log, state, st)
    assert {"convergence", "rate"} <= report.keys()
    assert json.dumps(report, indent=2, default=float) \
        == (whole / "run_report.json").read_text()
    assert [_bits(r) for r in log.records] \
        == [_bits(r) for r in result.records]
    write_csv(tmp_path / "resumed.csv", log.records)
    assert (tmp_path / "resumed.csv").read_bytes() \
        == (whole / "diagnostics.csv").read_bytes()
    assert _state_bytes(state) == _state_bytes(result.final)


def test_f1_velocity_decays_below_the_splitting_artifact():
    # A predictor without the pressure's gradient leaves v on a flow of
    # size O(dt) driven by f1's hydrostatic pressure: at 16^2 and
    # dt = 4e-2 its ratio stalled at 1.53e-3. The incremental scheme
    # measured 6.3e-6.
    cfg = preset_config("f1-potential", nx=16, ny=16, dt=4e-2, t_end=8.0,
                        record_every=10)
    result = run(cfg, write_outputs=False, with_stationary=False)
    assert result.report["invariants"]["steps"] == 200
    assert result.report["convergence"]["v_H1_ratio"] <= 1e-4


def test_a_density_ratio_of_100_keeps_every_check():
    # The lagged inertia (rho - rho_bar)/dt is stable where
    # |rho - rho_bar| < rho_bar, which the midrange of the initial density
    # keeps at any ratio; with the mean density as rho_bar this run
    # diverges even at a ratio of 10.
    cfg = preset_config("gzero", nx=32, ny=32,
                        rho0="1 + 99*(sin(pi*x)*sin(pi*y))**8",
                        rho_high=100.0, dt=2e-3, t_end=1.0)
    result = run(cfg, write_outputs=False, with_stationary=False)
    assert result.final.t == pytest.approx(cfg.t_end)
    assert all(result.report["checks"].values()), result.report["checks"]


def test_run_stops_exactly_at_t_end():
    result = run(_cfg(t_end=0.0123, dt=0.005), write_outputs=False,
                 with_stationary=False)
    assert result.report["invariants"]["steps"] == 3
    assert abs(result.report["t_end"] - 0.0123) <= 1e-15
    assert result.records[-1].t == result.report["t_end"]
    # the shortened last step does not shrink the step size
    assert result.report["final_dt"] == 0.005


def test_run_report_contents(tmp_path):
    cfg = _cfg(out_dir=str(tmp_path), t_end=0.1, record_every=1)
    result = run(cfg)
    rep = json.loads((tmp_path / "run_report.json").read_text())
    assert rep["invariants"]["steps"] == 20
    assert set(rep["checks"]) == {"mass_conserved", "rho_in_bounds",
                                  "d_max_principle", "div_free"}
    assert all(rep["checks"].values())
    assert "convergence" in rep
    assert "stationary_residual" in rep
    assert rep["stationary_residual"] <= cfg.tol_stationary


def test_f2_run_reports_rate_block(tmp_path):
    cfg = _cfg(t_end=0.1, record_every=1, out_dir=str(tmp_path),
               forcing=ForcingSpec(variant="f2", ax="0.1*sin(pi*x)*sin(pi*y)",
                                   ay="0", xi=1.0, amplitude=1.0))
    result = run(cfg)
    assert "rate" in result.report
    assert "kappa_pred" in result.report["rate"] \
        or "fit_note" in result.report["rate"]
    # the written report keeps JSON types: true/false, not 1.0/0.0
    rate = json.loads((tmp_path / "run_report.json").read_text())["rate"]
    assert isinstance(rate["exceeds_prediction"], bool)
    assert isinstance(rate["kappa_fit"], float)


# ---------------------------------------------------------------------------
# CLI

@pytest.mark.parametrize("text, where", [
    ("[grid]\nnx = abc\n", "nx = 'abc' in [grid]"),
    ("[forcing]\nxi = fast\n", "xi = 'fast' in [forcing]"),
], ids=["nx", "xi"])
def test_load_config_names_a_value_that_does_not_parse(tmp_path, text,
                                                       where):
    p = tmp_path / "bad.cfg"
    p.write_text(text)
    with pytest.raises(ConfigError, match=re.escape(where)):
        load_config(p)


def test_cli_simulate_preset_override(tmp_path, capsys):
    # tiny run: override via a config file since presets fix t_end
    p = tmp_path / "run.cfg"
    p.write_text(
        "[grid]\nnx = 16\nny = 16\n"
        "[initial]\nrho0 = 1.5 + 0.3*sin(2*pi*x)*sin(2*pi*y)\n"
        "[stepping]\ndt = 0.005\nt_end = 0.05\n"
        "[output]\nrecord_every = 2\n")
    rc = cli_main(["simulate", str(p), "--out-dir", str(tmp_path / "out")])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    assert all(rep["checks"].values())
    assert (tmp_path / "out" / "diagnostics.csv").exists()


def test_cli_stationary(tmp_path, capsys):
    p = tmp_path / "run.cfg"
    p.write_text("[grid]\nnx = 16\nny = 16\n"
                 "[initial]\nd0x = cos(0.4*sin(pi*x)*sin(pi*y))\n"
                 "d0y = sin(0.4*sin(pi*x)*sin(pi*y))\n")
    rc = cli_main(["stationary", str(p)])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["residual"] <= 1e-9


def test_cli_report(tmp_path, capsys):
    cfg = _cfg(out_dir=str(tmp_path), t_end=0.1, record_every=1)
    run(cfg)
    rc = cli_main(["report", str(tmp_path / "diagnostics.csv")])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert "v_H1_ratio" in out


@pytest.mark.parametrize("text", [
    "[physics]\nrho_low = -1\n",
    # the grid and parameter classes' own range checks
    "[grid]\nnx = 2\n",
    "[physics]\ngamma = -1\n",
    # a zero cadence would divide by zero in the time loop
    "[output]\nrecord_every = 0\n",
    "[output]\nsnapshot_every = -1\n",
    # values that do not parse
    "[grid]\nnx = abc\n",
    "[forcing]\nxi = fast\n",
    # typos that fell back to defaults, and a run that makes no step
    "[forcing]\nksi = 3.0\n",
    "[grdi]\nnx = 8\n",
    "[stepping]\nt_end = 5e-13\n",
    # keys that configparser copies from [DEFAULT] into every section
    "[DEFAULT]\nnx = 8\n[stepping]\ndt = 1e-3\n",
    "[DEFAULT]\nnx = 8\n",
], ids=["rho_low", "nx", "gamma", "record_every", "snapshot_every",
        "nx_abc", "xi_fast", "ksi", "grdi", "t_end_no_step",
        "default_with_section", "default_alone"])
def test_cli_error_exit_code(tmp_path, capsys, text):
    p = tmp_path / "bad.cfg"
    p.write_text(text)
    rc = cli_main(["simulate", str(p)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


_RUN_WITHOUT_SCIPY = """
import sys
# any import of scipy or sympy now raises ImportError
sys.modules["scipy"] = None
sys.modules["sympy"] = None
from nlcflow.runner import preset_config, run
result = run(preset_config("gzero", nx=8, ny=8, dt=5e-3, t_end=1e-2),
             write_outputs=False)
assert result.report["invariants"]["steps"] == 2
"""


def test_package_runs_without_scipy():
    # pyproject.toml lists numpy only
    env = dict(os.environ,
               PYTHONPATH=str(Path(nlcflow.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", _RUN_WITHOUT_SCIPY],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
