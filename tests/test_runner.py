"""Config handling, the coupled time loop, checkpointing, and the CLI."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nlcflow
from nlcflow import diagnostics
from nlcflow.cli import main as cli_main
from nlcflow.diagnostics import FIELD_ORDER, DiagContext, compute_record
from nlcflow import runner
from nlcflow.errors import (ConfigError, LinearSolveFailure, StepFailed,
                            StepRejected)
from nlcflow.forcing import ForcingSpec
from nlcflow.runner import (PRESETS, RunConfig, StepperState, initial_state,
                            load_checkpoint, load_config, preset_config,
                            run, save_checkpoint, step, validate_config)

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
        "[grid]\nnx = 24\nny = 12\n"
        "[physics]\nnu = 2.0\nrho_low = 0.5\nrho_high = 3.0\n"
        "[initial]\nrho0 = 1.0 + 0.25*cos(pi*x)\n"
        "[stepping]\ndt = 0.001\nt_end = 0.5\n"
        "[forcing]\nvariant = f2\nax = sin(pi*x)*sin(pi*y)\nay = 0\n"
        "xi = 2.0\namplitude = 0.5\n"
        "[output]\nout_dir = here\n")
    cfg = load_config(p)
    assert (cfg.nx, cfg.ny) == (24, 12)
    assert cfg.nu == 2.0
    assert cfg.forcing.variant == "f2"
    assert cfg.forcing.xi == 2.0
    assert cfg.out_dir == "here"
    assert cfg.lam == 1.0  # untouched default


def test_load_config_rejects_unknown_key(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("[grid]\nnx = 16\nresolution = 99\n")
    with pytest.raises(ConfigError, match="resolution"):
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
    assert np.abs(divergence(st.v).values).max() <= cfg.tol_proj
    assert st.v.u[0, :].max() == 0.0 and st.v.v[:, -1].max() == 0.0


def test_uniform_equilibrium_is_a_fixed_point():
    cfg = _cfg(rho0="1.5", v0x="0", v0y="0", d0x="1", d0y="0")
    state = initial_state(cfg)
    stepper = StepperState(dt=cfg.dt)
    nxt = step(state, cfg, stepper)
    assert np.array_equal(nxt.rho.values, state.rho.values)
    assert np.abs(nxt.v.u).max() <= 1e-14
    assert np.abs(nxt.v.v).max() <= 1e-14
    assert np.allclose(nxt.d.d1, 1.0, atol=1e-12)
    assert np.abs(nxt.d.d2).max() <= 1e-12


def test_step_halves_dt_under_cfl_and_keeps_it():
    cfg = _cfg(v0x="0.9*sin(pi*x)*sin(pi*x)*sin(2*pi*y)",
               v0y="-0.9*sin(2*pi*x)*sin(pi*y)*sin(pi*y)",
               dt=0.05, cfl_safety=0.5)
    state = initial_state(cfg)
    stepper = StepperState(dt=cfg.dt)
    step(state, cfg, stepper)
    assert stepper.dt < 0.05
    # power-of-two subdivision only
    assert np.log2(0.05 / stepper.dt) == pytest.approx(
        round(np.log2(0.05 / stepper.dt)))


def test_step_rejected_below_dt_min():
    cfg = _cfg(v0x="0.9*sin(pi*x)*sin(pi*x)*sin(2*pi*y)",
               v0y="-0.9*sin(2*pi*x)*sin(pi*y)*sin(pi*y)",
               dt=0.5, dt_min=0.3, cfl_safety=0.5)
    state = initial_state(cfg)
    with pytest.raises(StepRejected):
        step(state, cfg, StepperState(dt=cfg.dt))


def test_step_fails_fast_on_nonfinite_velocity():
    cfg = _cfg()
    state = initial_state(cfg)
    state.v.u[5, 7] = np.nan
    with pytest.raises(LinearSolveFailure, match="non-finite"):
        step(state, cfg, StepperState(dt=cfg.dt))


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
    stepper = StepperState(dt=cfg.dt)
    ctx = DiagContext(glp=cfg.glp, flow=cfg.flow, spec=cfg.forcing)
    records, prev_rec = [], None
    for n in range(1, 11):
        prev, state = state, step(state, cfg, stepper)
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
    b = step(a, cfg, StepperState(dt=cfg.dt))
    c = step(b, cfg, StepperState(dt=cfg.dt))
    ctx = DiagContext(glp=cfg.glp, flow=cfg.flow, spec=cfg.forcing)
    with pytest.raises(ValueError, match="prev_rec"):
        compute_record(b, c, ctx, compute_record(a, c, ctx))


def test_checkpoint_round_trip_resumes_bitwise(tmp_path):
    cfg = _cfg(t_end=0.04)
    state = initial_state(cfg)
    stepper = StepperState(dt=cfg.dt)
    for _ in range(4):
        state = step(state, cfg, stepper)

    path = tmp_path / "snap.bin"
    save_checkpoint(path, state, stepper.dt)
    loaded, dt_loaded = load_checkpoint(path, cfg)
    assert dt_loaded == stepper.dt
    assert loaded.t == state.t
    assert np.array_equal(loaded.rho.values, state.rho.values)
    assert np.array_equal(loaded.v.u, state.v.u)
    assert np.array_equal(loaded.d.d1, state.d.d1)
    # conserved references match the run's own initial data
    assert loaded.density.mass0 == initial_state(cfg).density.mass0

    cont_a = step(state, cfg, StepperState(dt=stepper.dt))
    cont_b = step(loaded, cfg, StepperState(dt=dt_loaded))
    assert np.array_equal(cont_a.v.u, cont_b.v.u)
    assert np.array_equal(cont_a.rho.values, cont_b.rho.values)
    assert np.array_equal(cont_a.d.d2, cont_b.d.d2)


def test_checkpoint_with_full_solve_history_resumes_bitwise(tmp_path):
    # after 5 steps the history of solves is full, so the resumed run
    # extrapolates its initial guesses from the checkpoint's copy of it
    cfg = _cfg(t_end=0.08)
    state = initial_state(cfg)
    stepper = StepperState(dt=cfg.dt)
    for _ in range(5):
        state = step(state, cfg, stepper)
    assert len(state.solves) == 3

    path = tmp_path / "snap.bin"
    save_checkpoint(path, state, stepper.dt)
    loaded, dt_loaded = load_checkpoint(path, cfg)
    resumed = StepperState(dt=dt_loaded)
    for _ in range(3):
        state = step(state, cfg, stepper)
        loaded = step(loaded, cfg, resumed)
        for a, b in ((state.v.u, loaded.v.u), (state.v.v, loaded.v.v),
                     (state.rho.values, loaded.rho.values),
                     (state.d.d1, loaded.d.d1), (state.d.d2, loaded.d.d2),
                     (state.pressure.values, loaded.pressure.values)):
            assert a.tobytes() == b.tobytes()


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


def test_cli_error_exit_code(tmp_path, capsys):
    p = tmp_path / "bad.cfg"
    p.write_text("[physics]\nrho_low = -1\n")
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
