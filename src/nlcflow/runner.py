"""Configuration, the coupled time loop (density -> director -> momentum ->
projection), invariant tracking, checkpoints (one versioned `np.savez`
archive, read back bitwise), scenario presets, and the
refinement/manufactured-solution harnesses.
"""

from __future__ import annotations

import configparser
import json
import os
import zipfile
from dataclasses import dataclass, field, fields

import numpy as np

from .density import DensityState, advance_density, cfl_number
from .diagnostics import (FIELD_ORDER, DiagContext, DiagRecord,
                          compute_record, convergence_monitor, state_bounds,
                          write_csv)
from .director import GLParams, advance_director
from .errors import (CheckpointError, ConfigError, DegenerateFit,
                     InsufficientSamples, OrderRegression, StepFailed,
                     StepRejected)
from .expressions import parse_expression
from .forcing import ForcingSpec, eval_force, sample_forcing
from .grid import (DirectorField, DirectorTrace, GridSpec, MacVelocity,
                   ScalarField, elastic_identity_residual, laplacian,
                   norms)
from .momentum import FlowParams, predict_velocity, project
from .state import SimState
from .stationary import (StationaryResult, decay_rate_fit, lojasiewicz_probe,
                         solve_stationary)


# a run ends once t is within this of t_end
T_END_TOL = 1e-12
# the director's maximum principle holds if max|d| <= 1 + TOL_MAX
TOL_MAX = 1e-6


@dataclass(frozen=True)
class RunConfig:
    # grid
    nx: int = 64
    ny: int = 64
    Lx: float = 1.0
    Ly: float = 1.0
    # physics
    nu: float = 1.0
    lam: float = 1.0
    gamma: float = 1.0
    eta: float = 0.5
    rho_low: float = 1.0
    rho_high: float = 2.0
    # initial data expressions
    rho0: str = "1.5"
    v0x: str = "0"
    v0y: str = "0"
    d0x: str = "1"
    d0y: str = "0"
    # forcing
    forcing: ForcingSpec = field(default_factory=ForcingSpec)
    # stepping
    dt: float = 2.5e-3
    t_end: float = 1.0
    cfl_safety: float = 0.5
    dt_min: float = 1e-8
    # tolerances
    tol_proj: float = 1e-8
    tol_stationary: float = 1e-9
    # output
    record_every: int = 20
    snapshot_every: int = 0
    out_dir: str = "out"

    @property
    def grid(self) -> GridSpec:
        return GridSpec(self.nx, self.ny, self.Lx, self.Ly)

    @property
    def glp(self) -> GLParams:
        return GLParams(gamma=self.gamma, eta=self.eta, lam=self.lam)

    @property
    def flow(self) -> FlowParams:
        return FlowParams(nu=self.nu, tol_proj=self.tol_proj)


_SECTIONS = {
    "grid": (("nx", int), ("ny", int), ("Lx", float), ("Ly", float)),
    "physics": (("nu", float), ("lam", float), ("gamma", float),
                ("eta", float), ("rho_low", float), ("rho_high", float)),
    "initial": (("rho0", str), ("v0x", str), ("v0y", str),
                ("d0x", str), ("d0y", str)),
    "stepping": (("dt", float), ("t_end", float), ("cfl_safety", float),
                 ("dt_min", float)),
    "tolerances": (("tol_proj", float), ("tol_stationary", float)),
    "output": (("record_every", int), ("snapshot_every", int),
               ("out_dir", str)),
    # the fields of RunConfig.forcing, a ForcingSpec
    "forcing": (("variant", str), ("phi", str), ("ax", str), ("ay", str),
                ("xi", float), ("amplitude", float)),
}


def load_config(path) -> RunConfig:
    """Plain key=value config with section headers mirroring RunConfig. An
    unknown section or key raises ConfigError naming it, so that a typo
    cannot fall back to a default unnoticed."""
    cp = configparser.ConfigParser()
    if not cp.read(path):
        raise ConfigError(f"cannot read config file {path}")
    if cp.defaults():
        # configparser would copy these keys into every section
        raise ConfigError(
            f"keys under [DEFAULT] are not read: "
            f"{', '.join(cp.defaults())}; give each in its own section")
    for section in cp.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]; choose from "
                              f"{', '.join(_SECTIONS)}")
        # configparser lower-cases the keys it reads
        known = {k.lower() for k, _ in _SECTIONS[section]}
        for k in cp[section]:
            if k not in known:
                raise ConfigError(f"unknown key {k!r} in [{section}]")
    kwargs = {}
    for section, keys in _SECTIONS.items():
        if section != "forcing" and cp.has_section(section):
            kwargs.update(_parse_keys(cp, section, keys))
    if cp.has_section("forcing"):
        kwargs["forcing"] = ForcingSpec(
            **_parse_keys(cp, "forcing", _SECTIONS["forcing"]))
    cfg = RunConfig(**kwargs)
    validate_config(cfg)
    return cfg


def _parse_keys(cp: configparser.ConfigParser, section: str, keys) -> dict:
    """The section's given keys, each converted; a value that does not
    parse raises ConfigError naming its key and section."""
    out = {}
    for key, conv in keys:
        if cp.has_option(section, key):
            text = cp[section][key]
            try:
                out[key] = conv(text)
            except ValueError as exc:
                raise ConfigError(
                    f"{key} = {text!r} in [{section}] is not a valid "
                    f"{conv.__name__}") from exc
    return out


def validate_config(cfg: RunConfig) -> dict:
    """Reject every model-assumption violation that can be sampled, and
    return the initial-data samples keyed by config name, with the
    director's wall trace under ``"trace"``."""
    try:  # the grid and parameter classes check their own ranges
        g, _, _ = cfg.grid, cfg.glp, cfg.flow
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if cfg.record_every < 1:
        raise ConfigError("record_every must be at least 1")
    if cfg.snapshot_every < 0:
        raise ConfigError("snapshot_every must not be negative")
    if cfg.rho_low <= 0:
        raise ConfigError("rho_low must be positive")
    if cfg.rho_high < cfg.rho_low:
        raise ConfigError("rho_high < rho_low")
    for key in ("dt", "t_end", "dt_min", "tol_stationary"):
        if not 0 < getattr(cfg, key) < np.inf:  # NaN fails it too
            raise ConfigError(
                f"{key} = {getattr(cfg, key)!r} must be finite and positive")
    if cfg.t_end <= T_END_TOL:
        raise ConfigError(
            f"t_end = {cfg.t_end:g} is within the time loop's end tolerance "
            f"{T_END_TOL:g} of t = 0, so the run would make no step")
    if not 0 < cfg.cfl_safety <= 1:
        raise ConfigError("cfl_safety must lie in (0, 1]")
    # each expression is sampled where the run uses it
    c, u, v = g.cell_centers(), g.uface_coords(), g.vface_coords()
    sites = {"rho0": (cfg.rho0, c), "v0x": (cfg.v0x, u), "v0y": (cfg.v0y, v),
             "d0x": (cfg.d0x, c), "d0y": (cfg.d0y, c)}
    with np.errstate(all="ignore"):  # NaN would pass the range checks
        fns = {key: parse_expression(text)
               for key, (text, _) in sites.items()}
        samples = {key: fns[key](*xy) for key, (_, xy) in sites.items()}
        trace = DirectorTrace.sample(
            g, lambda x, y: (fns["d0x"](x, y), fns["d0y"](x, y)))
    # d0 is checked on the walls too, where the trace samples it
    d0 = {key: np.concatenate([samples[key].ravel(), *walls])
          for key, walls in zip(("d0x", "d0y"), trace.walls)}
    for key, vals in {**samples, **d0}.items():
        if not np.isfinite(vals).all():
            raise ConfigError(f"{key} is not finite on the grid")
    # the forcing checks its own samples
    sample_forcing(cfg.forcing, g)
    rho = samples["rho0"]
    if rho.min() < cfg.rho_low or rho.max() > cfg.rho_high:
        raise ConfigError(
            f"initial density range [{rho.min():.4g}, {rho.max():.4g}] "
            f"violates [{cfg.rho_low:.4g}, {cfg.rho_high:.4g}]")
    if np.max(d0["d0x"]**2 + d0["d0y"]**2) > 1.0 + 1e-12:
        raise ConfigError("|d0| must not exceed 1")
    return {**samples, "trace": trace}


def initial_state(cfg: RunConfig) -> SimState:
    """Validate and sample the initial data, and project the velocity once
    so the discrete divergence constraint holds from step zero. The state
    starts the scheme with the zero pressure, v_prev = v and dt = cfg.dt,
    so that step 1 is a step like any other."""
    s = validate_config(cfg)
    g = cfg.grid
    rho = ScalarField(g, s["rho0"])
    density = DensityState.from_field(rho)
    d = DirectorField(g, s["d0x"], s["d0y"], s["trace"])
    v = MacVelocity(g, s["v0x"], s["v0y"])
    v.enforce_noslip()
    if norms(v, "Linf") > 0:
        v, _ = project(rho, v, 1.0, cfg.flow)
    pressure = ScalarField(g, np.zeros((g.nx, g.ny)))
    return SimState(t=0.0, density=density, v=v, d=d, pressure=pressure,
                    v_prev=v, dt=cfg.dt)


def step(state: SimState, cfg: RunConfig) -> SimState:
    """The state one coupled step after `state`, which is left as it was:
    density and director advance with the current velocity, then the
    momentum predictor and projection use the fresh density and director.
    The predictor carries the gradient of the state's pressure p_hat and
    lags the velocity v^n + (dt/dt_in)(v^n - v^{n-1}), dt_in being
    `state.dt` and v^{n-1} `state.v_prev`; it splits its inertia at the
    midrange of the initial density. The projection solves for the
    pressure's increment, and the new pressure is p_hat plus it. The
    director step hands d' the Laplacian of its equation, so the step
    applies no Laplacian stencil. Each field keeps what it derives (face
    densities, f(d), gradients, ||div v||_inf) for the later layers. dt
    is halved until the transport CFL bound holds with the configured
    safety factor, and a step that would pass t_end is shortened to end
    there; the new state's dt is the full step."""
    dt = state.dt
    while cfl_number(state.v, dt) > cfg.cfl_safety:
        dt *= 0.5
        if dt < cfg.dt_min:
            raise StepRejected(
                f"CFL shrink pushed dt below dt_min={cfg.dt_min:g} "
                f"at t={state.t:.6g}")
    full = dt
    # the last step of a run lands on t_end; the new state keeps the full
    # step
    if 0.0 < cfg.t_end - state.t < dt - 1e-12:
        dt = cfg.t_end - state.t

    density = advance_density(state.density, state.v, dt)
    d = advance_director(state.d, state.v, cfg.glp, dt)
    g_mid = eval_force(cfg.forcing, cfg.grid, state.t + 0.5 * dt)
    p_hat = state.pressure.values
    v_star = predict_velocity(density.rho, state.v, d, g_mid, cfg.flow,
                              cfg.glp, dt, density.rho_bar, p_hat,
                              state.v_prev, state.dt)
    v, q = project(density.rho, v_star, dt, cfg.flow, p_hat)
    return SimState(t=state.t + dt, density=density, v=v, d=d, pressure=q,
                    v_prev=state.v, dt=full)


@dataclass
class RunResult:
    records: list
    report: dict
    final: SimState
    d_inf: DirectorField | None


@dataclass(frozen=True)
class RunLog:
    """What a run has accumulated after `steps` steps: its records and
    the running extrema, in the report's order, of the per-state bounds
    that the report's checks read. `after_step` advances it."""

    steps: int = 0
    records: tuple = ()
    mass_drift_rel_max: float = 0.0
    rho_min_run: float = np.inf
    rho_max_run: float = -np.inf
    d_maxnorm_max: float = 0.0
    div_v_inf_max: float = 0.0


def after_step(log: RunLog, prev: SimState, state: SimState, cfg: RunConfig,
               ctx: DiagContext) -> RunLog:
    """The log once the step from prev to state is taken. The step makes a
    record at step 1, every `record_every` steps and at t_end, carrying
    the log's last record if it was made at prev.t; a record already
    holds the state's bounds."""
    steps, records = log.steps + 1, log.records
    if (steps % cfg.record_every == 0 or steps == 1
            or state.t >= cfg.t_end - T_END_TOL):
        carried = records[-1] if records and records[-1].t == prev.t else None
        records += (compute_record(prev, state, ctx, carried),)
        b = vars(records[-1])
    else:
        b = state_bounds(state)
    mass0 = state.density.mass0
    return RunLog(
        steps, records,
        max(log.mass_drift_rel_max, abs(b["mass"] - mass0) / abs(mass0)),
        min(log.rho_min_run, b["rho_min"]), max(log.rho_max_run, b["rho_max"]),
        max(log.d_maxnorm_max, b["d_maxnorm"]),
        max(log.div_v_inf_max, b["div_v_inf"]))


def run(cfg: RunConfig, write_outputs: bool = True,
        with_stationary: bool = True) -> RunResult:
    state = initial_state(cfg)  # validates cfg first
    st = (solve_stationary(cfg.grid, state.d.trace, cfg.eta,
                           cfg.tol_stationary) if with_stationary else None)
    ctx = DiagContext(glp=cfg.glp, flow=cfg.flow, spec=cfg.forcing,
                      d_inf=None if st is None else st.d_inf)
    if write_outputs:
        os.makedirs(cfg.out_dir, exist_ok=True)
    log = RunLog()
    while state.t < cfg.t_end - T_END_TOL:
        prev = state
        try:
            state = step(state, cfg)
        except Exception as exc:
            raise StepFailed(log.steps + 1, prev.t, exc) from exc
        log = after_step(log, prev, state, cfg, ctx)
        if write_outputs and cfg.snapshot_every > 0 \
                and log.steps % cfg.snapshot_every == 0:
            save_checkpoint(os.path.join(
                cfg.out_dir, f"snap_{log.steps:07d}.npz"), state, log)
    report = run_report(cfg, log, state, st)
    if write_outputs:
        write_csv(os.path.join(cfg.out_dir, "diagnostics.csv"), log.records)
        with open(os.path.join(cfg.out_dir, "run_report.json"), "w") as fh:
            json.dump(report, fh, indent=2, default=float)
    return RunResult(records=list(log.records), report=report, final=state,
                     d_inf=ctx.d_inf)


def run_report(cfg: RunConfig, log: RunLog, final: SimState,
               stationary: StationaryResult | None) -> dict:
    """The report of a run that ended in `final` with `log`, and with the
    given stationary solve, if it made one."""
    inv = {f.name: float(getattr(log, f.name)) for f in fields(RunLog)[2:]}
    # from 0, so that a NaN residual is never the max
    inv["law_residual_max"] = float(max([0.0, *(abs(r.law_residual)
                                                for r in log.records)]))
    inv["steps"] = log.steps
    report = {
        "t_end": final.t,
        "final_dt": final.dt,
        "invariants": inv,
        "checks": {
            "mass_conserved": inv["mass_drift_rel_max"] <= 1e-12,
            "rho_in_bounds": (inv["rho_min_run"] >= cfg.rho_low
                              and inv["rho_max_run"] <= cfg.rho_high),
            "d_max_principle": inv["d_maxnorm_max"] <= 1.0 + TOL_MAX,
            "div_free": inv["div_v_inf_max"] <= cfg.tol_proj,
        },
    }
    if len(log.records) >= 10:
        report["convergence"] = convergence_monitor(log.records)
    if stationary is not None:
        report["stationary_energy"] = stationary.energy
        report["stationary_residual"] = stationary.residual
        if cfg.forcing.variant == "f2":
            report["rate"] = _rate_analysis(cfg, log.records,
                                            stationary.energy)
    # the snapshot-differenced B carries an O(dt) bias; reported raw
    report["notes"] = ["B_val uses backward differences of snapshots"]
    return report


def _rate_analysis(cfg: RunConfig, records, e_inf: float) -> dict:
    out = {}
    # the (|E(d) - E(d_inf)|, ||lap d - f(d)||) pairs of the records
    samples = [(abs((r.elastic + r.potential) / cfg.lam - e_inf), r.gl_res_L2)
               for r in records]
    try:
        theta = lojasiewicz_probe(samples)
        out["theta_est"] = theta
    except InsufficientSamples as exc:
        out["theta_est"] = None
        out["probe_error"] = str(exc)
        theta = 0.5
    times = np.array([r.t for r in records])
    values = np.array([r.v_H1 + r.d_dist for r in records])
    try:
        fit = decay_rate_fit(times, values, theta, cfg.forcing.xi)
        out["kappa_fit"] = float(fit.kappa_fit)
        out["kappa_pred"] = fit.kappa_pred
        out["window"] = list(fit.window)
        # a numpy bool would reach the JSON report as 1.0 via default=float
        out["exceeds_prediction"] = bool(fit.exceeds_prediction)
    except DegenerateFit as exc:
        out["kappa_fit"] = None
        out["exceeds_prediction"] = True
        out["fit_note"] = str(exc)
    return out


# the one checkpoint layout; `load_checkpoint` rejects any other version
CHECKPOINT_VERSION = 4

# the RunLog's fields that a checkpoint saves as `log_<name>`
_LOG_SCALARS = tuple(f.name for f in fields(RunLog) if f.name != "records")


def save_checkpoint(path, state: SimState, log: RunLog) -> None:
    """The state with its pressure, dt, previous velocity and director
    Laplacian, and the log of the run that reached it, so that a resumed
    run steps, records and reports bitwise like the uninterrupted one.
    Written to `path` as one `np.savez` archive: the format `version`, the
    grid (`nx`, `ny`, `Lx`, `Ly`), `t`, `dt`, the conserved references
    `mass0`, `rho_min0` and `rho_max0`, `rho`, `u`, `v`, `d1`, `d2`,
    `lap_d1`, `lap_d2`, the pressure `q`, v_prev as `u_prev`, `v_prev`,
    the log's records as one (k, 19) array `records` in `FIELD_ORDER`, and
    each other field of the log as `log_<name>`."""
    g = state.rho.grid
    density = state.density
    lap1, lap2 = state.d.lap
    rows = np.array([[getattr(r, k) for k in FIELD_ORDER]
                     for r in log.records]).reshape(-1, len(FIELD_ORDER))
    with open(path, "wb") as fh:
        np.savez(fh, version=CHECKPOINT_VERSION, nx=g.nx, ny=g.ny, Lx=g.Lx,
                 Ly=g.Ly, t=state.t, dt=state.dt, mass0=density.mass0,
                 rho_min0=density.rho_min0, rho_max0=density.rho_max0,
                 rho=state.rho.values, u=state.v.u, v=state.v.v,
                 d1=state.d.d1, d2=state.d.d2, lap_d1=lap1, lap_d2=lap2,
                 q=state.pressure.values, u_prev=state.v_prev.u,
                 v_prev=state.v_prev.v, records=rows,
                 **{f"log_{k}": getattr(log, k) for k in _LOG_SCALARS})


# the arrays of a version-4 archive besides its version
_CHECKPOINT_KEYS = ("nx", "ny", "Lx", "Ly", "t", "dt", "mass0", "rho_min0",
                    "rho_max0", "rho", "u", "v", "d1", "d2", "lap_d1",
                    "lap_d2", "q", "u_prev", "v_prev", "records",
                    *(f"log_{k}" for k in _LOG_SCALARS))


def load_checkpoint(path, cfg: RunConfig) -> tuple[SimState, RunLog]:
    """Inverse of `save_checkpoint`: the state with its pressure, dt,
    previous velocity and the Laplacian of its director, each array
    restored as saved, and the run's log. A file that is not such an
    archive, another format version, an archive that lacks one of its
    arrays or holds records or a log scalar of another shape, a run on a
    grid other than `cfg`'s, or conserved references other than those of
    `cfg`'s t = 0 data raise `CheckpointError`."""
    try:
        archive = np.load(path, allow_pickle=False)
        if not isinstance(archive, np.lib.npyio.NpzFile):
            raise CheckpointError(
                f"{path} is not a checkpoint archive: it holds one array")
        with archive:
            f = dict(archive)
    except (EOFError, ValueError, zipfile.BadZipFile) as exc:
        raise CheckpointError(
            f"{path} is not a checkpoint archive: {exc}") from exc
    version = f["version"].tolist() if "version" in f else None
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path} has checkpoint format version {version!r}; "
            f"this reader knows version {CHECKPOINT_VERSION}")
    missing = [k for k in _CHECKPOINT_KEYS if k not in f]
    if missing:
        raise CheckpointError(
            f"{path} lacks the checkpoint array(s) {', '.join(missing)}")
    rows = f["records"]
    if rows.ndim != 2 or rows.shape[1] != len(FIELD_ORDER):
        raise CheckpointError(
            f"{path} holds records of shape {rows.shape}, "
            f"not (k, {len(FIELD_ORDER)})")
    shaped = [f"log_{k}" for k in _LOG_SCALARS if f[f"log_{k}"].ndim != 0]
    if shaped:
        raise CheckpointError(f"{path} holds the log array(s) "
                              f"{', '.join(shaped)} not as one number")
    grid = cfg.grid
    saved = tuple(f[k].tolist() for k in ("nx", "ny", "Lx", "Ly"))
    if saved != (grid.nx, grid.ny, grid.Lx, grid.Ly):
        raise CheckpointError(
            f"{path} holds a run on the grid (nx, ny, Lx, Ly) = {saved}, "
            f"not the config's {(grid.nx, grid.ny, grid.Lx, grid.Ly)}")
    ref = initial_state(cfg)
    for keys in (("mass0", "rho_max0"), ("rho_min0",)):
        refs = tuple(f[k].tolist() for k in keys)
        expected = tuple(getattr(ref.density, k) for k in keys)
        if refs != expected:
            raise CheckpointError(
                f"{path} holds a run with ({', '.join(keys)}) = {refs}, "
                f"not the {expected} of the config's initial data")
    r = ref.density
    density = DensityState(ScalarField(grid, f["rho"]),
                           r.rho_min0, r.rho_max0, r.mass0)
    d = DirectorField(grid, f["d1"], f["d2"], ref.d.trace)
    d.derived("lap", lambda: (f["lap_d1"], f["lap_d2"]))
    state = SimState(t=float(f["t"]), density=density,
                     v=MacVelocity(grid, f["u"], f["v"]), d=d,
                     pressure=ScalarField(grid, f["q"]),
                     v_prev=MacVelocity(grid, f["u_prev"], f["v_prev"]),
                     dt=float(f["dt"]))
    return state, RunLog(
        records=tuple(DiagRecord(*row) for row in rows.tolist()),
        **{k: f[f"log_{k}"].item() for k in _LOG_SCALARS})


# ---------------------------------------------------------------------------
# scenario presets

PRESETS = {
    "gzero": dict(
        rho0="1.5 + 0.3*sin(2*pi*x)*sin(2*pi*y)",
        v0x="0.2*sin(pi*x)*sin(pi*x)*sin(2*pi*y)",
        v0y="-0.2*sin(2*pi*x)*sin(pi*y)*sin(pi*y)",
        d0x="cos(0.4*sin(pi*x)*sin(pi*y))",
        d0y="sin(0.4*sin(pi*x)*sin(pi*y))",
        forcing=ForcingSpec(variant="none"),
        dt=5e-3, t_end=50.0, record_every=40,
    ),
    "f1-potential": dict(
        rho0="1.5 + 0.3*cos(pi*x)*cos(pi*y)",
        v0x="0.2*sin(pi*x)*sin(pi*x)*sin(2*pi*y)",
        v0y="-0.2*sin(2*pi*x)*sin(pi*y)*sin(pi*y)",
        d0x="cos(0.4*sin(pi*x)*sin(pi*y))",
        d0y="sin(0.4*sin(pi*x)*sin(pi*y))",
        forcing=ForcingSpec(variant="f1", phi="0.002*cos(pi*x)*cos(pi*y)"),
        dt=5e-3, t_end=50.0, record_every=40,
    ),
    "f2-decaying": dict(
        rho0="1.5 + 0.3*sin(2*pi*x)*sin(2*pi*y)",
        v0x="0", v0y="0",
        d0x="cos(0.4*sin(pi*x)*sin(pi*y))",
        d0y="sin(0.4*sin(pi*x)*sin(pi*y))",
        forcing=ForcingSpec(variant="f2", ax="0.2*sin(pi*x)*sin(pi*y)",
                            ay="-0.2*sin(pi*y)*sin(pi*x)", xi=1.0,
                            amplitude=1.0),
        dt=5e-3, t_end=50.0, record_every=40,
    ),
}


def preset_config(name: str, **overrides) -> RunConfig:
    if name not in PRESETS:
        raise ConfigError(
            f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    kw = dict(PRESETS[name])
    kw.update(overrides)
    return RunConfig(**kw)


# ---------------------------------------------------------------------------
# manufactured-solution / refinement harness

def _order(errors, grids) -> float:
    e = np.log(errors)
    h = np.log([1.0 / n for n in grids])
    return float(np.polyfit(h, e, 1)[0])


def _mms_trace(x, y):
    t = 0.4 * np.sin(np.pi * x) * np.sin(np.pi * y)
    return np.cos(t), np.sin(t)


def mms_verify(resolutions=(16, 32, 64), tol_proj: float = 1e-8) -> dict:
    """Observed convergence orders of the spatial operators against
    manufactured fields, plus the projection divergence check."""
    lap_err, upw_err, el_err = [], [], []
    div_ok = True
    for n in resolutions:
        g = GridSpec(n, n, 1.0, 1.0)
        X, Y = g.cell_centers()

        u = np.sin(np.pi * X) * np.sin(np.pi * Y)
        exact = -2 * np.pi**2 * u
        m = max(2, n // 8)
        err = np.abs(laplacian(u, g) - exact)[m:-m, m:-m].max()
        lap_err.append(err)

        from .density import upwind_flux_divergence
        Xu, Yu = g.uface_coords()
        Xv, Yv = g.vface_coords()
        w = MacVelocity(g, np.pi * np.sin(np.pi * Xu)**2 * np.sin(2 * np.pi * Yu),
                        -np.pi * np.sin(2 * np.pi * Xv) * np.sin(np.pi * Yv)**2)
        w.enforce_noslip()
        rho = 1.5 + 0.3 * np.sin(2 * np.pi * X) * np.cos(np.pi * Y)
        rx = 0.6 * np.pi * np.cos(2 * np.pi * X) * np.cos(np.pi * Y)
        ry = -0.3 * np.pi * np.sin(2 * np.pi * X) * np.sin(np.pi * Y)
        uc = np.pi * np.sin(np.pi * X)**2 * np.sin(2 * np.pi * Y)
        vc = -np.pi * np.sin(2 * np.pi * X) * np.sin(np.pi * Y)**2
        exact_div = uc * rx + vc * ry
        err = np.abs(upwind_flux_divergence(rho, w) - exact_div)[m:-m, m:-m].max()
        upw_err.append(err)

        th = 0.4 * np.sin(np.pi * X) * np.sin(np.pi * Y)
        d = DirectorField(g, np.cos(th), np.sin(th),
                          DirectorTrace.sample(g, _mms_trace))
        el_err.append(elastic_identity_residual(d, margin=max(2, m)))

        vstar = MacVelocity(g, w.u.copy(), w.v.copy())
        rho_f = ScalarField(g, rho)
        vproj, _ = project(rho_f, vstar, 1.0,
                           FlowParams(tol_proj=tol_proj))
        if vproj.div_inf > tol_proj:
            div_ok = False

    table = {
        "laplacian_order": _order(lap_err, resolutions),
        "upwind_order": _order(upw_err, resolutions),
        "elastic_identity_order": _order(el_err, resolutions),
        "projection_div_ok": div_ok,
        "laplacian_errors": lap_err,
        "upwind_errors": upw_err,
        "elastic_identity_errors": el_err,
        "resolutions": list(resolutions),
    }
    for key, expected in (("laplacian_order", 2.0), ("upwind_order", 1.0),
                          ("elastic_identity_order", 1.0)):
        if table[key] < expected - 0.3:
            raise OrderRegression(
                f"{key} = {table[key]:.3f}, expected >= {expected - 0.3}")
    return table
