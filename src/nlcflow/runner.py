"""Configuration, the coupled time loop (density -> director -> momentum ->
projection), invariant tracking, checkpointing, scenario presets, and the
refinement/manufactured-solution harnesses.
"""

from __future__ import annotations

import configparser
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .density import DensityState, advance_density, cfl_number
from .diagnostics import (DiagContext, compute_record, convergence_monitor,
                          state_bounds, write_csv)
from .director import GLParams, advance_director
from .errors import (ConfigError, DegenerateFit, InsufficientSamples,
                     OrderRegression, StepFailed, StepRejected)
from .expressions import parse_expression
from .forcing import (ForcingSpec, eval_force, sample_potential,
                      sample_profile)
from .grid import (DirectorField, DirectorTrace, GridSpec, MacVelocity,
                   ScalarField, divergence, elastic_identity_residual,
                   laplacian, load_snapshot, norms, save_snapshot)
from .momentum import FlowParams, predict_velocity, project
from .state import SimState
from .stationary import decay_rate_fit, lojasiewicz_probe, solve_stationary


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
    tol_lin: float = 1e-10
    tol_proj: float = 1e-8
    tol_stationary: float = 1e-9
    tol_max: float = 1e-6
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
        return FlowParams(nu=self.nu, tol_proj=self.tol_proj,
                          tol_lin=self.tol_lin)


_SECTIONS = {
    "grid": (("nx", int), ("ny", int), ("Lx", float), ("Ly", float)),
    "physics": (("nu", float), ("lam", float), ("gamma", float),
                ("eta", float), ("rho_low", float), ("rho_high", float)),
    "initial": (("rho0", str), ("v0x", str), ("v0y", str),
                ("d0x", str), ("d0y", str)),
    "stepping": (("dt", float), ("t_end", float), ("cfl_safety", float),
                 ("dt_min", float)),
    "tolerances": (("tol_lin", float), ("tol_proj", float),
                   ("tol_stationary", float), ("tol_max", float)),
    "output": (("record_every", int), ("snapshot_every", int),
               ("out_dir", str)),
}


def load_config(path) -> RunConfig:
    """Plain key=value config with section headers mirroring RunConfig."""
    cp = configparser.ConfigParser()
    if not cp.read(path):
        raise ConfigError(f"cannot read config file {path}")
    kwargs = {}
    for section, keys in _SECTIONS.items():
        if not cp.has_section(section):
            continue
        known = {k for k, _ in keys}
        for k in cp[section]:
            if k not in known:
                raise ConfigError(f"unknown key {k!r} in [{section}]")
        for key, conv in keys:
            if cp.has_option(section, key):
                kwargs[key] = conv(cp[section][key])
    if cp.has_section("forcing"):
        fkw = {}
        for key, conv in (("variant", str), ("phi", str), ("ax", str),
                          ("ay", str), ("xi", float), ("amplitude", float)):
            if cp.has_option("forcing", key):
                fkw[key] = conv(cp["forcing"][key])
        kwargs["forcing"] = ForcingSpec(**fkw)
    cfg = RunConfig(**kwargs)
    validate_config(cfg)
    return cfg


def validate_config(cfg: RunConfig) -> dict:
    """Reject every model-assumption violation that can be sampled, and
    return the initial-data samples keyed by config name, with the
    director's wall trace under ``"trace"``."""
    if cfg.rho_low <= 0:
        raise ConfigError("rho_low must be positive")
    if cfg.rho_high < cfg.rho_low:
        raise ConfigError("rho_high < rho_low")
    if cfg.dt <= 0 or cfg.t_end <= 0:
        raise ConfigError("dt and t_end must be positive")
    if not 0 < cfg.cfl_safety <= 1:
        raise ConfigError("cfl_safety must lie in (0, 1]")
    # each expression is sampled where the run uses it, the forcing by its
    # own cached samplers; the forcing spec checks xi > 0 itself
    g, f = cfg.grid, cfg.forcing
    c, u, v = g.cell_centers(), g.uface_coords(), g.vface_coords()
    sites = {"rho0": (cfg.rho0, c), "v0x": (cfg.v0x, u), "v0y": (cfg.v0y, v),
             "d0x": (cfg.d0x, c), "d0y": (cfg.d0y, c)}
    with np.errstate(all="ignore"):  # NaN would pass the range checks
        fns = {key: parse_expression(text)
               for key, (text, _) in sites.items()}
        samples = {key: fns[key](*xy) for key, (_, xy) in sites.items()}
        trace = DirectorTrace.sample(
            g, lambda x, y: (fns["d0x"](x, y), fns["d0y"](x, y)))
        if f.variant == "f1":
            samples["phi"] = sample_potential(f, g).values
        elif f.variant == "f2":
            prof = sample_profile(f, g)
            samples["ax"], samples["ay"] = prof.u, prof.v
    # d0 is checked on the walls too, where the trace samples it
    d0 = {key: np.concatenate([samples[key].ravel(), *walls])
          for key, walls in zip(("d0x", "d0y"), trace.walls)}
    for key, vals in {**samples, **d0}.items():
        if not np.isfinite(vals).all():
            raise ConfigError(f"{key} is not finite on the grid")
    rho = samples["rho0"]
    if rho.min() < cfg.rho_low or rho.max() > cfg.rho_high:
        raise ConfigError(
            f"initial density range [{rho.min():.4g}, {rho.max():.4g}] "
            f"violates [{cfg.rho_low:.4g}, {cfg.rho_high:.4g}]")
    if np.max(d0["d0x"]**2 + d0["d0y"]**2) > 1.0 + 1e-12:
        raise ConfigError("|d0| must not exceed 1")
    return {**{key: samples[key] for key in sites}, "trace": trace}


def initial_state(cfg: RunConfig) -> SimState:
    """Validate and sample the initial data, and project the velocity once
    so the discrete divergence constraint holds from step zero."""
    s = validate_config(cfg)
    g = cfg.grid
    rho = ScalarField(g, s["rho0"], "extrapolate")
    density = DensityState.from_field(rho)
    d = DirectorField(g, s["d0x"], s["d0y"], s["trace"])
    v = MacVelocity(g, s["v0x"], s["v0y"])
    v.enforce_noslip()
    if norms(v, "Linf") > 0:
        v, _ = project(rho, v, 1.0, cfg.flow)
    return SimState(t=0.0, density=density, v=v, d=d)


_SOLVE_HISTORY = 3  # solves kept: quadratic extrapolation of the guesses


def _extrapolate(solves: tuple, t: float):
    """Lagrange extrapolation to time t of the kept (t_k, v*_k, q_k), with
    weights from the actual times (3, -3, 1 for equal steps): the
    predictor's and the projection's initial guesses, (None, None) for an
    empty history."""
    if not solves:
        return None, None
    times = [tk for tk, _, _ in solves]
    weights = [math.prod((t - tj) / (tk - tj)
                         for j, tj in enumerate(times) if j != k)
               for k, tk in enumerate(times)]

    def combine(arrays):
        out = weights[0] * arrays[0]
        for w, a in zip(weights[1:], arrays[1:]):
            out += w * a
        return out

    vs = [vk for _, vk, _ in solves]
    return (MacVelocity(vs[0].grid, combine([vk.u for vk in vs]),
                        combine([vk.v for vk in vs])),
            combine([qk for _, _, qk in solves]))


@dataclass
class StepperState:
    """Mutable loop bookkeeping: the (auto-shrunk, never grown) dt."""

    dt: float


def step(state: SimState, cfg: RunConfig, stepper: StepperState) -> SimState:
    """One coupled step: density and director advance with the current
    velocity, then the momentum predictor and projection use the fresh
    density and director, each solve starting from an extrapolation of
    its last solutions (zero on a state without any). dt is halved until
    the transport CFL bound holds with the configured safety factor, and
    a step that would pass t_end is shortened to end there."""
    dt = stepper.dt
    while cfl_number(state.v, dt) > cfg.cfl_safety:
        dt *= 0.5
        if dt < cfg.dt_min:
            raise StepRejected(
                f"CFL shrink pushed dt below dt_min={cfg.dt_min:g} "
                f"at t={state.t:.6g}")
    stepper.dt = dt
    # the last step of a run lands on t_end; stepper.dt keeps the full step
    if 0.0 < cfg.t_end - state.t < dt - 1e-12:
        dt = cfg.t_end - state.t

    t = state.t + dt
    density = advance_density(state.density, state.v, dt)
    d = advance_director(state.d, state.v, cfg.glp, dt)
    g_mid = eval_force(cfg.forcing, cfg.grid, state.t + 0.5 * dt)
    v_guess, q_guess = _extrapolate(state.solves, t)
    v_star = predict_velocity(density.rho, state.v, d, g_mid, cfg.flow,
                              cfg.glp, dt, guess=v_guess)
    v, q = project(density.rho, v_star, dt, cfg.flow, guess=q_guess)
    solves = (*state.solves, (t, v_star, q.values))[-_SOLVE_HISTORY:]
    return SimState(t=t, density=density, v=v, d=d, pressure=q,
                    solves=solves)


@dataclass
class RunResult:
    records: list
    report: dict
    final: SimState
    d_inf: DirectorField | None


def run(cfg: RunConfig, write_outputs: bool = True,
        with_stationary: bool = True) -> RunResult:
    g = cfg.grid
    state = initial_state(cfg)  # validates cfg first
    stepper = StepperState(dt=cfg.dt)

    d_inf = None
    e_inf = None
    if with_stationary:
        st = solve_stationary(g, state.d.trace, cfg.eta, cfg.tol_stationary)
        d_inf, e_inf = st.d_inf, st.energy

    ctx = DiagContext(glp=cfg.glp, flow=cfg.flow, spec=cfg.forcing,
                      d_inf=d_inf)

    records = []
    probe_samples = []
    inv = {"mass_drift_rel_max": 0.0, "rho_min_run": np.inf,
           "rho_max_run": -np.inf, "d_maxnorm_max": 0.0,
           "div_v_inf_max": 0.0, "law_residual_max": 0.0, "steps": 0}
    if write_outputs:
        os.makedirs(cfg.out_dir, exist_ok=True)

    n = 0
    mass0 = state.density.mass0
    prev_rec = None  # the record made at the step's start state, if any
    while state.t < cfg.t_end - 1e-12:
        prev = state
        try:
            state = step(state, cfg, stepper)
        except Exception as exc:
            raise StepFailed(n + 1, prev.t, exc) from exc
        n += 1

        at_end = state.t >= cfg.t_end - 1e-12
        rec = None
        if n % cfg.record_every == 0 or at_end or n == 1:
            rec = compute_record(prev, state, ctx, prev_rec)
            records.append(rec)
            inv["law_residual_max"] = max(inv["law_residual_max"],
                                          abs(rec.law_residual))
            if e_inf is not None:
                e_d = (rec.elastic + rec.potential) / cfg.lam
                probe_samples.append((abs(e_d - e_inf), rec.gl_res_L2))

        # a record already holds the step's bounds
        b = state_bounds(state) if rec is None else vars(rec)
        inv["mass_drift_rel_max"] = max(inv["mass_drift_rel_max"],
                                        abs(b["mass"] - mass0) / abs(mass0))
        inv["rho_min_run"] = min(inv["rho_min_run"], b["rho_min"])
        inv["rho_max_run"] = max(inv["rho_max_run"], b["rho_max"])
        inv["d_maxnorm_max"] = max(inv["d_maxnorm_max"], b["d_maxnorm"])
        inv["div_v_inf_max"] = max(inv["div_v_inf_max"], b["div_v_inf"])
        if write_outputs and cfg.snapshot_every > 0 \
                and n % cfg.snapshot_every == 0:
            save_checkpoint(os.path.join(cfg.out_dir, f"snap_{n:07d}.bin"),
                            state, stepper.dt)
        prev_rec = rec
    inv["steps"] = n

    report = {
        "t_end": state.t,
        "final_dt": stepper.dt,
        "invariants": {k: (v if isinstance(v, int) else float(v))
                       for k, v in inv.items()},
        "checks": {
            "mass_conserved": inv["mass_drift_rel_max"] <= 1e-12,
            "rho_in_bounds": (inv["rho_min_run"] >= cfg.rho_low
                              and inv["rho_max_run"] <= cfg.rho_high),
            "d_max_principle": inv["d_maxnorm_max"] <= 1.0 + cfg.tol_max,
            "div_free": inv["div_v_inf_max"] <= cfg.tol_proj,
        },
    }
    if len(records) >= 10:
        report["convergence"] = convergence_monitor(records)
    if e_inf is not None:
        report["stationary_energy"] = e_inf
        report["stationary_residual"] = st.residual
    if cfg.forcing.variant == "f2" and e_inf is not None:
        report["rate"] = _rate_analysis(cfg, records, probe_samples)
    # the snapshot-differenced B carries an O(dt) bias; reported raw
    report["notes"] = ["B_val uses backward differences of snapshots"]

    if write_outputs:
        write_csv(os.path.join(cfg.out_dir, "diagnostics.csv"), records)
        with open(os.path.join(cfg.out_dir, "run_report.json"), "w") as fh:
            json.dump(report, fh, indent=2, default=float)
    return RunResult(records=records, report=report, final=state,
                     d_inf=d_inf)


def _rate_analysis(cfg: RunConfig, records, probe_samples) -> dict:
    out = {}
    try:
        theta = lojasiewicz_probe(probe_samples)
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


def save_checkpoint(path, state: SimState, dt: float) -> None:
    """The state, dt and the solve history, so that a resumed run continues
    bitwise like the uninterrupted one."""
    g = state.rho.grid
    history = []
    for k, (tk, vk, qk) in enumerate(state.solves):
        history += [(f"solve{k}_t", np.array([[tk]])),
                    (f"solve{k}_u", vk.u), (f"solve{k}_v", vk.v),
                    (f"solve{k}_q", qk)]
    save_snapshot(path, g, [
        ("t", np.array([[state.t]])),
        ("dt", np.array([[dt]])),
        ("rho", state.rho.values),
        ("u", state.v.u),
        ("v", state.v.v),
        ("d1", state.d.d1),
        ("d2", state.d.d2),
        *history,
    ])


def load_checkpoint(path, cfg: RunConfig) -> tuple[SimState, float]:
    grid, f = load_snapshot(path)
    rho = ScalarField(grid, f["rho"], "extrapolate")
    # conserved references must come from the run's own t=0 data
    ref = initial_state(cfg)
    density = DensityState(rho, ref.density.rho_max0, ref.density.mass0)
    solves = tuple(
        (float(f[f"solve{k}_t"][0, 0]),
         MacVelocity(grid, f[f"solve{k}_u"], f[f"solve{k}_v"]),
         f[f"solve{k}_q"])
        for k in range(_SOLVE_HISTORY) if f"solve{k}_t" in f)
    state = SimState(t=float(f["t"][0, 0]), density=density,
                     v=MacVelocity(grid, f["u"], f["v"]),
                     d=DirectorField(grid, f["d1"], f["d2"], ref.d.trace),
                     solves=solves)
    return state, float(f["dt"][0, 0])


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

        u = ScalarField(g, np.sin(np.pi * X) * np.sin(np.pi * Y),
                        "dirichlet")
        exact = -2 * np.pi**2 * u.values
        m = max(2, n // 8)
        err = np.abs(laplacian(u).values - exact)[m:-m, m:-m].max()
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
        rho_f = ScalarField(g, rho, "extrapolate")
        vproj, _ = project(rho_f, vstar, 1.0,
                           FlowParams(tol_proj=tol_proj))
        if np.abs(divergence(vproj).values).max() > tol_proj:
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
