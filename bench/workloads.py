"""The benchmark's workloads.

Each workload is a fixed number of coupled steps from t = 0 on one preset.
The seed draws only the initial-data coefficients, from narrow admissible
ranges; grid, forcing variant, dt and record cadence are fixed, so every seed
exercises the same layers in the same proportions. nlcflow receives nothing
but the generated ``RunConfig``.

Why these three (the per-layer shares are from traced runs at 64^2/128^2):

* ``long-gzero-64`` is a slice of the acceptance gate's 10^4-step
  trajectories: the momentum predictor dominates, records are rare and the
  stationary solve is trivial (the wall trace is constant). A diagnostics or
  stationary-solver change must show no gain here.
* ``refine-f1-64`` is the energy-law refinement run behind acceptance
  criteria 1-2: a record every step, so diagnostics and ghost fills weigh
  most; the stationary solver is bypassed.
* ``equilibrium-f2-128`` uses a non-constant wall trace, so the stationary
  solve does real work during set-up, and at 128^2 array and transform work
  outweighs Python dispatch.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from nlcflow import preset_config
from nlcflow.diagnostics import FIELD_ORDER


@dataclass(frozen=True)
class Workload:
    name: str
    steps: int
    with_stationary: bool
    config: Callable  # (random.Random, steps) -> RunConfig
    sanity: Callable  # (RunResult, RunConfig) -> str | None

    def make_config(self, seed: int, steps: int | None = None):
        return self.config(random.Random(seed), steps or self.steps)


def _coef(rng: random.Random, lo: float, hi: float) -> str:
    return f"{rng.uniform(lo, hi):.6f}"


def _gzero(rng, steps):
    a_rho, a_v, a_d = (_coef(rng, 0.28, 0.32), _coef(rng, 0.18, 0.22),
                       _coef(rng, 0.38, 0.42))
    dt = 5e-3
    return preset_config(
        "gzero",
        rho0=f"1.5 + {a_rho}*sin(2*pi*x)*sin(2*pi*y)",
        v0x=f"{a_v}*sin(pi*x)*sin(pi*x)*sin(2*pi*y)",
        v0y=f"-{a_v}*sin(2*pi*x)*sin(pi*y)*sin(pi*y)",
        d0x=f"cos({a_d}*sin(pi*x)*sin(pi*y))",
        d0y=f"sin({a_d}*sin(pi*x)*sin(pi*y))",
        dt=dt, t_end=steps * dt, record_every=40)


def _f1_refine(rng, steps):
    a_rho, a_v, a_d = (_coef(rng, 0.28, 0.32), _coef(rng, 0.18, 0.22),
                       _coef(rng, 0.38, 0.42))
    dt = 1e-3
    return preset_config(
        "f1-potential",
        rho0=f"1.5 + {a_rho}*cos(pi*x)*cos(pi*y)",
        v0x=f"{a_v}*sin(pi*x)*sin(pi*x)*sin(2*pi*y)",
        v0y=f"-{a_v}*sin(2*pi*x)*sin(pi*y)*sin(pi*y)",
        d0x=f"cos({a_d}*sin(pi*x)*sin(pi*y))",
        d0y=f"sin({a_d}*sin(pi*x)*sin(pi*y))",
        dt=dt, t_end=steps * dt, record_every=1)


def _f2_equilibrium(rng, steps):
    # wall trace theta = 0.5*pi*x*y; the seeded bump vanishes on the walls,
    # so the stationary problem, and its set-up cost, is the same per seed
    a_rho, a_d = _coef(rng, 0.28, 0.32), _coef(rng, 0.18, 0.22)
    theta = f"0.5*pi*x*y + {a_d}*sin(pi*x)*sin(pi*y)"
    dt = 5e-3
    return preset_config(
        "f2-decaying", nx=128, ny=128,
        rho0=f"1.5 + {a_rho}*sin(2*pi*x)*sin(2*pi*y)",
        d0x=f"cos({theta})", d0y=f"sin({theta})",
        dt=dt, t_end=steps * dt, record_every=40)


def _v_decays(result, cfg):
    first, last = result.records[0].v_H1, result.records[-1].v_H1
    if not last < first:
        return f"v_H1 did not decay: {first:.6g} -> {last:.6g}"
    return None


def _energy_law_monotone(result, cfg):
    # the slack acceptance criterion 1 allows per step: 10*|residual|*dt
    recs = result.records
    worst = max((b.E_tilde - a.E_tilde) - 10.0 * abs(b.law_residual)
                * (b.t - a.t) for a, b in zip(recs, recs[1:]))
    if worst > 0.0:
        return f"E_tilde rose beyond the energy-law slack by {worst:.3g}"
    return None


def _stationary_converged(result, cfg):
    res = result.report.get("stationary_residual")
    if res is None or not res <= cfg.tol_stationary:
        return (f"stationary residual {res} exceeds "
                f"tol_stationary {cfg.tol_stationary:g}")
    return None


WORKLOADS = {w.name: w for w in (
    Workload("long-gzero-64", steps=160, with_stationary=True,
             config=_gzero, sanity=_v_decays),
    Workload("refine-f1-64", steps=100, with_stationary=False,
             config=_f1_refine, sanity=_energy_law_monotone),
    Workload("equilibrium-f2-128", steps=40, with_stationary=True,
             config=_f2_equilibrium, sanity=_stationary_converged),
)}


def check_run(wl: Workload, result, cfg, steps: int) -> list[str]:
    """Every reason this run's outputs are wrong; empty when correct."""
    problems = [f"report check {name} failed"
                for name, ok in result.report["checks"].items() if not ok]
    if result.report["invariants"]["steps"] != steps:
        problems.append(f"ran {result.report['invariants']['steps']} steps, "
                        f"expected {steps}")
    msg = wl.sanity(result, cfg)
    if msg:
        problems.append(msg)
    return problems


def digest(result) -> str:
    """sha256 of every diagnostics record and the final fields."""
    h = hashlib.sha256()
    h.update(np.array([[getattr(r, f) for f in FIELD_ORDER]
                       for r in result.records]).tobytes())
    fin = result.final
    for arr in (fin.rho.values, fin.v.u, fin.v.v, fin.d.d1, fin.d.d2):
        h.update(arr.tobytes())
    return h.hexdigest()
