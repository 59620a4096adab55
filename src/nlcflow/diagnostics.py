"""Monitored functionals of a run: energy split (director.py's terms times
lambda), dissipation rates, the discrete energy-law residual (identity form
for potential forcing, excess form for decaying forcing), the per-state
bounds the run's invariant checks share, and CSV serialization. A record
made right after another reads the shared state's functionals from it.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, fields

import numpy as np

from . import forcing
from .director import GLParams, director_energy_terms, gl_residual_l2
from .forcing import ForcingSpec
from .grid import (DirectorField, MacVelocity, ScalarField, cell_h1_sq,
                   face_sum, inner, norms)
from .momentum import FlowParams
from .state import SimState


@dataclass(frozen=True)
class DiagRecord:
    t: float
    kinetic: float
    elastic: float
    potential: float
    E_total: float
    E_tilde: float
    grad_v_L2: float
    gl_res_L2: float
    A_val: float
    B_val: float
    mass: float
    rho_min: float
    rho_max: float
    d_maxnorm: float
    div_v_inf: float
    law_residual: float
    g_L2: float
    d_dist: float
    v_H1: float


# the CSV's columns, in the order `read_csv` passes them to DiagRecord
FIELD_ORDER = tuple(f.name for f in fields(DiagRecord))


@dataclass(frozen=True)
class DiagContext:
    """Everything the record needs besides the two states: physics
    parameters, the forcing and the reference equilibrium."""

    glp: GLParams
    flow: FlowParams
    spec: ForcingSpec
    d_inf: DirectorField | None = None


def kinetic_energy(rho: ScalarField, v: MacVelocity) -> float:
    """(1/2) integral of rho |v|^2 with the face densities `rho.faces`, and
    the half-weight boundary-face quadrature the projection's energy
    identity uses."""
    return 0.5 * v.grid.cell_area * _rho_v_sq(rho.faces, v.u, v.v)


def _rho_v_sq(faces, u: np.ndarray, v: np.ndarray) -> float:
    """Sum of rho_f |v|^2 over the faces at `face_sum`'s weights, without
    the cell area; u and v are a velocity's face arrays."""
    ru, rv = faces
    return face_sum(ru * u, rv * v, u, v)


def state_bounds(st: SimState) -> dict:
    """Mass, density range, max|d| and ||div v||_inf of one state, keyed by
    their DiagRecord field names; run() checks them at every step. max|d|
    is the square root of max |d|^2, which the director keeps, and the
    divergence norm is the velocity's `div_inf`, which `project` has
    already computed for its check."""
    vals = st.rho.values
    return dict(mass=st.density.mass(), rho_min=float(vals.min()),
                rho_max=float(vals.max()), d_maxnorm=norms(st.d, "Linf"),
                div_v_inf=st.v.div_inf)


def _functionals(st: SimState, ctx: DiagContext) -> dict:
    """The functionals of one state that the energy law reads at both ends
    of a step, keyed by their DiagRecord field names."""
    lam, g = ctx.glp.lam, st.rho.grid
    ela, pot = director_energy_terms(st.d, ctx.glp.eta)
    ela, pot = lam * ela, lam * pot
    kin = kinetic_energy(st.rho, st.v)
    total = kin + ela + pot
    tilde = total
    phi = forcing.sample_forcing(ctx.spec, g).phi
    if phi is not None:
        tilde -= inner(st.rho.values, phi) * g.cell_area
    return dict(
        kinetic=kin, elastic=ela, potential=pot, E_total=total,
        E_tilde=tilde, grad_v_L2=norms(st.v, "H1_semi"),
        gl_res_L2=gl_residual_l2(st.d, ctx.glp.eta),
        g_L2=forcing.force_l2(ctx.spec, g, st.t))


def _law_residual(p: dict, c: dict, dt: float, ctx: DiagContext,
                  cp: float, rho_bar: float) -> float:
    """Discrete energy law over a step of length dt, from the functionals
    p at its start and c at its end; cp is the Poincare constant and
    rho_bar the Linf density bound.

    Potential/no forcing: residual of
    d/dt E_tilde + nu||grad v||^2 + lam*gamma||lap d - f(d)||^2 = 0
    with midpoint-in-time dissipation. Decaying forcing: positive part of
    d/dt E + (nu/2)||grad v||^2 + lam*gamma||..||^2
    - (C_P^2 rho_bar^2 / (2 nu)) ||g||^2.
    """
    nu, lam, gam = ctx.flow.nu, ctx.glp.lam, ctx.glp.gamma
    visc = 0.5 * (p["grad_v_L2"]**2 + c["grad_v_L2"]**2)
    relax = 0.5 * (p["gl_res_L2"]**2 + c["gl_res_L2"]**2)
    if ctx.spec.variant == "f2":
        gl2 = 0.5 * (p["g_L2"]**2 + c["g_L2"]**2)
        excess = (c["E_total"] - p["E_total"]) / dt + 0.5 * nu * visc \
            + lam * gam * relax - cp**2 * rho_bar**2 / (2.0 * nu) * gl2
        return max(0.0, excess)
    return (c["E_tilde"] - p["E_tilde"]) / dt + nu * visc + lam * gam * relax


def compute_record(prev: SimState, curr: SimState, ctx: DiagContext,
                   prev_rec: DiagRecord | None = None) -> DiagRecord:
    """The record of curr, differenced against prev for the energy law and
    B_val. prev_rec, the record made at prev.t if there is one, supplies
    prev's functionals, so consecutive records measure each state once."""
    if not prev.t < curr.t:
        raise ValueError("prev must precede curr")
    if prev_rec is not None and prev_rec.t != prev.t:
        raise ValueError("prev_rec must be the record made at prev.t")
    g = curr.rho.grid
    dt = curr.t - prev.t
    c = _functionals(curr, ctx)
    p = _functionals(prev, ctx) if prev_rec is None else vars(prev_rec)

    # B_val = ||sqrt(rho) v_t||^2 + ||grad d_t||^2 of the backward
    # differences, each difference measured unscaled and the sum by 1/dt^2
    flow = _rho_v_sq(curr.rho.faces, curr.v.u - prev.v.u,
                     curr.v.v - prev.v.v) * g.cell_area
    diff = curr.d.d1 - prev.d.d1
    director = cell_h1_sq(g, diff)
    np.subtract(curr.d.d2, prev.d.d2, out=diff)
    b_val = (flow + director + cell_h1_sq(g, diff)) / dt**2
    a_val = ctx.flow.nu * c["grad_v_L2"]**2 + c["gl_res_L2"]**2

    d_dist = 0.0
    if ctx.d_inf is not None:
        np.subtract(curr.d.d1, ctx.d_inf.d1, out=diff)
        sq = inner(diff, diff)
        np.subtract(curr.d.d2, ctx.d_inf.d2, out=diff)
        d_dist = float(np.sqrt((sq + inner(diff, diff)) * g.cell_area))
    return DiagRecord(
        t=curr.t, **c, A_val=a_val, B_val=b_val, **state_bounds(curr),
        law_residual=_law_residual(p, c, dt, ctx, g.poincare_constant(),
                                   curr.density.rho_max0),
        d_dist=d_dist, v_H1=float(np.hypot(norms(curr.v, "L2"),
                                           c["grad_v_L2"])))


def convergence_monitor(records) -> dict:
    """Final/initial ratios of the decaying monitors, plus a flag set when
    every one of them is non-increasing over the last quartile."""
    records = list(records)
    if len(records) < 10:
        raise ValueError("need at least 10 records")

    def ratio(name, denom_vals):
        final = getattr(records[-1], name)
        denom = max(denom_vals)
        if denom == 0.0:
            return 0.0  # never excited: trivially converged
        return final / denom

    summary = {
        "v_H1_ratio": ratio("v_H1", [records[0].v_H1]),
        "gl_res_ratio": ratio("gl_res_L2", [records[0].gl_res_L2]),
        "B_ratio": ratio("B_val", [r.B_val for r in records]),
        "d_dist_ratio": ratio("d_dist", [records[0].d_dist]),
    }
    tail = records[3 * len(records) // 4:]
    monotone = True
    for name in ("v_H1", "gl_res_L2", "B_val", "d_dist"):
        vals = [getattr(r, name) for r in tail]
        if any(b > a * (1 + 1e-12) + 1e-300 for a, b in zip(vals, vals[1:])):
            monotone = False
    summary["monotone_tail"] = monotone
    summary["final_t"] = records[-1].t
    return summary


def write_csv(path, records) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(FIELD_ORDER)
        for r in records:
            w.writerow(f"{getattr(r, name):.17g}" for name in FIELD_ORDER)


def read_csv(path) -> list[DiagRecord]:
    out = []
    with open(path, newline="") as fh:
        rd = csv.reader(fh)
        header = next(rd)
        if tuple(header) != FIELD_ORDER:
            raise ValueError(f"unexpected CSV header: {header}")
        for row in rd:
            if len(row) != len(FIELD_ORDER):
                raise ValueError(f"CSV line {rd.line_num} has {len(row)} "
                                 f"fields, not {len(FIELD_ORDER)}")
            out.append(DiagRecord(*(float(v) for v in row)))
    return out
