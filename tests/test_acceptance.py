"""End-to-end acceptance gate: ten criteria covering the discrete energy
law, bound preservation, long-time decay, the equilibrium rate estimate,
oracle equivalence, manufactured-solution orders, and determinism.

Each test prints one `criterion N: PASS/FAIL` line (visible with -s; the
pytest verdict carries the same information). The long t_end=50 preset
runs come from one module-scoped fixture that runs them in parallel worker
processes, so the whole file costs a few minutes, dominated by three
10^4-step trajectories. The criteria that use
those trajectories (3-7) are marked `slow`: `pytest -m "not slow"` skips
them and runs the rest of the suite in well under a minute.
"""

import os
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

import numpy as np
import pytest

import test_oracle
from nlcflow.runner import mms_verify, preset_config, run
from nlcflow.stationary import lojasiewicz_probe


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def long_runs(tmp_path_factory):
    """The three 10^4-step preset runs, submitted together to a pool of
    min(3, os.cpu_count()) spawned worker processes; each writes its
    outputs to its own directory."""
    names = ("gzero", "f1-potential", "f2-decaying")
    cfgs = [preset_config(name, out_dir=str(tmp_path_factory.mktemp(
        f"long_{name}"))) for name in names]
    with ProcessPoolExecutor(min(len(cfgs), os.cpu_count() or 1),
                             mp_context=get_context("spawn")) as pool:
        futures = [pool.submit(run, cfg) for cfg in cfgs]
        return dict(zip(names, (f.result() for f in futures)))


@pytest.fixture(scope="module")
def gzero_run(long_runs):
    return long_runs["gzero"]


@pytest.fixture(scope="module")
def f1_run(long_runs):
    return long_runs["f1-potential"]


@pytest.fixture(scope="module")
def f2_run(long_runs):
    return long_runs["f2-decaying"]


def _refinement(preset, dts=(4e-3, 2e-3, 1e-3)):
    """max |law_residual| and the worst per-step E_tilde increase beyond
    the allowed 10*|law_residual|*dt slack, for each dt level."""
    peaks, slack_viol = [], []
    for dt in dts:
        cfg = preset_config(preset, dt=dt, t_end=1.0, record_every=1)
        recs = run(cfg, write_outputs=False, with_stationary=False).records
        peaks.append(max(abs(r.law_residual) for r in recs))
        worst = 0.0
        for a, b in zip(recs, recs[1:]):
            allowed = 10.0 * abs(b.law_residual) * (b.t - a.t)
            worst = max(worst, (b.E_tilde - a.E_tilde) - allowed)
        slack_viol.append(worst)
    return list(dts), peaks, slack_viol


def test_criterion_01_energy_law_consistency():
    t0 = time.time()
    dts, peaks, viol = _refinement("f1-potential")
    elapsed = time.time() - t0
    ratios = [b / a for a, b in zip(peaks, peaks[1:])]
    ok = all(0.35 <= r <= 0.65 for r in ratios) \
        and all(v <= 0.0 for v in viol) and elapsed <= 300.0
    _verdict(1, ok,
             f"law-residual halving ratios {[f'{r:.3f}' for r in ratios]} "
             f"in [0.35, 0.65]; E_tilde slack violation "
             f"{max(viol):.3g} <= 0; {elapsed:.0f}s")


def test_criterion_02_forced_energy_inequality():
    dts, peaks, _ = _refinement("f2-decaying")
    consts = [p / dt for p, dt in zip(peaks, dts)]
    lo, hi = min(consts), max(consts)
    ok = all(np.isfinite(consts)) and hi <= 2.0 * lo + 1e-12
    _verdict(2, ok,
             f"excess <= C*dt with C per level "
             f"{[f'{c:.1f}' for c in consts]} (spread {hi / max(lo, 1e-300):.2f}x <= 2)")


@pytest.mark.slow
def test_criterion_03_bound_preservation(gzero_run, f1_run, f2_run):
    details = []
    ok = True
    for name, res in (("gzero", gzero_run), ("f1-potential", f1_run),
                      ("f2-decaying", f2_run)):
        inv = res.report["invariants"]
        checks = res.report["checks"]
        ok = ok and inv["steps"] >= 10**4 \
            and inv["mass_drift_rel_max"] <= 1e-12 \
            and checks["rho_in_bounds"] \
            and inv["d_maxnorm_max"] <= 1.0 + 1e-6 \
            and inv["div_v_inf_max"] <= 1e-8
        details.append(f"{name}: steps={inv['steps']} "
                       f"mass={inv['mass_drift_rel_max']:.1e} "
                       f"|d|={inv['d_maxnorm_max'] - 1:.1e}+1 "
                       f"div={inv['div_v_inf_max']:.1e}")
    _verdict(3, ok, "; ".join(details))


@pytest.mark.slow
def test_criterion_04_velocity_decay(gzero_run, f1_run):
    details = []
    ok = True
    for name, res in (("gzero", gzero_run), ("f1-potential", f1_run)):
        conv = res.report["convergence"]
        ok = ok and conv["v_H1_ratio"] <= 1e-3 and conv["B_ratio"] <= 1e-3
        details.append(f"{name}: v_H1 ratio {conv['v_H1_ratio']:.2e}, "
                       f"B ratio {conv['B_ratio']:.2e}")
    _verdict(4, ok, "; ".join(details) + " (both <= 1e-3)")


@pytest.mark.slow
def test_criterion_05_convergence_to_equilibrium(f2_run):
    final = f2_run.records[-1]
    ok = final.d_dist <= 1e-4 and final.gl_res_L2 <= 1e-4
    _verdict(5, ok,
             f"||d(t_end) - d_inf||_L2 = {final.d_dist:.2e}, "
             f"gl_res = {final.gl_res_L2:.2e} (both <= 1e-4)")


@pytest.mark.slow
def test_criterion_06_rate_check(f2_run):
    rate = f2_run.report["rate"]
    if rate.get("kappa_fit") is None:
        ok = rate["exceeds_prediction"]
        _verdict(6, ok, f"degenerate tail (already at floor): {rate}")
        return
    ok = rate["kappa_fit"] >= rate["kappa_pred"] - 0.05
    note = " (exceeds prediction)" if rate["exceeds_prediction"] else ""
    _verdict(6, ok, f"kappa_fit = {rate['kappa_fit']:.3f} >= "
                    f"kappa_pred - 0.05 = {rate['kappa_pred'] - 0.05:.3f}"
                    + note)


@pytest.mark.slow
def test_criterion_07_lojasiewicz_inequality(f2_run):
    e_inf = f2_run.report["stationary_energy"]
    lam = preset_config("f2-decaying").lam
    samples = []
    for r in f2_run.records:
        gap = abs((r.elastic + r.potential) / lam - e_inf)
        samples.append((gap, r.gl_res_L2))
    theta = lojasiewicz_probe(samples)
    retained = [(g, s) for g, s in samples if 0 < g < 1 and 0 < s < 1]
    holds = all(s >= g ** (1.0 - theta) * (1 - 1e-12) for g, s in retained)

    # planted-exponent recovery
    theta_true = 0.37
    gaps = np.logspace(-8, -1, 40)
    synth = [(g, g ** (1.0 - theta_true)) for g in gaps]
    theta_rec = lojasiewicz_probe(synth)
    recovered = abs(theta_rec - theta_true) <= 1e-12

    ok = 0.0 < theta <= 0.5 and holds and recovered
    _verdict(7, ok,
             f"theta_est = {theta:.3f} in (0, 0.5]; inequality holds on "
             f"{len(retained)}/{len(retained)} retained samples; planted "
             f"theta recovered to {abs(theta_rec - theta_true):.1e}")


def test_criterion_08_oracle_equivalence():
    test_oracle.test_density_step_matches_loop_oracle()
    test_oracle.test_director_step_matches_dense_oracle()
    test_oracle.test_momentum_predictor_matches_dense_oracle()
    test_oracle.test_projection_matches_dense_oracle()
    _verdict(8, True, "density, director, momentum predictor and projection "
                      "steps match 4x4 dense/loop oracles to 1e-12 relative")


def test_criterion_09_mms_orders():
    table = mms_verify()
    lap, upw, ela = (table["laplacian_order"], table["upwind_order"],
                     table["elastic_identity_order"])
    ok = abs(lap - 2.0) <= 0.2 and abs(upw - 1.0) <= 0.2 and ela >= 1.0 \
        and table["projection_div_ok"]
    _verdict(9, ok, f"laplacian {lap:.2f} (2.0±0.2), upwind {upw:.2f} "
                    f"(1.0±0.2), elastic identity {ela:.2f} (>= 1), "
                    f"projection divergence ok")


def test_criterion_10_determinism(tmp_path):
    csvs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        cfg = preset_config("f1-potential", t_end=0.5, out_dir=str(out))
        run(cfg, with_stationary=False)
        csvs.append((out / "diagnostics.csv").read_bytes())
    ok = csvs[0] == csvs[1] and len(csvs[0]) > 0
    _verdict(10, ok, "two identical-config runs produced bitwise-identical "
                     f"CSV ({len(csvs[0])} bytes)")
