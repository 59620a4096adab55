"""Equilibria of the director equation and the rate analysis around them:
the nonlinear elliptic solve -lap d + f(d) = 0 with a Dirichlet trace, the
director energy E(d), an empirical Lojasiewicz-exponent probe, and
log-log decay-rate fits against the predicted algebraic exponent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .director import (GLParams, advance_director, director_energy,
                       gl_residual_l2)
from .errors import (DegenerateFit, InsufficientSamples, MaxIterations,
                     NlcflowError)
from .grid import DirectorField, DirectorTrace, GridSpec, MacVelocity
from .solvers import CellHelmholtz


@dataclass(frozen=True)
class StationaryResult:
    d_inf: DirectorField
    residual: float
    energy: float
    iterations: int


@dataclass(frozen=True)
class RateFit:
    kappa_fit: float
    kappa_pred: float
    theta_est: float
    window: tuple
    exceeds_prediction: bool = False


def _harmonic_extension(grid: GridSpec, trace: DirectorTrace) -> DirectorField:
    """Initial guess: solve lap d = 0 per component with the trace."""
    # -lap d = 0 with trace g  <=>  -lap_0 x = lap of (zero field with
    # trace ghosts), x the interior values; -lap_0 is inverted exactly
    pre = CellHelmholtz(grid, 0.0, 1.0)
    sol1, sol2 = (pre.solve(load) for load in trace.load)
    return DirectorField(grid, sol1, sol2, trace)


def solve_stationary(grid: GridSpec, trace: DirectorTrace, eta: float,
                     tol_stationary: float = 1e-9) -> StationaryResult:
    """Pseudo-time gradient flow of the director energy from the
    harmonic-like extension of the trace, iterated to the requested
    Ginzburg-Landau residual. Raises MaxIterations after 20000 steps and
    NlcflowError on a non-finite residual."""
    p = GLParams(gamma=1.0, eta=eta, lam=1.0)
    d = _harmonic_extension(grid, trace)
    w = MacVelocity.zeros(grid)
    # large pseudo step: the implicit update's fixed points are exactly the
    # equilibria, independent of the step size
    dt = 50.0
    res = gl_residual_l2(d, eta)
    it = 0
    while not res <= tol_stationary:
        if not np.isfinite(res):
            raise NlcflowError(
                f"stationary solve hit a non-finite residual ({res}) "
                f"after {it} iterations")
        if it >= 20000:
            raise MaxIterations(
                f"stationary solve stalled at residual {res:.3e} "
                f"after {it} iterations (tol {tol_stationary:.1e})")
        d = advance_director(d, w, p, dt)
        res = gl_residual_l2(d, eta)
        it += 1
    return StationaryResult(d_inf=d, residual=res,
                            energy=director_energy(d, eta), iterations=it)


def lojasiewicz_probe(samples) -> float:
    """Largest exponent theta in (0, 1/2] such that
    residual >= gap^(1-theta) holds on every retained sample; samples are
    (gap, residual) pairs and only those with both values in (0, 1) count.
    """
    retained = [(g, r) for g, r in samples if 0.0 < g < 1.0 and 0.0 < r < 1.0]
    if len(retained) < 5:
        raise InsufficientSamples(
            f"need >= 5 samples with gap and residual in (0,1), "
            f"got {len(retained)}")
    q_max = max(math.log(r) / math.log(g) for g, r in retained)
    theta = 1.0 - q_max
    return min(max(theta, np.nextafter(0.0, 1.0)), 0.5)


def kappa_predicted(theta_est: float, xi: float) -> float:
    if theta_est >= 0.5:
        return xi / 2.0
    return min(theta_est / (1.0 - 2.0 * theta_est), xi / 2.0)


def decay_rate_fit(times, values, theta_est: float, xi: float) -> RateFit:
    """Least-squares fit of log(values) against log(1+t) over the final
    half of the samples; kappa_fit = -slope."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    n = len(times)
    i0 = min(int(round(0.5 * n)), n - 2)
    tw, vw = times[i0:], values[i0:]
    floor = 1e3 * np.finfo(float).tiny
    kappa_pred = kappa_predicted(theta_est, xi)
    if np.any(vw <= floor):
        raise DegenerateFit(
            "values reached the floating-point floor inside the fit "
            "window; decay exceeds any algebraic prediction")
    x = np.log1p(tw)
    if np.ptp(x) == 0:
        raise DegenerateFit("fit window has no time extent")
    slope = np.polyfit(x, np.log(vw), 1)[0]
    kappa_fit = -slope
    return RateFit(kappa_fit=kappa_fit, kappa_pred=kappa_pred,
                   theta_est=theta_est,
                   window=(float(tw[0]), float(tw[-1])),
                   exceeds_prediction=kappa_fit > kappa_pred)
