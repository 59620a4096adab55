"""Equilibria of the director equation and the rate analysis around them:
the nonlinear elliptic solve -lap d + f(d) = 0 with a Dirichlet trace, the
director energy E(d), an empirical Lojasiewicz-exponent probe, and
log-log decay-rate fits against the predicted algebraic exponent.

The elliptic solve descends the discrete energy
E(d) = 1/2 ||grad_h d||^2 + integral F(d), whose gradient is
g = f(d) - lap_h d, by Polak-Ribiere+ nonlinear conjugate gradients
(Hager & Zhang, Pacific J. Optim. 2, 2006) from the harmonic extension of
the trace. The preconditioner is the exact inverse of -lap_0, the
homogeneous Dirichlet Laplacian, that the extension builds. Along a search
direction p, E(d + alpha p) is a quartic in alpha, so the line search is
exact: it takes the smallest positive root of the cubic dE/dalpha, the
first minimum along the ray. Every iterate lowers E, so the solve, like
a gradient flow, is repelled by saddles.

No stencil is applied inside the loop. The extension's Laplacian is zero,
the preconditioned gradient z solves lap_0 z = -g, lap_0 p follows p's
recurrence, and lap_h(d + alpha p) = lap_h d + alpha lap_0 p. The returned
residual is measured with the stencil; where it misses the tolerance the
descent goes on from the stencil's Laplacian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .director import director_energy, gl_residual_l2
from .errors import (DegenerateFit, InsufficientSamples, MaxIterations,
                     NlcflowError)
from .grid import DirectorField, DirectorTrace, GridSpec, inner
from .solvers import CellHelmholtz, cached_solver


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
    """Initial guess: solve lap d = 0 per component with the trace. The
    result keeps the Laplacian its equation fixes, zero."""
    # -lap d = 0 with trace g  <=>  -lap_0 x = lap of (zero field with
    # trace ghosts), x the interior values; -lap_0 is inverted exactly
    pre = cached_solver(CellHelmholtz, grid, 0.0, 1.0)
    sol1, sol2 = (pre.solve(load) for load in trace.load)
    d = DirectorField(grid, sol1, sol2, trace)
    d.derived("lap", lambda: (np.zeros_like(sol1), np.zeros_like(sol2)))
    return d


def _ray_cubic(x, gap, g, p, lap_p, eta: float):
    """Coefficients (c0, c1, c2, c3) of dE(d + alpha p)/dalpha, divided by
    the cell area, as a cubic in alpha. x, g, p and lap_p hold the two
    components of d, the gradient g = f(d) - lap_h d, p and lap_0 p, and
    gap is |d|^2 - 1. With q = d.p and P = |p|^2 pointwise,
    |d + alpha p|^2 - 1 = gap + 2 alpha q + alpha^2 P, so
    dE/dalpha / area = <-lap_h d - alpha lap_0 p, p>
    + <gap + 2 alpha q + alpha^2 P, q + alpha P> / eta^2,
    whose constant term is <g, p>."""
    q = x[0] * p[0]
    q += x[1] * p[1]
    big_p = p[0] * p[0]
    big_p += p[1] * p[1]
    w = 1.0 / eta**2
    c0 = inner(g[0], p[0]) + inner(g[1], p[1])
    c1 = (w * (2.0 * inner(q, q) + inner(gap, big_p))
          - inner(p[0], lap_p[0]) - inner(p[1], lap_p[1]))
    return c0, c1, 3.0 * w * inner(q, big_p), w * inner(big_p, big_p)


def _first_minimum(c0: float, c1: float, c2: float, c3: float) -> float:
    """The smallest positive root of c0 + c1 a + c2 a^2 + c3 a^3, for
    c0 < 0 < c3: where the quartic it differentiates first stops falling."""
    roots = np.roots((c3, c2, c1, c0))
    # a root pair that rounding split off the real axis counts as real
    real = roots.real[(roots.real > 0.0)
                      & (np.abs(roots.imag) <= 1e-8 * np.abs(roots))]
    if real.size == 0:
        raise NlcflowError(
            f"stationary line search found no minimum along its ray "
            f"(cubic coefficients {c0:.3e}, {c1:.3e}, {c2:.3e}, {c3:.3e})")
    return float(real.min())


def _descend(grid: GridSpec, eta: float, x: list, lap: list, tol: float,
             it: int) -> int:
    """Preconditioned PR+ conjugate gradients on E from the interior
    values x, with lap = lap_h x, both lists of two arrays updated in
    place, until the residual ||lap - f(x)|| read from the carried lap is
    at most tol. Returns the iteration count, started at ``it``. The
    residual is summed as `gl_residual_l2` sums it, to the bit, so that
    from the stencil's Laplacian a descent that `gl_residual_l2` fails
    makes at least one iteration."""
    pre = cached_solver(CellHelmholtz, grid, 0.0, 1.0)
    gap, work = np.empty_like(x[0]), np.empty_like(x[0])
    g = [np.empty_like(x[0]), np.empty_like(x[0])]
    p = lap_p = z_old = gz_old = None
    while True:
        np.multiply(x[0], x[0], out=gap)
        np.multiply(x[1], x[1], out=work)
        gap += work
        gap -= 1.0
        np.divide(gap, eta**2, out=work)
        for gk, xk, lk in zip(g, x, lap):
            np.multiply(work, xk, out=gk)
            gk -= lk
        res = math.sqrt((inner(g[0], g[0]) + inner(g[1], g[1]))
                        * grid.cell_area)
        if res <= tol:
            return it
        if not math.isfinite(res):
            raise NlcflowError(
                f"stationary solve hit a non-finite residual ({res}) "
                f"after {it} iterations")
        if it >= 20000:
            raise MaxIterations(
                f"stationary solve stalled at residual {res:.3e} "
                f"after {it} iterations (tol {tol:.1e})")
        # -lap_0 z = g, so lap_0 z = -g
        z = [pre.solve(gk) for gk in g]
        gz = inner(g[0], z[0]) + inner(g[1], z[1])
        if p is not None:
            beta = max(0.0, (gz - inner(g[0], z_old[0])
                             - inner(g[1], z_old[1])) / gz_old)
            for pk, lpk, zk, gk in zip(p, lap_p, z, g):
                pk *= beta
                pk -= zk
                lpk *= beta
                lpk += gk
            c = _ray_cubic(x, gap, g, p, lap_p, eta)
        if p is None or not c[0] < 0.0:
            # the first direction, or a restart from one that does not
            # descend: the preconditioned steepest descent, <g, p> = -gz
            p, lap_p = [-zk for zk in z], [gk.copy() for gk in g]
            c = _ray_cubic(x, gap, g, p, lap_p, eta)
        alpha = _first_minimum(*c)
        for xk, lk, pk, lpk in zip(x, lap, p, lap_p):
            np.multiply(pk, alpha, out=work)
            xk += work
            np.multiply(lpk, alpha, out=work)
            lk += work
        z_old, gz_old = z, gz
        it += 1


def solve_stationary(grid: GridSpec, trace: DirectorTrace, eta: float,
                     tol_stationary: float = 1e-9) -> StationaryResult:
    """The equilibrium that a preconditioned PR+ descent of the director
    energy reaches from the harmonic extension of the trace, iterated to
    the requested Ginzburg-Landau residual, which is measured with the
    stencil. Raises MaxIterations after 20000 iterations and NlcflowError
    on a non-finite residual."""
    start = _harmonic_extension(grid, trace)
    x, lap = [start.d1.copy(), start.d2.copy()], [a.copy() for a in start.lap]
    it = 0
    while True:
        it = _descend(grid, eta, x, lap, tol_stationary, it)
        d = DirectorField(grid, x[0].copy(), x[1].copy(), trace)
        res = gl_residual_l2(d, eta)
        if res <= tol_stationary:
            return StationaryResult(d_inf=d, residual=res,
                                    energy=director_energy(d, eta),
                                    iterations=it)
        lap = [a.copy() for a in d.lap]


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
