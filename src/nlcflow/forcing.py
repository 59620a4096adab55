"""Body-force families: a time-independent potential force g = grad(phi)
(realized as the discrete gradient of the sampled potential, so the
pressure projection annihilates it exactly for constant density), and a
separable decaying force amplitude*a(x)*(1+t)^(-(2+xi)/2) whose squared-
norm tail integral has the closed form used by the decay-rate analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import ConfigError, NotApplicable
from .expressions import parse_expression
from .grid import (GridSpec, MacVelocity, ScalarField, gradient_interior_faces,
                   norms)


@dataclass(frozen=True)
class ForcingSpec:
    """variant "none", "f1" (potential phi) or "f2" (profile ax, ay with
    algebraic decay exponent xi and scalar amplitude)."""

    variant: str = "none"
    phi: str = "0"
    ax: str = "0"
    ay: str = "0"
    xi: float = 1.0
    amplitude: float = 1.0

    def __post_init__(self):
        if self.variant not in ("none", "f1", "f2"):
            raise ConfigError(f"unknown forcing variant {self.variant!r}")
        if self.variant == "f2" and not self.xi > 0:
            raise ConfigError("f2 forcing requires xi > 0")


@lru_cache(maxsize=16)
def sample_potential(spec: ForcingSpec, grid: GridSpec) -> ScalarField:
    if spec.variant != "f1":
        raise NotApplicable("potential only defined for f1 forcing")
    X, Y = grid.cell_centers()
    return ScalarField(grid, parse_expression(spec.phi)(X, Y), "extrapolate")


@lru_cache(maxsize=16)
def sample_profile(spec: ForcingSpec, grid: GridSpec) -> MacVelocity:
    Xu, Yu = grid.uface_coords()
    Xv, Yv = grid.vface_coords()
    g = MacVelocity(grid, parse_expression(spec.ax)(Xu, Yu),
                    parse_expression(spec.ay)(Xv, Yv))
    # no-slip walls carry no force
    g.enforce_noslip()
    return g


def eval_force(spec: ForcingSpec, grid: GridSpec, t: float) -> MacVelocity:
    """Acceleration field g(., t) at the velocity faces."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    if spec.variant == "none":
        return MacVelocity.zeros(grid)
    if spec.variant == "f1":
        phi = sample_potential(spec, grid)
        return gradient_interior_faces(phi.values, grid)
    g = sample_profile(spec, grid)
    s = spec.amplitude * (1.0 + t) ** (-(2.0 + spec.xi) / 2.0)
    return MacVelocity(grid, s * g.u, s * g.v)


def profile_norm_sq(spec: ForcingSpec, grid: GridSpec) -> float:
    return norms(sample_profile(spec, grid), "L2") ** 2


def tail_energy(spec: ForcingSpec, grid: GridSpec, t: float) -> float:
    """z(t) = integral over (t, inf) of ||g(tau)||_L2^2 d tau, in closed
    form for the separable decaying force."""
    if spec.variant != "f2":
        raise NotApplicable("tail integral is finite only for f2 forcing")
    a2 = profile_norm_sq(spec, grid)
    return a2 * spec.amplitude**2 * (1.0 + t) ** (-(1.0 + spec.xi)) \
        / (1.0 + spec.xi)
