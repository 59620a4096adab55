"""Body-force families: a time-independent potential force g = grad(phi)
(realized as the discrete gradient of the sampled potential, so the
pressure projection annihilates it exactly for constant density), and a
separable decaying force amplitude*a(x)*(1+t)^(-(2+xi)/2), whose
exponent xi caps the decay rate that the decay-rate analysis predicts at
xi/2 (`stationary.kappa_predicted`).
"""

from __future__ import annotations

import math
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
def _potential_force(spec: ForcingSpec, grid: GridSpec) -> MacVelocity:
    """The f1 force, time-independent: read-only, built once per grid."""
    g = gradient_interior_faces(sample_potential(spec, grid).values, grid)
    g.u.flags.writeable = False
    g.v.flags.writeable = False
    return g


@lru_cache(maxsize=16)
def sample_profile(spec: ForcingSpec, grid: GridSpec) -> MacVelocity:
    Xu, Yu = grid.uface_coords()
    Xv, Yv = grid.vface_coords()
    g = MacVelocity(grid, parse_expression(spec.ax)(Xu, Yu),
                    parse_expression(spec.ay)(Xv, Yv))
    # no-slip walls carry no force
    g.enforce_noslip()
    return g


@lru_cache(maxsize=16)
def _potential_force_l2(spec: ForcingSpec, grid: GridSpec) -> float:
    """||g||_L2 of the f1 force, computed once per grid."""
    return norms(_potential_force(spec, grid), "L2")


def _decay(spec: ForcingSpec, t: float) -> float:
    """The f2 force's time factor amplitude * (1+t)^(-(2+xi)/2)."""
    return spec.amplitude * (1.0 + t) ** (-(2.0 + spec.xi) / 2.0)


def eval_force(spec: ForcingSpec, grid: GridSpec, t: float) -> MacVelocity:
    """Acceleration field g(., t) at the velocity faces; for f1 the one
    cached read-only field."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    if spec.variant == "none":
        return MacVelocity.zeros(grid)
    if spec.variant == "f1":
        return _potential_force(spec, grid)
    g = sample_profile(spec, grid)
    s = _decay(spec, t)
    return MacVelocity(grid, s * g.u, s * g.v)


def force_l2(spec: ForcingSpec, grid: GridSpec, t: float) -> float:
    """||g(., t)||_L2 without building the field: 0 with no forcing, the
    cached norm of the f1 force, and |s(t)| * sqrt(profile_norm_sq) for
    the separable f2 force."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    if spec.variant == "none":
        return 0.0
    if spec.variant == "f1":
        return _potential_force_l2(spec, grid)
    return abs(_decay(spec, t)) * math.sqrt(profile_norm_sq(spec, grid))


@lru_cache(maxsize=16)
def profile_norm_sq(spec: ForcingSpec, grid: GridSpec) -> float:
    """||a||_L2^2 of the f2 profile, computed once per grid."""
    return norms(sample_profile(spec, grid), "L2") ** 2
