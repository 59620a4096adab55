"""Body forces of one run, each separable as g(x, t) = s(t) a(x) and
sampled once per grid into a `Forcing` value:

- "none": a = 0 and s = 1;
- "f1", a time-independent potential force: a = grad(phi), realized as
  the discrete gradient of the sampled potential (so the pressure
  projection annihilates it exactly for constant density), and s = 1;
- "f2", a decaying force: the profile (ax, ay) with no-slip walls and
  s(t) = amplitude*(1+t)^(-(2+xi)/2), whose exponent xi caps the decay
  rate that the decay-rate analysis predicts at xi/2
  (`stationary.kappa_predicted`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError
from .expressions import parse_expression
from .grid import GridSpec, MacVelocity, gradient_interior_faces, norms


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


@dataclass(frozen=True, eq=False)
class Forcing:
    """The force of `spec` on one grid: the read-only profile `a` on the
    velocity faces, its norm ||a||_L2, and f1's read-only potential `phi`
    at the cell centres (None for the other variants)."""

    spec: ForcingSpec
    a: MacVelocity
    a_l2: float
    phi: np.ndarray | None

    def s(self, t: float) -> float:
        """The time factor s(t)."""
        if t < 0:
            raise ValueError("t must be nonnegative")
        f = self.spec
        if f.variant != "f2":
            return 1.0
        return f.amplitude * (1.0 + t) ** (-(2.0 + f.xi) / 2.0)


@lru_cache(maxsize=16)
def sample_forcing(spec: ForcingSpec, grid: GridSpec) -> Forcing:
    """The force of `spec` sampled on `grid`. A sample that is not finite
    raises ConfigError naming its key."""
    phi = None
    with np.errstate(all="ignore"):  # the finiteness check names the key
        if spec.variant == "f1":
            phi = parse_expression(spec.phi)(*grid.cell_centers())
            a = gradient_interior_faces(phi, grid)
        elif spec.variant == "f2":
            a = MacVelocity(grid,
                            parse_expression(spec.ax)(*grid.uface_coords()),
                            parse_expression(spec.ay)(*grid.vface_coords()))
            a.enforce_noslip()  # no-slip walls carry no force
        else:
            a = MacVelocity.zeros(grid)
    # each sample where the run uses it
    samples = {"phi": phi} if phi is not None else {"ax": a.u, "ay": a.v}
    for key, vals in samples.items():
        if not np.isfinite(vals).all():
            raise ConfigError(f"{key} is not finite on the grid")
    for vals in (a.u, a.v, *samples.values()):
        vals.flags.writeable = False
    return Forcing(spec, a, norms(a, "L2"), phi)


def eval_force(spec: ForcingSpec, grid: GridSpec, t: float) -> MacVelocity:
    """Acceleration field g(., t) = s(t) a at the velocity faces. Where
    s(t) = 1, which holds at every t for "none" and f1, it is the cached
    read-only profile itself, so a caller that adds to the force must add
    into a copy; otherwise a fresh field."""
    f = sample_forcing(spec, grid)
    s = f.s(t)
    if s == 1.0:
        return f.a
    return MacVelocity(grid, s * f.a.u, s * f.a.v)


def force_l2(spec: ForcingSpec, grid: GridSpec, t: float) -> float:
    """||g(., t)||_L2 = |s(t)| ||a||_L2, without building the field."""
    f = sample_forcing(spec, grid)
    return abs(f.s(t)) * f.a_l2
