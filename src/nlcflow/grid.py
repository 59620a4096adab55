"""Staggered (MAC) grid geometry, the velocity and director containers,
discrete operators, the Dirichlet wall rule and norms.

Layout conventions
------------------
Index order is ``[i, j]`` with ``i`` along x and ``j`` along y.

* cell-centered scalars: shape ``(nx, ny)``, centers at
  ``((i+1/2)hx, (j+1/2)hy)``; a pressure or a divergence is a plain array,
  and the density's container is `density.DensityState`
* u (x-velocity) on vertical faces: shape ``(nx+1, ny)``, at ``(i*hx, (j+1/2)hy)``
* v (y-velocity) on horizontal faces: shape ``(nx, ny+1)``, at ``((i+1/2)hx, j*hy)``

A cell-centred field has one wall rule, Dirichlet: the ghost beyond a
wall is 2g - interior, g the trace at the boundary-face midpoint, so that
the face value is g. The stencils build their wall rows from slices with
that ghost; no ghost is stored. The density and the pressure need no
rule: the density is transported with no inflow, and the pressure's
Neumann condition lives in `NeumannPoisson`'s basis.

Dirichlet data reaches the stencils as four wall arrays (west, east,
south, north) holding the trace at the boundary-face midpoints, sampled
by `sample_walls`; ``None`` stands for a homogeneous trace. A director
carries its trace as a `DirectorTrace` value, sampled once per run: both
components' read-only wall arrays and, computed on first use, the trace's
share of the Laplacian.

Values derived from a field and shared by the layers of a step (a
velocity's ||div||_inf, a director's Laplacian, centred gradients, |d|^2
and f(d), and a density's face averages) are computed once and kept with
the field. The field's arrays and the kept ones are made read-only
when the first value is kept, so that no kept value can go stale.

The norms sum their quadratures from slices of the field's arrays and the
trace's wall arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class GridSpec:
    """Uniform staggered rectangular grid on [0, Lx] x [0, Ly]."""

    nx: int
    ny: int
    Lx: float = 1.0
    Ly: float = 1.0

    def __post_init__(self):
        if self.nx < 4 or self.ny < 4:
            raise ValueError("grid needs at least 4 cells per direction")
        if self.Lx <= 0 or self.Ly <= 0:
            raise ValueError("domain side lengths must be positive")

    @property
    def hx(self) -> float:
        return self.Lx / self.nx

    @property
    def hy(self) -> float:
        return self.Ly / self.ny

    @property
    def cell_area(self) -> float:
        return self.hx * self.hy

    @cached_property
    def T(self) -> "GridSpec":
        """The grid with its axes swapped, (ny, nx, Ly, Lx), built once. A
        v-face array transposed is a u-face array of this grid, so each
        operator on the staggered velocity is written for u alone."""
        return GridSpec(self.ny, self.nx, self.Ly, self.Lx)

    def cell_centers(self):
        """Meshgrid (X, Y) of cell-center coordinates, shape (nx, ny)."""
        x = (np.arange(self.nx) + 0.5) * self.hx
        y = (np.arange(self.ny) + 0.5) * self.hy
        return np.meshgrid(x, y, indexing="ij")

    def uface_coords(self):
        x = np.arange(self.nx + 1) * self.hx
        y = (np.arange(self.ny) + 0.5) * self.hy
        return np.meshgrid(x, y, indexing="ij")

    def vface_coords(self):
        x = (np.arange(self.nx) + 0.5) * self.hx
        y = np.arange(self.ny + 1) * self.hy
        return np.meshgrid(x, y, indexing="ij")

    def poincare_constant(self) -> float:
        """Best constant in ||w|| <= C_P ||grad w|| for no-slip fields on the
        rectangle (from the first Dirichlet Laplacian eigenvalue)."""
        return 1.0 / np.sqrt(np.pi**2 * (1.0 / self.Lx**2 + 1.0 / self.Ly**2))


Walls = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def sample_walls(grid: GridSpec, fn) -> tuple:
    """Values of ``fn(x, y)`` at the boundary-face midpoints, as
    (west, east, south, north); west/east have length ny, south/north nx."""
    xc = (np.arange(grid.nx) + 0.5) * grid.hx
    yc = (np.arange(grid.ny) + 0.5) * grid.hy
    return (fn(np.zeros(grid.ny), yc), fn(np.full(grid.ny, grid.Lx), yc),
            fn(xc, np.zeros(grid.nx)), fn(xc, np.full(grid.nx, grid.Ly)))


@dataclass
class MacVelocity:
    """Face-staggered velocity. No-slip walls: boundary-face normal
    components are exactly zero; tangential ghost values mirror with sign
    flip so the wall velocity is zero."""

    grid: GridSpec
    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        self.u = np.ascontiguousarray(self.u, dtype=np.float64)
        self.v = np.ascontiguousarray(self.v, dtype=np.float64)
        if self.u.shape != (self.grid.nx + 1, self.grid.ny):
            raise ValueError("u must have shape (nx+1, ny)")
        if self.v.shape != (self.grid.nx, self.grid.ny + 1):
            raise ValueError("v must have shape (nx, ny+1)")

    @classmethod
    def zeros(cls, grid: GridSpec) -> "MacVelocity":
        return cls(grid, np.zeros((grid.nx + 1, grid.ny)),
                   np.zeros((grid.nx, grid.ny + 1)))

    def enforce_noslip(self) -> None:
        self.u[0, :] = 0.0
        self.u[-1, :] = 0.0
        self.v[:, 0] = 0.0
        self.v[:, -1] = 0.0

    def max_speed(self) -> tuple[float, float]:
        return float(np.abs(self.u).max()), float(np.abs(self.v).max())

    @cached_property
    def div_inf(self) -> float:
        """||divergence||_inf, computed once; u and v become read-only."""
        _freeze(self.u, self.v)
        return float(np.abs(divergence(self)).max())


def _freeze(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, made read-only in place."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _read_only(a) -> np.ndarray:
    return _freeze(np.array(a, dtype=np.float64))[0]


@dataclass(frozen=True, eq=False)
class DirectorTrace:
    """The director's time-independent Dirichlet trace d0, sampled once.

    ``walls[k]`` holds component k's read-only wall arrays (west, east,
    south, north); build it with `DirectorTrace.sample`."""

    grid: GridSpec
    walls: tuple[Walls, Walls]

    @classmethod
    def sample(cls, grid: GridSpec, fn) -> "DirectorTrace":
        """The trace of ``fn(x, y) -> (d0_1, d0_2)`` on ``grid``'s walls."""
        walls = sample_walls(grid, fn)
        return cls(grid, tuple(tuple(_read_only(w[k]) for w in walls)
                               for k in range(2)))

    @cached_property
    def load(self) -> tuple[np.ndarray, np.ndarray]:
        """Per component, the Laplacian of the zero field with the trace's
        ghosts: the trace's part of the Dirichlet Laplacian, read-only."""
        zero = np.zeros((self.grid.nx, self.grid.ny))
        return tuple(_read_only(laplacian(zero, self.grid, w))
                     for w in self.walls)


@dataclass
class DirectorField:
    """Two-component cell-centered director with a time-independent
    Dirichlet trace d0 on the wall."""

    grid: GridSpec
    d1: np.ndarray
    d2: np.ndarray
    trace: DirectorTrace

    def __post_init__(self):
        self.d1 = np.ascontiguousarray(self.d1, dtype=np.float64)
        self.d2 = np.ascontiguousarray(self.d2, dtype=np.float64)
        shape = (self.grid.nx, self.grid.ny)
        if self.d1.shape != shape or self.d2.shape != shape:
            raise ValueError("director components must have shape (nx, ny)")
        if self.trace.grid != self.grid:
            raise ValueError("the trace was sampled on another grid")

    @property
    def norm_sq(self) -> np.ndarray:
        """|d|^2 = d1^2 + d2^2 pointwise, which f(d), the integral of F(d)
        and max|d| read."""
        return self.derived("norm_sq", lambda: (self.d1**2 + self.d2**2,))[0]

    def derived(self, key, build) -> tuple[np.ndarray, ...]:
        """The arrays ``build()`` returns, built on the first call with
        ``key`` and kept read-only with the field; d1 and d2 become
        read-only with the first. A solve that knows a derived value
        already passes it as ``build``."""
        kept = self.__dict__.setdefault("_derived", {})
        if key not in kept:
            _freeze(self.d1, self.d2)
            kept[key] = _freeze(*build())
        return kept[key]

    @property
    def lap(self) -> tuple[np.ndarray, np.ndarray]:
        """Each component's Laplacian with the trace's ghosts."""
        return self.derived("lap", lambda: tuple(
            laplacian(c, self.grid, w)
            for c, w in zip((self.d1, self.d2), self.trace.walls)))

    @property
    def gradients(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Each component's `centered_gradient_at_centers`, as
        ((d1_x, d1_y), (d2_x, d2_y))."""
        flat = self.derived("gradients", lambda: tuple(
            g for c, w in zip((self.d1, self.d2), self.trace.walls)
            for g in centered_gradient_at_centers(c, self.grid, w)))
        return flat[:2], flat[2:]


# ---------------------------------------------------------------------------
# discrete operators
# ---------------------------------------------------------------------------

def divergence(w: MacVelocity) -> np.ndarray:
    """Cell-centered divergence (u_{i+1,j}-u_{i,j})/hx + (v_{i,j+1}-v_{i,j})/hy."""
    g = w.grid
    return (w.u[1:, :] - w.u[:-1, :]) / g.hx + (w.v[:, 1:] - w.v[:, :-1]) / g.hy


def _wall_differences(values: np.ndarray, grid: GridSpec,
                      walls: Walls | None, k: int
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Differences of cell values k cells apart over k*h, along x and
    along y, with the Dirichlet ghosts 2g - interior beyond the walls (g
    from `walls`, zero without): face differences for k = 1, centred
    ones for k = 2. Written for x, and for y through the transposed
    views."""
    gw, ge, gs, gn = (0.0,) * 4 if walls is None else walls
    dx = np.empty((grid.nx + 2 - k, grid.ny))
    dy = np.empty((grid.nx, grid.ny + 2 - k))
    for s, lo, hi, h, f in ((values, gw, ge, grid.hx, dx),
                            (values.T, gs, gn, grid.hy, dy.T)):
        f[0] = s[k - 1] - (2.0 * lo - s[0])
        np.subtract(s[k:], s[:-k], out=f[1:-1])
        f[-1] = (2.0 * hi - s[-1]) - s[-k]
        f /= k * h
    return dx, dy


def gradient_to_faces(values: np.ndarray, grid: GridSpec,
                      walls: Walls | None = None) -> MacVelocity:
    """Face-centered gradient of cell values with the Dirichlet ghosts of
    `walls` at the boundary faces.

    On interior faces this is the exact negative adjoint of `divergence`
    (with cell-area quadrature weights)."""
    return MacVelocity(grid, *_wall_differences(values, grid, walls, 1))


def gradient_interior_faces(p_values: np.ndarray, grid: GridSpec) -> MacVelocity:
    """Gradient on interior faces only; boundary faces set to zero.

    This is the exact adjoint (up to sign) of `divergence` for any p, used by
    the projection and by the potential-force evaluation."""
    u = np.zeros((grid.nx + 1, grid.ny))
    v = np.zeros((grid.nx, grid.ny + 1))
    interior_gradient(p_values, grid, u[1:-1, :], v[:, 1:-1])
    return MacVelocity(grid, u, v)


def interior_gradient(p_values: np.ndarray, grid: GridSpec,
                      out_u: np.ndarray, out_v: np.ndarray) -> None:
    """The interior faces of `gradient_interior_faces`, written into out_u
    (nx-1, ny) and out_v (nx, ny-1)."""
    np.subtract(p_values[1:, :], p_values[:-1, :], out=out_u)
    out_u /= grid.hx
    np.subtract(p_values[:, 1:], p_values[:, :-1], out=out_v)
    out_v /= grid.hy


def laplacian(values: np.ndarray, grid: GridSpec,
              walls: Walls | None = None) -> np.ndarray:
    """5-point Laplacian of cell values with the Dirichlet ghosts of
    `walls`, defined as divergence(gradient_to_faces(...)) so the
    composition identity holds bitwise."""
    return divergence(gradient_to_faces(values, grid, walls))


def centered_gradient_at_centers(values: np.ndarray, grid: GridSpec,
                                 walls: Walls | None = None
                                 ) -> tuple[np.ndarray, np.ndarray]:
    """Centered first derivatives of cell values at cell centers, with the
    Dirichlet ghosts of `walls` in the wall rows."""
    return _wall_differences(values, grid, walls, 2)


# ---------------------------------------------------------------------------
# norms and quadrature
#
# A sum of products over 2-D arrays is an einsum (`inner`). np.dot would
# hand it to the BLAS dot, which OpenBLAS splits across threads above about
# 10^4 elements, so that its summation order, and the result, would change
# with the thread count at 128^2. Short wall rows use np.dot.
# ---------------------------------------------------------------------------

def inner(a: np.ndarray, b: np.ndarray) -> float:
    """Sum of a*b over two 2-D arrays, in an order that depends only on
    the arrays."""
    return float(np.einsum("ij,ij->", a, b))


def _row_sq(row: np.ndarray, wall: np.ndarray | None = None) -> float:
    """Sum of (row - wall)^2 over one wall row; no wall stands for zero."""
    if wall is not None:
        row = row - wall
    return float(np.dot(row, row))


def face_sum(pu: np.ndarray, pv: np.ndarray, qu: np.ndarray,
             qv: np.ndarray) -> float:
    """Sum of p*q over the faces of two MAC fields given as their u and v
    arrays, boundary faces at half weight, without the cell area: the
    quadrature of a velocity's L2 norm and of the kinetic energy."""
    interior = inner(pu[1:-1], qu[1:-1]) + inner(pv[:, 1:-1], qv[:, 1:-1])
    walls = (np.dot(pu[0], qu[0]) + np.dot(pu[-1], qu[-1])
             + np.dot(pv[:, 0], qv[:, 0]) + np.dot(pv[:, -1], qv[:, -1]))
    return interior + 0.5 * float(walls)


def cell_h1_sq(grid: GridSpec, values: np.ndarray,
               walls: Walls | None = None) -> float:
    """Squared H1 seminorm of cell values with the Dirichlet ghosts of
    `walls`: the face quadrature of `gradient_to_faces`, half weight on
    boundary faces, summed from slices. A boundary face's difference is
    2(s - g) against the ghost 2g - s."""
    dx = values[1:] - values[:-1]
    dy = values[:, 1:] - values[:, :-1]
    gw, ge, gs, gn = (None,) * 4 if walls is None else walls
    sx = inner(dx, dx) + 2.0 * (_row_sq(values[0], gw)
                                + _row_sq(values[-1], ge))
    sy = inner(dy, dy) + 2.0 * (_row_sq(values[:, 0], gs)
                                + _row_sq(values[:, -1], gn))
    return grid.cell_area * (sx / grid.hx**2 + sy / grid.hy**2)


def _mac_h1_sq(grid: GridSpec, u: np.ndarray, v: np.ndarray) -> float:
    """Squared H1 seminorm of a MAC velocity with no-slip wall ghosts: each
    component is node-centred along its own axis, with its end values
    stored, and across it the wall ghost is -interior, so that a wall
    difference is twice the wall row, at half weight. This is the
    quadratic form of the viscous operator."""
    ux, uy = u[1:] - u[:-1], u[:, 1:] - u[:, :-1]
    vx, vy = v[1:] - v[:-1], v[:, 1:] - v[:, :-1]
    across_u = inner(uy, uy) + 2.0 * (_row_sq(u[:, 0]) + _row_sq(u[:, -1]))
    across_v = inner(vx, vx) + 2.0 * (_row_sq(v[0]) + _row_sq(v[-1]))
    return grid.cell_area * ((inner(ux, ux) + across_v) / grid.hx**2
                             + (inner(vy, vy) + across_u) / grid.hy**2)


def norms(fieldlike, kind: str) -> float:
    """Discrete norms by midpoint quadrature.

    Accepts MacVelocity or DirectorField; kinds are ``L2``, ``Linf`` and
    ``H1_semi``. A director's ``H1_semi`` is the face-quadrature norm of
    `gradient_to_faces` (half weight on boundary faces, `cell_h1_sq`),
    summed over its components with the trace's ghosts.
    """
    if isinstance(fieldlike, MacVelocity):
        g, u, v = fieldlike.grid, fieldlike.u, fieldlike.v
        if kind == "L2":
            return float(np.sqrt(face_sum(u, v, u, v) * g.cell_area))
        if kind == "Linf":
            return float(max(np.abs(u).max(), np.abs(v).max()))
        if kind == "H1_semi":
            return float(np.sqrt(_mac_h1_sq(g, u, v)))
    elif isinstance(fieldlike, DirectorField):
        g, d1, d2 = fieldlike.grid, fieldlike.d1, fieldlike.d2
        if kind == "Linf":
            return float(np.sqrt(fieldlike.norm_sq.max()))
        if kind == "L2":
            return float(np.sqrt((inner(d1, d1) + inner(d2, d2))
                                 * g.cell_area))
        if kind == "H1_semi":
            w1, w2 = fieldlike.trace.walls
            return float(np.sqrt(cell_h1_sq(g, d1, w1)
                                 + cell_h1_sq(g, d2, w2)))
    raise ValueError(f"unsupported norm kind {kind!r} for {type(fieldlike).__name__}")


def elastic_identity_residual(d: DirectorField, margin: int = 2) -> float:
    """Max-norm residual of the identity
    div(grad d (x) grad d) = 1/2 grad|grad d|^2 + (lap d . grad d),
    evaluated with the module's centered operators on cells at least
    ``margin`` >= 1 cells away from the wall (the identity is exact only in
    the continuum; near-wall ghost reconstruction would dominate
    otherwise). The outer derivatives are centred differences of interior
    cells, so they need no ghosts."""
    if margin < 1:
        raise ValueError(f"margin must be at least 1, not {margin}")
    g = d.grid
    (d1x, d1y), (d2x, d2y) = d.gradients
    lap1, lap2 = d.lap

    # sigma_ij = grad_i d . grad_j d at cell centers
    s11 = d1x * d1x + d2x * d2x
    s12 = d1x * d1y + d2x * d2y
    s22 = d1y * d1y + d2y * d2y

    # on the interior cells c
    c = np.s_[1:-1, 1:-1]

    def ddx(a):
        return (a[2:, 1:-1] - a[:-2, 1:-1]) / (2.0 * g.hx)

    def ddy(a):
        return (a[1:-1, 2:] - a[1:-1, :-2]) / (2.0 * g.hy)

    lhs_x = ddx(s11) + ddy(s12)
    lhs_y = ddx(s12) + ddy(s22)

    grad_sq = s11 + s22
    rhs_x = 0.5 * ddx(grad_sq) + lap1[c] * d1x[c] + lap2[c] * d2x[c]
    rhs_y = 0.5 * ddy(grad_sq) + lap1[c] * d1y[c] + lap2[c] * d2y[c]

    res = np.maximum(np.abs(lhs_x - rhs_x), np.abs(lhs_y - rhs_y))
    m = margin - 1
    return float(res[m:res.shape[0] - m, m:res.shape[1] - m].max())


# ---------------------------------------------------------------------------
# density interpolation to faces
# ---------------------------------------------------------------------------

def density_at_faces(rho: np.ndarray, grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Arithmetic average of adjacent cell densities; boundary faces copy the
    adjacent cell (preserves symmetry of the projection operator). Written
    for u-faces, and for v-faces through the transposed views."""
    ru = np.empty((grid.nx + 1, grid.ny))
    rv = np.empty((grid.nx, grid.ny + 1))
    for r, f in ((rho, ru), (rho.T, rv.T)):
        f[1:-1] = 0.5 * (r[1:] + r[:-1])
        f[0] = r[0]
        f[-1] = r[-1]
    return ru, rv

