"""Staggered (MAC) grid geometry, field containers, discrete operators,
boundary handling, norms, and the shared binary snapshot format.

Layout conventions
------------------
Index order is ``[i, j]`` with ``i`` along x and ``j`` along y.

* cell-centered scalars: shape ``(nx, ny)``, centers at ``((i+1/2)hx, (j+1/2)hy)``
* u (x-velocity) on vertical faces: shape ``(nx+1, ny)``, at ``(i*hx, (j+1/2)hy)``
* v (y-velocity) on horizontal faces: shape ``(nx, ny+1)``, at ``((i+1/2)hx, j*hy)``

Ghost cells are never stored; boundary fills are computed on demand from
interior values and the field's boundary kind (Dirichlet via linear
extrapolation through the boundary face, zero-Neumann via mirror).

Dirichlet data reaches the fills as four wall arrays (west, east, south,
north) holding the trace at the boundary-face midpoints, sampled by
`sample_walls`; ``None`` stands for a homogeneous trace. A director carries
its trace as a `DirectorTrace` value, sampled once per run: both
components' read-only wall arrays and, computed on first use, the trace's
share of the Laplacian.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

MAGIC = b"NLCF1\n"


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
class ScalarField:
    """Cell-centered scalar with a declared boundary treatment.

    ``boundary_kind`` is one of ``"dirichlet"``, ``"neumann_zero"`` or
    ``"extrapolate"``. A Dirichlet field's ``boundary_value`` holds the
    trace's wall arrays from `sample_walls`, or ``None`` for a homogeneous
    trace.
    """

    grid: GridSpec
    values: np.ndarray
    boundary_kind: str = "extrapolate"
    boundary_value: Walls | None = None

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=np.float64)
        if self.values.shape != (self.grid.nx, self.grid.ny):
            raise ValueError("scalar values must have shape (nx, ny)")
        if self.boundary_kind not in ("dirichlet", "neumann_zero", "extrapolate"):
            raise ValueError(f"unknown boundary kind {self.boundary_kind!r}")
        if callable(self.boundary_value):
            raise TypeError("boundary_value takes wall arrays; "
                            "sample a trace with sample_walls(grid, fn)")

    def copy(self) -> "ScalarField":
        return ScalarField(self.grid, self.values.copy(), self.boundary_kind,
                           self.boundary_value)

    def padded(self) -> np.ndarray:
        """Interior values surrounded by one ring of ghost cells."""
        return pad_with_ghosts(self.grid, self.values, self.boundary_kind,
                               self.boundary_value)


def pad_with_ghosts(grid: GridSpec, values: np.ndarray, kind: str,
                    bv: Walls | None) -> np.ndarray:
    """Deterministic ghost fill: Dirichlet by linear extrapolation through the
    boundary face (``bv`` the wall arrays, ``None`` for zero), zero-Neumann
    by mirror, extrapolate linearly from the two nearest interior cells.
    Corners are averaged from the two adjacent ghosts (no operator uses
    them; they just keep the array finite)."""
    nx, ny = grid.nx, grid.ny
    p = np.empty((nx + 2, ny + 2), dtype=np.float64)
    p[1:-1, 1:-1] = values
    if kind == "dirichlet":
        gw, ge, gs, gn = (0.0,) * 4 if bv is None else bv
        p[0, 1:-1] = 2.0 * gw - values[0, :]
        p[-1, 1:-1] = 2.0 * ge - values[-1, :]
        p[1:-1, 0] = 2.0 * gs - values[:, 0]
        p[1:-1, -1] = 2.0 * gn - values[:, -1]
    elif kind == "neumann_zero":
        p[0, 1:-1] = values[0, :]
        p[-1, 1:-1] = values[-1, :]
        p[1:-1, 0] = values[:, 0]
        p[1:-1, -1] = values[:, -1]
    else:  # extrapolate
        p[0, 1:-1] = 2.0 * values[0, :] - values[1, :]
        p[-1, 1:-1] = 2.0 * values[-1, :] - values[-2, :]
        p[1:-1, 0] = 2.0 * values[:, 0] - values[:, 1]
        p[1:-1, -1] = 2.0 * values[:, -1] - values[:, -2]
    p[0, 0] = 0.5 * (p[0, 1] + p[1, 0])
    p[-1, 0] = 0.5 * (p[-1, 1] + p[-2, 0])
    p[0, -1] = 0.5 * (p[0, -2] + p[1, -1])
    p[-1, -1] = 0.5 * (p[-1, -2] + p[-2, -1])
    return p


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


def _read_only(a) -> np.ndarray:
    a = np.array(a, dtype=np.float64)
    a.flags.writeable = False
    return a


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
        return tuple(_read_only(laplacian(
            ScalarField(self.grid, zero, "dirichlet", w)).values)
            for w in self.walls)


@dataclass
class DirectorField:
    """Two-component cell-centered director with a time-independent
    Dirichlet trace d0 on the wall; ``trace`` is ``None`` for the zero
    trace, and the component fields carry its wall arrays."""

    grid: GridSpec
    d1: np.ndarray
    d2: np.ndarray
    trace: DirectorTrace | None

    def __post_init__(self):
        self.d1 = np.ascontiguousarray(self.d1, dtype=np.float64)
        self.d2 = np.ascontiguousarray(self.d2, dtype=np.float64)
        shape = (self.grid.nx, self.grid.ny)
        if self.d1.shape != shape or self.d2.shape != shape:
            raise ValueError("director components must have shape (nx, ny)")
        if self.trace is not None and self.trace.grid != self.grid:
            raise ValueError("the trace was sampled on another grid")

    def component(self, k: int) -> ScalarField:
        comp = self.d1 if k == 0 else self.d2
        walls = None if self.trace is None else self.trace.walls[k]
        return ScalarField(self.grid, comp, "dirichlet", walls)

    def components(self) -> tuple[ScalarField, ScalarField]:
        return self.component(0), self.component(1)

    def pointwise_norm(self) -> np.ndarray:
        return np.sqrt(self.d1**2 + self.d2**2)


# ---------------------------------------------------------------------------
# discrete operators
# ---------------------------------------------------------------------------

def divergence(w: MacVelocity) -> ScalarField:
    """Cell-centered divergence (u_{i+1,j}-u_{i,j})/hx + (v_{i,j+1}-v_{i,j})/hy."""
    g = w.grid
    div = (w.u[1:, :] - w.u[:-1, :]) / g.hx + (w.v[:, 1:] - w.v[:, :-1]) / g.hy
    return ScalarField(g, div, "extrapolate")


def gradient_to_faces(p: ScalarField) -> MacVelocity:
    """Face-centered gradient using the field's ghost fill at the walls.

    On interior faces this is the exact negative adjoint of `divergence`
    (with cell-area quadrature weights)."""
    g = p.grid
    pp = p.padded()
    u = (pp[1:, 1:-1] - pp[:-1, 1:-1]) / g.hx
    v = (pp[1:-1, 1:] - pp[1:-1, :-1]) / g.hy
    return MacVelocity(g, u, v)


def gradient_interior_faces(p_values: np.ndarray, grid: GridSpec) -> MacVelocity:
    """Gradient on interior faces only; boundary faces set to zero.

    This is the exact adjoint (up to sign) of `divergence` for any p, used by
    the projection and by the potential-force evaluation."""
    u = np.zeros((grid.nx + 1, grid.ny))
    v = np.zeros((grid.nx, grid.ny + 1))
    u[1:-1, :] = (p_values[1:, :] - p_values[:-1, :]) / grid.hx
    v[:, 1:-1] = (p_values[:, 1:] - p_values[:, :-1]) / grid.hy
    return MacVelocity(grid, u, v)


def laplacian_interior_faces(x: np.ndarray, grid: GridSpec,
                             axis: int) -> np.ndarray:
    """5-point Laplacian of one MAC velocity component on its interior
    faces, the stencil `solvers.FaceHelmholtz` inverts: axis=0 for u (input
    shape (nx-1, ny)), axis=1 for v ((nx, ny-1)). Walls: zero node values
    along the component's own axis, -interior ghosts across it."""
    cx, cy = 1.0 / grid.hx**2, 1.0 / grid.hy**2
    p = np.zeros((x.shape[0] + 2, x.shape[1] + 2))
    p[1:-1, 1:-1] = x
    if axis == 0:
        p[1:-1, 0] = -x[:, 0]
        p[1:-1, -1] = -x[:, -1]
    else:
        p[0, 1:-1] = -x[0, :]
        p[-1, 1:-1] = -x[-1, :]
    lap = p[2:, 1:-1] + p[:-2, 1:-1]
    lap *= cx
    lap_y = p[1:-1, 2:] + p[1:-1, :-2]
    lap_y *= cy
    lap += lap_y
    lap -= (2.0 * (cx + cy)) * x
    return lap


def laplacian(s: ScalarField) -> ScalarField:
    """5-point Laplacian, defined as divergence(gradient_to_faces(s)) so the
    composition identity holds bitwise."""
    return divergence(gradient_to_faces(s))


def centered_gradient_at_centers(s: ScalarField) -> tuple[np.ndarray, np.ndarray]:
    """Centered first derivatives at cell centers using the ghost fill."""
    g = s.grid
    p = s.padded()
    dx = (p[2:, 1:-1] - p[:-2, 1:-1]) / (2.0 * g.hx)
    dy = (p[1:-1, 2:] - p[1:-1, :-2]) / (2.0 * g.hy)
    return dx, dy


# ---------------------------------------------------------------------------
# norms and quadrature
# ---------------------------------------------------------------------------

def _mac_component_h1_sq(grid: GridSpec, comp: np.ndarray, axis: int) -> float:
    """Squared H1 seminorm of one MAC component with no-slip wall ghosts.

    `axis` 0 for u (normal direction x), 1 for v. Along the normal direction
    the component is node-centered with homogeneous Dirichlet end values
    already stored in the array; across it the wall ghost is -interior and the
    wall term carries half a cell of weight, matching the quadratic form of
    the viscous operator."""
    a = grid.cell_area
    if axis == 0:
        h_n, h_t = grid.hx, grid.hy
        normal_diff = (comp[1:, :] - comp[:-1, :]) / h_n          # at centers
        tang_diff = (comp[:, 1:] - comp[:, :-1]) / h_t            # interior rows
        wall_sq = (2.0 * comp[:, 0] / h_t) ** 2 + (2.0 * comp[:, -1] / h_t) ** 2
    else:
        h_n, h_t = grid.hy, grid.hx
        normal_diff = (comp[:, 1:] - comp[:, :-1]) / h_n
        tang_diff = (comp[1:, :] - comp[:-1, :]) / h_t
        wall_sq = (2.0 * comp[0, :] / h_t) ** 2 + (2.0 * comp[-1, :] / h_t) ** 2
    return float(a * (np.sum(normal_diff**2) + np.sum(tang_diff**2))
                 + 0.5 * a * np.sum(wall_sq))


def _mac_l2_sq(w: MacVelocity) -> float:
    g = w.grid
    a = g.cell_area
    s = a * (np.sum(w.u[1:-1, :] ** 2) + np.sum(w.v[:, 1:-1] ** 2))
    s += 0.5 * a * (np.sum(w.u[0, :] ** 2) + np.sum(w.u[-1, :] ** 2)
                    + np.sum(w.v[:, 0] ** 2) + np.sum(w.v[:, -1] ** 2))
    return float(s)


def norms(fieldlike, kind: str) -> float:
    """Discrete norms by midpoint quadrature.

    Accepts ScalarField, MacVelocity or DirectorField; kinds are ``L2``,
    ``Linf``, ``H1_semi`` and ``H1``, and ``L1`` for scalars. A scalar's
    ``H1_semi`` is the face-quadrature norm of `gradient_to_faces` (half
    weight on boundary faces), so for a zero-trace Dirichlet or a
    zero-Neumann field its square is <s, -laplacian(s)> * cell_area.
    """
    if kind == "H1":
        return float(np.hypot(norms(fieldlike, "L2"),
                              norms(fieldlike, "H1_semi")))
    if isinstance(fieldlike, ScalarField):
        g = fieldlike.grid
        vals = fieldlike.values
        if kind == "L1":
            return float(np.sum(np.abs(vals)) * g.cell_area)
        if kind == "L2":
            return float(np.sqrt(np.sum(vals**2) * g.cell_area))
        if kind == "Linf":
            return float(np.abs(vals).max())
        if kind == "H1_semi":
            return float(np.sqrt(_mac_l2_sq(gradient_to_faces(fieldlike))))
    elif isinstance(fieldlike, MacVelocity):
        g = fieldlike.grid
        if kind == "L2":
            return float(np.sqrt(_mac_l2_sq(fieldlike)))
        if kind == "Linf":
            return float(max(np.abs(fieldlike.u).max(), np.abs(fieldlike.v).max()))
        if kind == "H1_semi":
            return float(np.sqrt(_mac_component_h1_sq(g, fieldlike.u, 0)
                                 + _mac_component_h1_sq(g, fieldlike.v, 1)))
    elif isinstance(fieldlike, DirectorField):
        if kind == "Linf":
            return float(fieldlike.pointwise_norm().max())
        c1, c2 = fieldlike.components()
        if kind == "L2":
            return float(np.hypot(norms(c1, "L2"), norms(c2, "L2")))
        if kind == "H1_semi":
            return float(np.sqrt(_mac_l2_sq(gradient_to_faces(c1))
                                 + _mac_l2_sq(gradient_to_faces(c2))))
    raise ValueError(f"unsupported norm kind {kind!r} for {type(fieldlike).__name__}")


def elastic_identity_residual(d: DirectorField, margin: int = 2) -> float:
    """Max-norm residual of the identity
    div(grad d (x) grad d) = 1/2 grad|grad d|^2 + (lap d . grad d),
    evaluated with the module's centered operators on cells at least
    ``margin`` cells away from the wall (the identity is exact only in the
    continuum; near-wall ghost reconstruction would dominate otherwise)."""
    g = d.grid
    c1, c2 = d.components()
    d1x, d1y = centered_gradient_at_centers(c1)
    d2x, d2y = centered_gradient_at_centers(c2)
    lap1 = laplacian(c1).values
    lap2 = laplacian(c2).values

    # sigma_ij = grad_i d . grad_j d at cell centers
    s11 = d1x * d1x + d2x * d2x
    s12 = d1x * d1y + d2x * d2y
    s22 = d1y * d1y + d2y * d2y

    def ddx(a):
        return centered_gradient_at_centers(ScalarField(g, a, "extrapolate"))[0]

    def ddy(a):
        return centered_gradient_at_centers(ScalarField(g, a, "extrapolate"))[1]

    lhs_x = ddx(s11) + ddy(s12)
    lhs_y = ddx(s12) + ddy(s22)

    grad_sq = s11 + s22
    rhs_x = 0.5 * ddx(grad_sq) + lap1 * d1x + lap2 * d2x
    rhs_y = 0.5 * ddy(grad_sq) + lap1 * d1y + lap2 * d2y

    m = margin
    res = np.maximum(np.abs(lhs_x - rhs_x), np.abs(lhs_y - rhs_y))
    return float(res[m:-m, m:-m].max())


# ---------------------------------------------------------------------------
# density interpolation to faces
# ---------------------------------------------------------------------------

def density_at_faces(rho: np.ndarray, grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Arithmetic average of adjacent cell densities; boundary faces copy the
    adjacent cell (preserves symmetry of the projection operator)."""
    ru = np.empty((grid.nx + 1, grid.ny))
    rv = np.empty((grid.nx, grid.ny + 1))
    ru[1:-1, :] = 0.5 * (rho[1:, :] + rho[:-1, :])
    ru[0, :] = rho[0, :]
    ru[-1, :] = rho[-1, :]
    rv[:, 1:-1] = 0.5 * (rho[:, 1:] + rho[:, :-1])
    rv[:, 0] = rho[:, 0]
    rv[:, -1] = rho[:, -1]
    return ru, rv


# ---------------------------------------------------------------------------
# snapshot format
# ---------------------------------------------------------------------------

def save_snapshot(path, grid: GridSpec, fields: list[tuple[str, np.ndarray]]) -> None:
    """Binary snapshot: magic, ASCII header, then per field a name line with
    its declared staggering and row-major float64 data (ny rows of nx values
    per row, y-major)."""
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(f"{grid.nx} {grid.ny} {grid.Lx!r} {grid.Ly!r} {len(fields)}\n".encode())
        for name, arr in fields:
            dims = _dims_label(grid, arr)
            fh.write(f"{name} {dims}\n".encode())
            data = np.ascontiguousarray(arr.T, dtype="<f8")
            fh.write(data.tobytes())


def _dims_label(grid: GridSpec, arr: np.ndarray) -> str:
    n0, n1 = arr.shape
    def lab(n, base, name):
        if n == base:
            return f"({name})"
        if n == base + 1:
            return f"({name}+1)"
        return str(n)
    return f"{lab(n0, grid.nx, 'nx')}x{lab(n1, grid.ny, 'ny')}"


def load_snapshot(path):
    """Inverse of `save_snapshot`; returns (grid, dict name -> array)."""
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise ValueError("not a snapshot file (bad magic)")
        header = _read_line(fh).split()
        nx, ny = int(header[0]), int(header[1])
        Lx, Ly = float(header[2]), float(header[3])
        nfields = int(header[4])
        grid = GridSpec(nx, ny, Lx, Ly)
        out = {}
        for _ in range(nfields):
            name_line = _read_line(fh)
            name, dims = name_line.rsplit(" ", 1)
            m = re.match(r"^(\(.*?\)|\d+)x(\(.*?\)|\d+)$", dims)
            if m is None:
                raise ValueError(f"bad field dimension label {dims!r}")
            n0 = _parse_dim(m.group(1), nx, ny)
            n1 = _parse_dim(m.group(2), nx, ny)
            raw = fh.read(8 * n0 * n1)
            arr = np.frombuffer(raw, dtype="<f8").reshape(n1, n0).T.copy()
            out[name] = arr
    return grid, out


def _read_line(fh) -> str:
    chars = bytearray()
    while True:
        c = fh.read(1)
        if not c or c == b"\n":
            break
        chars.extend(c)
    return chars.decode()


def _parse_dim(tok: str, nx: int, ny: int) -> int:
    tok = tok.strip("()")
    total = 0
    for part in tok.split("+"):
        part = part.strip()
        if part == "nx":
            total += nx
        elif part == "ny":
            total += ny
        else:
            total += int(part)
    return total
