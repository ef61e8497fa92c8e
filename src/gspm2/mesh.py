"""Cell-centered uniform grids and mirrored-Neumann difference operators.

Fields live at cell centers ((i - 1/2) hx, (j - 1/2) hy, (k - 1/2) hz) and are
plain numpy arrays: shape (nx, ny, nz) for scalars, (3, nx, ny, nz) for
magnetization-like vector fields. Ghost cells are never stored; the operators
synthesize them on the fly by mirroring the first interior layer, which
implements the homogeneous Neumann condition d(m)/d(nu) = 0.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np


def is_number(value) -> bool:
    """A real number that float arithmetic takes: a bool is an int to Python,
    and an integer beyond the float range overflows, so neither counts."""
    if isinstance(value, (float, np.floating)):
        return True
    return (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered rectangular grid.

    nx, ny, nz are cell counts and lx, ly, lz domain edge lengths; spacings
    are hx = lx/nx etc. Axes of extent 1 are degenerate: they drop out of all
    stencils, which is how 1D and 2D problems are represented.
    """

    nx: int
    ny: int
    nz: int
    lx: float
    ly: float
    lz: float

    def __post_init__(self):
        for name in ("nx", "ny", "nz"):
            n = getattr(self, name)
            if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
                raise ValueError(f"{name} must be a positive integer, got {n!r}")
        for name in ("lx", "ly", "lz"):
            length = getattr(self, name)
            if not (is_number(length) and np.isfinite(length) and length > 0):
                raise ValueError(f"{name} must be positive and finite, got {length!r}")

    @classmethod
    def line(cls, nx: int, lx: float = 1.0) -> "Grid":
        """1D grid on (0, lx); the y and z axes are unit-length singletons."""
        return cls(nx, 1, 1, lx, 1.0, 1.0)

    @classmethod
    def rect(cls, nx: int, ny: int, lx: float = 1.0, ly: float = 1.0) -> "Grid":
        """2D grid on (0, lx) x (0, ly) with a unit-length singleton z axis."""
        return cls(nx, ny, 1, lx, ly, 1.0)

    @classmethod
    def cube(cls, n: int, edge: float = 1.0) -> "Grid":
        return cls(n, n, n, edge, edge, edge)

    @property
    def hx(self) -> float:
        return self.lx / self.nx

    @property
    def hy(self) -> float:
        return self.ly / self.ny

    @property
    def hz(self) -> float:
        return self.lz / self.nz

    @property
    def shape(self) -> tuple:
        return (self.nx, self.ny, self.nz)

    @property
    def spacing(self) -> tuple:
        return (self.hx, self.hy, self.hz)

    @property
    def n_cells(self) -> int:
        return self.nx * self.ny * self.nz

    @property
    def cell_volume(self) -> float:
        return self.hx * self.hy * self.hz

    @cached_property
    def centers(self) -> tuple:
        """Cell-center coordinate arrays (X, Y, Z), each of shape `shape`.

        Read-only, so that they stay what they were when first built: they
        are shared by every caller, and `ManufacturedCase` keys its cache
        on their identity.
        """
        x = (np.arange(self.nx) + 0.5) * self.hx
        y = (np.arange(self.ny) + 0.5) * self.hy
        z = (np.arange(self.nz) + 0.5) * self.hz
        centers = tuple(np.meshgrid(x, y, z, indexing="ij"))
        for a in centers:
            a.flags.writeable = False
        return centers


def _reject_nonfinite(values: np.ndarray, what: str):
    if np.isfinite(values).all():
        return
    bad = np.argwhere(~np.isfinite(values))[0]
    raise ValueError(f"non-finite {what} at index {tuple(int(b) for b in bad)}")


def sample_scalar(grid: Grid, fn) -> np.ndarray:
    """Sample fn(X, Y, Z) at the cell centers into an (nx, ny, nz) array."""
    X, Y, Z = grid.centers
    data = np.broadcast_to(np.asarray(fn(X, Y, Z), dtype=float), grid.shape).copy()
    _reject_nonfinite(data, "sample value")
    return data


def sample_vector(grid: Grid, fn) -> np.ndarray:
    """Sample a vector-valued fn(X, Y, Z) -> (c1, c2, c3) into a (3, nx, ny, nz) array.

    Each component may be a full array or a broadcastable constant. Non-finite
    values are rejected with the offending (component, cell) index.
    """
    X, Y, Z = grid.centers
    comps = fn(X, Y, Z)
    if len(comps) != 3:
        raise ValueError(f"expected 3 components, got {len(comps)}")
    out = np.empty((3,) + grid.shape)
    for c, comp in enumerate(comps):
        out[c] = np.broadcast_to(np.asarray(comp, dtype=float), grid.shape)
    _reject_nonfinite(out, "sample value (component, cell)")
    return out


def _second_difference(u: np.ndarray, axis: int, h: float) -> np.ndarray:
    """One-axis second difference with mirrored (edge-replicated) ghosts."""
    pad = [(0, 0)] * u.ndim
    pad[axis] = (1, 1)
    v = np.pad(u, pad, mode="edge")
    sl = [slice(None)] * u.ndim

    def seg(a, b):
        s = list(sl)
        s[axis] = slice(a, b)
        return tuple(s)

    return (v[seg(2, None)] - 2.0 * v[seg(1, -1)] + v[seg(0, -2)]) / (h * h)


def laplacian(grid: Grid, u: np.ndarray) -> np.ndarray:
    """Mirrored-Neumann 7-point discrete Laplacian.

    Accepts (nx, ny, nz) arrays or stacks (..., nx, ny, nz); axes of extent 1
    contribute nothing (their mirrored second difference is identically zero).
    """
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    for axis, (n, h) in enumerate(zip(grid.shape, grid.spacing)):
        if n > 1:
            out += _second_difference(u, axis - 3, h)
    return out


def biharmonic(grid: Grid, u: np.ndarray) -> np.ndarray:
    """Discrete biharmonic: the mirrored Laplacian applied twice.

    The intermediate Laplacian field is mirrored again at the boundary, which
    is equivalent to extending the data with a second ghost layer satisfying
    u[-1] = u[2] and u[N+2] = u[N-1].
    """
    return laplacian(grid, laplacian(grid, u))


def pointwise_magnitude(field: np.ndarray) -> np.ndarray:
    """Per-cell Euclidean magnitude: |.| for scalars, sqrt(sum of squares) for vectors."""
    field = np.asarray(field)
    if field.ndim == 4:
        return np.sqrt((field * field).sum(axis=0))
    return np.abs(field)


def norm_inf(field: np.ndarray) -> float:
    """Max over cells of the pointwise magnitude."""
    return float(pointwise_magnitude(field).max())


def norm_l2(grid: Grid, field: np.ndarray) -> float:
    """Volume-weighted discrete L2 norm, sqrt(sum |.|^2 hx hy hz).

    The reduction runs in C (lexicographic cell) order, so results are
    reproducible across runs.
    """
    mag = pointwise_magnitude(field)
    return float(np.sqrt((mag * mag).sum() * grid.cell_volume))
