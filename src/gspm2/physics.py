"""Dimensionless material model: local effective-field terms, stray field, energy.

The exchange term eps*Lap(m) never appears here; the time integrators treat it
implicitly inside their linear solves. What remains is the pointwise part

    f(m) = -q (m2 e2 + m3 e3) + h_ext + h_stray(m),

the stray field being the magnetostatic field of the cell-averaged
magnetization, evaluated with the Newell cell-pair tensor (A. Newell,
W. Williams, D. Dunlop, J. Geophys. Res. 98, 9551 (1993)) and applied by
zero-padded FFT convolution on the doubled grid.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.fft

from .mesh import Grid

MU0 = 4.0e-7 * math.pi

# keeps removable singularities of the Newell potentials finite; never
# significant against cell dimensions >= 1e-6 in rescaled units
_REG = 1e-18


@dataclass(frozen=True)
class MaterialParams:
    """Dimensionless coefficients of the magnetization dynamics.

    eps scales exchange, q the uniaxial anisotropy (easy axis e1), alpha the
    damping; h_ext is a uniform applied field. stray_enabled switches the
    magnetostatic field on (a DemagKernel must then be supplied to the
    integrators).
    """

    eps: float
    alpha: float
    q: float = 0.0
    h_ext: tuple = (0.0, 0.0, 0.0)
    stray_enabled: bool = False

    def __post_init__(self):
        if not (np.isfinite(self.eps) and self.eps > 0):
            raise ValueError(f"eps must be positive, got {self.eps!r}")
        if not (np.isfinite(self.alpha) and self.alpha >= 0):
            raise ValueError(f"alpha must be >= 0, got {self.alpha!r}")
        if not (np.isfinite(self.q) and self.q >= 0):
            raise ValueError(f"q must be >= 0, got {self.q!r}")
        if len(self.h_ext) != 3 or not np.all(np.isfinite(self.h_ext)):
            raise ValueError(f"h_ext must be a finite 3-vector, got {self.h_ext!r}")

    @property
    def has_local_field(self) -> bool:
        return self.q != 0.0 or any(c != 0.0 for c in self.h_ext) or self.stray_enabled


@dataclass(frozen=True)
class PhysicalConstants:
    """SI material constants; L is the spatial rescaling length in meters."""

    A: float        # exchange constant, J/m
    Ms: float       # saturation magnetization, A/m
    Ku: float       # uniaxial anisotropy constant, J/m^3
    gamma: float    # gyromagnetic ratio, 1/(T s)
    L: float        # rescaling length, m
    mu0: float = MU0

    def __post_init__(self):
        for name in ("A", "Ms", "Ku", "gamma", "L", "mu0"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be positive, got {v!r}")


def nondimensionalize(pc: PhysicalConstants) -> tuple:
    """(eps, q, time_unit_seconds) for the dimensionless equations.

    eps = 2A/(mu0 Ms^2 L^2), q = 2Ku/(mu0 Ms^2); one dimensionless time unit
    is 1/(mu0 Ms gamma) seconds.
    """
    denom = pc.mu0 * pc.Ms ** 2
    eps = 2.0 * pc.A / (denom * pc.L ** 2)
    q = 2.0 * pc.Ku / denom
    time_unit = 1.0 / (pc.mu0 * pc.Ms * pc.gamma)
    return eps, q, time_unit


def _newell_f(x, y, z):
    x = np.abs(x)
    y = np.abs(y)
    z = np.abs(z)
    r = np.sqrt(x * x + y * y + z * z)
    return (
        0.5 * y * (z * z - x * x) * np.arcsinh(y / (np.sqrt(x * x + z * z) + _REG))
        + 0.5 * z * (y * y - x * x) * np.arcsinh(z / (np.sqrt(x * x + y * y) + _REG))
        - x * y * z * np.arctan(y * z / (x * r + _REG))
        + (x * x - 0.5 * (y * y + z * z)) * r / 3.0
    )


def _newell_g(x, y, z):
    z = np.abs(z)
    r = np.sqrt(x * x + y * y + z * z)
    return (
        x * y * z * np.arcsinh(z / (np.sqrt(x * x + y * y) + _REG))
        + y * (3.0 * z * z - y * y) / 6.0 * np.arcsinh(x / (np.sqrt(y * y + z * z) + _REG))
        + x * (3.0 * z * z - x * x) / 6.0 * np.arcsinh(y / (np.sqrt(x * x + z * z) + _REG))
        - z ** 3 / 6.0 * np.arctan(x * y / (z * r + _REG))
        - 0.5 * z * y * y * np.arctan(x * z / (y * r + _REG))
        - 0.5 * z * x * x * np.arctan(y * z / (x * r + _REG))
        - x * y * r / 3.0
    )


# tensor entry -> (potential, argument order); xy uses g(x, y, z), xz g(x, z, y), ...
_COMPONENT_RECIPE = {
    "xx": (_newell_f, (0, 1, 2)),
    "yy": (_newell_f, (1, 2, 0)),
    "zz": (_newell_f, (2, 0, 1)),
    "xy": (_newell_g, (0, 1, 2)),
    "xz": (_newell_g, (0, 2, 1)),
    "yz": (_newell_g, (1, 2, 0)),
}


def demag_tensor_entry(component: str, X, Y, Z, spacing) -> np.ndarray:
    """Cell-averaged demagnetization tensor entry for center offsets (X, Y, Z).

    The 64-corner alternating sum of the Newell potential over one pair of
    rectangular cells with the given spacing. The self entry (offset 0) has
    trace 1: for a cubic cell each diagonal entry is 1/3.
    """
    func, order = _COMPONENT_RECIPE[component]
    hx, hy, hz = spacing
    total = 0.0
    for sx, sy, sz, tx, ty, tz in itertools.product((0, 1), repeat=6):
        sign = (-1.0) ** (sx + sy + sz + tx + ty + tz)
        args = (X + (sx - tx) * hx, Y + (sy - ty) * hy, Z + (sz - tz) * hz)
        total = total + sign * func(args[order[0]], args[order[1]], args[order[2]])
    return total / (4.0 * np.pi * hx * hy * hz)


class DemagKernel:
    """Pre-transformed demagnetization tensor on the zero-padded doubled grid.

    `fft` maps the six symmetric components to their rfftn transforms;
    `self_diag` holds the real-space self-interaction diagonal
    (Nxx(0), Nyy(0), Nzz(0)), whose sum is 1 for any cell shape.
    """

    def __init__(self, grid: Grid, fft_components: dict, padded_shape: tuple,
                 self_diag: np.ndarray):
        self.grid = grid
        self.fft = fft_components
        self.padded_shape = padded_shape
        self.self_diag = self_diag

    @property
    def self_trace(self) -> float:
        return float(self.self_diag.sum())


def _displacements(n: int) -> np.ndarray:
    """Padded-axis slot -> signed cell offset (slot n maps to -n; it only feeds
    the discarded half of the circular convolution)."""
    if n == 1:
        return np.zeros(1)
    idx = np.arange(2 * n)
    return np.where(idx < n, idx, idx - 2 * n).astype(float)


def build_demag_kernel(grid: Grid) -> DemagKernel:
    """Build the FFT-domain demag kernel for a grid (done once per run)."""
    padded = tuple(1 if n == 1 else 2 * n for n in grid.shape)
    hx, hy, hz = grid.spacing
    X = (_displacements(grid.nx) * hx)[:, None, None]
    Y = (_displacements(grid.ny) * hy)[None, :, None]
    Z = (_displacements(grid.nz) * hz)[None, None, :]
    fft_components = {}
    self_diag = np.empty(3)
    for i, comp in enumerate(("xx", "yy", "zz", "xy", "xz", "yz")):
        block = np.broadcast_to(
            demag_tensor_entry(comp, X, Y, Z, grid.spacing), padded
        ).copy()
        if i < 3:
            self_diag[i] = block[0, 0, 0]
        fft_components[comp] = scipy.fft.rfftn(block)
    return DemagKernel(grid, fft_components, padded, self_diag)


def demag_field(kernel: DemagKernel, m: np.ndarray) -> np.ndarray:
    """Stray field h_s = -(N * m) by zero-padded fast convolution.

    The padding is never materialized: the forward transforms run axis by
    axis (z, then y, then x), each zero-extending its input to the padded
    length, so rows that are all zero are never transformed. The inverse
    transforms run in the opposite order and keep only the first n entries
    of each axis as soon as that axis is done.
    """
    nx, ny, nz = kernel.grid.shape
    px, py, pz = kernel.padded_shape
    mf = scipy.fft.rfft(m, n=pz, axis=3)
    mf = scipy.fft.fft(mf, n=py, axis=2, overwrite_x=True)
    mf = scipy.fft.fft(mf, n=px, axis=1, overwrite_x=True)
    K = kernel.fft
    rows = (("xx", "xy", "xz"), ("xy", "yy", "yz"), ("xz", "yz", "zz"))
    hf = np.empty_like(mf)
    term = np.empty_like(mf[0])
    for out, row in zip(hf, rows):
        np.multiply(K[row[0]], mf[0], out=out)
        for comp, mj in zip(row[1:], mf[1:]):
            out += np.multiply(K[comp], mj, out=term)
    del mf
    h = scipy.fft.ifft(hf, axis=1, overwrite_x=True)[:, :nx]
    h = scipy.fft.ifft(h, axis=2, overwrite_x=True)[:, :, :ny]
    h = scipy.fft.irfft(h, n=pz, axis=3)[..., :nz]
    return -h


def local_field(params: MaterialParams, m: np.ndarray,
                kernel: DemagKernel | None = None, *,
                stray: np.ndarray | None = None) -> np.ndarray:
    """Pointwise effective-field part f(m) = -q(m2 e2 + m3 e3) + h_ext + h_s.

    `stray`, when given, is taken as h_s(m) in place of a convolution; the
    integrators pass the stray field they carry from step to step.
    """
    if params.stray_enabled and kernel is None and stray is None:
        raise ValueError("stray field enabled but no demag kernel supplied")
    f = np.zeros_like(np.asarray(m, dtype=float))
    if params.q != 0.0:
        f[1] -= params.q * m[1]
        f[2] -= params.q * m[2]
    if any(c != 0.0 for c in params.h_ext):
        f += np.asarray(params.h_ext, dtype=float)[:, None, None, None]
    if params.stray_enabled:
        f += demag_field(kernel, m) if stray is None else stray
    return f


def energy(params: MaterialParams, grid: Grid, m: np.ndarray,
           kernel: DemagKernel | None = None, *,
           stray: np.ndarray | None = None) -> float:
    """Dimensionless free energy of a unit-magnetization field.

    (1/2) sum of [eps |grad_h m|^2 + q (m2^2 + m3^2) - 2 h_ext.m - h_s.m]
    per cell volume. The exchange gradient uses forward differences across
    interior faces (each face once), which pairs with the mirrored Laplacian
    under summation by parts, and h_s is linear and symmetric in m, so the
    gradient of this functional is exactly -(eps Lap m + f(m)) vol: it is the
    Lyapunov functional of the dynamics the integrators discretize. `stray`,
    when given, is taken as h_s(m) in place of a convolution.
    """
    m = np.asarray(m, dtype=float)
    mag2 = (m * m).sum(axis=0)
    if abs(mag2.max() - 1.0) > 1e-6 or abs(mag2.min() - 1.0) > 1e-6:
        warnings.warn("energy() evaluated on a field that is not unit length",
                      stacklevel=2)
    vol = grid.cell_volume
    total = 0.0
    for axis, (n, h) in enumerate(zip(grid.shape, grid.spacing)):
        if n > 1:
            d = np.diff(m, axis=axis + 1) / h
            total += 0.5 * params.eps * (d * d).sum() * vol
    if params.q != 0.0:
        total += 0.5 * params.q * ((m[1] * m[1] + m[2] * m[2])).sum() * vol
    if any(c != 0.0 for c in params.h_ext):
        he = np.asarray(params.h_ext, dtype=float)[:, None, None, None]
        total -= (he * m).sum() * vol
    if params.stray_enabled:
        if stray is None:
            if kernel is None:
                raise ValueError("stray field enabled but no demag kernel supplied")
            stray = demag_field(kernel, m)
        total -= 0.5 * (stray * m).sum() * vol
    return float(total)
