"""Dimensionless material model: local effective-field terms, stray field, energy.

The exchange term eps*Lap(m) never appears here; the time integrators treat it
implicitly inside their linear solves. What remains is the pointwise part

    f(m) = -q (m2 e2 + m3 e3) + h_ext + h_stray(m),

the stray field being the magnetostatic field of the cell-averaged
magnetization, evaluated with the Newell cell-pair tensor (A. Newell,
W. Williams, D. Dunlop, J. Geophys. Res. 98, 9551 (1993)) and applied by
zero-padded FFT convolution on the doubled grid. As in MuMax3 (A.
Vansteenkiste et al., AIP Adv. 4, 107133 (2014)), x, the longest padded axis
of a film, takes the real transform, which halves the spectra; y and z take
complex ones. Every tensor entry is even or odd along each axis exactly, so
every spectrum is real, a product of one real cosine or sine transform per
axis: the kernel keeps real spectra, half the bytes again, and the tensor
products run in real arithmetic on separate real and imaginary planes. The x
axis is transformed each way by one real product with a dense DFT matrix
pair, which at 64 cells beats pocketfft's strided, zero-padded lines; its
O(nx) cost per cell loses to them on a long x axis over few y and z cells
(README's stray-field table). The z axis, the thickness of a film, is
transformed by real products with a DFT matrix pair, one per x-mode, which
on a few cells beats pocketfft's per-line overhead. Those matrices, and the
parity matrix of the kernel build's z axis, come from `spectral`'s dense
transform builders, cached there and shared with the solves' DCT-II: this
module builds no transform matrix of its own. After the x transform,
`demag_field` works through the x-modes in slabs of about _SLAB_BYTES per
buffer. The kernel is built with its matrix pairs, slabs and buffers, so a
call allocates only the field: the heap is not trimmed and refaulted on
every call, and a slab's working set stays near the core's cache.
`local_field` is its one caller; `energy` reads f from it or from an
integrator's state.

Each tensor entry is Newell's alternating sum of a potential over the corners
of two cells. Per axis the corners enter through their shift k = s - t with
weights -1, 2, -1, so the sum is one second difference of the potential along
each axis in turn, over 27 shifted offsets. The difference is symmetric in
its two outer shifts and the potentials are exactly even or odd, so every
entry equals its reflection along each axis, up to the parity sign, exactly.
The six potentials, Newell's f for the diagonal entries and his g for the
off-diagonal ones, share seven transcendental terms, which `_newell` forms
once for all six. The single entry and the kernel build share that evaluator
and the second difference: the entry takes them over its own 27 offsets, the
build over one evaluation on the distinct absolute offsets of the
non-negative half of the padded lattice, and transforms that half by the
parity, DCT-I along the even axes and DST-I along the odd ones. Both take x,
then y, then z, so every value the transforms read equals the entry bit for
bit.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.fft

from .mesh import Grid, is_number
from .spectral import dft_pair, parity_matrix, real_dft_pair

MU0 = 4.0e-7 * math.pi

# keeps removable singularities of the Newell potentials finite; never
# significant against cell dimensions >= 1e-6 in rescaled units
_REG = 1e-18


@dataclass(frozen=True)
class MaterialParams:
    """Dimensionless coefficients of the magnetization dynamics.

    eps scales exchange, q the uniaxial anisotropy (easy axis e1), alpha the
    damping; h_ext is a uniform applied field, given as any 3-sequence and
    kept as a tuple of floats. stray_enabled switches the magnetostatic field
    on (a DemagKernel must then be supplied to the integrators).
    """

    eps: float
    alpha: float
    q: float = 0.0
    h_ext: tuple = (0.0, 0.0, 0.0)
    stray_enabled: bool = False

    def __post_init__(self):
        # any truthy stray_enabled would switch the stray field on, and a bool
        # is an int to Python, so a flag in a coefficient's place would pass
        # the range checks below
        if not isinstance(self.stray_enabled, (bool, np.bool_)):
            raise ValueError(f"stray_enabled must be a bool, got {self.stray_enabled!r}")
        if not isinstance(self.h_ext, (tuple, list, np.ndarray)) or len(self.h_ext) != 3:
            raise ValueError(f"h_ext must be a finite 3-vector, got {self.h_ext!r}")
        for name, value in (("eps", self.eps), ("alpha", self.alpha), ("q", self.q),
                            *(("h_ext entry", c) for c in self.h_ext)):
            if not is_number(value):
                raise ValueError(f"{name} must be a number, got {value!r}")
        if not (np.isfinite(self.eps) and self.eps > 0):
            raise ValueError(f"eps must be positive, got {self.eps!r}")
        if not (np.isfinite(self.alpha) and self.alpha >= 0):
            raise ValueError(f"alpha must be >= 0, got {self.alpha!r}")
        if not (np.isfinite(self.q) and self.q >= 0):
            raise ValueError(f"q must be >= 0, got {self.q!r}")
        if not np.all(np.isfinite(self.h_ext)):
            raise ValueError(f"h_ext must be a finite 3-vector, got {self.h_ext!r}")
        # a tuple of floats whatever sequence it came as, so params stay a
        # value: an array would make == ambiguous, a list unhashable
        object.__setattr__(self, "h_ext", tuple(float(c) for c in self.h_ext))

    @property
    def has_local_field(self) -> bool:
        return self.q != 0.0 or self.h_ext != (0.0, 0.0, 0.0) or self.stray_enabled


@dataclass(frozen=True)
class PhysicalConstants:
    """SI material constants; L is the spatial rescaling length in meters."""

    A: float        # exchange constant, J/m
    Ms: float       # saturation magnetization, A/m
    Ku: float       # uniaxial anisotropy constant, J/m^3
    gamma: float    # gyromagnetic ratio, 1/(T s)
    L: float        # rescaling length, m

    def __post_init__(self):
        for name in ("A", "Ms", "Ku", "gamma", "L"):
            v = getattr(self, name)
            if not (is_number(v) and np.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be positive, got {v!r}")


def nondimensionalize(pc: PhysicalConstants) -> tuple:
    """(eps, q, time_unit_seconds) for the dimensionless equations.

    eps = 2A/(mu0 Ms^2 L^2), q = 2Ku/(mu0 Ms^2); one dimensionless time unit
    is 1/(mu0 Ms gamma) seconds.
    """
    denom = MU0 * pc.Ms ** 2
    eps = 2.0 * pc.A / (denom * pc.L ** 2)
    q = 2.0 * pc.Ku / denom
    time_unit = 1.0 / (MU0 * pc.Ms * pc.gamma)
    return eps, q, time_unit


# the six tensor entries, the diagonal ones first: the kernel build relies on
# the order
_COMPONENTS = ("xx", "yy", "zz", "xy", "xz", "yz")


def _newell(x, y, z):
    """The six Newell potentials at the offsets (x, y, z), from the seven
    transcendental terms they share.

    On the absolute offsets a = |x|, |y|, |z| and their norm r, axis i, with
    j and k the other two, has A_i = asinh(a_i / sqrt(a_j^2 + a_k^2)) and
    T_i = atan(a_j a_k / (a_i r)). Each potential is a polynomial in the
    offsets and these seven: Newell's f for the diagonal entry of axis u, v
    and w following it cyclically, and his g for the off-diagonal entry of
    axes u and v, w the third,

        f = v (w^2 - u^2) A_v / 2 + w (v^2 - u^2) A_w / 2 - u v w T_u
            + (u^2 - (v^2 + w^2) / 2) r / 3,
        g = u v w A_w + v (3 w^2 - v^2) A_u / 6 + u (3 w^2 - u^2) A_v / 6
            - w^3 T_w / 6 - w v^2 T_v / 2 - w u^2 T_u / 2 - u v r / 3.

    f is even along every axis. g is odd along u and v and even along w: it
    is formed on the absolute offsets and takes the signs of the two odd
    offsets back by a product with +-1, so its parity is exact too (where an
    odd offset is 0, so is g). Returns `potential(component)`, which forms
    one potential as a fresh array of the offsets' broadcast shape (0-d for
    scalar offsets), so a caller can hold one at a time.
    """
    coords = [np.asarray(c, dtype=float) for c in (x, y, z)]
    shape = np.broadcast_shapes(*(c.shape for c in coords))
    a = [np.abs(c) for c in coords]
    sq = [c * c for c in a]
    r = np.add(sq[0] + sq[1], sq[2], out=np.empty(shape))
    np.sqrt(r, out=r)
    A, T = [], []
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        A.append(np.divide(a[i], np.sqrt(sq[j] + sq[k]) + _REG, out=np.empty(shape)))
        np.arcsinh(A[i], out=A[i])
        T.append(np.multiply(a[i], r, out=np.empty(shape)))
        T[i] += _REG
        np.divide(a[j] * a[k], T[i], out=T[i])
        np.arctan(T[i], out=T[i])

    def potential(component: str) -> np.ndarray:
        u, v = ("xyz".index(c) for c in component)
        p, t = np.empty(shape), np.empty(shape)

        def product(out, *factors):
            # left to right into `out`, which the first two broadcast to
            np.multiply(factors[0], factors[1], out=out)
            for factor in factors[2:]:
                out *= factor
            return out

        if u == v:
            v, w = (u + 1) % 3, (u + 2) % 3
            product(p, 0.5 * a[v], sq[w] - sq[u], A[v])
            p += product(t, 0.5 * a[w], sq[v] - sq[u], A[w])
            p -= product(t, a[u] * a[v], a[w], T[u])
            np.subtract(sq[u], 0.5 * (sq[v] + sq[w]), out=t)
            t *= r
            t /= 3.0
            return np.add(p, t, out=p)
        w = 3 - u - v
        uv = a[u] * a[v]
        product(p, uv, a[w], A[w])
        p += product(t, a[v] / 6.0, 3.0 * sq[w] - sq[v], A[u])
        p += product(t, a[u] / 6.0, 3.0 * sq[w] - sq[u], A[v])
        p -= product(t, T[w], a[w] * sq[w] / 6.0)
        p -= product(t, T[v], 0.5 * a[w] * sq[v])
        p -= product(t, T[u], 0.5 * a[w] * sq[u])
        p -= product(t, uv / 3.0, r)
        return product(p, p, np.sign(coords[u]) * np.sign(coords[v]))

    return potential


# each cell-pair tensor entry reads its potential at the 27 shifts k = s - t
_SHIFTS = (-1, 0, 1)

# bytes of one product buffer of demag_field, which sets its slab width: as
# many x-modes as fit, and at least one. A mode is a real and an imaginary
# (py, pz) float64 plane, 16 bytes per entry.
# Measured crossover (whole calls, budgets interleaved in one process, one
# BLAS thread, 2 MiB of L2 per core), against 256 KiB: 64x64x3 is 2-5% slower
# at 128 and 512 KiB, 25% slower at 32 KiB, where the per-slab overhead
# dominates, and 14% slower as one slab; 250x250x5 is 1-4% faster at 64 and
# 128 KiB, 7% slower at 1 MiB, 17% at 4 MiB and 46% as one slab
_SLAB_BYTES = 256 * 1024


def _second_difference(minus, zero, plus):
    """(zero - minus) + (zero - plus), the potential's second difference along
    one axis over the shifts k = -1, 0, 1. Swapping minus and plus gives the
    same bits, so a reflected offset gives the reflected entry exactly.
    Subtracts in place: `minus` and `plus` must be arrays nothing else reads.
    """
    np.subtract(zero, minus, out=minus)
    np.subtract(zero, plus, out=plus)
    return np.add(minus, plus, out=minus)


def demag_tensor_entry(component: str, X, Y, Z, spacing) -> np.ndarray:
    """Cell-averaged demagnetization tensor entry for center offsets (X, Y, Z).

    Newell's alternating sum over the 8 corners of each of two rectangular
    cells with the given spacing. Corners s and t enter only through the
    shift k = s - t, with weight -1, 2, -1 for k = -1, 0, 1 on each axis, so
    the sum is one second difference of the potential along x, then y, then
    z, over its 27 shifted offsets. The nine (ky, kx) shifts of one kz ride
    on two leading axes of one `_newell` call, so the 27 take three calls:
    on a scalar offset a call's fixed cost outweighs its size. The self entry
    (offset 0) has trace 1: for a cubic cell each diagonal entry is 1/3.

    Raises ValueError unless `component` is one of xx, yy, zz, xy, xz, yz
    and `spacing` is three positive finite numbers.
    """
    if component not in _COMPONENTS:
        raise ValueError(f"component must be one of {', '.join(_COMPONENTS)}, "
                         f"got {component!r}")
    if (not isinstance(spacing, (tuple, list, np.ndarray)) or len(spacing) != 3
            or not all(is_number(h) and np.isfinite(h) and h > 0 for h in spacing)):
        raise ValueError(f"spacing must be three positive finite numbers, got {spacing!r}")
    hx, hy, hz = spacing
    ones = (1,) * max(np.ndim(X), np.ndim(Y), np.ndim(Z))
    shifts = np.array(_SHIFTS, dtype=float)
    Xk = X + (shifts * hx).reshape((1, 3) + ones)
    Yk = Y + (shifts * hy).reshape((3, 1) + ones)

    def along_x_then_y(p):
        p = _second_difference(p[:, 0, ...], p[:, 1, ...], p[:, 2, ...])
        return _second_difference(p[0, ...], p[1, ...], p[2, ...])

    total = _second_difference(*(along_x_then_y(_newell(Xk, Yk, Z + kz * hz)(component))
                                 for kz in _SHIFTS))
    return total / (4.0 * np.pi * hx * hy * hz)


class DemagKernel:
    """Pre-transformed demagnetization tensor on the zero-padded doubled grid.

    `fft` maps the six symmetric components to their spectra on the padded
    grid (px, py, pz): a real FFT along x, keeping px//2 + 1 modes, then full
    complex FFTs along y and z. The spectra are real, so each is kept as a
    float64 (px//2 + 1, py, pz) array; `padded_shape` doubles each axis but
    one of length 1. `self_diag` holds the real-space self-interaction
    diagonal (Nxx(0), Nyy(0), Nzz(0)), whose sum is 1 for any cell shape.

    Built with it, once, is all else `demag_field` reads: `_dft_z`, the z
    DFT pair of `spectral.dft_pair` in real form; `_dft_x`, the real x DFT
    pair of `spectral.real_dft_pair` with the buffer (3, px//2 + 1, 2, ny, nz)
    of the x spectrum's real and imaginary planes. The pairs are references
    to the cached, read-only matrices, shared by every kernel of the same
    lengths; the buffers are the kernel's own. Then `_slabs`, the even split
    of the x-modes into slabs of at most _SLAB_BYTES per buffer (one mode at
    least), each its (lo, hi) and its views of four buffers all slabs and
    calls share: the complex y lines (3, w, py, nz), then as real and
    imaginary planes the z spectra (3, 2, w, py, pz) and the output
    component (2, w, py, pz), and a scratch buffer viewed both as a product
    term (2, w, py, pz) and as the two halves (2, w, py, 2nz) of an inverse
    z product. Not thread safe.
    """

    def __init__(self, grid: Grid, fft_components: dict, padded_shape: tuple,
                 self_diag: np.ndarray):
        self.grid = grid
        self.fft = fft_components
        self.padded_shape = padded_shape
        self.self_diag = self_diag
        nx, ny, nz = grid.shape
        px, py, pz = padded_shape
        self._dft_z = dft_pair(nz, pz)
        kx = px // 2 + 1
        self._dft_x = (*real_dft_pair(nx, px), np.empty((3, kx, 2, ny, nz)))
        width = min(kx, max(1, _SLAB_BYTES // (16 * py * pz)))
        lines = np.empty(3 * width * py * nz, dtype=complex)
        spectra = np.empty(6 * width * py * pz)
        product = np.empty(2 * width * py * pz)
        # the two halves of an inverse z product are 2nz wide, and pz = 2nz
        # but on a single layer, where pz = 1
        term = np.empty(2 * width * py * max(pz, 2 * nz))
        count = -(-kx // width)
        self._slabs = []
        for j in range(count):
            lo, hi = j * kx // count, (j + 1) * kx // count
            n = (hi - lo) * py
            self._slabs.append((lo, hi, lines[:3 * n * nz].reshape(3, -1, py, nz),
                                spectra[:6 * n * pz].reshape(3, 2, -1, py, pz),
                                product[:2 * n * pz].reshape(2, -1, py, pz),
                                term[:2 * n * pz].reshape(2, -1, py, pz),
                                term[:4 * n * nz].reshape(2, -1, py, 2 * nz)))

    @property
    def self_trace(self) -> float:
        return float(self.self_diag.sum())


def _parity_spectrum(half: np.ndarray, odd, out: np.ndarray) -> np.ndarray:
    """Write into `out`, C-contiguous, the spectrum of the entry block whose
    non-negative half is `half`: d = 0..n along each padded axis of length
    2n, d = 0 alone on an axis of length 1. `odd` flags, per axis, whether
    the entry is odd there.

    Along a padded axis the DFT of an even block is the DCT-I of its n + 1
    values, that of an odd block -i times the DST-I of its n - 1 interior
    values d = 1..n-1, with modes 0 and n zero. An axis of length 1 is its own
    spectrum, zero where odd. x keeps modes 0..n, as a real FFT would, and y
    fills the modes k > n from 2n - k with the parity sign, by one copy in
    place; both take scipy.fft's transforms. z is one product with
    `spectral.parity_matrix`, which makes the fill itself and carries the -1 of an
    off-diagonal entry's two odd axes, (-i)^2, and writes into `out`. d = 0
    is never read along an odd axis: the DST-I skips it, and along z it is
    zeroed first, since the product reads it times 0, whose sign would follow
    the value's.
    """
    mx, my, mz = half.shape
    py, pz = out.shape[1:]
    if odd[0]:
        modes = np.zeros_like(half)
        if mx > 1:
            modes[1:-1] = scipy.fft.dst(half[1:-1], type=1, axis=0)
    else:
        modes = scipy.fft.dct(half, type=1, axis=0) if mx > 1 else half
    lines = np.empty((mx, py, mz))
    if odd[1]:
        lines[:, [0, my - 1]] = 0.0
        if my > 1:
            lines[:, 1:my - 1] = scipy.fft.dst(modes[:, 1:-1], type=1, axis=1)
    else:
        lines[:, :my] = scipy.fft.dct(modes, type=1, axis=1) if my > 1 else modes
    if py > 1:
        tail = lines[:, my - 2:0:-1]
        if odd[1]:
            np.negative(tail, out=lines[:, my:])
        else:
            lines[:, my:] = tail
    if odd[2]:
        lines[:, :, 0] = 0.0
    matrix = parity_matrix(pz, odd[2], -1.0 if any(odd) else 1.0)
    np.matmul(lines.reshape(-1, mz), matrix, out=out.reshape(-1, pz))
    return out


def build_demag_kernel(grid: Grid) -> DemagKernel:
    """Build the FFT-domain demag kernel for a grid (done once per run).

    Every entry is exactly even or odd along each axis (module docstring), so
    the build works on the non-negative offsets d = 0..n of each padded axis
    (d = 0 alone on an axis of length 1), and `_parity_spectrum` maps each
    half block straight to its spectrum by real DCT-I and DST-I transforms.
    Per axis the arguments d h + k h, k in {-1, 0, 1}, are exactly those
    `demag_tensor_entry` would form. One `_newell` evaluation on the outer
    product of the distinct absolute arguments forms the seven terms the six
    potentials share; the potentials are then formed from it one at a time,
    and each one's second difference along x, then y, then z gathers its
    three shifts through the inverse indices. The only negative argument,
    d = 0 at k = -1, is read as its absolute value; g is odd along the two
    axes an off-diagonal entry names, so there the value at d = 0 is not the
    entry's, but the transforms never read it. Every value the transforms
    read equals the entry's bit for bit.

    At 64x64x3 the evaluation sees 66x66x6 points, where the whole padded
    lattice holds 130x130x9. The build takes about 0.01 s there and
    0.20-0.24 s at 250x250x5, with one BLAS thread on a 2-vCPU VM.

    Raises TypeError unless `grid` is a Grid.
    """
    if not isinstance(grid, Grid):
        raise TypeError(f"grid must be a Grid, got {type(grid).__name__}")
    hx, hy, hz = grid.spacing
    padded = tuple(1 if n == 1 else 2 * n for n in grid.shape)
    uniques, index = [], []
    for p, h in zip(padded, grid.spacing):
        shifted = np.arange(p // 2 + 1) * h + np.array(_SHIFTS)[:, None] * h
        unique, inverse = np.unique(np.abs(shifted), return_inverse=True)
        uniques.append(unique)
        index.append(inverse.reshape(shifted.shape))
    # the table is laid out (z, x, y): a z axis of a few cells innermost
    # would cut numpy's broadcast loops to a few elements
    z, x, y = np.meshgrid(uniques[2], uniques[0], uniques[1], indexing="ij", sparse=True)
    # the six real spectra share one block, allocated ahead of the build's
    # temporaries: six copies made after them left the heap to be trimmed
    # and refaulted, 8k page faults a build in a thin-film run against 4.6k
    spectra = np.empty((6, padded[0] // 2 + 1) + padded[1:])
    self_diag = np.empty(3)
    potential = _newell(x, y, z)
    for i, comp in enumerate(_COMPONENTS):
        block = potential(comp)
        for axis, inverse in zip((1, 2, 0), index):
            block = _second_difference(*(block.take(k, axis=axis) for k in inverse))
        block = block.transpose(1, 2, 0)
        block /= 4.0 * np.pi * hx * hy * hz
        if i < 3:
            self_diag[i] = block[0, 0, 0]
        _parity_spectrum(block, [i >= 3 and name in comp for name in "xyz"], spectra[i])
    # the shared terms are freed before the kernel allocates its slab
    # buffers: alive with them, they took the 32x32x2 build's peak from
    # 1.26 to 1.51 MiB
    del potential
    return DemagKernel(grid, dict(zip(_COMPONENTS, spectra)), padded, self_diag)


def demag_field(kernel: DemagKernel, m: np.ndarray) -> np.ndarray:
    """Stray field h_s = -(N * m) by zero-padded fast convolution.

    The padding is never materialized: m takes its real transform along x,
    zero-extended to the padded length, and the x-modes are then processed
    in the kernel's slabs, in its buffers. The transform is one product of
    the kernel's forward x matrix with m viewed as (3, nx, ny nz), written
    into the kernel's x spectrum as separate real and imaginary planes. Each
    slab copies its modes' two planes into its y lines, zero-padded along
    y, transforms them there in place, then along z by
    real products of its interleaved numbers with the kernel's padded DFT
    pair, into separate real and imaginary planes; on a single layer the
    pair is 1x1 and the same products apply. The kernel is real, so each
    output component is formed from the nine tensor products plane by plane
    in real arithmetic, then transformed back along z by the truncated
    inverse pair, whose two halves sum to the first nz entries, written back
    into the slab's lines interleaved. One inverse y transform of the three then puts the first ny
    entries into the slab's own rows of the x spectrum, which were read
    before they are overwritten. The inverse x transform gives the field, a
    fresh array: one product of the kernel's inverse x matrix, which carries
    the field's minus sign, written straight into it. The call itself only
    computes: the kernel made the matrices, the slabs and the buffers, and
    the call allocates only the field.

    The width of the slabs changes no result: every transform and product
    acts on whole lines or elements, the x products on the whole grid, and
    each z product is a stack of one (py, .) matrix product per x-mode,
    whose shape no slab width changes. (OpenBLAS rounds the rows of a real
    product differently with its row count, so one product over a whole slab
    would not do.)

    Raises ValueError if kernel is None (a stray field without its kernel)
    or unless m has shape (3,) + the kernel's grid shape.
    """
    if kernel is None:
        raise ValueError("stray field enabled but no demag kernel supplied")
    nx, ny, nz = kernel.grid.shape
    if np.shape(m) != (3, nx, ny, nz):
        raise ValueError(f"m must have shape {(3, nx, ny, nz)}, got {np.shape(m)}")
    forward, inverse = kernel._dft_z
    K = kernel.fft
    rows = (("xx", "xy", "xz"), ("xy", "yy", "yz"), ("xz", "yz", "zz"))
    # the field outlives the call (states carry it), so it is allocated ahead
    # of the call's temporaries: allocated after them, it raised a 40-round
    # thin-film run's peak RSS by 3-4 MB
    h = np.empty((3, nx, ny, nz))
    forward_x, inverse_x, planes = kernel._dft_x
    np.matmul(forward_x, np.reshape(m, (3, nx, -1)), out=planes.reshape(3, -1, ny * nz))
    # (3, kx, 2, ny, nz) as the real, then the imaginary plane of each mode
    re, im = planes.transpose(2, 0, 1, 3, 4)
    for lo, hi, y, s, out, tmp, halves in kernel._slabs:
        y.real[:, :, :ny] = re[:, lo:hi]
        y.imag[:, :, :ny] = im[:, lo:hi]
        y[:, :, ny:] = 0.0
        y = scipy.fft.fft(y, axis=2, overwrite_x=True)
        # s[j] holds the real, then the imaginary plane of component j
        np.matmul(y.view(float)[:, None], forward, out=s)
        # y is free once s is formed: it takes the three inverse z transforms
        for yi, row in zip(y, rows):
            np.multiply(K[row[0]][lo:hi], s[0], out=out)
            for comp, sj in zip(row[1:], s[1:]):
                out += np.multiply(K[comp][lo:hi], sj, out=tmp)
            np.matmul(out, inverse, out=halves)
            np.add(halves[0], halves[1], out=yi.view(float))
        y = scipy.fft.ifft(y, axis=2, overwrite_x=True)
        re[:, lo:hi] = y.real[:, :, :ny]
        im[:, lo:hi] = y.imag[:, :, :ny]
    np.matmul(inverse_x, planes.reshape(3, -1, ny * nz), out=h.reshape(3, nx, -1))
    return h


def local_field(params: MaterialParams, m: np.ndarray,
                kernel: DemagKernel | None = None) -> np.ndarray:
    """Pointwise effective-field part f(m) = -q(m2 e2 + m3 e3) + h_ext + h_s,
    built in the array `demag_field` returns (a zero one without h_s). Each
    component adds h_ext_i - q m_i, formed first: f rounds as h_s + (h_ext -
    q m) whichever parts are on. Raises ValueError unless m has four axes,
    the first of length 3."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 4 or m.shape[0] != 3:
        raise ValueError(f"m must have shape (3, nx, ny, nz), got {m.shape}")
    f = demag_field(kernel, m) if params.stray_enabled else np.zeros(m.shape)
    for i, h in enumerate(params.h_ext):
        if i > 0 and params.q != 0.0:
            f[i] += h - params.q * m[i]
        elif h != 0.0:
            f[i] += h
    return f


def energy(params: MaterialParams, grid: Grid, m: np.ndarray,
           kernel: DemagKernel | None = None, *,
           field: np.ndarray | None = None) -> float:
    """Dimensionless free energy of a unit-magnetization field.

    (1/2) sum of [eps |grad_h m|^2 - (f(m) + h_ext).m] per cell volume, f
    from `local_field`: q (m2^2 + m3^2) - 2 h_ext.m - h_s.m in the bracket.
    The exchange gradient uses forward differences across interior faces
    (each face once), which pairs with the mirrored Laplacian under
    summation by parts, and h_s is linear and symmetric in m, so the
    gradient of this functional is exactly -(eps Lap m + f(m)) vol: it is the
    Lyapunov functional of the dynamics the integrators discretize. `field`,
    when given, is taken as f(m) in place of a `local_field` call; it is
    only read, so a state's carried f can be passed. Raises ValueError
    unless m, and `field` when given, have shape (3,) + grid.shape.

    Each exchange term is one difference and one `np.einsum` sum of squares
    per axis: `np.diff` along x and y, and along z one subtraction of each
    plane from the next, laid out plane pair by plane pair. The field term
    is one `np.einsum` of f.m, plus h_ext_c times the sum of m_c for each
    nonzero component, with no f + h_ext array.
    einsum and sum reduce in numpy's own loops, not through the BLAS, so
    the energy, and energy.csv, are the same at any BLAS thread count.
    """
    m = np.asarray(m, dtype=float)
    shape = (3,) + grid.shape
    for name, value in (("m", m), ("field", field)):
        if value is not None and np.shape(value) != shape:
            raise ValueError(f"{name} must have shape {shape}, got {np.shape(value)}")
    mag2 = np.einsum("c...,c...->...", m, m)
    if abs(mag2.max() - 1.0) > 1e-6 or abs(mag2.min() - 1.0) > 1e-6:
        warnings.warn("energy() evaluated on a field that is not unit length",
                      stacklevel=2)
    vol = grid.cell_volume
    total = 0.0
    for axis, (n, h) in enumerate(zip(grid.shape, grid.spacing)):
        if n == 1:
            continue
        if axis < 2:
            d = np.diff(m, axis=axis + 1)
        else:
            # the z differences are laid out plane pair by plane pair: along
            # a film's few z cells np.diff's inner loops are nz - 1 long
            planes = np.moveaxis(m, 3, 0)
            d = np.subtract(planes[1:], planes[:-1], order="C")
        total += 0.5 * params.eps * np.einsum("cxyz,cxyz->", d, d) / (h * h) * vol
    if params.has_local_field:
        f = local_field(params, m, kernel) if field is None else field
        fm = np.einsum("cxyz,cxyz->", f, m)
        # (f + h_ext).m without the sum as an array: h_ext is uniform
        for h_c, m_c in zip(params.h_ext, m):
            if h_c != 0.0:
                fm += h_c * m_c.sum()
        total -= 0.5 * fm * vol
    return float(total)
