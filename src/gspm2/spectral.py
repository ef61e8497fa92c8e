"""Fast solves of (I - a*Lap + b*Lap^2) u = f under mirrored-Neumann stencils.

The cell-centered mirrored Laplacian is exactly diagonalized by the
orthonormal DCT-II/DCT-III pair along each axis, with per-axis eigenvalues
-(4/h^2) sin^2(pi p / (2 n)). A solve is one forward transform, a pointwise
division by the symbol 1 - a*lam + b*lam^2, and one inverse transform. For
a, b >= 0 and lam <= 0 the symbol is >= 1, so the operator is always
invertible and the division is well conditioned.

A grid takes one of two transform layouts. Where no axis is longer than
DENSE_AXIS_MAX (a line, a film, a small cube), each axis longer than 1 takes
one BLAS product with the orthonormal DCT-II matrix C (C^T for the inverse),
built in closed form once per length; a plan holds its axes' matrices for
either direction, so a transform looks nothing up. The products run on a
transposed view, each output putting the next axis first: (x, y, z) ->
(y, z, x') -> (z, x', y') -> (x', y', z'). On such axes a pocketfft call
costs more in per-call and per-line overhead than the O(n) products do in
arithmetic.
Any other grid goes through scipy.fft's dctn over every axis longer than 1,
except its last such axis when that axis is short: that one takes a single
product in the grid's own layout, rows times C^T, after the pocketfft axes
in both directions. The two paths agree to rounding (about 1e-15
relative), not bit for bit. Either way a (3, ...) stack is the batch of its
components' transforms, so it matches per-component solves bit for bit.
Tier-1 checks that a film solve is bit for bit the same with one BLAS
thread as with the default pool.

This module is also the one home of the closed-form dense transform
matrices: the DCT-II of the solves, and the real x DFT, the complex z DFT
and the parity (DCT-I/DST-I) matrix of the stray field in `physics`. Each
builder forms its cosines and sines from one integer-reduced phase table,
with a sine that is zero in exact arithmetic an exact 0, and each is cached
per length and returns read-only arrays that its callers share.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import scipy.fft

from .mesh import Grid, is_number


def laplacian_eigenvalues(n: int, h: float) -> np.ndarray:
    """Eigenvalues -(4/h^2) sin^2(pi p/(2n)), p = 0..n-1, of the 1D mirrored Laplacian."""
    p = np.arange(n)
    return -(4.0 / (h * h)) * np.sin(np.pi * p / (2.0 * n)) ** 2


# longest grid axis the solves transform by a dense matrix product; longer
# axes use pocketfft. Measured crossover: a line gains up to about 160
# cells, but a square 2D grid loses from about 120 cells per side. The
# stray field's transforms do not read it
DENSE_AXIS_MAX = 100


# The dense transform matrices (module docstring), all from `_phase_table`.

def _phase_table(rows: np.ndarray, cols: np.ndarray,
                 period: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(cos, sin, phase) of the angles 2 pi phase / period, phase = r c mod
    period, over the integer rows r and columns c: a (len(rows), len(cols))
    table. The phase is reduced as integers, so the angle stays below 2 pi,
    and a sine that is zero in exact arithmetic (phase 0 or a half turn) is
    an exact 0."""
    phase = (rows[:, None] * cols[None, :]) % period
    angle = 2.0 * np.pi * phase / period
    sin = np.where(2 * phase % period == 0, 0.0, np.sin(angle))
    return np.cos(angle), sin, phase


@functools.lru_cache(maxsize=None)
def dct_pair(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The orthonormal DCT-II matrix C[p, j] = s_p cos(pi p (2j+1) / (2n)),
    s_0 = sqrt(1/n) and s_p = sqrt(2/n) otherwise, and its transpose, both
    C-contiguous. Its cosines at a quarter turn are left as rounded (about
    6e-17), as the solves have always taken them. The plans ask only for
    lengths up to DENSE_AXIS_MAX, so the cache stays under 100 entries and
    16 MB."""
    cos, _, _ = _phase_table(np.arange(n), 2 * np.arange(n) + 1, 4 * n)
    C = np.sqrt(2.0 / n) * cos
    C[0] = np.sqrt(1.0 / n)
    CT = np.ascontiguousarray(C.T)
    C.flags.writeable = CT.flags.writeable = False
    return C, CT


@functools.lru_cache(maxsize=None)
def dft_pair(n: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """The DFT of a length-n axis zero-padded to p modes, and the inverse DFT
    truncated to its first n outputs, as real matrices on complex numbers
    stored interleaved (re, im). The forward pair, (2, 1, 2n, p), maps an
    interleaved row to its real part, then its imaginary part; the inverse
    pair, (2, 1, p, 2n), maps a real and an imaginary row to the two halves
    whose sum is the interleaved result. The middle axis lets both broadcast
    over a stack of (rows, .) matrices."""
    cos, sin, _ = _phase_table(np.arange(n), np.arange(p), p)
    forward = np.empty((2, 1, 2 * n, p))
    forward[0, 0, 0::2], forward[0, 0, 1::2] = cos, sin
    forward[1, 0, 0::2], forward[1, 0, 1::2] = -sin, cos
    cos, sin = cos.T / p, sin.T / p
    inverse = np.empty((2, 1, p, 2 * n))
    inverse[0, 0, :, 0::2], inverse[0, 0, :, 1::2] = cos, sin
    inverse[1, 0, :, 0::2], inverse[1, 0, :, 1::2] = -sin, cos
    forward.flags.writeable = inverse.flags.writeable = False
    return forward, inverse


@functools.lru_cache(maxsize=None)
def real_dft_pair(n: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """The real DFT of a length-n axis zero-padded to p, as the real
    (2(p//2 + 1), n) matrix whose rows are, mode by mode, the cosine and the
    minus sine row, and its inverse with a minus sign: the irfft of those
    modes truncated to its first n outputs, negated, as the real
    (n, 2(p//2 + 1)) matrix. The inverse weights the modes 1, 2, ..., 2, 1
    over p. The sines of the modes that are real, 0 and p/2, are exact
    zeros, so their imaginary parts are dropped as irfft drops them."""
    cos, sin, _ = _phase_table(np.arange(p // 2 + 1), np.arange(n), p)
    forward = np.empty((2 * len(cos), n))
    forward[0::2], forward[1::2] = cos, -sin
    # p is even or 1, and on a single cell the one mode is both
    weight = np.full((len(cos), 1), 2.0 / p)
    weight[0] = weight[p // 2] = 1.0 / p
    inverse = np.empty((n, 2 * len(cos)))
    inverse[:, 0::2], inverse[:, 1::2] = (-weight * cos).T, (weight * sin).T
    forward.flags.writeable = inverse.flags.writeable = False
    return forward, inverse


@functools.lru_cache(maxsize=None)
def parity_matrix(p: int, odd: bool, sign: float) -> np.ndarray:
    """The real (n + 1, p) matrix, times `sign`, that takes the values d =
    0..n of a half line to all p = 2n modes of the spectrum of its even or
    odd extension: w_d cos(pi k d / n) where the extension is even, w_d being
    1 at d = 0 and n and 2 between (the DCT-I), and 2 sin(pi k d / n) where
    it is odd, rows d = 0 and n zero (the DST-I of the interior, without its
    -i). The modes k > n come out as the fill from 2n - k with the parity
    sign, and every entry that is zero in exact arithmetic is an exact zero:
    the cosines at a quarter turn too. On an axis of length 1 (p = 1) the
    line is its own spectrum, zero where odd."""
    if p == 1:
        matrix = np.array([[0.0 if odd else sign]])
    else:
        n = p // 2
        cos, sin, phase = _phase_table(np.arange(n + 1), np.arange(p), p)
        if odd:
            matrix = 2.0 * sin
        else:
            matrix = np.where(2 * phase % p == n, 0.0, 2.0 * cos)
            matrix[[0, n]] /= 2.0
        matrix *= sign
    matrix.flags.writeable = False
    return matrix


def _rotated(u: np.ndarray, matrices: tuple) -> np.ndarray:
    """Transform u along its grid axes, x to z, by the given (length,
    matrix) pairs: C^T for the forward transform, C for the inverse, one
    product per axis.

    The axis being transformed is first in memory, so the product takes the
    grid as the transpose of an (n, rest) matrix, times C^T (or C) on the
    right, and its (rest, n) result puts the next axis first: (x, y, z) ->
    (y, z, x') -> (z, x', y') -> (x', y', z'). After the last axis the
    layout is the grid's again. Axes of length 1 transform to themselves and
    are left out of `matrices`; with none left, the result is a view of u.
    The leading (component) axes are the product's batch, so a stack
    matches its components bit for bit.
    """
    shape, lead = u.shape, u.shape[:-3]
    for n, matrix in matrices:
        u = u.reshape(lead + (n, -1)).swapaxes(-1, -2) @ matrix
    return u.reshape(shape)


@functools.lru_cache(maxsize=None)
def _axis_layout(shape: tuple) -> tuple[tuple, tuple, tuple | None]:
    """How a grid of `shape` is transformed: (the axes left to pocketfft,
    counted from the end; the lengths of the axes `_rotated` takes, x to z;
    the grid shape seen by the trailing product, or None).

    Axes of length 1 transform to themselves and are skipped. A grid with
    no axis longer than DENSE_AXIS_MAX takes the rotated products. Any other
    grid goes to pocketfft, except its last axis longer than 1 when that
    axis is short: it takes one product, rows times C^T, on the grid seen as
    its axes up to that one, padded in front with 1s to three (the axes
    after it have length 1). The transforms act on the last three axes, so
    a (3, nx, ny, nz) stack goes per component. Cached per shape: the
    studies build a plan for every run, and the cache keeps that about 4 us
    cheaper on small grids.
    """
    axes = [ax for ax, n in enumerate(shape) if n > 1]
    if all(shape[ax] <= DENSE_AXIS_MAX for ax in axes):
        return (), tuple(shape[ax] for ax in axes), None
    tail = None
    if shape[axes[-1]] <= DENSE_AXIS_MAX:
        ax = axes.pop()
        tail = (1,) * (2 - ax) + shape[:ax + 1]
    return tuple(ax - 3 for ax in axes), (), tail


class SpectralPlan:
    """Precomputed DCT diagonalization of the mirrored Laplacian on one grid.

    Immutable after construction apart from `solve_count`, a plain call
    counter used by tests to pin the per-step solve budget of the schemes,
    and the most recent solve symbol, kept with its (a, b) so that the
    solves of one step share it. One entry, not a table: a CFL bisection
    solves with a fresh dt on every probe. Not thread safe. Raises
    TypeError unless `grid` is a Grid.
    """

    def __init__(self, grid: Grid):
        if not isinstance(grid, Grid):
            raise TypeError(f"grid must be a Grid, got {type(grid).__name__}")
        self.grid = grid
        self.lam_x = laplacian_eigenvalues(grid.nx, grid.hx)
        self.lam_y = laplacian_eigenvalues(grid.ny, grid.hy)
        self.lam_z = laplacian_eigenvalues(grid.nz, grid.hz)
        self.lam = (
            self.lam_x[:, None, None]
            + self.lam_y[None, :, None]
            + self.lam_z[None, None, :]
        )
        self._fft_axes, rotated, self._tail = _axis_layout(grid.shape)
        # the rotated products' (length, matrix) pairs of either direction
        self._forward_matrices = tuple((n, dct_pair(n)[1]) for n in rotated)
        self._inverse_matrices = tuple((n, dct_pair(n)[0]) for n in rotated)
        self.solve_count = 0
        self._symbol_key = None
        self._symbol = None

    def forward(self, u: np.ndarray) -> np.ndarray:
        if not self._fft_axes:
            return _rotated(u, self._forward_matrices)
        u = scipy.fft.dctn(u, type=2, norm="ortho", axes=self._fft_axes)
        return u if self._tail is None else self._trailing(u, inverse=False)

    def inverse(self, u_hat: np.ndarray) -> np.ndarray:
        if not self._fft_axes:
            return _rotated(u_hat, self._inverse_matrices)
        u_hat = scipy.fft.idctn(u_hat, type=2, norm="ortho", axes=self._fft_axes)
        return u_hat if self._tail is None else self._trailing(u_hat, inverse=True)

    def _trailing(self, u: np.ndarray, inverse: bool) -> np.ndarray:
        """The trailing axis's product in the grid's own layout: rows times
        C^T, or times C if `inverse`, batched over the leading axes."""
        C, CT = dct_pair(self._tail[-1])
        v = u.reshape(u.shape[:-3] + self._tail)
        return (v @ (C if inverse else CT)).reshape(u.shape)

    def symbol(self, a: float, b: float) -> np.ndarray:
        """1 - a*lam + b*lam^2 on every mode; raises ValueError unless it is
        >= 1 everywhere (the invertibility guarantee the solves rely on)."""
        if self._symbol_key != (a, b):
            sym = 1.0 - a * self.lam + b * self.lam * self.lam
            if not sym.min() >= 1.0 - 1e-12:
                raise ValueError(f"solve symbol minimum {sym.min():.6g} below 1 "
                                 f"for a={a}, b={b}")
            sym.flags.writeable = False
            self._symbol_key, self._symbol = (a, b), sym
        return self._symbol


def build_plan(grid: Grid) -> SpectralPlan:
    return SpectralPlan(grid)


def solve(plan: SpectralPlan, f: np.ndarray, a: float, b: float = 0.0) -> np.ndarray:
    """Solve (I - a*Lap_h + b*Lap_h^2) u = f for a scalar field of the grid's
    shape, or for each component of a (3, nx, ny, nz) stack.

    b = 0 selects the backward-Euler heat operator; a = b = 0 is the
    identity. A stack counts as one solve per component. Raises ValueError
    unless a and b are finite numbers >= 0 (a bool, a string or an integer
    beyond the float range is not one), or when the trailing shape of f is
    not the grid's.
    """
    if not (is_number(a) and is_number(b) and math.isfinite(a) and math.isfinite(b)
            and a >= 0.0 and b >= 0.0):
        raise ValueError(f"coefficients must be finite numbers >= 0, got a={a!r}, b={b!r}")
    f = np.asarray(f, dtype=float)
    if f.shape[-3:] != plan.grid.shape:
        raise ValueError(f"field of shape {f.shape} does not end in the grid "
                         f"shape {plan.grid.shape}")
    sym = plan.symbol(a, b)
    plan.solve_count += f.size // plan.grid.n_cells
    return plan.inverse(plan.forward(f) / sym)

