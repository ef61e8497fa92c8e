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
built in closed form once per length. The products run on a transposed
view, each output putting the next axis first: (x, y, z) -> (y, z, x') ->
(z, x', y') -> (x', y', z'). On such axes a pocketfft call costs more in
per-call and per-line overhead than the O(n) products do in arithmetic.
Any other grid goes through scipy.fft's dctn over every axis longer than 1,
except its last such axis when that axis is short: that one takes a single
product in the grid's own layout, rows times C^T, after the pocketfft axes
in both directions. The two paths agree to rounding (about 1e-15
relative), not bit for bit. Either way a (3, ...) stack is the batch of its
components' transforms, so it matches per-component solves bit for bit.
Tier-1 checks that a film solve is bit for bit the same with one BLAS
thread as with the default pool.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import scipy.fft

from .mesh import Grid, biharmonic, laplacian


def laplacian_eigenvalues(n: int, h: float) -> np.ndarray:
    """Eigenvalues -(4/h^2) sin^2(pi p/(2n)), p = 0..n-1, of the 1D mirrored Laplacian."""
    p = np.arange(n)
    return -(4.0 / (h * h)) * np.sin(np.pi * p / (2.0 * n)) ** 2


# longest grid axis transformed by a dense matrix product; longer axes use
# pocketfft. Measured crossover: a line gains up to about 160 cells, but a
# square 2D grid loses from about 120 cells per side
DENSE_AXIS_MAX = 100


@functools.lru_cache(maxsize=None)
def _dct_pair(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The orthonormal DCT-II matrix of length n and its transpose, both
    C-contiguous and read-only. The plans ask only for lengths up to
    DENSE_AXIS_MAX, so the cache stays under 100 entries and 16 MB."""
    p = np.arange(n)[:, None]
    j = np.arange(n)[None, :]
    # the integer phase reduced mod 4n keeps the cosine's argument below 2 pi
    C = np.sqrt(2.0 / n) * np.cos(np.pi * ((p * (2 * j + 1)) % (4 * n)) / (2 * n))
    C[0] = np.sqrt(1.0 / n)
    CT = np.ascontiguousarray(C.T)
    C.flags.writeable = CT.flags.writeable = False
    return C, CT


def dct_matrix(n: int) -> np.ndarray:
    """Orthonormal DCT-II matrix C[p, j] = s_p cos(pi p (2j+1) / (2n)), with
    s_0 = sqrt(1/n) and s_p = sqrt(2/n) otherwise; built once per length."""
    return _dct_pair(n)[0]


def _rotated(u: np.ndarray, lengths: tuple, inverse: bool) -> np.ndarray:
    """Transform u along its grid axes of the given lengths, x to z, by the
    DCT-II matrix C or, if `inverse`, by C^T: one product per axis.

    The axis being transformed is first in memory, so the product takes the
    grid as the transpose of an (n, rest) matrix, times C^T (or C) on the
    right, and its (rest, n) result puts the next axis first: (x, y, z) ->
    (y, z, x') -> (z, x', y') -> (x', y', z'). After the last axis the
    layout is the grid's again. Axes of length 1 transform to themselves and
    are left out of `lengths`; with none left, the result is a view of u.
    The leading (component) axes are the product's batch, so a stack
    matches its components bit for bit.
    """
    shape, lead = u.shape, u.shape[:-3]
    for n in lengths:
        C, CT = _dct_pair(n)
        u = u.reshape(lead + (n, -1)).swapaxes(-1, -2) @ (C if inverse else CT)
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
    solves with a fresh dt on every probe. Not thread safe.
    """

    def __init__(self, grid: Grid):
        self.grid = grid
        self.lam_x = laplacian_eigenvalues(grid.nx, grid.hx)
        self.lam_y = laplacian_eigenvalues(grid.ny, grid.hy)
        self.lam_z = laplacian_eigenvalues(grid.nz, grid.hz)
        self.lam = (
            self.lam_x[:, None, None]
            + self.lam_y[None, :, None]
            + self.lam_z[None, None, :]
        )
        self._fft_axes, self._rotated, self._tail = _axis_layout(grid.shape)
        self.solve_count = 0
        self._symbol_key = None
        self._symbol = None

    def forward(self, u: np.ndarray) -> np.ndarray:
        if not self._fft_axes:
            return _rotated(u, self._rotated, inverse=False)
        u = scipy.fft.dctn(u, type=2, norm="ortho", axes=self._fft_axes)
        return u if self._tail is None else self._trailing(u, inverse=False)

    def inverse(self, u_hat: np.ndarray) -> np.ndarray:
        if not self._fft_axes:
            return _rotated(u_hat, self._rotated, inverse=True)
        u_hat = scipy.fft.idctn(u_hat, type=2, norm="ortho", axes=self._fft_axes)
        return u_hat if self._tail is None else self._trailing(u_hat, inverse=True)

    def _trailing(self, u: np.ndarray, inverse: bool) -> np.ndarray:
        """The trailing axis's product in the grid's own layout: rows times
        C^T, or times C if `inverse`, batched over the leading axes."""
        C, CT = _dct_pair(self._tail[-1])
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
    for negative or non-finite coefficients, or when the trailing shape of f
    is not the grid's.
    """
    if not (math.isfinite(a) and math.isfinite(b) and a >= 0.0 and b >= 0.0):
        raise ValueError(f"coefficients must be finite and >= 0, got a={a}, b={b}")
    f = np.asarray(f, dtype=float)
    if f.shape[-3:] != plan.grid.shape:
        raise ValueError(f"field of shape {f.shape} does not end in the grid "
                         f"shape {plan.grid.shape}")
    sym = plan.symbol(a, b)
    plan.solve_count += f.size // plan.grid.n_cells
    return plan.inverse(plan.forward(f) / sym)


DENSE_MAX_CELLS = 4096


def dense_operator_matrix(grid: Grid, a: float, b: float = 0.0) -> np.ndarray:
    """Assemble the dense matrix of (I - a*Lap + b*Lap^2) column by column.

    Small grids only; used as the direct-solve oracle for the spectral path.
    """
    n = grid.n_cells
    if n > DENSE_MAX_CELLS:
        raise ValueError(f"grid has {n} cells, dense assembly capped at {DENSE_MAX_CELLS}")
    A = np.empty((n, n))
    e = np.zeros(grid.shape)
    for col in range(n):
        e.flat[col] = 1.0
        image = e - a * laplacian(grid, e) + b * biharmonic(grid, e)
        A[:, col] = image.ravel()
        e.flat[col] = 0.0
    return A


def solve_dense_oracle(grid: Grid, f: np.ndarray, a: float, b: float = 0.0) -> np.ndarray:
    """Direct dense solve of the same operator (test oracle, small grids)."""
    A = dense_operator_matrix(grid, a, b)
    u = np.linalg.solve(A, np.asarray(f, dtype=float).ravel())
    return u.reshape(grid.shape)
