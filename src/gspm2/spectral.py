"""Fast solves of (I - a*Lap + b*Lap^2) u = f under mirrored-Neumann stencils.

The cell-centered mirrored Laplacian is exactly diagonalized by the
orthonormal DCT-II/DCT-III pair along each axis, with per-axis eigenvalues
-(4/h^2) sin^2(pi p / (2 n)). A solve is one forward transform, a pointwise
division by the symbol 1 - a*lam + b*lam^2, and one inverse transform. For
a, b >= 0 and lam <= 0 the symbol is >= 1, so the operator is always
invertible and the division is well conditioned.

A grid axis of at most DENSE_AXIS_MAX cells is transformed by a BLAS
product with the orthonormal DCT-II matrix C (C^T for the inverse), built in
closed form once per length at the first transform that needs it. On such
axes a pocketfft call costs more in per-call and per-line overhead than the
O(n) products do in arithmetic. Longer axes go through scipy.fft's dctn.
The two paths agree to rounding (about 1e-15 relative), not bit for bit.

A grid with at least two axes longer than 1 and none longer than
DENSE_AXIS_MAX (a film, a 2D grid, a small cube) takes one product per axis
on a transposed view, each output putting the next axis first: (x, y, z) ->
(y, z, x') -> (z, x', y') -> (x', y', z'). The middle axis of a film is then
one product, not one thin product per x-cell. A line, or a grid with a
pocketfft axis, takes one product per dense axis in the grid's own layout.
Either way a (3, ...) stack is the batch of its components' products, so it
matches per-component solves bit for bit. Tier-1 checks that a film solve
is bit for bit the same with one BLAS thread as with the default pool.
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


def _dense_along(u: np.ndarray, M: np.ndarray, MT: np.ndarray,
                 part: tuple, right: bool) -> np.ndarray:
    """Apply the square matrix M, whose transpose is MT, along one grid axis
    of u: its grid shape seen as `part`, with the axis last (`right`, a
    product u @ MT) or in the middle (M @ u).

    The leading (component) axes stay outer, so a stack makes the same
    products as each of its components alone and matches them bit for bit.
    """
    v = u.reshape(u.shape[:-3] + part)
    return (v @ MT if right else M @ v).reshape(u.shape)


def _rotated(u: np.ndarray, lengths: tuple, inverse: bool) -> np.ndarray:
    """Transform u along its grid axes of the given lengths, x to z, by the
    DCT-II matrix C or, if `inverse`, by C^T: one product per axis.

    The axis being transformed is first in memory, so the product takes the
    grid as the transpose of an (n, rest) matrix, times C^T (or C) on the
    right, and its (rest, n) result puts the next axis first: (x, y, z) ->
    (y, z, x') -> (z, x', y') -> (x', y', z'). After the last axis the
    layout is the grid's again. The leading (component) axes are the
    product's batch, so a stack matches its components bit for bit.
    """
    shape, lead = u.shape, u.shape[:-3]
    for n in lengths:
        C, CT = _dct_pair(n)
        u = u.reshape(lead + (n, -1)).swapaxes(-1, -2) @ (C if inverse else CT)
    return u.reshape(shape)


@functools.lru_cache(maxsize=None)
def _axis_layout(shape: tuple) -> tuple[tuple, tuple, tuple]:
    """How a grid of `shape` is transformed: (the axes left to pocketfft,
    counted from the end; the lengths of the axes `_rotated` takes, x to z;
    each other dense axis as (length, grid shape seen by the product,
    whether the axis is last in it)).

    Length-1 axes transform to themselves and are skipped. A grid of two or
    three axes, none longer than DENSE_AXIS_MAX, takes the rotated products.
    A line, or a grid with a pocketfft axis, takes one `_dense_along`
    product per dense axis: on a line that product is the rotated one, but
    `_dense_along` reaches it with less per-call work (12.6 against 13.6 us
    for a 40-cell stacked solve), which the tens-of-cells studies notice.
    The transforms act on the last three axes, so a (3, nx, ny, nz) stack
    goes per component. Cached per shape: the studies build a plan for
    every run, and the cache keeps that about 4 us cheaper on small grids.
    """
    axes = tuple(ax for ax, n in enumerate(shape) if n > 1) or (0,)
    fft_axes = tuple(ax - 3 for ax in axes if shape[ax] > DENSE_AXIS_MAX)
    if len(axes) > 1 and not fft_axes:
        return (), tuple(shape[ax] for ax in axes), ()
    dense_axes = []
    for ax in axes:
        n, before, after = shape[ax], shape[:ax], math.prod(shape[ax + 1:])
        if n > DENSE_AXIS_MAX:
            continue
        if after == 1:  # rows times C^T, batched over the axis before
            part = (1,) * (2 - ax) + before + (n,)
        else:           # C times the (n, after) slab of each cell before
            part = (math.prod(before), n, after)
        dense_axes.append((n, part, after == 1))
    return fft_axes, (), tuple(dense_axes)


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
        self._fft_axes, self._rotated, self._dense_axes = _axis_layout(grid.shape)
        self.solve_count = 0
        self._symbol_key = None
        self._symbol = None

    def forward(self, u: np.ndarray) -> np.ndarray:
        if self._rotated:
            return _rotated(u, self._rotated, inverse=False)
        if self._fft_axes:
            u = scipy.fft.dctn(u, type=2, norm="ortho", axes=self._fft_axes)
        for n, part, right in self._dense_axes:
            C, CT = _dct_pair(n)
            u = _dense_along(u, C, CT, part, right)
        return u

    def inverse(self, u_hat: np.ndarray) -> np.ndarray:
        if self._rotated:
            return _rotated(u_hat, self._rotated, inverse=True)
        if self._fft_axes:
            u_hat = scipy.fft.idctn(u_hat, type=2, norm="ortho", axes=self._fft_axes)
        for n, part, right in self._dense_axes:
            C, CT = _dct_pair(n)
            u_hat = _dense_along(u_hat, CT, C, part, right)
        return u_hat

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
