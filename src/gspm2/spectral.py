"""Fast solves of (I - a*Lap + b*Lap^2) u = f under mirrored-Neumann stencils.

The cell-centered mirrored Laplacian is exactly diagonalized by the
orthonormal DCT-II/DCT-III pair along each axis, with per-axis eigenvalues
-(4/h^2) sin^2(pi p / (2 n)). A solve is one forward transform, a pointwise
division by the symbol 1 - a*lam + b*lam^2, and one inverse transform. For
a, b >= 0 and lam <= 0 the symbol is >= 1, so the operator is always
invertible and the division is well conditioned.
"""

from __future__ import annotations

import numpy as np
import scipy.fft

from .mesh import Grid, biharmonic, laplacian


def laplacian_eigenvalues(n: int, h: float) -> np.ndarray:
    """Eigenvalues -(4/h^2) sin^2(pi p/(2n)), p = 0..n-1, of the 1D mirrored Laplacian."""
    p = np.arange(n)
    return -(4.0 / (h * h)) * np.sin(np.pi * p / (2.0 * n)) ** 2


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
        # grid axes counted from the end, so a (3, nx, ny, nz) stack transforms
        # per component; length-1 axes transform to themselves: skip them
        self._axes = tuple(ax - 3 for ax, n in enumerate(grid.shape) if n > 1) or (-3,)
        self.solve_count = 0
        self._symbol_key = None
        self._symbol = None

    def forward(self, u: np.ndarray) -> np.ndarray:
        return scipy.fft.dctn(u, type=2, norm="ortho", axes=self._axes)

    def inverse(self, u_hat: np.ndarray) -> np.ndarray:
        return scipy.fft.idctn(u_hat, type=2, norm="ortho", axes=self._axes)

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
    if not (np.isfinite(a) and np.isfinite(b) and a >= 0.0 and b >= 0.0):
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
