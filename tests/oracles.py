"""Direct dense solves of (I - a*Lap + b*Lap^2) u = f: the reference the
spectral solves are checked against, on small grids."""

import numpy as np

from gspm2.mesh import Grid, biharmonic, laplacian

DENSE_MAX_CELLS = 4096


def dense_operator_matrix(grid: Grid, a: float, b: float = 0.0) -> np.ndarray:
    """Assemble the dense matrix of (I - a*Lap + b*Lap^2) column by column.

    Small grids only: raises ValueError above DENSE_MAX_CELLS cells.
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
    """Direct dense solve of the same operator (small grids)."""
    A = dense_operator_matrix(grid, a, b)
    u = np.linalg.solve(A, np.asarray(f, dtype=float).ravel())
    return u.reshape(grid.shape)
