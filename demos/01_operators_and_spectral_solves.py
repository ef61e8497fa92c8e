"""Grids, mirrored-Neumann operators, and fast implicit solves.

Walks through the building blocks every integrator relies on: the
cell-centered grid, the Laplacian/biharmonic stencils with mirrored ghost
handling, and the DCT-diagonalized solve of (I - a*Lap + b*Lap^2) u = f,
checked by its residual under those same stencils.
"""

import numpy as np

from gspm2 import (Grid, biharmonic, build_plan, laplacian, norm_inf,
                   sample_scalar, solve)

# a 2D grid: 24 x 24 cells on the unit square, singleton z axis
grid = Grid.rect(24, 24)
print(f"grid {grid.shape}, spacing {grid.spacing[:2]}, "
      f"cell volume {grid.cell_volume:.2e}")

# sample a smooth scalar field at the cell centers
u = sample_scalar(grid, lambda X, Y, Z: np.cos(np.pi * X) * np.cos(2 * np.pi * Y))

# the discrete operators annihilate constants and commute with mirroring
print("laplacian of a constant:", norm_inf(laplacian(grid, np.ones(grid.shape))))
print("biharmonic of a constant:", norm_inf(biharmonic(grid, np.ones(grid.shape))))

# cosine modes are exact eigenvectors: Lap v = lam v, Lap^2 v = lam^2 v
k = 3
v = sample_scalar(grid, lambda X, Y, Z: np.cos(k * np.pi * X))
lam = -(4.0 / grid.hx**2) * np.sin(np.pi * k / (2 * grid.nx)) ** 2
print(f"eigenpair residual (Lap):   {norm_inf(laplacian(grid, v) - lam * v):.2e}")
print(f"eigenpair residual (Lap^2): {norm_inf(biharmonic(grid, v) - lam**2 * v):.2e}")

# implicit solves: one DCT round trip, always invertible for a, b >= 0
plan = build_plan(grid)
a = 0.02          # plays eps * dt
b = a * a         # plays (eps * dt)^2
rhs = u + 0.1 * sample_scalar(grid, lambda X, Y, Z: X * (1 - X))
sol = solve(plan, rhs, a, b)
residual = sol - a * laplacian(grid, sol) + b * biharmonic(grid, sol) - rhs
print(f"solve residual:            {norm_inf(residual):.2e}")

