"""Second-order Gauss-Seidel projection solvers for magnetization dynamics.

The package is organized as a small numpy/scipy library:

- :mod:`gspm2.mesh` — cell-centered grids, mirrored-Neumann Laplacian and
  biharmonic operators, field norms;
- :mod:`gspm2.spectral` — DCT-diagonalized solves of (I - a*Lap + b*Lap^2),
  and the closed-form dense transform matrices the solves and the stray
  field share;
- :mod:`gspm2.physics` — dimensionless material model, Newell demag tensor,
  stray field, free energy;
- :mod:`gspm2.schemes` — time integrators (first-order Gauss-Seidel, plain
  second-order, five-solve and three-solve Gauss-Seidel variants, coupled
  BDF2 reference);
- :mod:`gspm2.manufactured` — closed-form test solutions and sources;
- :mod:`gspm2.convergence` — convergence studies and the CFL stability scan;
- :mod:`gspm2.config` / :mod:`gspm2.io` / :mod:`gspm2.cli` — the `gspm2`
  command-line harness.
"""

from .config import ExperimentConfig, ConfigError
from .convergence import (ConvergenceReport, IntegrationResult, StabilityReport,
                          classify_stability, integrate, observed_order,
                          run_space_convergence, run_time_convergence,
                          run_wall_reference_convergence, stability_scan,
                          wall_reference_solution)
from .manufactured import ManufacturedCase, case_1d, case_3d, neel_wall_initial
from .mesh import (Grid, biharmonic, laplacian, norm_inf, norm_l2, sample_scalar,
                   sample_vector)
from .physics import (MU0, DemagKernel, MaterialParams, PhysicalConstants,
                      build_demag_kernel, demag_field, demag_tensor_entry,
                      energy, local_field, nondimensionalize)
from .schemes import (BlowUpError, KrylovError, SchemeState,
                      bdf2_reference_step, extrapolate, gspm1_step, project,
                      scheme_a_step, scheme_b_init, scheme_b_step, si2_step,
                      unit_length_deviation)
from .spectral import SpectralPlan, build_plan, laplacian_eigenvalues, solve

__version__ = "0.1.0"

__all__ = [
    "BlowUpError", "ConfigError", "ConvergenceReport", "DemagKernel",
    "ExperimentConfig", "Grid", "IntegrationResult", "KrylovError", "MU0",
    "ManufacturedCase", "MaterialParams", "PhysicalConstants", "SchemeState",
    "SpectralPlan", "StabilityReport", "bdf2_reference_step", "biharmonic",
    "build_demag_kernel", "build_plan", "case_1d", "case_3d",
    "classify_stability", "demag_field", "demag_tensor_entry", "energy",
    "extrapolate", "gspm1_step", "integrate", "laplacian",
    "laplacian_eigenvalues", "local_field", "neel_wall_initial",
    "nondimensionalize", "norm_inf", "norm_l2", "observed_order", "project",
    "run_space_convergence", "run_time_convergence",
    "run_wall_reference_convergence", "sample_scalar", "sample_vector",
    "scheme_a_step", "scheme_b_init", "scheme_b_step", "si2_step", "solve",
    "stability_scan", "unit_length_deviation", "wall_reference_solution",
]
