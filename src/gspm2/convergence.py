"""Convergence studies against exact or reference solutions, and the CFL scanner.

`integrate` is the shared driver: it bootstraps two-level schemes with one
first-order step, advances to the terminal time, and tracks the worst
post-projection unit-length deviation so the projection invariant can be
asserted across whole studies.

The studies share one set-up and one measurement: `_case_start` builds a
manufactured case's grid, parameters and exact m0 at one mesh size (temporal
and spatial studies, stability probes), and `ConvergenceReport.add` records
a run's errors in both norms and its unit deviation (all three studies).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .manufactured import ManufacturedCase, neel_wall_initial
from .mesh import Grid, is_number, norm_inf, norm_l2, sample_vector
from .physics import MaterialParams
from .schemes import (BlowUpError, SchemeState, bdf2_reference_step, gspm1_step,
                      scheme_a_step, scheme_b_step, si2_step,
                      unit_length_deviation)
from .spectral import build_plan

_STEPPERS = {
    "gspm1": gspm1_step,
    "si2": si2_step,
    "scheme-a": scheme_a_step,
    "scheme-b": scheme_b_step,
    "bdf2-ref": bdf2_reference_step,
}


@dataclass
class IntegrationResult:
    """A run's final state and its worst unit deviations over all steps:
    after each projection (`max_unit_deviation`) and before it
    (`max_projection_deviation`, the steps' health signal)."""

    state: SchemeState
    max_unit_deviation: float
    n_steps: int
    solve_count: int
    max_projection_deviation: float = 0.0


def integrate(scheme: str, m0: np.ndarray, grid: Grid, params: MaterialParams,
              dt: float, n_steps: int, *, plan=None, kernel=None, source=None,
              on_step=None, step_kwargs=None) -> IntegrationResult:
    """Advance n_steps of size dt from m0 with the named scheme.

    Every scheme takes its first step with the first-order method (one such
    step costs only O(dt^2) globally); the three-solve scheme's first own
    step initializes its lagged fields from the first two levels.
    With a local field, the first step evaluates f(m0), and each step then
    evaluates f once, on its projected result.
    `on_step(state)` is called after every step; `step_kwargs` are forwarded
    to the named scheme's stepper (not the bootstrap), e.g. a Krylov `tol`.
    Raises ValueError unless m0 is a finite array of shape (3,) + grid.shape.
    """
    # a tuple, not the dict: an unhashable name is unknown, not a TypeError
    if scheme not in tuple(_STEPPERS):
        raise ValueError(f"unknown scheme {scheme!r}, expected one of {tuple(_STEPPERS)}")
    if (isinstance(n_steps, bool) or not isinstance(n_steps, (int, np.integer))
            or n_steps < 0):
        raise ValueError(f"n_steps must be an integer >= 0, got {n_steps!r}")
    if not (is_number(dt) and np.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and positive, got {dt!r}")
    m0 = np.asarray(m0, dtype=float)
    if m0.shape != (3,) + grid.shape or not np.isfinite(m0).all():
        raise ValueError(f"m0 must be a finite array of shape {(3,) + grid.shape}, "
                         f"got one of shape {m0.shape}")
    if plan is None:
        plan = build_plan(grid)
    stepper = _STEPPERS[scheme]
    state = SchemeState.from_initial(m0)
    solves_before = plan.solve_count
    max_dev = max_projection = 0.0
    for k in range(n_steps):
        if k == 0:
            state = gspm1_step(state, params, plan, dt, kernel=kernel, source=source)
        else:
            state = stepper(state, params, plan, dt, kernel=kernel, source=source,
                            **(step_kwargs or {}))
        max_dev = max(max_dev, unit_length_deviation(state.m_curr))
        max_projection = max(max_projection, state.projection_deviation)
        if on_step is not None:
            on_step(state)
    return IntegrationResult(state=state, max_unit_deviation=max_dev,
                             n_steps=n_steps,
                             solve_count=plan.solve_count - solves_before,
                             max_projection_deviation=max_projection)


def observed_order(points) -> float:
    """Least-squares slope of log(error) against log(step size); ValueError
    unless the points hold at least two distinct step sizes."""
    pts = [(float(s), float(e)) for s, e in points]
    if len({s for s, _ in pts}) < 2:
        raise ValueError(f"need at least 2 distinct step sizes to fit an order, "
                         f"got {[s for s, _ in pts]}")
    for s, e in pts:
        if not (s > 0 and e > 0):
            raise ValueError(f"steps and errors must be positive, got ({s}, {e})")
    x = np.log([s for s, _ in pts])
    y = np.log([e for _, e in pts])
    return float(np.polyfit(x, y, 1)[0])


@dataclass
class ConvergenceReport:
    """Error-versus-resolution table with fitted orders in both norms."""

    scheme: str
    variable: str                      # "dt" or "h"
    points: list                       # (step, error_inf, error_l2)
    order_inf: float = 0.0
    order_l2: float = 0.0
    max_unit_deviation: float = 0.0

    def add(self, step: float, grid: Grid, result: IntegrationResult,
            m_ref: np.ndarray):
        """Record one run: its errors against m_ref in both norms at this
        step size, and its worst unit deviation."""
        diff = result.state.m_curr - m_ref
        self.points.append((step, norm_inf(diff), norm_l2(grid, diff)))
        self.max_unit_deviation = max(self.max_unit_deviation,
                                      result.max_unit_deviation)

    def fit(self):
        self.order_inf = observed_order([(s, ei) for s, ei, _ in self.points])
        self.order_l2 = observed_order([(s, el) for s, _, el in self.points])
        return self

    def to_dict(self) -> dict:
        return {
            "scheme": self.scheme,
            "variable": self.variable,
            "points": [
                {"step": s, "error_inf": ei, "error_l2": el}
                for s, ei, el in self.points
            ],
            "order": self.order_inf,
            "order_inf": self.order_inf,
            "order_l2": self.order_l2,
            "max_unit_deviation": self.max_unit_deviation,
        }


def cells_across(length: float, h: float) -> int:
    """Cells of width h across `length`; ValueError unless h divides it (to
    1e-9 relative). The studies and the config checks share this rule."""
    n = round(length / h)
    if abs(n * h - length) > 1e-9 * length:
        raise ValueError(f"mesh size {h} does not divide the domain length {length}")
    return n


def _case_start(case: ManufacturedCase, dx: float) -> tuple:
    """(grid, params, m0): the unit line or cube at mesh size dx, the case's
    material parameters and its exact field at t = 0."""
    n = cells_across(1.0, dx)
    grid = Grid.line(n) if case.dimension == 1 else Grid.cube(n)
    m0 = sample_vector(grid, lambda X, Y, Z: case.exact(X, Y, Z, 0.0))
    return grid, MaterialParams(eps=1.0, alpha=case.alpha), m0


def run_time_convergence(scheme: str, case: ManufacturedCase, dx: float,
                         dt_list, t_final: float) -> ConvergenceReport:
    """Errors against the exact solution at t_final for several step sizes."""
    grid, params, m0 = _case_start(case, dx)
    plan = build_plan(grid)
    report = ConvergenceReport(scheme=scheme, variable="dt", points=[])
    for dt in dt_list:
        res = integrate(scheme, m0, grid, params, dt, round(t_final / dt),
                        plan=plan, source=case.source)
        report.add(dt, grid, res, case.exact(*grid.centers, res.state.t))
    return report.fit()


def run_space_convergence(scheme: str, case: ManufacturedCase, dx_list,
                          dt: float, t_final: float) -> ConvergenceReport:
    """Errors against the exact solution at t_final for several mesh sizes."""
    report = ConvergenceReport(scheme=scheme, variable="h", points=[])
    for dx in dx_list:
        grid, params, m0 = _case_start(case, dx)
        res = integrate(scheme, m0, grid, params, dt, round(t_final / dt),
                        source=case.source)
        report.add(dx, grid, res, case.exact(*grid.centers, res.state.t))
    return report.fit()


def run_wall_reference_convergence(scheme: str, *, alpha: float = 0.01,
                                   dx: float = 0.1, domain=(1.0, 0.2),
                                   t_final: float = 4.0e-5,
                                   dt_divisors=(10, 20, 40, 80),
                                   ref_divisor: int = 5000,
                                   reference: np.ndarray | None = None) -> ConvergenceReport:
    """Source-free 2D wall relaxation measured against a fine reference run.

    The reference trajectory comes from the coupled BDF2 integrator at
    t_final/ref_divisor (pass `reference` to reuse one across schemes).
    Raises ValueError unless dx divides both domain lengths.
    """
    lx, ly = domain
    grid = Grid.rect(cells_across(lx, dx), cells_across(ly, dx), lx, ly)
    plan = build_plan(grid)
    params = MaterialParams(eps=1.0, alpha=alpha)
    m0 = sample_vector(grid, neel_wall_initial(eta=dx))
    if reference is None:
        reference = wall_reference_solution(grid, params, t_final, ref_divisor,
                                            m0=m0, plan=plan)
    report = ConvergenceReport(scheme=scheme, variable="dt", points=[])
    for div in dt_divisors:
        dt = t_final / div
        report.add(dt, grid, integrate(scheme, m0, grid, params, dt, div, plan=plan),
                   reference)
    return report.fit()


# Krylov tolerance of the wall reference, well below the per-step default so
# the accumulated solver noise (about ref_divisor * tol) stays under the
# smallest errors being measured against the reference
WALL_REFERENCE_TOL = 5e-14


def wall_reference_solution(grid: Grid, params: MaterialParams, t_final: float,
                            ref_divisor: int, *, m0=None, plan=None) -> np.ndarray:
    """Fine-step coupled-BDF2 trajectory used as the 2D benchmark reference,
    solved to the Krylov tolerance WALL_REFERENCE_TOL."""
    if m0 is None:
        m0 = sample_vector(grid, neel_wall_initial(eta=grid.hx))
    res = integrate("bdf2-ref", m0, grid, params, t_final / ref_divisor,
                    ref_divisor, plan=plan, step_kwargs={"tol": WALL_REFERENCE_TOL})
    return res.state.m_curr


@dataclass
class StabilityRow:
    h: float
    dt_stable: float               # final bisection midpoint
    bracket: tuple                 # (largest known-stable dt, smallest known-unstable dt)
    probes: list = field(default_factory=list)   # (dt, stable?) evidence

    def to_dict(self) -> dict:
        return {"h": self.h, "dt_stable": self.dt_stable,
                "bracket_stable": self.bracket[0],
                "bracket_unstable": self.bracket[1],
                "probes": [{"dt": d, "stable": s} for d, s in self.probes]}


@dataclass
class StabilityReport:
    scheme: str
    alpha: float
    t_final: float
    rows: list

    def to_dict(self) -> dict:
        return {"scheme": self.scheme, "alpha": self.alpha,
                "t_final": self.t_final,
                "rows": [r.to_dict() for r in self.rows]}


def classify_stability(scheme: str, case: ManufacturedCase, h: float, dt: float,
                       t_final: float = 1.0) -> bool:
    """Run the sourced 1D benchmark to t_final; unstable iff the run blows up.

    Blow-up means the steppers' own detector fires: non-finite values,
    pre-projection magnitudes beyond 10, or a projection magnitude collapse.
    "Stable" means only that: a bounded run, not an accurate one. The
    projection keeps |m| = 1, so a scheme can stay bounded while losing the
    solution. At alpha = 1 and h = 0.025 the five-solve scheme's max error
    against the closed form is 4.2e-4 at dt = 0.1 h^2 but about 1.07 from
    0.25 h^2 on, and it is classified stable at all of these steps.

    A run that returns is finite: it takes at least one step, and every
    step ends in the projection, which raises BlowUpError on a non-finite
    value.
    """
    grid, params, m0 = _case_start(case, h)
    try:
        integrate(scheme, m0, grid, params, dt, max(1, round(t_final / dt)),
                  source=case.source)
    except BlowUpError:
        return False
    return True


def stability_scan(scheme: str, case: ManufacturedCase, h_list, *,
                   t_final: float = 1.0, cfl_bracket=(0.125, 1.0),
                   rounds: int = 6) -> StabilityReport:
    """Bisect the largest stable dt per mesh size.

    The bracket is given as multiples of h^2: dt in [lo*h^2, hi*h^2] must
    straddle the threshold or the scan refuses to run. Geometric bisection
    (>= 6 rounds) narrows the bracket well below the factor-of-two level at
    which CFL constants are quoted.
    """
    lo_c, hi_c = cfl_bracket
    if not (0 < lo_c < hi_c):
        raise ValueError(f"invalid CFL bracket {cfl_bracket}")
    rows = []
    for h in h_list:
        lo = lo_c * h * h
        hi = hi_c * h * h
        probes = []

        def probe(dt):
            ok = classify_stability(scheme, case, h, dt, t_final)
            probes.append((dt, ok))
            return ok

        if not probe(lo):
            raise ValueError(
                f"stability bracket invalid at h={h}: dt={lo:.3e} already unstable")
        if probe(hi):
            raise ValueError(
                f"stability bracket invalid at h={h}: dt={hi:.3e} still stable")
        for _ in range(rounds):
            mid = math.sqrt(lo * hi)
            if probe(mid):
                lo = mid
            else:
                hi = mid
        rows.append(StabilityRow(h=h, dt_stable=math.sqrt(lo * hi),
                                 bracket=(lo, hi), probes=probes))
    return StabilityReport(scheme=scheme, alpha=case.alpha, t_final=t_final,
                           rows=rows)
