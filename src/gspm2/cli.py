"""Command-line front end: experiment dispatch, timing, and serialization.

    gspm2 <kind> --config cfg.json [--out DIR] [--formats csv,json,vtk]

Reads the values `ExperimentConfig.validate` resolved; each kind's fields
and defaults are in `config.KIND_FIELDS`. The micromag production grid is
`"grid": [250, 250, 5]`.

Exit codes: 0 success, 2 configuration error, 3 numerical blow-up or a
coupled `bdf2-ref` solve that did not converge. Stability
scans absorb blow-ups internally (they are the signal being measured, not a
failure); a scan bracket that does not straddle the threshold is a
configuration error.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import convergence as conv
from . import io as gio
from .config import KINDS, ConfigError, ExperimentConfig, _checked, material_params
from .manufactured import case_1d, case_3d, neel_wall_initial
from .mesh import Grid, sample_vector
from .physics import (MaterialParams, PhysicalConstants, build_demag_kernel,
                      energy, nondimensionalize)
from .schemes import BlowUpError, KrylovError


@dataclass
class RunRecord:
    """Everything one experiment produced, ready for `emit`."""

    config: dict
    summary: dict = field(default_factory=dict)
    report: dict | None = None
    energy_series: list | None = None     # (step, t, energy)
    timing_series: list | None = None     # (step, wall ms); never merged into
                                          # deterministic payloads
    error_rows: list | None = None        # (step_or_h, err_inf, err_l2)
    final_field: np.ndarray | None = None
    snapshots: list = field(default_factory=list)   # (step, (3, nx, ny, 1) slice)
    grid: Grid | None = None


def _run_convergence(cfg: ExperimentConfig) -> RunRecord:
    """The converge-time, converge-space and converge-2d error studies."""
    if cfg.kind == "converge-2d":
        report = conv.run_wall_reference_convergence(
            cfg.scheme, alpha=cfg.alpha, dx=cfg.dx, domain=cfg.domain,
            t_final=cfg.t_final, dt_divisors=cfg.dt_divisors,
            ref_divisor=cfg.ref_divisor)
    else:
        case = (case_1d if cfg.case == "mms-1d" else case_3d)(cfg.alpha)
        if cfg.kind == "converge-time":
            report = conv.run_time_convergence(cfg.scheme, case, cfg.dx,
                                               cfg.dt_list, cfg.t_final)
        else:
            report = conv.run_space_convergence(cfg.scheme, case, cfg.dx_list,
                                                cfg.dt, cfg.t_final)
    return RunRecord(config=cfg.to_dict(), report=report.to_dict(),
                     error_rows=report.points,
                     summary={"order": report.order_inf,
                              "order_l2": report.order_l2})


def _run_stability(cfg: ExperimentConfig) -> RunRecord:
    report = _checked("cfl_bracket", conv.stability_scan, cfg.scheme,
                      case_1d(cfg.alpha), cfg.h_list, t_final=cfg.t_final,
                      cfl_bracket=tuple(cfg.cfl_bracket), rounds=cfg.rounds)
    summary = {"rows": [{"h": r.h, "dt_stable": r.dt_stable}
                        for r in report.rows]}
    return RunRecord(config=cfg.to_dict(), report=report.to_dict(),
                     summary=summary)


def _initial_field(grid: Grid, init: dict, seed: int) -> np.ndarray:
    kind = init["type"]
    if kind == "uniform":
        d = np.asarray(init["direction"], dtype=float)
        d = d / np.linalg.norm(d)
        return sample_vector(grid, lambda X, Y, Z: (
            np.full_like(X, d[0]), np.full_like(X, d[1]), np.full_like(X, d[2])))
    if kind == "stripes":
        # in-plane y-stripes on the outer fifths of the x extent, x elsewhere
        lx = grid.lx

        def fn(X, Y, Z):
            outer = (X <= lx / 5.0) | (X >= 4.0 * lx / 5.0)
            return (np.where(outer, 0.0, 1.0), np.where(outer, 1.0, 0.0),
                    np.zeros_like(X))

        return sample_vector(grid, fn)
    if kind == "neel-wall":
        return sample_vector(grid, neel_wall_initial(init.get("eta", grid.hx)))
    # the remaining type, "random"
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((3,) + grid.shape)
    return m / np.sqrt((m * m).sum(axis=0))


def _run_stepping(cfg: ExperimentConfig, grid: Grid, params: MaterialParams,
                  m0: np.ndarray, dt: float, n_steps: int,
                  summary: dict) -> RunRecord:
    """Shared stepping run of the micromag and solve kinds.

    Builds the demag kernel if the stray field is on, then records the
    energy after every step (its stray part from the field the step carries,
    so a step costs one convolution), stepper wall time (exclusive of the
    recording itself), and mid-plane snapshots every cfg.snapshot_every
    steps (none for 0).
    Takes n_steps >= 1: the initial energy is recorded at the first step,
    from the h_s(m0) that `integrate` seeded, so m0 is convolved once.
    `summary` gains the energies, the unit deviation and n_steps.
    """
    kernel = build_demag_kernel(grid) if params.stray_enabled else None
    energy_series = []
    timing_series = []
    snapshots = []
    mid_k = grid.nz // 2
    if cfg.snapshot_every:
        snapshots.append((0, m0[:, :, :, mid_k:mid_k + 1].copy()))
    last = time.perf_counter()

    def on_step(state):
        nonlocal last
        timing_series.append((state.step_index, (time.perf_counter() - last) * 1e3))
        if state.step_index == 1:
            energy_series.append((0, 0.0, energy(params, grid, state.m_prev, kernel,
                                                 stray=state.hs_prev)))
        energy_series.append((state.step_index, state.t,
                              energy(params, grid, state.m_curr, kernel,
                                     stray=state.hs_curr)))
        if cfg.snapshot_every and state.step_index % cfg.snapshot_every == 0:
            snapshots.append(
                (state.step_index, state.m_curr[:, :, :, mid_k:mid_k + 1].copy()))
        last = time.perf_counter()

    result = conv.integrate(cfg.scheme, m0, grid, params, dt, n_steps,
                            kernel=kernel, on_step=on_step)
    summary.update(initial_energy=energy_series[0][2],
                   terminal_energy=energy_series[-1][2],
                   max_unit_deviation=result.max_unit_deviation, n_steps=n_steps)
    return RunRecord(config=cfg.to_dict(), summary=summary,
                     energy_series=energy_series, timing_series=timing_series,
                     final_field=result.state.m_curr, snapshots=snapshots,
                     grid=grid)


def _run_micromag(cfg: ExperimentConfig) -> RunRecord:
    eps, q, time_unit = nondimensionalize(PhysicalConstants(**cfg.constants))
    # film extent 1 x 1 x 0.02 over the rescaling length L
    grid = Grid(*cfg.grid, 1.0, 1.0, 0.02)
    params = MaterialParams(eps=eps, alpha=cfg.alpha, q=q, stray_enabled=True)
    dt = cfg.dt_seconds / time_unit
    n_steps = round(cfg.t_final_seconds / cfg.dt_seconds)
    m0 = _initial_field(grid, cfg.initial, cfg.seed)
    summary = {"eps": eps, "q": q, "time_unit_seconds": time_unit,
               "dt_dimensionless": dt, "t_final_dimensionless": n_steps * dt}
    return _run_stepping(cfg, grid, params, m0, dt, n_steps, summary)


def _run_solve(cfg: ExperimentConfig) -> RunRecord:
    grid = Grid(*cfg.grid, *cfg.domain)
    m0 = _initial_field(grid, cfg.initial, cfg.seed)
    return _run_stepping(cfg, grid, material_params(cfg.params), m0, cfg.dt,
                         cfg.n_steps, {})


def run(cfg: ExperimentConfig) -> RunRecord:
    """Dispatch one validated config; returns the in-memory record."""
    if cfg.kind in ("converge-time", "converge-space", "converge-2d"):
        return _run_convergence(cfg)
    if cfg.kind == "stability":
        return _run_stability(cfg)
    if cfg.kind == "micromag":
        return _run_micromag(cfg)
    if cfg.kind == "solve":
        return _run_solve(cfg)
    raise ConfigError(f"unknown kind {cfg.kind!r}")


def emit(record: RunRecord, out_dir: str, formats) -> list:
    """Write the record; returns the list of paths produced."""
    os.makedirs(out_dir, exist_ok=True)
    formats = set(formats)
    paths = []

    def note(p):
        paths.append(p)
        return p

    if "json" in formats:
        gio.write_json(note(os.path.join(out_dir, "config.json")), record.config)
        payload = {"schema_version": gio.SCHEMA_VERSION,
                   "kind": record.config.get("kind"),
                   "summary": record.summary}
        if record.report is not None:
            payload["report"] = record.report
        gio.write_json(note(os.path.join(out_dir, "report.json")), payload)
    if "csv" in formats:
        if record.energy_series is not None:
            gio.write_csv(note(os.path.join(out_dir, "energy.csv")),
                          ("step", "t", "energy"),
                          [(s, float(t), float(e)) for s, t, e in record.energy_series])
        if record.timing_series is not None:
            gio.write_csv(note(os.path.join(out_dir, "timing.csv")),
                          ("step", "walltime_ms"),
                          [(s, float(w)) for s, w in record.timing_series])
        if record.error_rows is not None:
            gio.write_csv(note(os.path.join(out_dir, "errors.csv")),
                          ("step", "error_inf", "error_l2"),
                          [(float(s), float(a), float(b))
                           for s, a, b in record.error_rows])
    if "vtk" in formats and record.grid is not None:
        grid = record.grid
        origin = (grid.hx / 2, grid.hy / 2, grid.hz / 2)
        for step, m_slice in record.snapshots:
            mid_z = (grid.nz // 2 + 0.5) * grid.hz
            gio.write_vtk_structured_points(
                note(os.path.join(out_dir, f"m_{step:06d}.vtk")), m_slice,
                (origin[0], origin[1], mid_z), grid.spacing)
        if record.final_field is not None:
            gio.write_vtk_structured_points(
                note(os.path.join(out_dir, "final.vtk")), record.final_field,
                origin, grid.spacing)
    return paths


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gspm2",
        description="Gauss-Seidel projection experiments for magnetization dynamics")
    parser.add_argument("kind", choices=KINDS)
    parser.add_argument("--config", required=True, help="path to a JSON config")
    parser.add_argument("--out", default="gspm2-out", help="output directory")
    parser.add_argument("--formats", default="csv,json,vtk",
                        help="comma-separated subset of csv,json,vtk")
    args = parser.parse_args(argv)

    formats = {f.strip() for f in args.formats.split(",") if f.strip()}
    unknown = formats - {"csv", "json", "vtk"}
    if unknown:
        print(f"gspm2: unknown formats {sorted(unknown)}", file=sys.stderr)
        return 2

    try:
        cfg = ExperimentConfig.from_file(args.config)
        if cfg.kind != args.kind:
            raise ConfigError(
                f"config kind {cfg.kind!r} does not match command {args.kind!r}")
        record = run(cfg)
    except ConfigError as exc:
        print(f"gspm2: config error: {exc}", file=sys.stderr)
        return 2
    except BlowUpError as exc:
        print(f"gspm2: numerical blow-up: {exc}", file=sys.stderr)
        return 3
    except KrylovError as exc:
        print(f"gspm2: solver failure: {exc}", file=sys.stderr)
        return 3

    for path in emit(record, args.out, formats):
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
