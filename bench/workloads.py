"""The three workloads: rounds of operations through gspm2's public entry points.

Every round runs the same operations, so the share of failed operations is
the same in every run. An operation's timed part is bracketed by
`Instrument.begin_op`/`end_op`; its checks run afterwards, untimed, and
compare the program's outputs with closed forms and direct computations
made here. Gauss-Seidel orders, CFL constants and errors are deterministic:
the inputs are the paper's fixed experiments, and the seed only orders the
operations of a round and picks the cells of the stray-field check.

Known faults (operations that fail on every run until the program is
mended) are recorded with `fault=`; any other failure makes the run
incorrect.
"""

from __future__ import annotations

import copy
import os
import random
import shutil

import numpy as np

from gspm2 import cli, config, manufactured, mesh, physics, schemes
from gspm2 import convergence as conv

EPS4 = 4.0 * np.finfo(float).eps
# relative agreement at which the energy gradient counts as consistent; the
# variational energy reaches about 1e-10 (a central difference of a quadratic
# is exact up to rounding), so error_inf reads at least this much
GRADIENT_TOL = 1e-6
GRADIENT_FLOOR = 1e-8
FAULT_DT_F = "dt f inside the solve (schemes.scheme_a_step/scheme_b_step)"
FAULT_ENERGY = "energy() charges the stray field as -h_s.m"


class Tally:
    """Attempted and failed operations; failures outside known faults."""

    def __init__(self, log):
        self.attempted = 0
        self.failed = 0
        self.unexpected = []
        self._log = log
        self._reported = set()

    def record(self, op, ok, detail="", fault=None):
        self.attempted += 1
        if ok:
            return
        self.failed += 1
        if fault is None:
            self.unexpected.append(f"{op}: {detail}")
            self._log(f"FAILED {op}: {detail}")
        elif op not in self._reported:
            self._reported.add(op)
            self._log(f"known fault, {op}: {detail} [{fault}]")

    @property
    def correct(self):
        return not self.unexpected


def _slope(steps, errors):
    """Least-squares slope of log(error) against log(step)."""
    x = np.log(np.asarray(steps, dtype=float))
    y = np.log(np.asarray(errors, dtype=float))
    xc = x - x.mean()
    return float((xc * (y - y.mean())).sum() / (xc * xc).sum())


def _closed_form(u, t):
    """m = (cos u sin t, sin u sin t, cos t) for a phase profile u(x)."""
    return np.stack([np.cos(u) * np.sin(t), np.sin(u) * np.sin(t),
                     np.full_like(u, np.cos(t))])[:, :, None, None]


def _line_centers(n):
    return (np.arange(n) + 0.5) / n


def _magnitude(v):
    return np.sqrt((v * v).sum(axis=0))


def _unit_deviation(m):
    return float(np.abs(_magnitude(m) - 1.0).max())


class Workload:
    """Figures a workload's checks leave for the metrics."""

    error_inf = 0.0
    cfl_const = 0.0
    bytes_written = ()      # bytes of each emit, thin-film only

    def warm_up(self, inst, tally):
        """Untimed operations before the timed rounds. The first operation in
        a process pays one-off costs (first calls, FFT plans for its sizes) in
        its set-up; where set-up takes milliseconds, that alone moved the
        median set-up time by 20%. None by default: thin-film's set-up is the
        kernel build, seconds long, and the median over rounds absorbs it."""


class ThinFilm(Workload):
    """Permalloy film through the `micromag` CLI kind: 64x64x3, 1 ps steps,
    alpha = 0.01, stripes start, scheme-a, stray field once per step; output
    csv, json and vtk."""

    name = "thin-film"

    def __init__(self, seed, out_root, tiny=False):
        n_steps = 5 if tiny else 50
        self.config = {"kind": "micromag", "alpha": 0.01,
                       "grid": [8, 8, 2] if tiny else [64, 64, 3],
                       "dt_seconds": 1e-12,
                       "t_final_seconds": n_steps * 1e-12,
                       "snapshot_every": 1 if tiny else 25}
        self.rng = random.Random(seed)
        self.out_dir = os.path.join(out_root, f"thin-film-{os.getpid()}")
        self.reference = None          # final field of the first round
        self.bytes_written = []

    def run_round(self, inst, tally):
        inst.kernels.clear()
        shutil.rmtree(self.out_dir, ignore_errors=True)
        inst.begin_op()
        try:
            cfg = config.ExperimentConfig.from_dict(self.config)
            record = cli.run(cfg)
            paths = cli.emit(record, self.out_dir, ("csv", "json", "vtk"))
        except schemes.BlowUpError as exc:
            tally.record("relax", False, str(exc))
            tally.record("energy-gradient", False, "no final state")
            return
        finally:
            inst.end_op()
        self.bytes_written.append(sum(os.path.getsize(p) for p in paths))
        try:
            tally.record("relax", *self._check_relax(cfg, record, paths,
                                                     inst.kernels[-1]))
            ok, detail = self._check_gradient(record, inst.kernels[-1])
            tally.record("energy-gradient", ok, detail, fault=FAULT_ENERGY)
        finally:
            shutil.rmtree(self.out_dir, ignore_errors=True)

    def _check_relax(self, cfg, record, paths, kernel):
        s = record.summary
        m = record.final_field
        if s["max_unit_deviation"] > EPS4:
            return False, f"unit deviation {s['max_unit_deviation']:.3g} after a step"
        worst = max([_unit_deviation(m)]
                    + [_unit_deviation(snap) for _, snap in record.snapshots])
        if worst > EPS4:
            return False, f"unit deviation {worst:.3g} in final field/snapshots"
        if not s["terminal_energy"] < s["initial_energy"]:
            return False, (f"energy did not decrease: {s['initial_energy']!r} "
                           f"-> {s['terminal_energy']!r}")
        if abs(kernel.self_trace - 1.0) > 1e-8:
            return False, f"kernel self-trace {kernel.self_trace!r}"
        by_name = {os.path.basename(p): p for p in paths}
        if config.ExperimentConfig.from_file(by_name["config.json"]) != cfg:
            return False, "config.json does not re-parse to the same config"
        with open(by_name["energy.csv"]) as fh:
            rows = fh.read().split()[1:]
        if (len(rows) != s["n_steps"] + 1
                or float(rows[-1].split(",")[2]) != s["terminal_energy"]):
            return False, "energy.csv disagrees with the summary"
        self.cfl_const = (s["eps"] * s["dt_dimensionless"]
                          / min(record.grid.spacing) ** 2)
        if self.reference is None:
            self.reference = m.copy()
            return self._check_stray_field(record.grid, m, kernel)
        if not np.array_equal(m, self.reference):
            return False, "final field differs from the first round's"
        return True, ""

    def _check_stray_field(self, grid, m, kernel):
        """FFT stray field against a direct pairwise sum at three cells."""
        h_fft = physics.demag_field(kernel, m)
        cells = [(0, 0, 0)] + [tuple(self.rng.randrange(n) for n in grid.shape)
                               for _ in range(2)]
        I, J, K = np.meshgrid(*[np.arange(n) for n in grid.shape], indexing="ij")
        hx, hy, hz = grid.spacing
        for c in cells:
            # integer offsets times the spacing, as the kernel's displacements
            X, Y, Z = (c[0] - I) * hx, (c[1] - J) * hy, (c[2] - K) * hz
            N = {comp: physics.demag_tensor_entry(comp, X, Y, Z, grid.spacing)
                 for comp in ("xx", "yy", "zz", "xy", "xz", "yz")}
            h = -np.array([
                (N["xx"] * m[0] + N["xy"] * m[1] + N["xz"] * m[2]).sum(),
                (N["xy"] * m[0] + N["yy"] * m[1] + N["yz"] * m[2]).sum(),
                (N["xz"] * m[0] + N["yz"] * m[1] + N["zz"] * m[2]).sum()])
            rel = np.linalg.norm(h_fft[(slice(None),) + c] - h) / np.linalg.norm(h)
            if not rel <= 1e-10:
                return False, f"stray field at cell {c}: relative error {rel:.3g}"
        return True, ""

    def _check_gradient(self, record, kernel):
        """Central difference of energy() along a fixed tangent direction v
        against -sum h_eff.v vol, h_eff = eps Lap m + local_field(m)."""
        grid, m, s = record.grid, record.final_field, record.summary
        params = physics.MaterialParams(eps=s["eps"], alpha=self.config["alpha"],
                                        q=s["q"], stray_enabled=True)
        v = np.random.default_rng(0).standard_normal(m.shape)
        v -= (v * m).sum(axis=0) * m
        v /= _magnitude(v)
        delta = 1e-4
        fd = (physics.energy(params, grid, m + delta * v, kernel)
              - physics.energy(params, grid, m - delta * v, kernel)) / (2 * delta)
        h_eff = (params.eps * mesh.laplacian(grid, m)
                 + physics.local_field(params, m, kernel))
        expected = -float((h_eff * v).sum()) * grid.cell_volume
        rel = abs(fd - expected) / abs(expected)
        self.error_inf = max(self.error_inf, rel, GRADIENT_FLOOR)
        return rel <= GRADIENT_TOL, (f"dE/dm.v {fd:.6g} vs -sum h_eff.v vol "
                                     f"{expected:.6g} (relative {rel:.3g})")


class Mms1dFine(Workload):
    """Criterion 1's temporal study on the wall-compatible phase
    (1 - cos 2 pi x)/32: dx = 1e-4, T = 0.3, dt = T/200 .. T/500,
    alpha = 0.01, scheme-a and scheme-b."""

    name = "mms-1d-fine"
    T = 0.3
    ALPHA = 0.01

    def __init__(self, seed, out_root, tiny=False):
        self.n = 500 if tiny else 10_000
        self.dt_list = [self.T / d for d in (200, 300, 400, 500)]
        self.rng = random.Random(seed)

    def run_round(self, inst, tally):
        order = ["scheme-a", "scheme-b"]
        self.rng.shuffle(order)
        for scheme in order:
            inst.results.clear()
            inst.begin_op()
            try:
                case = manufactured.case_1d(self.ALPHA, phase="cosine")
                report = conv.run_time_convergence(scheme, case, 1.0 / self.n,
                                                   self.dt_list, self.T)
            except schemes.BlowUpError as exc:
                tally.record(scheme, False, str(exc))
                continue
            finally:
                inst.end_op()
            tally.record(scheme, *self._check(report, list(inst.results)))

    def warm_up(self, inst, tally):
        """Both studies on the full grid with two and four steps."""
        warm = copy.copy(self)
        warm.dt_list = [self.T / 2, self.T / 4]
        warm.run_round(inst, tally)

    def _check(self, report, results):
        if len(results) != len(self.dt_list):
            return False, f"{len(results)} integrations for {len(self.dt_list)} steps"
        u = (1.0 - np.cos(2.0 * np.pi * _line_centers(self.n))) / 32.0
        e_inf, e_l2 = [], []
        for res, (_, p_inf, p_l2) in zip(results, report.points):
            if res.max_unit_deviation > EPS4:
                return False, f"unit deviation {res.max_unit_deviation:.3g}"
            diff = _magnitude(res.state.m_curr - _closed_form(u, res.state.t))
            e_inf.append(float(diff.max()))
            e_l2.append(float(np.sqrt((diff * diff).sum() / self.n)))
            if (abs(p_inf - e_inf[-1]) > 1e-8 * e_inf[-1]
                    or abs(p_l2 - e_l2[-1]) > 1e-8 * e_l2[-1]):
                return False, f"reported errors {p_inf!r}, {p_l2!r} differ from " \
                              f"{e_inf[-1]!r}, {e_l2[-1]!r}"
        o_inf, o_l2 = _slope(self.dt_list, e_inf), _slope(self.dt_list, e_l2)
        self.error_inf = max(self.error_inf, e_inf[-1])
        self.cfl_const = max(self.dt_list) * self.n ** 2
        if not (1.9 <= o_inf <= 2.2 and 1.9 <= o_l2 <= 2.2):
            return False, f"orders {o_inf:.3f} (inf), {o_l2:.3f} (L2) outside [1.9, 2.2]"
        return True, ""


class SmallGrid(Workload):
    """1D grids of tens of cells: the scheme-b CFL bisection at alpha = 1,
    scheme-a far above that limit, and field-driven self-convergence orders."""

    name = "small-grid"
    PROBES = (1.0, 4.0, 16.0)      # scheme-a steps in units of h^2 (4x-64x 0.25 h^2)
    ORDER_T = 0.2

    def __init__(self, seed, out_root, tiny=False):
        self.h = 0.1 if tiny else 0.025
        self.rounds = 2 if tiny else 6
        self.divisors = (20, 40, 80, 160, 320) if tiny else (160, 320, 640, 1280, 2560)
        self.rng = random.Random(seed)

    def run_round(self, inst, tally):
        ops = [("cfl-scan", self._cfl_scan, None)]
        ops += [(f"scheme-a@{k:g}h2", lambda k=k: self._probe(k), None)
                for k in self.PROBES]
        ops += [(f"order-{s}", lambda s=s: self._order(s), FAULT_DT_F)
                for s in ("scheme-a", "scheme-b")]
        self.rng.shuffle(ops)
        for name, op, fault in ops:
            inst.begin_op()
            try:
                check = op()
            except (schemes.BlowUpError, ValueError) as exc:
                tally.record(name, False, str(exc))
                continue
            finally:
                inst.end_op()
            tally.record(name, *check(), fault=fault)

    def warm_up(self, inst, tally):
        """One round at the self-test's sizes."""
        SmallGrid(0, None, tiny=True).run_round(inst, tally)

    def _cfl_scan(self):
        case = manufactured.case_1d(1.0)
        report = conv.stability_scan("scheme-b", case, [self.h],
                                     cfl_bracket=(0.125, 1.0), rounds=self.rounds)

        def check():
            row = report.rows[0]
            c = row.dt_stable / self.h ** 2
            stable = [dt for dt, ok in row.probes if ok]
            unstable = [dt for dt, ok in row.probes if not ok]
            if not (stable and unstable and max(stable) < min(unstable)):
                return False, f"probes not separated by one threshold: {row.probes}"
            if row.bracket != (max(stable), min(unstable)):
                return False, f"bracket {row.bracket} is not the probes' edge"
            width = (1.0 / 0.125) ** (0.5 ** self.rounds)
            if row.bracket[1] / row.bracket[0] > width * (1 + 1e-12):
                return False, f"bracket {row.bracket} wider than {width:.4g}"
            self.cfl_const = c
            if not 0.125 <= c <= 0.5:
                return False, f"CFL constant {c:.4g} not within 2x of 0.25"
            return True, ""
        return check

    def _probe(self, k):
        case = manufactured.case_1d(1.0)
        n = round(1.0 / self.h)
        grid = mesh.Grid.line(n)
        x = _line_centers(n)
        u = x * x * (1.0 - x) ** 2      # the bump phase of case_1d
        dt = k * self.h ** 2
        res = conv.integrate("scheme-a", _closed_form(u, 0.0), grid,
                             physics.MaterialParams(eps=1.0, alpha=1.0),
                             dt, max(1, round(1.0 / dt)), source=case.source)

        def check():
            m = res.state.m_curr
            if not np.isfinite(m).all() or res.max_unit_deviation > EPS4:
                return False, f"unbounded at dt = {k:g} h^2"
            err = float(_magnitude(m - _closed_form(u, res.state.t)).max())
            self.error_inf = max(self.error_inf, err)
            return True, ""
        return check

    def _order(self, scheme):
        grid = mesh.Grid.line(12)
        params = physics.MaterialParams(eps=1.0, alpha=0.1, q=2.0,
                                        h_ext=(0.0, 0.5, 0.0))
        phi = 0.9 * np.sin(np.pi * _line_centers(12)) ** 2
        m0 = np.stack([np.cos(phi), 0.6 * np.sin(phi), 0.8 * np.sin(phi)])
        m0 = (m0 / _magnitude(m0))[:, :, None, None]
        finals = [conv.integrate(scheme, m0, grid, params, self.ORDER_T / d, d)
                  .state.m_curr for d in self.divisors]

        def check():
            errs = [float(_magnitude(a - b).max()) for a, b in zip(finals, finals[1:])]
            dts = [self.ORDER_T / d for d in self.divisors[:-1]]
            order = _slope(dts, errs)
            pairs = ", ".join(f"{np.log2(a / b):.2f}" for a, b in zip(errs, errs[1:]))
            return (1.8 <= order <= 2.2,
                    f"Richardson order {order:.3f} (pairwise {pairs}) "
                    f"outside [1.8, 2.2]")
        return check


WORKLOADS = {w.name: w for w in (ThinFilm, Mms1dFine, SmallGrid)}
