import json
import os
import subprocess
import sys

import numpy as np
import pytest

import gspm2
from gspm2 import physics
from gspm2.cli import emit, main, run
from gspm2.config import ExperimentConfig
from gspm2.convergence import integrate
from gspm2.io import write_json
from gspm2.mesh import Grid

SOLVE_UNIFORM = {
    "kind": "solve", "scheme": "scheme-a", "grid": [4, 3, 1],
    "domain": [1.0, 1.0, 1.0],
    "params": {"eps": 1.0, "alpha": 0.1, "q": 0.0, "h_ext": [0.0, 0.0, 0.0],
               "stray": False},
    "initial": {"type": "uniform", "direction": [0.0, 0.0, 1.0]},
    "dt": 1e-3, "n_steps": 5, "snapshot_every": 2,
}


def write_cfg(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    write_json(str(path), payload)
    return str(path)


class TestRunSolve:
    def test_uniform_fields_off_is_identity(self):
        cfg = ExperimentConfig.from_dict(SOLVE_UNIFORM)
        rec = run(cfg)
        assert np.abs(rec.final_field[2] - 1.0).max() < 8 * np.finfo(float).eps
        assert np.abs(rec.final_field[:2]).max() < 8 * np.finfo(float).eps
        assert rec.summary["initial_energy"] == 0.0
        assert len(rec.energy_series) == 6          # initial + 5 steps

    def test_emitted_files(self, tmp_path):
        cfg = ExperimentConfig.from_dict(SOLVE_UNIFORM)
        rec = run(cfg)
        paths = emit(rec, str(tmp_path / "out"), {"csv", "json", "vtk"})
        names = sorted(p.rsplit("/", 1)[1] for p in paths)
        assert "config.json" in names and "report.json" in names
        assert "energy.csv" in names and "timing.csv" in names
        assert "final.vtk" in names
        assert sum(n.startswith("m_") and n.endswith(".vtk") for n in names) == 3

    def test_config_echo_reparses(self, tmp_path):
        cfg = ExperimentConfig.from_dict(SOLVE_UNIFORM)
        emit(run(cfg), str(tmp_path), {"json"})
        echoed = ExperimentConfig.from_file(str(tmp_path / "config.json"))
        assert echoed == cfg

    def test_deterministic_outputs(self, tmp_path):
        cfg_d = dict(SOLVE_UNIFORM, initial={"type": "random"}, seed=7)
        a = run(ExperimentConfig.from_dict(cfg_d))
        b = run(ExperimentConfig.from_dict(cfg_d))
        emit(a, str(tmp_path / "a"), {"csv", "json"})
        emit(b, str(tmp_path / "b"), {"csv", "json"})
        for name in ("energy.csv", "report.json", "config.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                   (tmp_path / "b" / name).read_bytes()


MICROMAG_SMALL = {"kind": "micromag", "alpha": 0.1, "grid": [16, 16, 2],
                  "dt_seconds": 1e-12, "t_final_seconds": 1e-11}


class TestRunMicromag:
    def test_scheme_initial_and_seed_are_honoured(self):
        default = run(ExperimentConfig.from_dict(MICROMAG_SMALL))
        chosen = dict(MICROMAG_SMALL, scheme="scheme-b",
                      initial={"type": "random"}, seed=7)
        rec = run(ExperimentConfig.from_dict(chosen))
        assert rec.summary != default.summary

        s = rec.summary
        grid = Grid(16, 16, 2, 1.0, 1.0, 0.02)
        params = physics.MaterialParams(eps=s["eps"], alpha=0.1, q=s["q"],
                                        stray_enabled=True)
        kernel = physics.build_demag_kernel(grid)
        m0 = np.random.default_rng(7).standard_normal((3,) + grid.shape)
        m0 /= np.sqrt((m0 * m0).sum(axis=0))
        res = integrate("scheme-b", m0, grid, params, s["dt_dimensionless"], 10,
                        kernel=kernel)
        assert np.array_equal(rec.final_field, res.state.m_curr)
        assert s["initial_energy"] == physics.energy(params, grid, m0, kernel)
        assert s["terminal_energy"] == physics.energy(params, grid,
                                                      res.state.m_curr, kernel)

    def test_snapshot_every_zero_writes_final_field_only(self, tmp_path):
        cfg = ExperimentConfig.from_dict(dict(
            MICROMAG_SMALL, grid=[4, 4, 1], t_final_seconds=2e-12,
            snapshot_every=0))
        paths = emit(run(cfg), str(tmp_path), {"vtk"})
        assert [os.path.basename(p) for p in paths] == ["final.vtk"]

    def test_one_convolution_per_step(self, demag_calls):
        rec = run(ExperimentConfig.from_dict(MICROMAG_SMALL))
        # the first step's f(m0), which the initial energy reuses, then one
        # per step; the energy after each step reuses the step's field
        assert len(demag_calls) == rec.summary["n_steps"] + 1

    def test_one_local_field_per_step(self, local_field_calls, demag_calls):
        # f(m0) at the first step and f(m^(n+1)) at the end of every step;
        # the energy record reads the carried field and evaluates none
        rec = run(ExperimentConfig.from_dict(dict(MICROMAG_SMALL,
                                                  grid=[8, 8, 2],
                                                  t_final_seconds=6e-12)))
        assert rec.summary["n_steps"] == 6
        assert len(local_field_calls) == 7
        assert len(demag_calls) == 7


class TestMainExitCodes:
    def test_success_and_outputs(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, SOLVE_UNIFORM)
        code = main(["solve", "--config", cfg_path,
                     "--out", str(tmp_path / "out"), "--formats", "csv,json"])
        assert code == 0
        out = capsys.readouterr().out
        assert "energy.csv" in out

    def test_config_error_is_2(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, {"kind": "solve", "scheme": "si2"})
        assert main(["solve", "--config", cfg_path]) == 2

    def test_malformed_integer_is_2(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, dict(SOLVE_UNIFORM, n_steps=2.5))
        assert main(["solve", "--config", cfg_path]) == 2
        assert "n_steps must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("payload", [
        dict(MICROMAG_SMALL, t_final_seconds=float("inf")),
        {"kind": "converge-time", "scheme": "scheme-a", "case": "mms-1d",
         "alpha": 0.01, "dx": 0.1, "t_final": 0.1, "dt_list": [0.05]},
        dict(SOLVE_UNIFORM, params={"eps": "x", "alpha": 0.1}),
        dict(MICROMAG_SMALL, constants={"A": -1, "Ms": 8e5, "Ku": 1e2,
                                        "gamma": 1.76e11, "L": 1e-6}),
        dict(MICROMAG_SMALL, initial="uniform"),
        dict(MICROMAG_SMALL, t_final_seconds=10 ** 400),
        # mesh sizes that do not divide the domain: the first three used to
        # die in the run, converge-2d silently ran 7x1 cells of width 1/7
        {"kind": "converge-time", "scheme": "scheme-a", "case": "mms-1d",
         "alpha": 0.01, "dx": 0.3, "t_final": 0.1, "dt_list": [0.05, 0.025]},
        {"kind": "converge-space", "scheme": "scheme-a", "case": "mms-1d",
         "alpha": 0.01, "dt": 1e-3, "t_final": 0.01, "dx_list": [0.3, 0.15]},
        {"kind": "stability", "scheme": "scheme-b", "h_list": [0.3]},
        {"kind": "converge-2d", "scheme": "scheme-a", "alpha": 0.01,
         "dx": 0.15, "t_final": 4e-5, "dt_divisors": [5, 10]},
        # scheme-b is already unstable at the low end of the bracket
        {"kind": "stability", "scheme": "scheme-b", "h_list": [0.1],
         "cfl_bracket": [0.5, 1.0], "t_final": 0.2},
        # studies that cannot fit an order: runs of no step died in the fit,
        # and a repeated step size fitted a slope from one point
        {"kind": "converge-time", "scheme": "scheme-a", "case": "mms-1d",
         "alpha": 0.01, "dx": 0.1, "t_final": 0.1, "dt_list": [0.5, 0.25]},
        {"kind": "converge-space", "scheme": "scheme-a", "case": "mms-1d",
         "alpha": 0.01, "dt": 0.5, "t_final": 0.1, "dx_list": [0.25, 0.125]},
        {"kind": "converge-time", "scheme": "scheme-a", "case": "mms-1d",
         "alpha": 0.01, "dx": 0.1, "t_final": 0.1, "dt_list": [0.001, 0.001]},
        # numpy's generator rejects it inside the run
        dict(MICROMAG_SMALL, initial={"type": "random"}, seed=-1),
        # steps that do not divide the final time used to be rounded: one
        # 3 ps step for 4 ps, two 1 ps steps for 1.6 ps
        dict(MICROMAG_SMALL, grid=[4, 4, 1], dt_seconds=3e-12,
             t_final_seconds=4e-12),
        dict(MICROMAG_SMALL, t_final_seconds=1.6e-12),
        {"kind": "converge-time", "scheme": "scheme-a", "case": "mms-1d",
         "alpha": 0.01, "dx": 0.1, "t_final": 0.1, "dt_list": [0.05, 0.03]},
        {"kind": "converge-space", "scheme": "scheme-a", "case": "mms-1d",
         "alpha": 0.01, "dt": 3e-3, "t_final": 0.01, "dx_list": [0.25, 0.125]},
    ], ids=["infinite-duration", "one-step-size", "params-eps-string",
            "constants-negative", "initial-string", "integer-beyond-float",
            "time-dx-off-domain", "space-dx-off-domain", "stability-h-off-domain",
            "2d-dx-off-domain", "bracket-not-straddling", "time-no-step",
            "space-no-step", "time-repeated-step", "negative-seed",
            "micromag-dt-not-dividing", "micromag-t-final-not-dividing",
            "time-dt-not-dividing", "space-dt-not-dividing"])
    def test_config_numbers_that_crash_a_run_are_2(self, tmp_path, capsys, payload):
        cfg_path = write_cfg(tmp_path, payload)
        assert main([payload["kind"], "--config", cfg_path,
                     "--out", str(tmp_path / "o")]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("direction", [
        [0.0, 0.0, 0.0], [1.0, float("nan"), 0.0], [1.0, 0.0], "z",
    ], ids=["zero", "nan", "two-vector", "string"])
    def test_bad_uniform_direction_is_2(self, tmp_path, capsys, direction):
        payload = dict(SOLVE_UNIFORM,
                       initial={"type": "uniform", "direction": direction})
        cfg_path = write_cfg(tmp_path, payload)
        assert main(["solve", "--config", cfg_path,
                     "--out", str(tmp_path / "o")]) == 2
        assert "uniform direction" in capsys.readouterr().err

    def test_kind_mismatch_is_2(self, tmp_path):
        cfg_path = write_cfg(tmp_path, SOLVE_UNIFORM)
        assert main(["micromag", "--config", cfg_path]) == 2

    @pytest.mark.parametrize("command,payload", [
        ("micromag", {"kind": ["micromag"], "alpha": 0.1}),
        ("stability", {"kind": "stability", "scheme": ["scheme-b"], "h_list": [0.1]}),
        ("micromag", {"kind": "micromag", "alpha": 0.1, "initial": {"type": ["random"]}}),
    ], ids=["kind", "scheme", "initial-type"])
    def test_unhashable_name_is_2(self, tmp_path, capsys, command, payload):
        # a list is unhashable: looked up in a dict, it escapes as a TypeError
        cfg_path = write_cfg(tmp_path, payload)
        assert main([command, "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_file_is_2(self, tmp_path):
        assert main(["solve", "--config", str(tmp_path / "nope.json")]) == 2

    @pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[" * 200_000],
                             ids=["not-utf8", "nested-too-deep"])
    def test_unreadable_file_is_2(self, tmp_path, capsys, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        assert main(["micromag", "--config", str(path)]) == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_unknown_format_is_2(self, tmp_path):
        cfg_path = write_cfg(tmp_path, SOLVE_UNIFORM)
        assert main(["solve", "--config", cfg_path, "--formats", "hdf5"]) == 2

    def test_blowup_is_3(self, tmp_path, capsys):
        # three-solve scheme far beyond its CFL limit on sharp initial data
        payload = {
            "kind": "solve", "scheme": "scheme-b", "grid": [100, 1, 1],
            "domain": [1.0, 1.0, 1.0],
            "params": {"eps": 1.0, "alpha": 1.0},
            "initial": {"type": "stripes"},
            "dt": 1e-2, "n_steps": 400,
        }
        cfg_path = write_cfg(tmp_path, payload)
        code = main(["solve", "--config", cfg_path, "--out", str(tmp_path / "o")])
        assert code == 3
        assert "blow-up" in capsys.readouterr().err

    def test_stalled_krylov_solve_fails_fast(self, tmp_path, capsys, monkeypatch):
        # GMRES stalls just above its 1e-12 tolerance on this run; it used to
        # spend all 500 restart cycles there before failing
        import scipy.sparse.linalg
        gmres, cycles = scipy.sparse.linalg.gmres, []

        def counted(*args, callback, **kwargs):
            def wrapped(x):
                cycles.append(1)
                return callback(x)
            return gmres(*args, callback=wrapped, **kwargs)

        monkeypatch.setattr(scipy.sparse.linalg, "gmres", counted)
        payload = {"kind": "solve", "scheme": "bdf2-ref", "grid": [8, 8, 1],
                   "params": {"eps": 1.0, "alpha": 0.1},
                   "initial": {"type": "random"}, "dt": 100, "n_steps": 2}
        cfg_path = write_cfg(tmp_path, payload)
        code = main(["solve", "--config", cfg_path, "--out", str(tmp_path / "o")])
        assert code == 3
        assert "stalled at relative residual" in capsys.readouterr().err
        assert 1 <= len(cycles) < 50

    def test_unconverged_krylov_solve_is_3(self, tmp_path, capsys, monkeypatch):
        # a real non-converging bdf2-ref run (8x8x1 random start, dt 100)
        # takes about 19 s; a GMRES that reports failure reaches the same path
        import scipy.sparse.linalg
        monkeypatch.setattr(scipy.sparse.linalg, "gmres",
                            lambda A, b, x0=None, **kwargs: (x0, 500))
        cfg_path = write_cfg(tmp_path, dict(SOLVE_UNIFORM, scheme="bdf2-ref",
                                            n_steps=2))
        code = main(["solve", "--config", cfg_path, "--out", str(tmp_path / "o")])
        assert code == 3
        assert "did not converge (info=500" in capsys.readouterr().err


class TestConvergenceKindsViaRun:
    def test_converge_time_small(self):
        cfg = ExperimentConfig.from_dict({
            "kind": "converge-time", "scheme": "scheme-a", "case": "mms-1d",
            "alpha": 0.01, "dx": 0.05, "t_final": 0.1,
            "dt_list": [0.1 / 20, 0.1 / 40, 0.1 / 80],
        })
        rec = run(cfg)
        assert rec.report["order"] > 0.5
        assert len(rec.error_rows) == 3

    def test_converge_2d_small(self):
        cfg = ExperimentConfig.from_dict({
            "kind": "converge-2d", "scheme": "scheme-a", "alpha": 0.01,
            "dx": 0.1, "t_final": 4e-5, "dt_divisors": [5, 10, 20],
            "ref_divisor": 400,
        })
        rec = run(cfg)
        assert len(rec.error_rows) == 3
        assert rec.report["order"] > 1.0

    def test_stability_kind_small(self):
        cfg = ExperimentConfig.from_dict({
            "kind": "stability", "scheme": "scheme-b", "alpha": 1.0,
            "h_list": [0.1], "rounds": 3, "t_final": 0.5,
        })
        rec = run(cfg)
        row = rec.report["rows"][0]
        # threshold bracketed around 0.25 h^2 within the scan bracket
        assert 0.125 * 0.01 <= row["dt_stable"] <= 1.0 * 0.01
        assert row["bracket_stable"] < row["bracket_unstable"]

    def test_emitted_convergence_csv(self, tmp_path):
        cfg = ExperimentConfig.from_dict({
            "kind": "converge-time", "scheme": "si2", "case": "mms-1d",
            "alpha": 0.01, "dx": 0.1, "t_final": 0.04,
            "dt_list": [0.004, 0.002, 0.001],
        })
        rec = run(cfg)
        paths = emit(rec, str(tmp_path), {"csv", "json"})
        errors = (tmp_path / "errors.csv").read_text().splitlines()
        assert errors[0] == "step,error_inf,error_l2"
        assert len(errors) == 4
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["schema_version"] == 1
        assert "order" in report["report"]


class TestImportFootprint:
    def test_cli_import_leaves_scipy_sparse_out(self):
        # bdf2_reference_step imports scipy.sparse.linalg when it runs: loaded
        # with the package, it adds about 9 MB to every process's max RSS
        src = os.path.dirname(os.path.dirname(gspm2.__file__))
        out = subprocess.run(
            [sys.executable, "-c", "import sys, gspm2, gspm2.cli; "
             "print(sorted(m for m in sys.modules if m.startswith('scipy.sparse')))"],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
            check=True)
        assert out.stdout.strip() == "[]", out.stdout
