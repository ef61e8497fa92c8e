import json
import os
import re
from dataclasses import fields

import numpy as np
import pytest

from gspm2.config import (DEFAULT_CONSTANTS, KIND_FIELDS, KINDS, ConfigError,
                          ExperimentConfig)
from gspm2.io import write_csv, write_json, write_vtk_structured_points


class TestVtk:
    def test_two_by_two_snapshot(self, tmp_path):
        m = np.zeros((3, 2, 2, 1))
        m[0] = 1.0
        path = tmp_path / "snap.vtk"
        write_vtk_structured_points(str(path), m, (0.25, 0.25, 0.5),
                                    (0.5, 0.5, 1.0))
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# vtk DataFile")
        assert "DIMENSIONS 2 2 1" in lines
        assert "POINT_DATA 4" in lines
        assert "VECTORS m double" in lines
        vec_at = lines.index("VECTORS m double")
        vectors = lines[vec_at + 1:]
        assert len(vectors) == 4
        assert all(v.split() == ["1.0", "0.0", "0.0"] for v in vectors)

    def test_point_order_x_fastest(self, tmp_path):
        m = np.zeros((3, 2, 2, 1))
        m[0] = np.arange(4).reshape(2, 2, 1)          # value = 2*i + j
        path = tmp_path / "order.vtk"
        write_vtk_structured_points(str(path), m, (0, 0, 0), (1, 1, 1))
        lines = path.read_text().splitlines()
        vals = [float(v.split()[0]) for v in lines[lines.index("VECTORS m double") + 1:]]
        # x fastest: (i=0,j=0), (1,0), (0,1), (1,1)
        assert vals == [0.0, 2.0, 1.0, 3.0]

    def test_rejects_wrong_shape(self, tmp_path):
        with pytest.raises(ValueError):
            write_vtk_structured_points(str(tmp_path / "bad.vtk"),
                                        np.zeros((2, 2, 2, 1)), (0, 0, 0), (1, 1, 1))


class TestCsv:
    def test_empty_series_header_only(self, tmp_path):
        path = tmp_path / "energy.csv"
        write_csv(str(path), ("step", "t", "energy"), [])
        assert path.read_text() == "step,t,energy\n"

    def test_floats_round_trip(self, tmp_path):
        path = tmp_path / "vals.csv"
        rows = [(0, 0.1, 1.0 / 3.0), (1, 0.2, 2.0 / 3.0)]
        write_csv(str(path), ("step", "t", "value"), rows)
        lines = path.read_text().splitlines()[1:]
        for (s, t, v), line in zip(rows, lines):
            ss, ts, vs = line.split(",")
            assert int(ss) == s and float(ts) == t and float(vs) == v


class TestConfigRoundTrip:
    SAMPLES = [
        {"kind": "converge-time", "scheme": "scheme-a", "case": "mms-1d",
         "alpha": 0.01, "dx": 1e-4, "t_final": 0.3,
         "dt_list": [0.0015, 0.001, 0.00075, 0.0006]},
        {"kind": "converge-space", "scheme": "scheme-b", "case": "mms-1d",
         "alpha": 0.01, "dt": 1e-5, "t_final": 0.05,
         "dx_list": [0.2, 0.1, 0.05, 0.04]},
        {"kind": "converge-2d", "scheme": "scheme-a", "alpha": 0.01, "dx": 0.1,
         "t_final": 4e-5, "dt_divisors": [10, 20, 40, 80]},
        {"kind": "stability", "scheme": "scheme-b", "h_list": [0.1],
         "rounds": 4},
        {"kind": "micromag", "alpha": 0.1, "grid": [16, 16, 3],
         "dt_seconds": 1e-12, "t_final_seconds": 1e-11},
        {"kind": "solve", "scheme": "si2", "grid": [4, 4, 1],
         "params": {"eps": 1.0, "alpha": 0.1}, "dt": 1e-3, "n_steps": 5},
    ]

    @pytest.mark.parametrize("sample", SAMPLES, ids=[s["kind"] for s in SAMPLES])
    def test_parse_emit_parse(self, sample):
        cfg = ExperimentConfig.from_dict(sample)
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    def test_json_file_round_trip(self, tmp_path):
        cfg = ExperimentConfig.from_dict(self.SAMPLES[0])
        path = tmp_path / "cfg.json"
        write_json(str(path), cfg.to_dict())
        assert ExperimentConfig.from_file(str(path)) == cfg


class TestConfigValidation:
    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="kind"):
            ExperimentConfig.from_dict({"kind": "estimate"})

    def test_unknown_field(self):
        with pytest.raises(ConfigError, match="unknown config fields"):
            ExperimentConfig.from_dict({"kind": "solve", "schem": "si2"})

    def test_missing_required(self):
        with pytest.raises(ConfigError, match="requires field"):
            ExperimentConfig.from_dict({"kind": "converge-time",
                                        "scheme": "scheme-a"})

    def test_bad_scheme(self):
        with pytest.raises(ConfigError, match="scheme"):
            ExperimentConfig.from_dict({"kind": "stability", "scheme": "rk4",
                                        "h_list": [0.1]})

    def test_nonpositive_values(self):
        with pytest.raises(ConfigError, match="positive"):
            ExperimentConfig.from_dict({"kind": "converge-time",
                                        "scheme": "scheme-a", "case": "mms-1d",
                                        "alpha": -0.01, "dx": 1e-2,
                                        "t_final": 0.3, "dt_list": [1e-3]})

    def test_bad_grid(self):
        with pytest.raises(ConfigError, match="grid"):
            ExperimentConfig.from_dict({"kind": "solve", "scheme": "si2",
                                        "grid": [4, 4], "dt": 1e-3,
                                        "n_steps": 2,
                                        "params": {"eps": 1.0, "alpha": 0.1}})

    BY_KIND = {s["kind"]: s for s in TestConfigRoundTrip.SAMPLES}
    # changes to a valid sample; None drops the field
    BAD_INTEGERS = [
        ("solve", {"n_steps": 2.5}), ("solve", {"n_steps": -3}),
        ("solve", {"n_steps": 0}), ("solve", {"n_steps": True}),
        ("stability", {"rounds": 2.5}), ("stability", {"rounds": 0}),
        ("converge-2d", {"ref_divisor": 2.5}),
        # the divisors are step counts too
        ("converge-2d", {"dt_divisors": [4.5, 9]}),
        ("converge-2d", {"dt_divisors": [4.0, 8.0]}),
        ("solve", {"snapshot_every": -1}), ("solve", {"snapshot_every": 1.5}),
        ("solve", {"seed": "x"}), ("solve", {"seed": 1.5}),
        ("micromag", {"t_final_seconds": 1e-13}),
        ("micromag", {"dt_seconds": 1e-8, "t_final_seconds": None}),
        ("solve", {"grid": [True, 4, 4]}),
    ]

    @pytest.mark.parametrize(
        "kind,change", BAD_INTEGERS,
        ids=[f"{k}-{'-'.join(f'{n}={v}' for n, v in c.items())}"
             for k, c in BAD_INTEGERS])
    def test_malformed_integers(self, kind, change):
        data = {k: v for k, v in dict(self.BY_KIND[kind], **change).items()
                if v is not None}
        with pytest.raises(ConfigError, match="integer|at least one step"):
            ExperimentConfig.from_dict(data)

    # numbers that would crash a run: infinities, and studies of one run
    BAD_NUMBERS = [
        ("micromag", {"t_final_seconds": float("inf")}),
        ("micromag", {"dt_seconds": float("inf")}),
        ("micromag", {"t_final_seconds": 1e300, "dt_seconds": 1e-12}),
        ("converge-time", {"alpha": float("inf")}),
        ("converge-time", {"dt_list": [0.05]}),
        ("converge-time", {"dt_list": [0.05, float("inf")]}),
        ("converge-space", {"dx_list": [0.1]}),
        ("converge-2d", {"dt_divisors": [10]}),
        ("stability", {"h_list": [float("nan")]}),
        ("stability", {"h_list": 0.1}),
        # JSON booleans are not numbers
        ("solve", {"dt": True}),
        ("converge-time", {"dt_list": [True, 0.5]}),
    ]

    @pytest.mark.parametrize(
        "kind,change", BAD_NUMBERS,
        ids=[f"{k}-{'-'.join(f'{n}={v}' for n, v in c.items())}"
             for k, c in BAD_NUMBERS])
    def test_nonfinite_or_too_few(self, kind, change):
        with pytest.raises(ConfigError, match="finite|at least"):
            ExperimentConfig.from_dict(dict(self.BY_KIND[kind], **change))

    # studies that could not fit an order: a run of no step, or fewer than
    # two distinct step sizes; (kind, change, message)
    BAD_STUDIES = [
        ("converge-time", {"t_final": 0.1, "dt_list": [0.5, 0.25]},
         r"converge-time needs at least one step .* t_final=0.1, dt=0.5"),
        ("converge-space", {"t_final": 0.1, "dt": 0.5},
         r"converge-space needs at least one step .* t_final=0.1, dt=0.5"),
        ("converge-time", {"dt_list": [0.001, 0.001]},
         r"dt_list must be a list of at least 2 distinct"),
        ("converge-space", {"dx_list": [0.1, 0.1, 0.1]},
         r"dx_list must be a list of at least 2 distinct"),
        ("converge-2d", {"dt_divisors": [10, 10]},
         r"dt_divisors must be a list of at least 2 distinct"),
    ]

    @pytest.mark.parametrize(
        "kind,change,message", BAD_STUDIES,
        ids=[f"{k}-{'-'.join(f'{n}={v}' for n, v in c.items())}"
             for k, c, _ in BAD_STUDIES])
    def test_study_that_cannot_fit_an_order(self, kind, change, message):
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig.from_dict(dict(self.BY_KIND[kind], **change))

    # a step that does not divide the final time: the run took round(t / dt)
    # steps and stopped at 3 ps for 4 ps, or ran to 2 ps for 1.6 ps
    STEPS_NOT_DIVIDING = [
        ("micromag", {"grid": [4, 4, 1], "dt_seconds": 3e-12,
                      "t_final_seconds": 4e-12},
         r"dt_seconds=3e-12 does not divide t_final_seconds=4e-12"),
        ("micromag", {"t_final_seconds": 1.6e-12},
         r"dt_seconds=1e-12 does not divide t_final_seconds=1.6e-12"),
        ("converge-time", {"dt_list": [0.0015, 0.0007]},
         r"dt=0.0007 does not divide t_final=0.3"),
        ("converge-space", {"dt": 3e-5},
         r"dt=3e-05 does not divide t_final=0.05"),
    ]

    @pytest.mark.parametrize(
        "kind,change,message", STEPS_NOT_DIVIDING,
        ids=[f"{k}-{'-'.join(f'{n}={v}' for n, v in c.items())}"
             for k, c, _ in STEPS_NOT_DIVIDING])
    def test_step_not_dividing_final_time(self, kind, change, message):
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig.from_dict(dict(self.BY_KIND[kind], **change))

    def test_steps_dividing_to_rounding_pass(self):
        # 2 ns over 1 ps and 0.3 over 0.3/7 are whole counts up to rounding
        ExperimentConfig.from_dict(dict(self.BY_KIND["micromag"],
                                        t_final_seconds=2e-9))
        ExperimentConfig.from_dict(dict(self.BY_KIND["converge-time"],
                                        dt_list=[0.3 / 7, 0.3 / 11]))

    # a missing kind, and fields malformed for their kind; None drops the
    # field; (kind, change, message)
    BAD_FIELDS = [
        ("solve", {"kind": None}, "config is missing 'kind'"),
        ("converge-time", {"case": "mms-2d"}, "unknown case 'mms-2d'"),
        ("converge-2d", {"domain": [1.0, 1.0, 1.0]},
         r"converge-2d domain must be \[lx, ly\]"),
        ("stability", {"cfl_bracket": [1.0, 0.5]},
         r"cfl_bracket must be \[lo, hi\] with lo < hi"),
        ("solve", {"domain": [1.0, 1.0]}, r"solve domain must be \[lx, ly, lz\]"),
    ]

    @pytest.mark.parametrize(
        "kind,change,message", BAD_FIELDS,
        ids=[f"{k}-{'-'.join(f'{n}={v}' for n, v in c.items())}"
             for k, c, _ in BAD_FIELDS])
    def test_malformed_fields(self, kind, change, message):
        data = {k: v for k, v in dict(self.BY_KIND[kind], **change).items()
                if v is not None}
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig.from_dict(data)

    def test_root_that_is_not_an_object(self, tmp_path):
        path = tmp_path / "cfg.json"
        write_json(str(path), [TestConfigRoundTrip.SAMPLES[0]])
        with pytest.raises(ConfigError, match="config root must be a JSON object"):
            ExperimentConfig.from_file(str(path))

    def test_file_read_as_utf8(self, tmp_path):
        # a UTF-8 field name reads back whatever the locale's encoding; bytes
        # that are not UTF-8 are a config error, not a UnicodeDecodeError
        path = tmp_path / "cfg.json"
        path.write_bytes('{"kind": "solve", "schéme": "si2"}'.encode("utf-8"))
        with pytest.raises(ConfigError, match=r"unknown config fields: \['schéme'\]"):
            ExperimentConfig.from_file(str(path))
        path.write_bytes(b"\xff\xfe{}")
        with pytest.raises(ConfigError, match="cannot read config"):
            ExperimentConfig.from_file(str(path))

    def test_removed_fields_are_unknown(self):
        for name, value in (("error_cap", 0.5), ("full_scale_grid", [8, 8, 2])):
            with pytest.raises(ConfigError, match="unknown config fields"):
                ExperimentConfig.from_dict(dict(self.BY_KIND["micromag"],
                                                **{name: value}))

    def test_solve_params_required_keys(self):
        with pytest.raises(ConfigError, match="eps"):
            ExperimentConfig.from_dict({"kind": "solve", "scheme": "si2",
                                        "grid": [4, 4, 1], "dt": 1e-3,
                                        "n_steps": 2, "params": {"q": 1.0}})

    _PARAMS = {"eps": 1.0, "alpha": 0.1}
    # nested objects: malformed values, and keys the object does not take;
    # (kind, change, message)
    BAD_NESTED = [
        ("solve", {"params": dict(_PARAMS, eps="x")}, "params eps must be a number"),
        ("solve", {"params": dict(_PARAMS, eps=-1)}, "eps must be positive"),
        ("solve", {"params": dict(_PARAMS, h_ext=5)}, "h_ext must be a list"),
        ("solve", {"params": dict(_PARAMS, h_ext=[0, 0])}, "h_ext must be a finite 3"),
        ("solve", {"params": dict(_PARAMS, eps=True)}, "params eps must be a number"),
        ("solve", {"params": dict(_PARAMS, stray="no")}, "stray must be true or false"),
        ("solve", {"params": dict(_PARAMS, Q=3)}, r"params does not read fields \['Q'\]"),
        ("micromag", {"constants": dict(DEFAULT_CONSTANTS, A="x")},
         "constants A must be a number"),
        ("micromag", {"constants": dict(DEFAULT_CONSTANTS, A=-1)}, "A must be positive"),
        ("micromag", {"constants": list(DEFAULT_CONSTANTS.values())},
         "constants must be a JSON object"),
        ("micromag", {"constants": dict(DEFAULT_CONSTANTS, mu0=1.0)},
         r"constants does not read fields \['mu0'\]"),
        ("micromag", {"initial": "uniform"}, "initial must be an object"),
        ("solve", {"initial": {"type": "neel-wall", "eta": "x"}},
         "eta must be finite and positive"),
        ("solve", {"initial": {"type": "neel-wall", "eta": 0.0}},
         "eta must be finite and positive"),
        ("solve", {"initial": {"type": "neel-wall", "eta": float("inf")}},
         "eta must be finite and positive"),
        ("micromag", {"initial": {"type": "random", "direction": [0, 0, 1]}},
         r"initial type 'random' does not read fields \['direction'\]"),
    ]

    @pytest.mark.parametrize("kind,change,message", BAD_NESTED, ids=[
        "params-eps-string", "params-eps-negative", "params-h_ext-scalar",
        "params-h_ext-two", "params-eps-bool", "params-stray-string",
        "params-unknown-key", "constants-A-string", "constants-A-negative",
        "constants-list", "constants-extra-key", "initial-string",
        "initial-eta-string", "initial-eta-zero", "initial-eta-inf",
        "initial-random-direction"])
    def test_malformed_nested_objects(self, kind, change, message):
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig.from_dict(dict(self.BY_KIND[kind], **change))


README = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")


class TestKindFields:
    def test_every_field_is_read_by_some_kind(self):
        read = set().union(*KIND_FIELDS.values())
        assert read == {f.name for f in fields(ExperimentConfig)} - {"kind"}

    UNREAD = [("micromag", "dt", 1e-3), ("converge-time", "grid", [4, 4, 1]),
              ("solve", "dt_seconds", 1e-12), ("stability", "seed", 0),
              ("converge-2d", "case", "mms-1d"), ("converge-space", "rounds", 6)]

    @pytest.mark.parametrize("kind,name,value", UNREAD,
                             ids=[f"{k}-{n}" for k, n, _ in UNREAD])
    def test_rejects_a_field_the_kind_does_not_read(self, kind, name, value):
        sample = TestConfigValidation.BY_KIND[kind]
        with pytest.raises(ConfigError, match=f"kind '{kind}' does not read"):
            ExperimentConfig.from_dict(dict(sample, **{name: value}))

    def test_defaults_are_copies(self):
        sample = TestConfigValidation.BY_KIND["micromag"]
        ExperimentConfig.from_dict(sample).constants["A"] = 1.0
        assert ExperimentConfig.from_dict(sample).constants == DEFAULT_CONSTANTS

    def test_readme_examples_parse(self):
        with open(README) as fh:
            blocks = re.findall(r"```json\n(.*?)```", fh.read(), re.S)
        kinds = [ExperimentConfig.from_dict(json.loads(b)).kind for b in blocks]
        assert set(kinds) == set(KINDS)

    def test_readme_library_sketch_runs(self, capsys):
        with open(README) as fh:
            (block,) = re.findall(r"```python\n(.*?)```", fh.read(), re.S)
        exec(compile(block, README, "exec"), {})
        (line,) = capsys.readouterr().out.splitlines()
        assert np.isfinite(float(line)), line
