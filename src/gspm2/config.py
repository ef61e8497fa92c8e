"""Experiment configuration: a JSON-backed record checked against one table.

`KIND_FIELDS` maps each run kind to the fields it reads, each with its
default or `REQUIRED`. `validate` rejects a set field the kind does not
read, fills in the defaults (deep copies), requires the rest and checks
every value; the nested `params`, `constants` and `initial` objects go the
same way, their ranges checked by `MaterialParams` and `PhysicalConstants`.
The micromag production grid is `"grid": [250, 250, 5]` (4 nm cells).

A config round-trips exactly: `ExperimentConfig.from_dict(cfg.to_dict())`
equals `cfg`, and the emitted config.json, every field of the kind with its
default filled in, re-parses to the same object.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .convergence import _STEPPERS, cells_across
from .mesh import is_number
from .physics import MaterialParams, PhysicalConstants

CASES = ("mms-1d", "mms-3d")
REQUIRED = object()     # marks a field with no default

# SI constants of the thin-film experiment; L is the rescaling length
DEFAULT_CONSTANTS = {
    "A": 1.3e-11,       # J/m
    "Ms": 8.0e5,        # A/m
    "Ku": 1.0e2,        # J/m^3
    "gamma": 1.76e11,   # 1/(T s)
    "L": 1.0e-6,        # m
}

_R = REQUIRED
KIND_FIELDS = {
    "converge-time": {"scheme": _R, "case": _R, "alpha": _R, "dx": _R,
                      "t_final": _R, "dt_list": _R},
    "converge-space": {"scheme": _R, "case": _R, "alpha": _R, "dt": _R,
                       "t_final": _R, "dx_list": _R},
    "converge-2d": {"scheme": _R, "alpha": _R, "dx": _R, "t_final": _R,
                    "dt_divisors": _R, "ref_divisor": 5000,
                    "domain": [1.0, 0.2]},
    "stability": {"scheme": _R, "h_list": _R, "alpha": 1.0, "t_final": 1.0,
                  "cfl_bracket": [0.125, 1.0], "rounds": 6},
    "micromag": {"alpha": _R, "scheme": "scheme-a", "grid": [64, 64, 3],
                 "initial": {"type": "stripes"}, "seed": 0,
                 "constants": DEFAULT_CONSTANTS, "dt_seconds": 1.0e-12,
                 "t_final_seconds": 2.0e-9, "snapshot_every": 500},
    "solve": {"scheme": _R, "grid": _R, "params": _R, "dt": _R, "n_steps": _R,
              "domain": [1.0, 1.0, 1.0], "initial": {"type": "uniform"},
              "seed": 0, "snapshot_every": 0},
}
KINDS = tuple(KIND_FIELDS)

# keys of the nested objects; a None default marks an optional key left unset
PARAMS_FIELDS = {"eps": _R, "alpha": _R, "q": 0.0, "h_ext": [0.0, 0.0, 0.0],
                 "stray": False}
CONSTANTS_FIELDS = dict.fromkeys(DEFAULT_CONSTANTS, _R)
# by initial-state type; a missing neel-wall eta is the grid's hx
INITIAL_FIELDS = {"uniform": {"direction": [0.0, 0.0, 1.0]},
                  "neel-wall": {"eta": None}, "stripes": {}, "random": {}}


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


def _resolve(table: dict, given: dict, where: str) -> dict:
    """`given` with `table`'s defaults filled in as deep copies; rejects a
    key the table lacks and a REQUIRED one left unset."""
    unread = sorted(set(given) - set(table))
    if unread:
        raise ConfigError(f"{where} does not read fields {unread}")
    for name, default in table.items():
        if default is REQUIRED and name not in given:
            raise ConfigError(f"{where} requires field {name!r}")
    return {**{name: copy.deepcopy(default) for name, default in table.items()
               if default is not REQUIRED and default is not None}, **given}


def _is_positive(value) -> bool:
    return is_number(value) and math.isfinite(value) and value > 0


def _numbers(where: str, values: dict):
    for name, value in values.items():
        if not is_number(value):
            raise ConfigError(f"{where} {name} must be a number, got {value!r}")


def _checked(where: str, make, *args, **kwargs):
    """`make(...)`, its ValueError (a range check) raised as a ConfigError."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def material_params(params: dict) -> MaterialParams:
    """The solve kind's material model from its resolved `params` object."""
    return MaterialParams(eps=params["eps"], alpha=params["alpha"], q=params["q"],
                          h_ext=params["h_ext"],
                          stray_enabled=params["stray"])


@dataclass
class ExperimentConfig:
    kind: str
    scheme: str | None = None
    case: str | None = None
    alpha: float | None = None
    dx: float | None = None
    dt: float | None = None
    t_final: float | None = None
    dt_list: list | None = None
    dx_list: list | None = None
    dt_divisors: list | None = None
    ref_divisor: int | None = None
    domain: list | None = None
    h_list: list | None = None
    cfl_bracket: list | None = None
    rounds: int | None = None
    grid: list | None = None
    params: dict | None = None
    initial: dict | None = None
    n_steps: int | None = None
    snapshot_every: int | None = None
    seed: int | None = None
    constants: dict | None = None
    dt_seconds: float | None = None
    t_final_seconds: float | None = None

    def to_dict(self) -> dict:
        """Dictionary form with unset (None) fields dropped."""
        return {k: v for k, v in asdict(self).items() if v is not None}

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        if "kind" not in data:
            raise ConfigError("config is missing 'kind'")
        cfg = cls(**data)
        cfg.validate()
        return cfg

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        # JSON text is UTF-8 (RFC 8259), whatever the locale's encoding
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, UnicodeDecodeError, json.JSONDecodeError,
                RecursionError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config root must be a JSON object")
        return cls.from_dict(data)

    # ---- validation ----------------------------------------------------

    def _positive(self, *names):
        for name in names:
            value = getattr(self, name)
            if value is not None and not _is_positive(value):
                raise ConfigError(f"{name} must be finite and positive, "
                                  f"got {value!r}")

    def _integer(self, *names, minimum=None):
        for name in names:
            value = getattr(self, name)
            if value is None:
                continue
            if (isinstance(value, bool) or not isinstance(value, int)
                    or (minimum is not None and value < minimum)):
                bound = "" if minimum is None else f" >= {minimum}"
                raise ConfigError(f"{name} must be an integer{bound}, got {value!r}")

    def _positive_list(self, *names, min_len=1):
        for name in names:
            values = getattr(self, name)
            if values is None:
                continue
            if (not isinstance(values, (list, tuple))
                    or not all(_is_positive(v) for v in values)
                    or len(set(values)) < min_len):
                raise ConfigError(f"{name} must be a list of at least {min_len} "
                                  f"distinct finite positive numbers, got {values!r}")

    def _steps(self, t_name: str, dt_name: str, dt):
        """Reject a run of this config that would take no step, a count
        beyond floats, or a step that does not divide the final time (to
        1e-9 relative, the rule of `cells_across`): the run takes
        round(t_final / dt) steps and would otherwise stop short of t_final
        or run past it."""
        t_final = getattr(self, t_name)
        steps = t_final / dt
        if not (math.isfinite(steps) and round(steps) >= 1):
            raise ConfigError(f"{self.kind} needs at least one step and a finite "
                              f"count, got {t_name}={t_final!r}, {dt_name}={dt!r}")
        try:
            cells_across(t_final, dt)
        except ValueError:
            raise ConfigError(f"{self.kind}: {dt_name}={dt!r} does not divide "
                              f"{t_name}={t_final!r} into whole steps") from None

    def _object(self, name: str, table: dict, where: str | None = None):
        """Resolve the nested object `name` against `table` in place."""
        value = getattr(self, name)
        if not isinstance(value, dict):
            raise ConfigError(f"{name} must be a JSON object, got {value!r}")
        setattr(self, name, _resolve(table, value, where or name))

    def _check_params(self):
        self._object("params", PARAMS_FIELDS)
        p = self.params
        _numbers("params", {k: p[k] for k in ("eps", "alpha", "q")})
        if not (isinstance(p["h_ext"], (list, tuple))
                and all(is_number(v) for v in p["h_ext"])):
            raise ConfigError(f"params h_ext must be a list of numbers, "
                              f"got {p['h_ext']!r}")
        if not isinstance(p["stray"], bool):
            raise ConfigError(f"params stray must be true or false, "
                              f"got {p['stray']!r}")
        _checked("params", material_params, p)

    def _check_constants(self):
        self._object("constants", CONSTANTS_FIELDS)
        _numbers("constants", self.constants)
        _checked("constants", PhysicalConstants, **self.constants)

    def _check_initial(self):
        init = self.initial
        kind = init.get("type") if isinstance(init, dict) else None
        # tuples, not the tables: a list value is unhashable, not unknown
        if kind not in tuple(INITIAL_FIELDS):
            raise ConfigError(f"initial must be an object whose type is one of "
                              f"{tuple(INITIAL_FIELDS)}, got {init!r}")
        self._object("initial", dict(INITIAL_FIELDS[kind], type=REQUIRED),
                     f"initial type {kind!r}")
        if kind == "uniform":
            d = self.initial["direction"]
            # the norm the run divides by
            norm = (np.linalg.norm(np.asarray(d, dtype=float))
                    if isinstance(d, (list, tuple)) and len(d) == 3
                    and all(is_number(v) for v in d) else 0.0)
            if not (math.isfinite(norm) and norm > 0.0):
                raise ConfigError(f"uniform direction must be a finite nonzero "
                                  f"3-vector, got {d!r}")
        if "eta" in self.initial and not _is_positive(self.initial["eta"]):
            raise ConfigError(f"neel-wall eta must be finite and positive, "
                              f"got {self.initial['eta']!r}")

    def validate(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown kind {self.kind!r}, expected one of {KINDS}")
        given = {f.name: getattr(self, f.name) for f in fields(self)
                 if f.name != "kind" and getattr(self, f.name) is not None}
        for name, value in _resolve(KIND_FIELDS[self.kind], given,
                                    f"kind {self.kind!r}").items():
            setattr(self, name, value)

        if self.scheme not in tuple(_STEPPERS):
            raise ConfigError(f"unknown scheme {self.scheme!r}, "
                              f"expected one of {tuple(_STEPPERS)}")
        if self.case is not None and self.case not in CASES:
            raise ConfigError(f"unknown case {self.case!r}, expected one of {CASES}")
        self._positive("alpha", "dx", "dt", "t_final", "dt_seconds",
                       "t_final_seconds")
        self._integer("n_steps", "rounds", "ref_divisor", minimum=1)
        # numpy's generator takes no negative seed
        self._integer("snapshot_every", "seed", minimum=0)
        # an order is fitted from at least two runs of distinct step sizes
        self._positive_list("dt_list", "dx_list", "dt_divisors", min_len=2)
        self._positive_list("h_list", "domain", "cfl_bracket")
        # each divisor is also a run's step count; bools fail the check above
        if self.dt_divisors is not None and not all(isinstance(v, int)
                                                    for v in self.dt_divisors):
            raise ConfigError(f"dt_divisors must be a list of integers >= 1, "
                              f"got {self.dt_divisors!r}")
        if self.grid is not None:
            if (not isinstance(self.grid, (list, tuple)) or len(self.grid) != 3
                    or any(isinstance(n, bool) or not isinstance(n, int) or n < 1
                           for n in self.grid)):
                raise ConfigError(f"grid must be three positive integers, got {self.grid!r}")

        if self.kind == "converge-2d":
            if len(self.domain) != 2:
                raise ConfigError("converge-2d domain must be [lx, ly]")
        elif self.kind == "stability":
            if len(self.cfl_bracket) != 2 or not self.cfl_bracket[0] < self.cfl_bracket[1]:
                raise ConfigError(f"cfl_bracket must be [lo, hi] with lo < hi, "
                                  f"got {self.cfl_bracket!r}")
        elif self.kind == "converge-time":
            for dt in self.dt_list:
                self._steps("t_final", "dt", dt)
        elif self.kind == "converge-space":
            self._steps("t_final", "dt", self.dt)
        elif self.kind == "micromag":
            self._steps("t_final_seconds", "dt_seconds", self.dt_seconds)
            self._check_constants()
            self._check_initial()
        elif self.kind == "solve":
            if len(self.domain) != 3:
                raise ConfigError("solve domain must be [lx, ly, lz]")
            self._check_params()
            self._check_initial()
        # a mesh size must divide its domain: the unit line or cube, or both
        # lengths of the converge-2d rectangle
        sizes = {"converge-time": [self.dx], "converge-space": self.dx_list,
                 "converge-2d": [self.dx], "stability": self.h_list}
        lengths = self.domain if self.kind == "converge-2d" else (1.0,)
        for h in sizes.get(self.kind, ()):
            for length in lengths:
                _checked(self.kind, cells_across, length, h)
        return self
