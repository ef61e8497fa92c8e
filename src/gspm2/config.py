"""Experiment configuration: a flat JSON-backed record with per-kind validation.

A config round-trips exactly: `ExperimentConfig.from_dict(cfg.to_dict())`
equals `cfg`, and the emitted config.json re-parses to the same object.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields

from .convergence import _STEPPERS

KINDS = ("converge-time", "converge-space", "converge-2d", "stability",
         "micromag", "solve")
CASES = ("mms-1d", "mms-3d")

# SI constants of the thin-film experiment; L is the rescaling length
DEFAULT_CONSTANTS = {
    "A": 1.3e-11,       # J/m
    "Ms": 8.0e5,        # A/m
    "Ku": 1.0e2,        # J/m^3
    "gamma": 1.76e11,   # 1/(T s)
    "L": 1.0e-6,        # m
}
# micromag step and duration when the config gives none
_MICROMAG_DT_SECONDS = 1.0e-12
_MICROMAG_T_FINAL_SECONDS = 2.0e-9


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


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
    ref_divisor: int = 5000
    domain: list | None = None
    h_list: list | None = None
    cfl_bracket: list = field(default_factory=lambda: [0.125, 1.0])
    rounds: int = 6
    grid: list | None = None
    params: dict | None = None
    initial: dict | None = None
    n_steps: int | None = None
    snapshot_every: int = 0
    seed: int = 0
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
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config root must be a JSON object")
        return cls.from_dict(data)

    def _micromag_seconds(self) -> tuple:
        """(dt_seconds, t_final_seconds), micromag defaults for unset ones."""
        return (_MICROMAG_DT_SECONDS if self.dt_seconds is None else self.dt_seconds,
                _MICROMAG_T_FINAL_SECONDS if self.t_final_seconds is None
                else self.t_final_seconds)

    # ---- validation ----------------------------------------------------

    def _require(self, *names):
        for name in names:
            if getattr(self, name) is None:
                raise ConfigError(f"kind {self.kind!r} requires field {name!r}")

    @staticmethod
    def _is_positive(value) -> bool:
        # JSON true/false parse to bool, which Python counts as an int
        return (isinstance(value, (int, float)) and not isinstance(value, bool)
                and math.isfinite(value) and value > 0)

    def _positive(self, *names):
        for name in names:
            value = getattr(self, name)
            if value is not None and not self._is_positive(value):
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
            if (not isinstance(values, (list, tuple)) or len(values) < min_len
                    or not all(self._is_positive(v) for v in values)):
                raise ConfigError(f"{name} must be a list of at least {min_len} "
                                  f"finite positive numbers, got {values!r}")

    def validate(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown kind {self.kind!r}, expected one of {KINDS}")
        if self.scheme is not None and self.scheme not in _STEPPERS:
            raise ConfigError(f"unknown scheme {self.scheme!r}, "
                              f"expected one of {tuple(_STEPPERS)}")
        if self.case is not None and self.case not in CASES:
            raise ConfigError(f"unknown case {self.case!r}, expected one of {CASES}")
        self._positive("alpha", "dx", "dt", "t_final", "dt_seconds",
                       "t_final_seconds")
        self._integer("n_steps", "rounds", "ref_divisor", minimum=1)
        self._integer("snapshot_every", minimum=0)
        self._integer("seed")
        # an order is fitted from at least two runs
        self._positive_list("dt_list", "dx_list", "dt_divisors", min_len=2)
        self._positive_list("h_list", "domain", "cfl_bracket")
        if self.grid is not None:
            if (len(self.grid) != 3
                    or any(isinstance(n, bool) or not isinstance(n, int) or n < 1
                           for n in self.grid)):
                raise ConfigError(f"grid must be three positive integers, got {self.grid!r}")

        if self.kind == "converge-time":
            self._require("scheme", "case", "alpha", "dx", "t_final", "dt_list")
        elif self.kind == "converge-space":
            self._require("scheme", "case", "alpha", "dt", "t_final", "dx_list")
        elif self.kind == "converge-2d":
            self._require("scheme", "alpha", "dx", "t_final", "dt_divisors")
            if self.domain is not None and len(self.domain) != 2:
                raise ConfigError("converge-2d domain must be [lx, ly]")
        elif self.kind == "stability":
            self._require("scheme", "h_list")
            if len(self.cfl_bracket) != 2 or not self.cfl_bracket[0] < self.cfl_bracket[1]:
                raise ConfigError(f"cfl_bracket must be [lo, hi] with lo < hi, "
                                  f"got {self.cfl_bracket!r}")
        elif self.kind == "micromag":
            self._require("alpha")
            dt_s, t_s = self._micromag_seconds()
            steps = t_s / dt_s
            if not (math.isfinite(steps) and round(steps) >= 1):
                raise ConfigError(f"micromag needs at least one step and a "
                                  f"finite count, got "
                                  f"t_final_seconds={t_s!r}, dt_seconds={dt_s!r}")
            if self.constants is not None:
                missing = set(DEFAULT_CONSTANTS) - set(self.constants)
                if missing:
                    raise ConfigError(f"constants missing entries: {sorted(missing)}")
        elif self.kind == "solve":
            self._require("scheme", "grid", "params", "dt", "n_steps")
            if not isinstance(self.params, dict) or "eps" not in self.params \
                    or "alpha" not in self.params:
                raise ConfigError("solve params must include at least eps and alpha")
        return self
