"""Flat experiment configuration: a key=value file plus CLI overrides.

A config plus a seed reproduces every output byte for byte at any worker
count (worker count only sets the process pool size; the stream
assignment is fixed by the chunking, not by the pool).  A chunk
(`chunk_points` start points of a trace stratum) is the unit of a random
stream and, times `n_paths`, the most rows marched at once.
"""

import math
from dataclasses import dataclass, field, fields, replace

from .errors import ParameterError
from .geometry import parse_domain
from .specfun import ProcessParams
from .tracelab import MIN_PATHS, Budgets, _check_count, _check_flag

FORMATS = ("csv", "json")  # artifact formats io.write_rows writes


@dataclass(frozen=True)
class ExperimentConfig:
    alpha: float = 1.0
    m: float = 0.0
    d: int = 2
    domain: str = "ball:R0=1"
    t_grid: tuple = (0.05, 0.1, 0.2)
    n_paths: int = 2000
    n_x: int = 4000
    steps: int = 64
    profile_n_paths: int = 20000
    extrapolate: bool = True
    seed: int = 12345
    workers: int = 1
    chunk_points: int = 512
    out: str = "out"
    fmt: str = "csv"
    budget_scale: float = 1.0

    def __post_init__(self):
        # checked here so that a CLI run rejects them before any work starts
        for name in ("steps", "chunk_points", "n_x", "n_paths", "profile_n_paths", "workers"):
            _check_count(name, getattr(self, name))
        # a bool passes isinstance(x, int), but is no scale or seed
        s = self.budget_scale
        if isinstance(s, bool) or not isinstance(s, (int, float)) or not 0.0 < s < math.inf:
            raise ParameterError(f"budget_scale must be finite and > 0, got {s!r}")
        if not self.t_grid or not all(0.0 < t < math.inf for t in self.t_grid):
            raise ParameterError(
                f"t_grid must hold at least one t, each finite and > 0, got {self.t_grid!r}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or self.seed < 0:
            raise ParameterError(f"seed must be an integer >= 0, got {self.seed!r}")
        _check_flag("extrapolate", self.extrapolate)
        if self.fmt not in FORMATS:
            raise ParameterError(f"fmt must be one of {', '.join(FORMATS)}, got {self.fmt!r}")

    def params(self) -> ProcessParams:
        return ProcessParams(alpha=self.alpha, m=self.m, d=self.d)

    def domain_obj(self):
        return parse_domain(self.domain, self.d)

    def scaled(self, budget: int, floor: int) -> int:
        """A sample count `budget` scaled by `budget_scale`, but not below `floor`."""
        return max(floor, int(budget * self.budget_scale))

    def budgets(self, **overrides) -> Budgets:
        """Sample budgets, scaled by `budget_scale` down to fixed floors; with
        `overrides`, those of this config with those keys replaced."""
        if overrides:
            return replace(self, **overrides).budgets()
        return Budgets(
            n_paths=self.scaled(self.n_paths, MIN_PATHS),
            n_x=self.scaled(self.n_x, 64),
            steps=self.steps,
            extrapolate=self.extrapolate,
            profile_n_paths=self.scaled(self.profile_n_paths, 200),
            chunk_points=self.chunk_points,
            workers=self.workers,
        )

    def as_dict(self) -> dict:
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            out[f.name] = list(v) if isinstance(v, tuple) else v
        return out

    def override(self, **kw) -> "ExperimentConfig":
        kw = {k: v for k, v in kw.items() if v is not None}
        if "t_grid" in kw:
            kw["t_grid"] = _as_float_tuple(kw["t_grid"])
        return replace(self, **kw)


def _as_float_tuple(value):
    if isinstance(value, (tuple, list)):
        return tuple(float(v) for v in value)
    return tuple(float(v) for v in str(value).split(","))


# a config file value is parsed as the type of its ExperimentConfig field
_PARSERS = {
    bool: lambda text: {"true": True, "false": False}[text.lower()],
    tuple: _as_float_tuple, int: int, float: float, str: str,
}


def load_config(path) -> ExperimentConfig:
    """Read a flat `key = value` file; unknown keys are an error."""
    types = {f.name: f.type for f in fields(ExperimentConfig)}
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParameterError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, text = (part.strip() for part in line.split("=", 1))
            if key not in types:
                raise ParameterError(f"{path}:{lineno}: unknown config key {key!r}")
            parse = _PARSERS[types[key]]
            try:
                values[key] = parse(text)
            except (KeyError, ValueError):  # KeyError: a bool that is neither true nor false
                raise ParameterError(f"{path}:{lineno}: bad {key} value {text!r}") from None
    return ExperimentConfig().override(**values)


def dump_config(cfg: ExperimentConfig, path):
    with open(path, "w") as fh:
        for key, value in cfg.as_dict().items():
            if isinstance(value, list):
                value = ",".join(repr(v) for v in value)  # repr round-trips a float exactly
            fh.write(f"{key} = {value}\n")
