"""Flat key-value run configuration with strict validation.

The format is one ``key = value`` pair per line, ``#`` comments, no
sections.  Unknown keys are rejected by name: the parameter space is small
enough that silent typo-driven misconfiguration is the bigger hazard.
"""

import math
from dataclasses import dataclass, fields

from .waves import TimeGrid


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    """Run parameters of the CLI and of both solvers, checked on construction."""

    dimension: int = 2
    grid_n: int = 64
    epsilon: float = 1e-2
    t_end: float = 5.0
    dt: float = 0.01
    solver: str = "picard"
    picard_tol: float = 1e-9
    picard_max_iter: int = 20
    pressure_tol: float = 1e-10
    pressure_max_iter: int = 400
    seed: int = 0
    init: str = "shear_composition"
    output_dir: str = "out"
    snapshot_every: int = 0
    diagnostics_every: int = 1
    sweep_epsilons: tuple = ()

    def __post_init__(self):
        _validate(self)

    @property
    def steps(self):
        return round(self.t_end / self.dt)

    def time_grid(self):
        return TimeGrid(self.dt, self.steps)

    def require_grid(self, grid):
        """Refuse a Grid other than the one this configuration describes."""
        if (self.dimension, self.grid_n) != (grid.n, grid.size):
            raise ConfigError(f"config wants {self.dimension}d N={self.grid_n}, got {grid!r}")


_REQUIRED = ("dimension", "grid_n", "epsilon", "t_end", "dt")


def parse_amplitudes(text):
    """Comma-separated amplitudes: the sweep_epsilons value and ``hkel sweep --epsilons``."""
    return tuple(float(x) for x in text.split(",") if x.strip())


_PARSERS = {f.name: f.type for f in fields(RunConfig)}
_PARSERS["sweep_epsilons"] = parse_amplitudes


def parse_config(text):
    """Parse and fully validate configuration text into a RunConfig."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _PARSERS:
            raise ConfigError(f"line {lineno}: unknown key '{key}'")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key '{key}'")
        try:
            values[key] = _PARSERS[key](value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for '{key}': {value!r}") from exc
    for key in _REQUIRED:
        if key not in values:
            raise ConfigError(f"missing required key '{key}'")
    return RunConfig(**values)


def _validate(cfg):
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        items = value if f.type is tuple else (value,)
        if f.type in (float, tuple) and not all(math.isfinite(v) for v in items):
            raise ConfigError(f"{f.name} must be finite, got {value!r}")
    if cfg.dimension not in (2, 3):
        raise ConfigError("dimension must be 2 or 3")
    if cfg.grid_n < 8 or cfg.grid_n & (cfg.grid_n - 1) != 0:
        raise ConfigError("grid_n must be a power of two >= 8")
    if cfg.epsilon < 0:
        raise ConfigError("epsilon must be nonnegative")
    for name in ("dt", "t_end"):
        if getattr(cfg, name) <= 0:
            raise ConfigError(f"{name} must be positive")
    if (
        not math.isfinite(cfg.t_end / cfg.dt)
        or cfg.steps < 4
        or abs(cfg.steps * cfg.dt - cfg.t_end) > 1e-9 * max(1.0, cfg.t_end)
    ):
        raise ConfigError("t_end must be a multiple (>= 4 steps) of dt")
    if cfg.solver not in ("picard", "direct"):
        raise ConfigError("solver must be 'picard' or 'direct'")
    for name in ("picard_tol", "pressure_tol"):
        if getattr(cfg, name) <= 0:
            raise ConfigError(f"{name} must be positive")
    for name in ("picard_max_iter", "pressure_max_iter"):
        if getattr(cfg, name) < 1:
            raise ConfigError(f"{name} must be at least 1")
    if cfg.seed < 0:
        raise ConfigError("seed must be nonnegative")
    if not (cfg.init == "shear_composition" or cfg.init.startswith("file:")):
        raise ConfigError("init must be 'shear_composition' or 'file:<snapshot path>'")
    if cfg.snapshot_every < 0:
        raise ConfigError("snapshot_every must be nonnegative")
    if cfg.diagnostics_every < 1:
        raise ConfigError("diagnostics_every must be at least 1")


def format_config(cfg):
    """Render a RunConfig back into parseable text (provenance echo)."""
    lines = []
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if f.name == "sweep_epsilons":
            value = ",".join(repr(v) for v in value)
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"
