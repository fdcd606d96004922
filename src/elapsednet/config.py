"""Experiment configuration: flat key = value text, validation, assembly.

The file format is UTF-8 lines of ``key = value`` with ``#`` comments and
blank lines; every key has a documented default, so the empty file is a
valid configuration.  ``serialize_config`` followed by ``parse_config`` is
the identity.  Validation failures carry the offending line and key.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .grids import AgeGrid, ConnectivityKernel, DensityField, SpatialGrid
from .models import FiringRateModel, InputModel, LearningRule, SigmaMap, stimulation_bounds
from .renewal import PicardOptions, SolverConfig


class ConfigError(ValueError):
    def __init__(self, message: str, line: int | None = None, key: str | None = None):
        prefix = ""
        if line is not None:
            prefix += f"line {line}: "
        if key is not None:
            prefix += f"key {key!r}: "
        super().__init__(prefix + message)
        self.line = line
        self.key = key


@dataclass(frozen=True)
class ExperimentConfig:
    # grids and stepping
    nx: int = 64
    ns: int = 800
    s_max: float = 20.0
    dt: float | None = None  # None resolves to epsilon * ds / 2
    t_end: float = 25.0
    save_every: float = 0.25
    epsilon: float = 1.0
    system: str = "full"  # 'full' or 'limit'
    # per-step stimulation coupling
    picard: str = "lagged"
    picard_tol: float = 1e-10
    picard_max_iters: int = 200
    picard_damping: float = 0.5
    cfl_guard: bool = True
    # firing rate
    rate: str = "step"
    p_inf: float = 1.0
    p_star: float | None = None
    s_star: float | None = None
    sigma: str = "identity"
    sigma_max: float | None = None
    theta: float | None = None
    # learning rule
    rule: str = "hebbian"
    gamma: float = 1.0
    # external input
    input: str = "constant"
    input_amplitude: float = 1.0
    input_scale: float = 1.0
    input_table: tuple[float, ...] | None = None
    # initial data
    density: str = "homogeneous"
    kernel: str = "gaussian"
    kernel_amplitude: float = 10.0
    kernel_width: float = 10.0
    # study parameters
    epsilon_list: tuple[float, ...] = (0.4, 0.2, 0.1, 0.05)
    large_input_k: tuple[float, ...] = (1.0, 10.0, 100.0)
    # bookkeeping
    preset: str | None = None
    out: str | None = None

    def resolved_dt(self) -> float:
        ds = self.s_max / self.ns
        return self.epsilon * ds / 2.0 if self.dt is None else self.dt


_CHOICES = {
    "system": ("full", "limit"),
    "picard": ("lagged", "iterate"),
    "rate": ("step", "smooth"),
    "sigma": ("identity", "bounded", "constant"),
    "rule": ("hebbian", "gaussian_sigmoid"),
    "input": ("constant", "sin_squared", "table"),
    "density": ("homogeneous", "gaussian_profile"),
    "kernel": ("gaussian", "constant", "zero"),
}


def _finite(raw: str) -> float:
    if not math.isfinite(value := float(raw)):
        raise ValueError(f"not a finite number: {raw.strip()!r}")
    return value


def _parse_value(key: str, raw: str, target_type, line: int):
    raw = raw.strip()
    if raw in ("none", "auto", ""):
        return None
    try:
        if target_type is bool:
            if raw.lower() in ("true", "yes", "1"):
                return True
            if raw.lower() in ("false", "no", "0"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        if target_type is int:
            return int(raw)
        if target_type is float:
            return _finite(raw)
        if target_type is tuple:
            return tuple(_finite(v) for v in raw.split(",") if v.strip())
        return raw
    except ValueError as exc:
        raise ConfigError(str(exc), line=line, key=key) from None


# each key's base type from its annotation ("tuple[float, ...] | None" -> tuple);
# a key annotated "| None" is optional
_BASE_TYPES = {"int": int, "float": float, "bool": bool, "str": str, "tuple": tuple}
_FIELD_TYPES = {f.name: _BASE_TYPES[f.type.removesuffix(" | None").split("[")[0]]
                for f in fields(ExperimentConfig)}
_OPTIONAL = {f.name for f in fields(ExperimentConfig) if f.type.endswith(" | None")}


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a key = value configuration document."""
    values: dict[str, object] = {}
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value'", line=line_no)
        key, _, raw = line.partition("=")
        key = key.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError("unknown key", line=line_no, key=key)
        if key in values:
            raise ConfigError("duplicate key", line=line_no, key=key)
        values[key] = _parse_value(key, raw, _FIELD_TYPES[key], line_no)
    # None for a non-optional field means "use the default"
    values = {k: v for k, v in values.items() if v is not None or k in _OPTIONAL}
    cfg = ExperimentConfig(**values)
    validate_config(cfg)
    return cfg


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical text form; parse_config(serialize_config(cfg)) == cfg."""
    lines = []
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if value is None:
            rendered = "auto" if f.name in ("dt", "p_star", "s_star") else "none"
        elif isinstance(value, bool):
            rendered = "true" if value else "false"
        elif isinstance(value, tuple):
            rendered = ",".join(repr(float(v)) for v in value)
        elif isinstance(value, float):
            rendered = repr(value)
        else:
            rendered = str(value)
        lines.append(f"{f.name} = {rendered}")
    return "\n".join(lines) + "\n"


def validate_config(cfg: ExperimentConfig) -> None:
    for key, kind in _FIELD_TYPES.items():
        value = getattr(cfg, key)
        if kind in (float, tuple) and value is not None:
            if not all(map(math.isfinite, value if kind is tuple else (value,))):
                raise ConfigError(f"not a finite number: {value!r}", key=key)
    for key, choices in _CHOICES.items():
        if getattr(cfg, key) not in choices:
            raise ConfigError(f"must be one of {choices}", key=key)
    if cfg.nx < 1 or cfg.ns < 2:
        raise ConfigError("grid sizes must be positive (nx >= 1, ns >= 2)", key="nx")
    if cfg.s_max <= 0 or cfg.t_end <= 0 or cfg.save_every <= 0:
        raise ConfigError("s_max, t_end and save_every must be positive", key="s_max")
    if not 0 < cfg.epsilon <= 1:
        raise ConfigError(f"epsilon must lie in (0, 1], got {cfg.epsilon}", key="epsilon")
    ds = cfg.s_max / cfg.ns
    dt = cfg.resolved_dt()
    if dt / cfg.epsilon > ds * (1 + 1e-12):
        raise ConfigError(
            f"dt/epsilon = {dt / cfg.epsilon:.6g} exceeds ds = {ds:.6g}", key="dt"
        )
    if dt * cfg.p_inf > 1 + 1e-12:
        raise ConfigError(
            f"dt = {dt:.6g} violates dt * p_inf <= 1 (p_inf = {cfg.p_inf})", key="dt"
        )
    if cfg.rate == "smooth" and (cfg.theta is None or cfg.theta <= 0):
        raise ConfigError("smooth rate needs a positive theta", key="theta")
    if cfg.sigma in ("bounded", "constant") and cfg.sigma_max is None:
        raise ConfigError(f"sigma kind {cfg.sigma!r} needs sigma_max", key="sigma_max")
    if cfg.input == "table" and cfg.input_table is None:
        raise ConfigError("missing required field for table input", key="input_table")
    if cfg.gamma < 0:
        raise ConfigError("gamma must be nonnegative", key="gamma")


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------


_INHOM_NORM = math.sqrt(math.pi) * math.erf(0.5)  # integral of exp(-(x-1/2)^2) on (0,1)


@dataclass
class Experiment:
    config: ExperimentConfig
    space: SpatialGrid
    age: AgeGrid
    model: FiringRateModel
    rule: LearningRule
    input_model: InputModel
    n0: DensityField
    w0: ConnectivityKernel
    solver: SolverConfig
    g: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.g = self.n0.mass()


def initial_density(cfg: ExperimentConfig, age: AgeGrid, space: SpatialGrid) -> DensityField:
    if cfg.density == "homogeneous":
        # exp(-(x+1) s) columns scaled to unit mass: flat mass profile g = 1
        f = DensityField.from_function(age, space, lambda s, x: (x + 1) * np.exp(-s * (x + 1)))
        return f.normalize_mass(1.0)
    # exp(-s) in age with a normalized Gaussian mass profile in x
    f = DensityField.from_function(
        age, space,
        lambda s, x: np.exp(-s - (x - 0.5) ** 2) / _INHOM_NORM,
    )
    g = np.exp(-((space.nodes - 0.5) ** 2)) / _INHOM_NORM
    return f.normalize_mass(g)


def initial_kernel(cfg: ExperimentConfig, space: SpatialGrid) -> ConnectivityKernel:
    if cfg.kernel == "gaussian":
        amp, width = cfg.kernel_amplitude, cfg.kernel_width
        return ConnectivityKernel.from_function(
            space, lambda x, y: amp * np.exp(-width * (x - y) ** 2)
        )
    if cfg.kernel == "constant":
        return ConnectivityKernel.constant(space, cfg.kernel_amplitude)
    return ConnectivityKernel.constant(space, 0.0)


def _built(key: str, make, *args, **kwargs):
    """make(*args, **kwargs), its ModelError/ValueError re-raised naming the config key."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:  # ModelError is a ValueError
        raise ConfigError(str(exc), key=key) from None


def build_experiment(cfg: ExperimentConfig) -> Experiment:
    validate_config(cfg)
    space = SpatialGrid(nx=cfg.nx)
    age = AgeGrid(ns=cfg.ns, s_max=cfg.s_max)
    sigma = _built("sigma_max", SigmaMap, cfg.sigma, sigma_max=cfg.sigma_max)
    # past validate_config the rate model rejects only p_inf < 0 or a bad p_star/s_star
    model = _built(
        "p_inf" if cfg.p_inf < 0 else "p_star", FiringRateModel,
        kind=cfg.rate, p_inf=cfg.p_inf, sigma=sigma, p_star=cfg.p_star,
        s_star=cfg.s_star, theta=cfg.theta,
        dpdS_bound=(1.5 * cfg.p_inf * sigma.lipschitz / cfg.theta
                    if cfg.rate == "smooth" else None),
    )
    rule = LearningRule(cfg.rule, cfg.gamma)
    input_model = _built("input_amplitude", InputModel, cfg.input, amplitude=cfg.input_amplitude,
                         k=cfg.input_scale, table=cfg.input_table)
    n0 = initial_density(cfg, age, space)
    w0 = initial_kernel(cfg, space)
    # in the order PicardOptions checks them
    picard_key = ("picard_tol" if cfg.picard_tol <= 0 else
                  "picard_max_iters" if cfg.picard_max_iters < 1 else "picard_damping")
    picard = _built(picard_key, PicardOptions, cfg.picard, cfg.picard_tol,
                    cfg.picard_max_iters, cfg.picard_damping)
    # validate_config bounds dt from above only
    solver = _built("dt", SolverConfig, dt=cfg.resolved_dt(), epsilon=cfg.epsilon,
                    picard=picard, cfl_guard=cfg.cfl_guard)

    I_vals = _built("input_table", input_model.evaluate, space)
    g = n0.mass()
    lo, hi = stimulation_bounds(model, rule, float(w0.values.max()), float(g.max()), I_vals)
    threshold = model.sigma.sup_over(lo, hi)
    if threshold >= age.s_max:
        raise ConfigError(
            f"s_max = {age.s_max} must strictly exceed the reachable firing "
            f"threshold {threshold:.6g} (stimulation bound {hi:.6g})",
            key="s_max",
        )
    tail = float(n0.values[-1].max()) * age.ds
    if tail > 1e-8 * float(g.max()):
        warnings.warn(
            f"initial density carries ~{tail:.2e} mass near s_max = {age.s_max}; "
            f"consider a larger age domain",
            stacklevel=2,
        )
    return Experiment(cfg, space, age, model, rule, input_model, n0, w0, solver)


def with_overrides(cfg: ExperimentConfig, **overrides) -> ExperimentConfig:
    cfg = replace(cfg, **{k: v for k, v in overrides.items() if v is not None})
    validate_config(cfg)
    return cfg
