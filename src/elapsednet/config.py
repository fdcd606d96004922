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

from .grids import (AgeGrid, ConnectivityKernel, DensityField, FieldError, SpatialGrid,
                    whole_steps)
from .models import (FiringRateModel, InputModel, LearningRule, SigmaMap,
                     check_reachable_threshold)
from .limit import check_epsilons, epsilon_study
from .renewal import PicardOptions, SolverConfig, check_ks, large_input_run


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
    # per-step stimulation coupling
    picard: str = "lagged"
    picard_tol: float = 1e-10
    picard_max_iters: int = 200
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


# the choices that no model object checks
_CHOICES = {
    "density": ("homogeneous", "gaussian_profile"),
    "kernel": ("gaussian", "constant", "zero"),
}

# each model object's constructor field, or a checked argument of a solver, -> the config
# key that supplies it; a refusal that names the field is reported under that key
_KEYS = {
    SpatialGrid: {"nx": "nx"},
    AgeGrid: {"ns": "ns", "s_max": "s_max"},
    SigmaMap: {"kind": "sigma", "sigma_max": "sigma_max"},
    FiringRateModel: {"kind": "rate", "p_inf": "p_inf", "p_star": "p_star",
                      "s_star": "s_star", "theta": "theta"},
    LearningRule: {"kind": "rule", "gamma": "gamma"},
    InputModel: {"kind": "input", "amplitude": "input_amplitude", "k": "input_scale",
                 "table": "input_table"},
    PicardOptions: {"mode": "picard", "tol": "picard_tol", "max_iters": "picard_max_iters"},
    SolverConfig: {"dt": "dt", "epsilon": "epsilon"},
    SolverConfig.validate: {"dt": "dt", "age": "ns"},
    whole_steps: {"t_end": "t_end"},
    epsilon_study: {"eps_list": "epsilon_list"},
    large_input_run: {"k_values": "large_input_k"},
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
_BASE_TYPES = {"int": int, "float": float, "str": str, "tuple": tuple}
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
        elif isinstance(value, tuple):
            rendered = ",".join(repr(float(v)) for v in value)
        elif isinstance(value, float):
            rendered = repr(value)
        else:
            rendered = str(value)
        lines.append(f"{f.name} = {rendered}")
    return "\n".join(lines) + "\n"


def _keyed(owner: type, check, *args):
    """check(*args), a refusal that names a field of `owner` re-raised under its config key."""
    try:
        return check(*args)
    except FieldError as exc:
        raise ConfigError(str(exc), key=_KEYS[owner][exc.field]) from None


def _make(owner: type, cfg: ExperimentConfig, **given):
    """`owner` built from the config keys of its fields, `given` replacing some of them."""
    args = {f: getattr(cfg, k) for f, k in _KEYS[owner].items()} | given
    return _keyed(owner, lambda: owner(**args))


def validate_config(cfg: ExperimentConfig):
    """Refuse a configuration that breaks a format rule or a model object's rule, naming
    the key; return the model objects it builds: (space, age, model, rule, input, solver)."""
    for key, kind in _FIELD_TYPES.items():
        value = getattr(cfg, key)
        if value == ():  # it would serialize as the empty value, which reads as the default
            raise ConfigError("must not be empty", key=key)
        if kind in (float, tuple) and value is not None:
            if not all(map(math.isfinite, value if kind is tuple else (value,))):
                raise ConfigError(f"not a finite number: {value!r}", key=key)
        # a name must read back as itself and be a path: one line, no '#', no NUL, no
        # outer spaces, not a word that reads as no value
        if key in ("out", "preset") and value is not None and (
                value.splitlines() != [value] or value != value.strip() or "#" in value
                or "\x00" in value or value in ("none", "auto")):
            raise ConfigError(f"{value!r} does not read back from a config file as a path",
                              key=key)
    for key, choices in _CHOICES.items():
        if getattr(cfg, key) not in choices:
            raise ConfigError(f"must be one of {choices}", key=key)
    for key in ("t_end", "save_every"):
        if getattr(cfg, key) <= 0:
            raise ConfigError(f"must be positive, got {getattr(cfg, key)}", key=key)
    space, age = _make(SpatialGrid, cfg), _make(AgeGrid, cfg)
    model = _make(FiringRateModel, cfg, sigma=_make(SigmaMap, cfg))
    rule, input_model = _make(LearningRule, cfg), _make(InputModel, cfg)
    solver = _make(SolverConfig, cfg, dt=cfg.resolved_dt(), picard=_make(PicardOptions, cfg))
    _keyed(SolverConfig.validate, solver.validate, age, model)
    _keyed(whole_steps, whole_steps, cfg.t_end, solver.dt)
    _keyed(epsilon_study, check_epsilons, cfg.epsilon_list)
    _keyed(large_input_run, check_ks, cfg.large_input_k)
    return space, age, model, rule, input_model, solver


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


def build_experiment(cfg: ExperimentConfig) -> Experiment:
    space, age, model, rule, input_model, solver = validate_config(cfg)
    I_vals = _keyed(InputModel, input_model.evaluate, space)  # a table must fit the grid
    n0 = initial_density(cfg, age, space)
    w0 = initial_kernel(cfg, space)
    g = n0.mass()
    _keyed(AgeGrid, check_reachable_threshold, age, model, rule, float(w0.values.max()),
           float(g.max()), I_vals)
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
