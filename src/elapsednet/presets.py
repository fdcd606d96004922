"""Named experiment presets.

Six parameter sets are provided, each also under an ``L``-prefixed name as
the parameter set of the ``limit`` command.  The spatially homogeneous
presets pair a constant input with the Hebbian rule and a flat mass
profile; the inhomogeneous presets pair a sin^2 input with the
Gaussian-sigmoid rule and a Gaussian mass profile.  Every preset starts
from the connectivity kernel w0(x, y) = 10 exp(-10 (x - y)^2).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .config import ExperimentConfig


@dataclass(frozen=True)
class Preset:
    name: str
    description: str
    config: ExperimentConfig


def _homogeneous(name: str, gamma: float, amplitude: float, **grid) -> Preset:
    cfg = ExperimentConfig(
        rule="hebbian", gamma=gamma, input="constant", input_amplitude=amplitude,
        density="homogeneous", preset=name, **grid,
    )
    return Preset(name, f"constant input I={amplitude:g}, Hebbian rule, gamma={gamma:g}", cfg)


def _inhomogeneous(name: str, gamma: float, amplitude: float, **grid) -> Preset:
    cfg = ExperimentConfig(
        rule="gaussian_sigmoid", gamma=gamma, input="sin_squared",
        input_amplitude=amplitude, density="gaussian_profile", preset=name, **grid,
    )
    return Preset(
        name, f"input I={amplitude:g}*sin^2(2 pi x), Gaussian-sigmoid rule, gamma={gamma:g}",
        cfg,
    )


def _limit_twin(base: Preset) -> Preset:
    name = "L" + base.name
    cfg = replace(base.config, preset=name)
    # the gamma=20 run is shown to t=75 in full form but t=25 suffices in the limit
    if base.name == "g20i5v":
        cfg = replace(cfg, t_end=25.0)
    return Preset(name, base.description + " (slow-learning limit system)", cfg)


def _build() -> dict[str, Preset]:
    full = [
        _homogeneous("g1i1c", gamma=1.0, amplitude=1.0),
        _homogeneous("g15i1c", gamma=15.0, amplitude=1.0),
        # larger connectivity pushes the reachable firing threshold up to
        # max(||w0||, gamma) p_inf ||g|| + I, so the age domain grows with it;
        # the long firing cycle also slows mixing, hence the longer horizon
        _homogeneous("g35i5c", gamma=35.0, amplitude=5.0, s_max=45.0, ns=1800,
                     t_end=50.0),
        _inhomogeneous("g1i1v", gamma=1.0, amplitude=1.0),
        _inhomogeneous("g10i1v", gamma=10.0, amplitude=1.0),
        _inhomogeneous("g20i5v", gamma=20.0, amplitude=5.0, s_max=30.0, ns=1200,
                       t_end=75.0),
    ]
    presets = {p.name: p for p in full}
    for p in full:
        twin = _limit_twin(p)
        presets[twin.name] = twin
    return presets


PRESETS: dict[str, Preset] = _build()


def get_preset(name: str) -> Preset:
    try:
        return PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(PRESETS))
        raise KeyError(f"unknown preset {name!r}; available: {known}") from None


def list_presets() -> list[Preset]:
    return [PRESETS[k] for k in sorted(PRESETS)]
