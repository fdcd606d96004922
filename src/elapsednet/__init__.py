"""Solvers and diagnostics for a spatially extended elapsed-time neural
network with learning: renewal transport in age, stimulation coupling
through a connectivity kernel, kernel relaxation toward a learning rule,
stationary fixed points, the slow-learning limit system, and numerical
checks of the convergence guarantees (decay rates, minorization bounds,
smallness certificates)."""

__version__ = "0.1.0"

from .config import ConfigError, Experiment, ExperimentConfig, build_experiment, parse_config, serialize_config
from .diagnostics import (
    Certificate,
    DecayFit,
    DoeblinReport,
    doeblin_check,
    fit_decay,
    homogenization_metrics,
    regime_certificates,
)
from .fixedpoint import PicardError, damped_fixed_point
from .grids import (
    AgeGrid,
    ConnectivityKernel,
    DensityField,
    GridError,
    SpatialGrid,
    norms,
)
from .limit import EpsilonStudy, epsilon_study, inner_fixed_point, limit_run
from .models import (
    FiringRateModel,
    InputModel,
    LearningRule,
    ModelError,
    SigmaMap,
    stimulation_bounds,
    survival_F,
)
from .presets import PRESETS, Preset, get_preset, list_presets
from .renewal import (
    CFLError,
    LargeInputStudy,
    NegativeDensityError,
    PicardOptions,
    RunRecord,
    SolverConfig,
    characteristics_oracle,
    large_input_run,
    linear_step,
    nonlinear_run,
)
from .stationary import (
    StationaryProblem,
    StationaryState,
    default_multistart,
    scalar_stationary,
    solve_stationary,
)
