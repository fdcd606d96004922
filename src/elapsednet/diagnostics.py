"""Numerical verification of the convergence theory: decay-rate fits, the
Doeblin minorization check, homogenization metrics and regime certificates.

The Doeblin check integrates the frozen-stimulation linear dynamics to
t0 = 2 s_star with the characteristics oracle and verifies the uniform lower
bound n(t0, s, x) >= p_star exp(-2 p_inf s_star) g(x) on s in [0, s_star];
the implied contraction constants are alpha = p_star s_star e^{-2 p_inf s_star}
and lambda = -log(1 - alpha) / (2 s_star).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import ConnectivityKernel, DensityField
from .models import F_bounds, FiringRateModel, LearningRule, stimulation_bounds
from .renewal import RunRecord, characteristics_oracle

ROUNDOFF_FLOOR = 1e-13


class FitError(ValueError):
    """Not enough usable samples for a decay fit."""


@dataclass
class DecayFit:
    lambda_hat: float
    r_squared: float
    window: tuple[float, float]
    n_samples: int


def fit_decay(
    times: np.ndarray,
    distances: np.ndarray,
    window: tuple[float, float] | None = None,
) -> DecayFit:
    """Least-squares line on (t, log d(t)); lambda_hat is minus the slope.

    Samples at or below the floor max(1e-13, 2 * min d) are excluded, so
    that both round-off and any discrete equilibrium plateau are excluded
    and only the decaying segment is fit; the fitted rate is the empirical
    counterpart of the exponential convergence estimates, whose constants
    the fit intercept absorbs.
    """
    times = np.asarray(times, dtype=float)
    distances = np.asarray(distances, dtype=float)
    if times.shape != distances.shape:
        raise FitError("times and distances must have the same length")
    mask = np.ones(len(times), dtype=bool)
    if window is None and len(times) > 1:
        t0 = times[0] + 0.1 * (times[-1] - times[0])  # skip the initial transient
        mask &= times >= t0
    if window is not None:
        mask &= (times >= window[0]) & (times <= window[1])
    positive = distances[mask & (distances > 0)]
    floor = max(ROUNDOFF_FLOOR, 2.0 * (positive.min() if positive.size else 0.0))
    mask &= distances > floor
    if mask.sum() < 5:
        raise FitError(f"only {int(mask.sum())} usable samples above the floor {floor:.3e}")
    t = times[mask]
    y = np.log(distances[mask])
    slope, intercept = np.polyfit(t, y, 1)
    fitted = slope * t + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return DecayFit(
        lambda_hat=float(-slope),
        r_squared=r2,
        window=(float(t[0]), float(t[-1])),
        n_samples=int(mask.sum()),
    )


@dataclass
class DoeblinReport:
    alpha: float
    lambda_theory: float
    t0: float
    minorization_margin: float
    p_star: float
    s_star: float
    degenerate: bool


def doeblin_check(
    n0: DensityField,
    S: np.ndarray,
    model: FiringRateModel,
    refine: int = 8,
) -> DoeblinReport:
    """Verify the uniform minorization of the frozen-S dynamics at t0 = 2 s_star.

    s_star is the model's pulse age over the frozen stimulation range; rates
    satisfying the strictly positive bound can pass any small s_star (the
    smallest grid-representable one is used for s_star <= 0).  The check is
    uniform over initial data; the margin reported here is for the given n0,
    and discretization is allowed to eat at most O(ds) of it.
    """
    S = np.asarray(S, dtype=float)
    p_star = model.lower_rate
    s_star = model.pulse_age(float(S.min()), float(S.max()))
    if s_star <= 0:
        s_star = n0.age.ds  # smallest grid-representable pulse age
    alpha = p_star * s_star * np.exp(-2.0 * model.p_inf * s_star)
    degenerate = alpha <= 1e-10
    lam = 0.0 if alpha >= 1.0 or degenerate else -np.log(1.0 - alpha) / (2.0 * s_star)

    g = n0.mass()
    t0 = 2.0 * s_star
    evolved = characteristics_oracle(n0, S, model, t0, refine=refine)
    bound = p_star * np.exp(-2.0 * model.p_inf * s_star) * g[None, :]
    in_core = n0.age.nodes <= s_star + 1e-12
    margin = float((evolved.values[in_core, :] - bound).min())
    return DoeblinReport(
        alpha=float(alpha),
        lambda_theory=float(lam),
        t0=float(t0),
        minorization_margin=margin,
        p_star=float(p_star),
        s_star=float(s_star),
        degenerate=bool(degenerate),
    )


@dataclass
class HomogenizationSeries:
    w_deviation: np.ndarray
    N_deviation: np.ndarray
    S_deviation: np.ndarray


def homogenization_metrics(record: RunRecord) -> HomogenizationSeries:
    """Per saved time: sup deviations of w from <w> and of N, S from their means."""
    xw = record.space.weights  # |Omega| = 1, so the weights average
    N_dev = np.abs(record.N_series - (record.N_series @ xw)[:, None]).max(axis=1)
    S_dev = np.abs(record.S_series - (record.S_series @ xw)[:, None]).max(axis=1)
    return HomogenizationSeries(
        w_deviation=record.w_dev_series.copy(),
        N_deviation=N_dev,
        S_deviation=S_dev,
    )


@dataclass
class Certificate:
    name: str
    lhs: float
    holds: bool
    description: str


def stationary_contraction(rule: LearningRule, lipF: float, supF: float,
                           g_max: float) -> Certificate:
    """gamma ||F'|| (2 ||g|| ||F|| + 1) < 1, sufficient for a unique stationary state, from
    bounds lipF >= |F'| and supF >= F on a band holding every stationary S, g_max = ||g||."""
    lhs = rule.gamma * lipF * (2.0 * g_max * supF + 1.0)
    return Certificate("stationary_contraction", lhs, lhs < 1.0,
                       "gamma ||F'|| (2 ||g|| ||F|| + 1) < 1")


def regime_certificates(
    model: FiringRateModel,
    rule: LearningRule,
    w0: ConnectivityKernel,
    g: np.ndarray,
    input_values: np.ndarray,
    n0_max: float,
) -> list[Certificate]:
    """The proof-side sufficient smallness conditions, each with its computed
    left-hand side (threshold 1).  Sufficient, never claimed necessary."""
    g = np.asarray(g, dtype=float)
    A = max(float(w0.values.max()), rule.gamma)
    g_max = float(g.max())
    S_lo, S_hi = stimulation_bounds(model, rule, float(w0.values.max()), g_max, input_values)
    lipF, supF = F_bounds(model, S_lo, S_hi)

    certs: list[Certificate] = []
    if model.kind == "step":
        B = n0_max + model.p_inf * g_max
        lhs = model.p_inf * model.sigma.lipschitz * A * B
        certs.append(Certificate(
            "wellposed_step", lhs, lhs < 1.0,
            "p_inf ||sigma'|| |Omega| max(||w0||, gamma) (||n0|| + p_inf ||g||) < 1",
        ))
    else:
        lhs = g_max * model.dpdS_bound * A
        certs.append(Certificate(
            "wellposed_smooth", lhs, lhs < 1.0,
            "||g|| |Omega| ||dp/dS|| max(||w0||, gamma) < 1",
        ))
    certs.append(stationary_contraction(rule, lipF, supF, g_max))
    lhs_lim = A * lipF
    certs.append(Certificate(
        "limit_uniqueness", lhs_lim, lhs_lim < 1.0,
        "max(||w0||, gamma) ||F'|| < 1",
    ))
    return certs
