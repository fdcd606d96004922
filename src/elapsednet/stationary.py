"""Stationary states via Anderson-mixed iteration of the stimulation map.

A steady state is determined by a stimulation profile S(x) satisfying

    S(x) = gamma * integral G(g(x)F(S(x)), g(y)F(S(y))) g(y)F(S(y)) dy + I(x),

from which the activity N = g F(S), the kernel w = gamma G(N(x), N(y)) and
the age profile n(s, x) = N(x) exp(-hazard) follow in closed form.  The
iteration is Anderson mixing (`fixedpoint.damped_fixed_point`) from three
starts, keeping the distinct converged states.  `StationaryProblem.certificate`
is the contraction certificate gamma ||F'|| (2 ||g|| ||F|| + 1) < 1, sufficient
for a unique state; the solver does not consult it and iterates regardless.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diagnostics import Certificate
from .fixedpoint import PicardResult, damped_fixed_point
from .grids import AgeGrid, ConnectivityKernel, DensityField, SpatialGrid
from .models import (F_bounds, FiringRateModel, LearningRule, slaved_profile,
                     stimulation_bounds, survival_F)


@dataclass
class StationaryState:
    S_star: np.ndarray
    N_star: np.ndarray
    w_star: ConnectivityKernel
    n_star: DensityField
    residual: float
    iterations: int
    residual_history: list[float]


@dataclass(frozen=True)
class StationaryProblem:
    """Context for the stationary fixed point: grids, mass profile, models, input."""

    space: SpatialGrid
    age: AgeGrid
    g: np.ndarray
    model: FiringRateModel
    rule: LearningRule
    input_values: np.ndarray

    def activity(self, S: np.ndarray) -> np.ndarray:
        return self.g * survival_F(self.model, S)

    def apply_T(self, S: np.ndarray) -> np.ndarray:
        """One evaluation of the stationary stimulation map."""
        N = self.activity(S)
        G = self.rule.evaluate(N[:, None], N[None, :])
        return self.rule.gamma * (G @ (self.space.weights * N)) + self.input_values

    def certificate(self) -> Certificate:
        """gamma ||F'|| (2 ||g|| ||F|| + 1) < 1, sufficient for a unique stationary state, with
        F bounded on the band of a zero w0: a stationary kernel is gamma G(N, N), whatever w0."""
        g_max = float(self.g.max())
        band = stimulation_bounds(self.model, self.rule, 0.0, g_max, self.input_values)
        lipF, supF = F_bounds(self.model, *band)
        return Certificate("stationary_contraction",
                           self.rule.gamma * lipF * (2.0 * g_max * supF + 1.0),
                           "gamma ||F'|| (2 ||g|| ||F|| + 1) < 1")

    def reconstruct(self, result: PicardResult) -> StationaryState:
        """The steady state at the iteration's S: N = g F(S), w = gamma G(N(x), N(y)) and
        the density `slaved_profile`, whose trapezoid mass is g in every column."""
        S = result.value
        N = self.activity(S)
        return StationaryState(
            S_star=np.asarray(S, dtype=float),
            N_star=N,
            w_star=ConnectivityKernel(self.rule.kernel_target(N), self.space),
            n_star=DensityField(slaved_profile(self.model, self.age, S, self.g), self.age,
                                self.space),
            residual=result.residual,
            iterations=result.iterations,
            residual_history=result.residual_history,
        )


def solve_stationary(problem: StationaryProblem, tol: float = 1e-12,
                     max_iters: int = 10_000) -> list[StationaryState]:
    """Anderson-mixed iteration of the stationary map to residual < tol from the starts
    I, I + gamma and 0: the distinct converged states (sup-distance > 10 tol apart) in
    the order of their starts, none for a start that does not converge.  Where there are
    several states, a start may reach one that plain Picard iteration repels (see
    `damped_fixed_point`).
    """
    I = problem.input_values
    states: list[StationaryState] = []
    for start in (I, I + problem.rule.gamma, np.zeros_like(I)):
        result = damped_fixed_point(problem.apply_T, start, tol=tol, max_iters=max_iters)
        if result.converged and all(np.abs(result.value - other.S_star).max() > 10 * tol
                                    for other in states):
            states.append(problem.reconstruct(result))
    return states


def scalar_stationary(gamma: float, I0: float, tol: float = 1e-12) -> float:
    """Positive root of S = gamma / (1 + S)^3 + I0 by bisection on [I0, I0 + gamma].

    This is the spatially constant Hebbian steady state for the unit step
    rate with threshold sigma(S) = S and flat mass profile; the right-hand
    side is decreasing so the bracket always changes sign and the root is
    unique.
    """
    if gamma < 0 or I0 < 0:
        raise ValueError(f"need gamma >= 0 and I0 >= 0, got {gamma}, {I0}")
    if gamma == 0:
        return I0

    def f(S: float) -> float:
        return gamma / (1.0 + S) ** 3 + I0 - S

    a, b = I0, I0 + gamma
    fa, fb = f(a), f(b)
    if fa < 0 or fb > 0:
        raise RuntimeError(f"bisection bracket failure: f({a})={fa}, f({b})={fb}")
    for _ in range(400):
        mid = 0.5 * (a + b)
        if f(mid) > 0:
            a = mid
        else:
            b = mid
        if b - a < tol:
            break
    return 0.5 * (a + b)
