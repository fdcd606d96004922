"""Stationary states via damped Picard iteration of the stimulation map.

A steady state is determined by a stimulation profile S(x) satisfying

    S(x) = gamma * integral G(g(x)F(S(x)), g(y)F(S(y))) g(y)F(S(y)) dy + I(x),

from which the activity N = g F(S), the kernel w = gamma G(N(x), N(y)) and
the age profile n(s, x) = N(x) exp(-hazard) follow in closed form.  The
iteration is damped Picard (damping halved on residual increase); a
sufficient contraction certificate gamma ||F'|| (2 ||g|| ||F|| + 1) < 1 is
reported but convergence is attempted regardless.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fixedpoint import PicardResult, damped_fixed_point
from .grids import AgeGrid, ConnectivityKernel, DensityField, SpatialGrid
from .models import F_bounds, FiringRateModel, LearningRule, stimulation_bounds, survival_F


@dataclass
class ContractionCertificate:
    holds: bool
    bound: float


@dataclass
class StationaryState:
    S_star: np.ndarray
    N_star: np.ndarray
    w_star: ConnectivityKernel
    n_star: DensityField
    residual: float
    contraction_certificate: ContractionCertificate
    converged: bool
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
        return self.g * np.asarray(survival_F(self.model, S))

    def apply_T(self, S: np.ndarray) -> np.ndarray:
        """One evaluation of the stationary stimulation map."""
        N = self.activity(S)
        G = self.rule.evaluate(N[:, None], N[None, :])
        return self.rule.gamma * (G @ (self.space.weights * N)) + self.input_values

    def certificate(self, w0_max: float = 0.0) -> ContractionCertificate:
        lo, hi = stimulation_bounds(
            self.model, self.rule, w0_max, float(self.g.max()), self.input_values
        )
        lipF, supF = F_bounds(self.model, lo, hi)
        bound = self.rule.gamma * lipF * (2.0 * float(self.g.max()) * supF + 1.0)
        return ContractionCertificate(holds=bound < 1.0, bound=bound)

    def reconstruct(self, result: PicardResult,
                    certificate: ContractionCertificate) -> StationaryState:
        """Assemble the full steady profile from the fixed-point iteration's result."""
        S = result.value
        N = self.activity(S)
        w = self.rule.kernel_target(N, self.space)
        hazard = self.model.cumulative_hazard(self.age.nodes, S)
        profile = np.exp(-hazard)
        # per-column normalization: the discrete age-integral must equal g exactly
        n = DensityField(profile * N[None, :], self.age, self.space)
        n.normalize_mass(self.g)
        return StationaryState(
            S_star=np.asarray(S, dtype=float),
            N_star=N,
            w_star=w,
            n_star=n,
            residual=result.residual,
            contraction_certificate=certificate,
            converged=result.converged,
            iterations=result.iterations,
            residual_history=result.residual_history,
        )


def solve_stationary(
    problem: StationaryProblem,
    tol: float = 1e-12,
    max_iters: int = 10_000,
    multistart: list[np.ndarray] | None = None,
):
    """Damped Picard iteration of the stationary map to residual < tol, from I.

    With `multistart` a list of initial profiles is solved independently and
    the distinct fixed points (sup-distance > 10 tol apart) are returned as a
    list.  A non-converged solve returns its best iterate flagged
    `converged=False`.  The contraction certificate is computed once and
    shared by every state.
    """
    certificate = problem.certificate()

    def solve(start: np.ndarray) -> StationaryState:
        result = damped_fixed_point(problem.apply_T, np.asarray(start, dtype=float),
                                    tol=tol, max_iters=max_iters)
        return problem.reconstruct(result, certificate)

    if multistart is None:
        return solve(problem.input_values)
    states: list[StationaryState] = []
    for start in multistart:
        state = solve(start)
        if state.converged and all(
            np.abs(state.S_star - other.S_star).max() > 10 * tol for other in states
        ):
            states.append(state)
    return states


def default_multistart(problem: StationaryProblem) -> list[np.ndarray]:
    """Initial profiles bracketing the a-priori stimulation range: I, I+gamma, 0."""
    I = problem.input_values
    return [I.copy(), I + problem.rule.gamma, np.zeros_like(I)]


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
