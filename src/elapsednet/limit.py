"""The slow-learning limit: density slaved to the kernel, kernel ODE in time.

When learning is much slower than the discharge dynamics the density relaxes
instantaneously, leaving per time step an algebraic fixed point

    S(x) = integral w(x, y) g(y) F(S(y)) dy + I(t, x),

the closed-form activity N = g F(S) and the kernel relaxation toward
gamma G(N(x), N(y)).  There is no transport step and hence no CFL
restriction; the kernel is advanced by the exact one-step exponential
formula.  The inner fixed point is solved by warm-started damped Picard;
it is a guaranteed contraction when ||w|| ||F'|| < 1 and merely damped
outside that regime.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fixedpoint import PicardError, damped_fixed_point
from .grids import ConnectivityKernel, DensityField
from .models import (FiringRateModel, InputModel, LearningRule, ModelError, slaved_profile,
                     survival_F)
from .renewal import PicardOptions, Recorder, RunRecord, SolverConfig, nonlinear_run

INNER_MAX_ITERS = 500


def inner_fixed_point(
    w: ConnectivityKernel,
    g: np.ndarray,
    model: FiringRateModel,
    I_t: np.ndarray,
    S_guess: np.ndarray | None = None,
    tol: float = 1e-12,
    damping: float = 1.0,
) -> np.ndarray:
    """Solve S = integral(w g F(S)) + I by damped Picard from S_guess in at most
    INNER_MAX_ITERS iterations."""
    wq = w.values * w.space.weights[None, :]
    gv = np.asarray(g, dtype=float)

    def apply_map(S: np.ndarray) -> np.ndarray:
        return wq @ (gv * survival_F(model, S)) + I_t

    start = I_t if S_guess is None else np.asarray(S_guess, dtype=float)
    result = damped_fixed_point(apply_map, start, tol, INNER_MAX_ITERS, damping)
    if not result.converged:
        raise PicardError(
            f"inner stimulation fixed point stalled at residual {result.residual:.3e} "
            f"(strong-kernel regime)",
            result.residual,
        )
    return result.value


def limit_run(
    w0: ConnectivityKernel,
    g: np.ndarray,
    model: FiringRateModel,
    rule: LearningRule,
    input_model: InputModel,
    dt: float,
    t_end: float,
    save_every: float | None = None,
    snapshot_times: tuple[float, ...] = (),
    inner_tol: float = 1e-12,
) -> RunRecord:
    """Integrate the limit system: inner fixed point, then kernel relaxation of a
    copy of w0.  The density is slaved to S, so no age grid enters the run.

    Uniqueness of the inner fixed point is guaranteed when
    max(||w0||, gamma) ||F'|| < 1, the `limit_uniqueness` regime certificate;
    outside it the damped inner iteration reports what it finds.
    """
    space = w0.space
    I_vals = input_model.evaluate(space)
    g = np.asarray(g, dtype=float)
    recorder = Recorder(space, dt, t_end, save_every, snapshot_times)
    decay = np.exp(-dt)

    w = w0.copy()
    S = inner_fixed_point(w, g, model, I_vals, S_guess=None, tol=inner_tol, damping=0.5)
    N = g * survival_F(model, S)
    recorder.save(0, N, S, g, w.values)
    for step in range(1, recorder.n_steps + 1):
        target = rule.gamma * rule.evaluate(N[:, None], N[None, :])
        w.values = decay * w.values + (1.0 - decay) * target
        S = inner_fixed_point(w, g, model, I_vals, S_guess=S, tol=inner_tol, damping=1.0)
        N = g * survival_F(model, S)
        if recorder.due(step):
            recorder.save(step, N, S, g, w.values)
    return recorder.record()


@dataclass
class EpsilonStudy:
    epsilons: tuple[float, ...]
    T: float
    dist_n: np.ndarray  # L1 over (t, s, x)
    dist_N: np.ndarray  # L1 over (t, x)
    fitted_order: float  # NaN for a single epsilon
    records: dict[float, RunRecord]


def check_epsilons(eps_list) -> tuple[float, ...]:
    """The study's epsilons as floats, refused unless 1 >= e_1 > e_2 > ... > 0."""
    eps = tuple(float(e) for e in eps_list)
    if not eps or not (1 >= eps[0] and all(a > b for a, b in zip(eps, (*eps[1:], 0.0)))):
        raise ModelError(f"epsilons must satisfy 1 >= e_1 > ... > 0, got {eps}", field="eps_list")
    return eps


def epsilon_study(
    eps_list,
    n0: DensityField,
    w0: ConnectivityKernel,
    model: FiringRateModel,
    rule: LearningRule,
    input_model: InputModel,
    T: float,
    picard=None,
) -> EpsilonStudy:
    """Distances between the rescaled runs and the limit solution on [0, T].

    All epsilon runs share the same grids so scheme error cancels in the
    ratios; each run uses dt = eps * ds / 2 (the exact-mass step) and the
    limit reference is integrated with the smallest of those steps.  The
    time integrals are trapezoid sums over samples, every other solver step
    and the last, of |N - N_bar| and of |n - n_bar| with n_bar the
    `slaved_profile` of the limit's S; so they resolve the width-O(eps)
    initial layer without storing density snapshots.  The reported order is
    the log-log slope of the density distance against epsilon, NaN for one.
    """
    eps = check_epsilons(eps_list)
    age, space = n0.age, n0.space
    g = n0.mass()

    dt_limit = min(eps) * age.ds / 2.0
    limit_rec = limit_run(w0.copy(), g, model, rule, input_model, dt_limit, T,
                          save_every=dt_limit)

    dist_n, dist_N = np.zeros(len(eps)), np.zeros(len(eps))
    records: dict[float, RunRecord] = {}

    for i, e in enumerate(eps):
        cfg = SolverConfig(dt=e * age.ds / 2.0, epsilon=e, picard=picard or PicardOptions())
        last = int(round(T / cfg.dt))
        samples: list[tuple[float, float, float]] = []  # (t, |n - n_bar|, |N - N_bar|)

        def distances(step, values, N, S):
            if step % 2 and step != last:
                return
            t = step * cfg.dt
            row = min(int(round(t / dt_limit)), len(limit_rec.times) - 1)
            n_bar = slaved_profile(model, age, limit_rec.S_series[row], g)
            samples.append((t, float(space.weights @ (age.weights @ np.abs(values - n_bar))),
                            float(space.weights @ np.abs(N - limit_rec.N_series[row]))))

        records[e] = nonlinear_run(n0.copy(), w0.copy(), model, rule, input_model, cfg, T,
                                   save_every=T, observer=distances)
        # contiguous rows: a dot product over strided columns differs in the last digits
        t, d_n, d_N = np.array(samples).T.copy()
        half = 0.5 * np.diff(t)
        weights = np.r_[half, 0.0] + np.r_[0.0, half]  # the trapezoid rule over the samples
        dist_n[i], dist_N[i] = weights @ d_n, weights @ d_N

    slope = (float(np.polyfit(np.log(eps), np.log(np.maximum(dist_n, 1e-300)), 1)[0])
             if len(eps) >= 2 else float("nan"))
    return EpsilonStudy(eps, T, dist_n, dist_N, slope, records)
