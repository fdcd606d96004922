"""The slow-learning limit: density slaved to the kernel, kernel ODE in time.

When learning is much slower than the discharge dynamics the density relaxes
instantaneously, leaving per time step an algebraic fixed point

    S(x) = integral w(x, y) g(y) F(S(y)) dy + I(t, x),

the closed-form activity N = g F(S) and the kernel relaxation toward
gamma G(N(x), N(y)).  There is no transport step and hence no CFL
restriction; the kernel is advanced by the exact one-step exponential
formula.  The inner fixed point is solved by Anderson mixing from the
quadratic through the last three solutions, and N is taken from its last map
evaluation; the map is a guaranteed contraction when ||w|| ||F'|| < 1, and
outside that regime the mixing reports what it finds.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass

import numpy as np

from .fixedpoint import PicardError, damped_fixed_point, extrapolate
from .grids import ConnectivityKernel, DensityField, GridError
from .models import (FiringRateModel, InputModel, LearningRule, ModelError, slaved_profile,
                     survival_F)
from .renewal import PicardOptions, Recorder, RunRecord, SolverConfig, nonlinear_steps


def inner_fixed_point(
    w: ConnectivityKernel,
    g: np.ndarray,
    model: FiringRateModel,
    I_t: np.ndarray,
    S_guess: np.ndarray | None = None,
    tol: float = 1e-12,
    max_iters: int = 200,
) -> tuple[np.ndarray, np.ndarray]:
    """Solve S = integral(w g F(S)) + I by Anderson mixing from S_guess in at most max_iters
    iterations.  Returns the last map evaluation, at the iterate x whose residual passed:
    S = integral(w N) + I and N = g F(x)."""
    wq = w.values * w.space.weights[None, :]
    gv = np.asarray(g, dtype=float)
    N = None  # of the last map evaluation

    def apply_map(S: np.ndarray) -> np.ndarray:
        nonlocal N
        N = gv * survival_F(model, S)
        return wq @ N + I_t

    start = I_t if S_guess is None else np.asarray(S_guess, dtype=float)
    result = damped_fixed_point(apply_map, start, tol, max_iters)
    if not result.converged:
        raise PicardError(
            f"inner stimulation fixed point stalled at residual {result.residual:.3e} "
            f"(strong-kernel regime)",
            result.residual,
        )
    return result.value, N


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
    inner_max_iters: int = 200,
) -> RunRecord:
    """Integrate the limit system: inner fixed point, then kernel relaxation of a
    copy of w0.  The density is slaved to S, so no age grid enters the run.  Each
    step's inner solve starts from the `extrapolate` of the last three solutions.

    Uniqueness of the inner fixed point is guaranteed when
    max(||w0||, gamma) ||F'|| < 1, the `limit_uniqueness` regime certificate;
    outside it the inner iteration reports what it finds.
    """
    space = w0.space
    I_vals = input_model.evaluate(space)
    g = np.asarray(g, dtype=float)
    recorder = Recorder(space, dt, t_end, save_every, snapshot_times)
    decay = np.exp(-dt)

    w = w0.copy()
    S, N = inner_fixed_point(w, g, model, I_vals, tol=inner_tol, max_iters=inner_max_iters)
    past = deque([S], maxlen=3)  # the inner solutions, newest first
    recorder.save(0, N, S, g, w.values)
    for step in range(1, recorder.n_steps + 1):
        rule.relax(w.values, N, decay)
        S, N = inner_fixed_point(w, g, model, I_vals, extrapolate(past), inner_tol,
                                 inner_max_iters)
        past.appendleft(S)
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
    initial layer without storing density snapshots.  The runs step side by
    side, merged in time, so the samples reach the limit rows in order and each
    sampled row's profile is formed once.  An epsilon whose step does not divide T
    is refused, naming it, before any run.  The reported order is
    the log-log slope of the density distance against epsilon, NaN for one.
    """
    import heapq  # here, so that the commands that merge no runs never load it

    eps = check_epsilons(eps_list)
    age, space = n0.age, n0.space
    g = n0.mass()

    recorders = []
    for e in eps:
        try:
            recorders.append(Recorder(space, e * age.ds / 2.0, T, save_every=T))
        except GridError as exc:
            raise GridError(f"epsilon {e}: {exc}", field=exc.field) from None

    dt_limit = min(eps) * age.ds / 2.0
    limit_rec = limit_run(w0.copy(), g, model, rule, input_model, dt_limit, T,
                          save_every=dt_limit)

    def steps(i: int, e: float, recorder: Recorder):  # (i, step, (t, values, N, S)) per step
        cfg = SolverConfig(dt=recorder.dt, epsilon=e, picard=picard or PicardOptions())
        run = nonlinear_steps(n0, w0, model, rule, input_model, cfg, recorder)
        # zip, not a generator expression: the run's warnings skip one frame, the merge's
        return zip(itertools.repeat(i), itertools.count(), run)

    samples = [[] for _ in eps]  # per epsilon (t, |n - n_bar|, |N - N_bar|)
    row_now = -1
    # a run steps only when resumed, and the merge resumes it once its last state is used
    for i, step, (t, values, N, _) in heapq.merge(*map(steps, range(len(eps)), eps, recorders),
                                                  key=lambda item: item[2][0]):
        if step % 2 and step != recorders[i].n_steps:
            continue
        row = min(int(round(t / dt_limit)), len(limit_rec.times) - 1)
        if row != row_now:  # the merged times, and with them the rows, never fall
            row_now, n_bar = row, slaved_profile(model, age, limit_rec.S_series[row], g)
        samples[i].append((t, float(space.weights @ (age.weights @ np.abs(values - n_bar))),
                           float(space.weights @ np.abs(N - limit_rec.N_series[row]))))

    dist_n, dist_N = np.zeros(len(eps)), np.zeros(len(eps))
    for i, rows in enumerate(samples):
        # contiguous rows: a dot product over strided columns differs in the last digits
        t, d_n, d_N = np.array(rows).T.copy()
        half = 0.5 * np.diff(t)
        weights = np.r_[half, 0.0] + np.r_[0.0, half]  # the trapezoid rule over the samples
        dist_n[i], dist_N[i] = weights @ d_n, weights @ d_N

    slope = (float(np.polyfit(np.log(eps), np.log(np.maximum(dist_n, 1e-300)), 1)[0])
             if len(eps) >= 2 else float("nan"))
    records = {e: recorder.record() for e, recorder in zip(eps, recorders)}
    return EpsilonStudy(eps, T, dist_n, dist_N, slope, records)
