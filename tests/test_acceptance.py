"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Shared heavy runs (the gamma=1, I=1 preset to t=25 and its stationary state)
are module-scoped fixtures; every tolerance is asserted exactly as stated.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import math
import time
import warnings

import numpy as np
import pytest

from elapsednet.cli import main as cli_main
from elapsednet.config import build_experiment, with_overrides
from elapsednet.diagnostics import doeblin_check, fit_decay, homogenization_metrics
from elapsednet.grids import AgeGrid, DensityField, SpatialGrid, norms
from elapsednet.limit import epsilon_study, limit_run
from elapsednet.models import FiringRateModel, SigmaMap
from elapsednet.presets import get_preset
from elapsednet.renewal import (
    SolverConfig,
    characteristics_oracle,
    large_input_run,
    linear_step,
    nonlinear_run,
)
from elapsednet.stationary import StationaryProblem, scalar_stationary, solve_stationary


def check(ok: bool, label: str, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")
    assert ok, f"{label}: {detail}"


@pytest.fixture(scope="module")
def g1i1c_experiment():
    return build_experiment(get_preset("g1i1c").config)


@pytest.fixture(scope="module")
def g1i1c_run(g1i1c_experiment):
    exp = g1i1c_experiment
    start = time.perf_counter()
    record = nonlinear_run(exp.n0.copy(), exp.w0.copy(), exp.model, exp.rule,
                           exp.input_model, exp.solver, t_end=25.0, save_every=0.25)
    return record, time.perf_counter() - start


@pytest.fixture(scope="module")
def g1i1c_stationary(g1i1c_experiment):
    exp = g1i1c_experiment
    problem = StationaryProblem(exp.space, exp.age, exp.g, exp.model, exp.rule,
                                exp.input_model.evaluate(exp.space))
    return solve_stationary(problem, tol=1e-12)[0]


def test_criterion_1_mass_conservation(g1i1c_run):
    record, elapsed = g1i1c_run
    worst = float(np.abs(record.mass_series - 1.0).max())
    check(worst <= 1e-8 and elapsed < 30.0,
          "criterion 1 (mass conservation)",
          f"max |mass - 1| = {worst:.3e} (<= 1e-8), runtime {elapsed:.1f} s (< 30)")


def test_criterion_2_oracle_equivalence():
    start = time.perf_counter()
    model = FiringRateModel(kind="step", p_inf=1.0, sigma=SigmaMap("identity"))
    S = np.array([1.2, 1.4, 1.6, 1.8])
    steps_ds = [1.0 / 200, 1.0 / 400, 1.0 / 800]
    errors = []
    for ds in steps_ds:
        age = AgeGrid(ns=int(round(12.0 / ds)), s_max=12.0)
        space = SpatialGrid(nx=4)
        n0 = DensityField.from_function(
            age, space, lambda s, x: np.exp(-(((s - 0.55) / 0.12) ** 2)) + 0 * x
        )
        cfg = SolverConfig(dt=ds / 2)
        f = n0.copy()
        for _ in range(int(round(1.0 / cfg.dt))):
            f, _ = linear_step(f, S, model, cfg)
        oracle = characteristics_oracle(n0, S, model, t=1.0, refine=8)
        errors.append(norms(f, oracle)["L1_sx"])
    order = float(np.polyfit(np.log(steps_ds), np.log(errors), 1)[0])
    elapsed = time.perf_counter() - start
    check(order >= 0.8 and all(b < a for a, b in zip(errors, errors[1:]))
          and elapsed < 60.0,
          "criterion 2 (oracle equivalence)",
          f"L1 errors {['%.3e' % e for e in errors]}, fitted order {order:.2f} "
          f"(>= 0.8), runtime {elapsed:.1f} s (< 60)")


def test_criterion_3_doeblin_minorization():
    start = time.perf_counter()
    model = FiringRateModel(kind="step", p_inf=1.0,
                            sigma=SigmaMap("constant", sigma_max=0.5))
    age, space = AgeGrid(ns=640, s_max=16.0), SpatialGrid(nx=4)
    n0 = DensityField.from_function(age, space, lambda s, x: np.exp(-s) + 0 * x)
    n0.normalize_mass(1.0)
    report = doeblin_check(n0, np.zeros(4), model)
    alpha_ref = 0.5 * math.exp(-1.0)
    lambda_ref = -math.log(1.0 - alpha_ref)
    elapsed = time.perf_counter() - start
    check(abs(report.alpha - alpha_ref) <= 1e-12
          and abs(report.lambda_theory - lambda_ref) <= 1e-12
          and report.minorization_margin >= -2 * age.ds
          and elapsed < 10.0,
          "criterion 3 (Doeblin minorization)",
          f"alpha err {abs(report.alpha - alpha_ref):.1e}, lambda err "
          f"{abs(report.lambda_theory - lambda_ref):.1e}, margin "
          f"{report.minorization_margin:.4f} (>= {-2 * age.ds}), "
          f"runtime {elapsed:.1f} s (< 10)")


def test_criterion_4_stationary_consistency(g1i1c_run, g1i1c_stationary):
    start = time.perf_counter()
    state = g1i1c_stationary
    root = scalar_stationary(1.0, 1.0)
    flat = float(np.abs(state.S_star - state.S_star.mean()).max())
    vs_root = float(np.abs(state.S_star - root).max())
    record, _ = g1i1c_run
    vs_run = float(np.abs(record.final_S() - state.S_star).max())
    elapsed = time.perf_counter() - start
    check(flat <= 1e-8 and vs_root <= 1e-10 and vs_run <= 1e-3 and elapsed < 60.0,
          "criterion 4 (stationary consistency)",
          f"S* flatness {flat:.1e} (<= 1e-8), |S* - root| {vs_root:.1e} (<= 1e-10), "
          f"|S(25) - S*| {vs_run:.1e} (<= 1e-3), runtime {elapsed:.1f} s (< 60)")


def test_criterion_5_exponential_convergence(g1i1c_run, g1i1c_stationary):
    record, _ = g1i1c_run
    state = g1i1c_stationary
    dist = np.abs(record.N_series - state.N_star[None, :]).max(axis=1)
    below = np.nonzero((record.times >= 2.5) & (dist < 1e-10))[0]
    t_stop = record.times[below[0]] if below.size else record.times[-1]
    fit = fit_decay(record.times, dist, window=(2.5, float(t_stop)))
    check(fit.lambda_hat > 0 and fit.r_squared > 0.95,
          "criterion 5 (exponential convergence)",
          f"rate {fit.lambda_hat:.3f} (> 0), r^2 {fit.r_squared:.4f} (> 0.95), "
          f"window {fit.window}, {fit.n_samples} samples")


def test_criterion_6_homogenization(g1i1c_run):
    record, _ = g1i1c_run
    results = {}
    metrics = homogenization_metrics(record)
    results["g1i1c"] = metrics.w_deviation[-1] / metrics.w_deviation[0]
    assert metrics.w_deviation[-1] <= 1e-3  # absolute flatness at t = 25
    for name in ("g15i1c", "g35i5c"):
        exp = build_experiment(get_preset(name).config)
        rec = nonlinear_run(exp.n0, exp.w0, exp.model, exp.rule, exp.input_model,
                            exp.solver, t_end=exp.config.t_end, save_every=0.5)
        m = homogenization_metrics(rec)
        results[name] = m.w_deviation[-1] / m.w_deviation[0]
    check(all(v <= 1e-3 for v in results.values()),
          "criterion 6 (homogenization)",
          "w-deviation ratios at t_end: " +
          ", ".join(f"{k} = {v:.2e}" for k, v in results.items()) + " (all <= 1e-3)")


def test_criterion_7_inhomogeneous_pattern():
    exp = build_experiment(get_preset("g1i1v").config)
    record = nonlinear_run(exp.n0, exp.w0, exp.model, exp.rule, exp.input_model,
                           exp.solver, t_end=25.0, save_every=0.25)
    metrics = homogenization_metrics(record)
    spread = float(metrics.N_deviation[-1])
    half_idx = int(np.argmin(np.abs(record.times - 12.5)))
    drift = float(np.abs(record.N_series[-1] - record.N_series[half_idx]).max())
    check(spread > 0.01 and drift < 1e-4,
          "criterion 7 (inhomogeneous pattern persistence)",
          f"final N spread {spread:.3f} (> 0.01), |N(25) - N(12.5)| {drift:.2e} (< 1e-4)")


def test_criterion_8_epsilon_convergence():
    # weak gamma=1, I=1 setup: first-order convergence to the slow-learning
    # limit needs the smallness condition max(||w0||, gamma) ||F'|| < 1, so
    # the kernel amplitude is reduced to 2 (at the preset's 10 the frozen-
    # kernel layer sustains echo oscillations and the scaling degrades)
    start = time.perf_counter()
    cfg = with_overrides(get_preset("g1i1c").config, kernel_amplitude=2.0)
    exp = build_experiment(cfg)
    study = epsilon_study((0.4, 0.2, 0.1, 0.05), exp.n0, exp.w0, exp.model,
                          exp.rule, exp.input_model, T=2.0)
    ratios = study.dist_N[1:] / study.dist_N[:-1]
    elapsed = time.perf_counter() - start
    check(bool(np.all(np.diff(study.dist_N) <= 0)) and bool(np.all(ratios <= 0.7))
          and elapsed < 300.0,
          "criterion 8 (epsilon convergence)",
          f"L1 N-distances {['%.4f' % d for d in study.dist_N]}, ratios "
          f"{['%.3f' % r for r in ratios]} (<= 0.7), runtime {elapsed:.0f} s (< 300)")


def test_criterion_9_limit_vs_full(g1i1c_run, g1i1c_experiment):
    record, _ = g1i1c_run
    exp = g1i1c_experiment
    lim = limit_run(exp.w0.copy(), exp.g, exp.model, exp.rule, exp.input_model,
                    dt=0.0125, t_end=25.0, save_every=0.25)
    gap = float(np.abs(lim.final_S() - record.final_S()).max())
    check(gap <= 1e-3,
          "criterion 9 (limit vs full long-time agreement)",
          f"|S_limit(25) - S_full(25)| = {gap:.2e} (<= 1e-3)")


def test_criterion_10_large_input_limit():
    cfg = with_overrides(get_preset("g1i1c").config, sigma="bounded",
                         sigma_max=2.0, input="sin_squared")
    exp = build_experiment(cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        study = large_input_run((1.0, 10.0, 100.0), exp.n0, exp.w0, exp.model,
                                exp.rule, exp.input_model, exp.solver,
                                t_end=1.0, sample_times=(1.0,))
    d = study.distances[:, 0]
    check(bool(d[0] > d[1] > d[2]),
          "criterion 10 (large-input limit)",
          f"L1 distances at t=1: k=1: {d[0]:.4f} > k=10: {d[1]:.4f} > "
          f"k=100: {d[2]:.4f}")


def test_criterion_11_determinism(tmp_path):
    outputs = []
    for tag in ("first", "second"):
        out = tmp_path / tag
        code = cli_main(["run", "--preset", "g1i1v", "--t-end", "0.5",
                         "--out", str(out)])
        assert code == 0
        outputs.append(out)
    names = sorted(p.name for p in outputs[0].iterdir())
    identical = names == sorted(p.name for p in outputs[1].iterdir()) and all(
        (outputs[0] / n).read_bytes() == (outputs[1] / n).read_bytes() for n in names
    )
    check(identical,
          "criterion 11 (determinism)",
          f"{len(names)} output files byte-identical across repeated runs")
