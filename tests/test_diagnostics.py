import math
import warnings

import numpy as np
import pytest

from elapsednet.config import build_experiment, with_overrides
from elapsednet.diagnostics import (
    FitError,
    doeblin_check,
    fit_decay,
    homogenization_metrics,
    regime_certificates,
)
from elapsednet.grids import AgeGrid, ConnectivityKernel, DensityField, SpatialGrid
from elapsednet.models import FiringRateModel, LearningRule, SigmaMap
from elapsednet.presets import get_preset
from elapsednet.renewal import nonlinear_run


class TestFitDecay:
    def test_exact_exponential(self):
        t = np.linspace(0.0, 5.0, 200)
        fit = fit_decay(t, np.exp(-2.0 * t))
        assert fit.lambda_hat == pytest.approx(2.0, abs=1e-9)
        assert fit.r_squared > 0.999999

    def test_plateau_is_excluded(self):
        t = np.linspace(0.0, 10.0, 400)
        d = np.exp(-1.5 * t) + 1e-5  # discrete-equilibrium style floor
        fit = fit_decay(t, d)
        assert fit.lambda_hat == pytest.approx(1.5, rel=0.05)
        assert fit.r_squared > 0.99

    def test_window(self):
        t = np.linspace(0.0, 10.0, 400)
        d = np.exp(-0.5 * t)
        fit = fit_decay(t, d, window=(2.0, 8.0))
        assert fit.window[0] >= 2.0 and fit.window[1] <= 8.0
        assert fit.lambda_hat == pytest.approx(0.5, abs=1e-9)

    def test_too_few_samples(self):
        t = np.linspace(0.0, 1.0, 6)
        d = np.full(6, 1e-15)  # everything under the round-off floor
        with pytest.raises(FitError):
            fit_decay(t, d)


class TestDoeblin:
    @staticmethod
    def make_field(fn, nx=4, ns=640, s_max=16.0):
        age, space = AgeGrid(ns=ns, s_max=s_max), SpatialGrid(nx=nx)
        f = DensityField.from_function(age, space, fn)
        return f.normalize_mass(1.0)

    def test_half_threshold_example(self):
        # constant threshold 1/2: alpha = (1/2) e^{-1}, lambda = -log(1 - alpha)
        model = FiringRateModel(kind="step", p_inf=1.0,
                                sigma=SigmaMap("constant", sigma_max=0.5))
        n0 = self.make_field(lambda s, x: np.exp(-s) + 0 * x)
        rep = doeblin_check(n0, np.zeros(4), model)
        assert rep.alpha == pytest.approx(0.5 * math.exp(-1.0), abs=1e-15)
        assert rep.lambda_theory == pytest.approx(
            -math.log(1.0 - 0.5 * math.exp(-1.0)), abs=1e-15)
        assert rep.t0 == pytest.approx(1.0)
        assert rep.minorization_margin >= -2 * n0.age.ds
        assert not rep.degenerate

    def test_uniform_over_initial_data(self):
        # a narrow bump far from the origin satisfies the same bound
        model = FiringRateModel(kind="step", p_inf=1.0,
                                sigma=SigmaMap("constant", sigma_max=0.5))
        n0 = self.make_field(lambda s, x: np.exp(-40 * (s - 3.0) ** 2) + 0 * x)
        rep = doeblin_check(n0, np.zeros(4), model)
        assert rep.minorization_margin >= -2 * n0.age.ds

    def test_degenerate_flagged(self):
        model = FiringRateModel(kind="step", p_inf=1.0,
                                sigma=SigmaMap("constant", sigma_max=0.5),
                                p_star=1e-12, s_star=0.5)
        n0 = self.make_field(lambda s, x: np.exp(-s) + 0 * x)
        rep = doeblin_check(n0, np.zeros(4), model)
        assert rep.degenerate
        assert rep.alpha <= 1e-12
        assert rep.lambda_theory == 0.0

    def test_empirical_rate_beats_theory(self):
        # frozen linear dynamics decay at least at half the Doeblin rate
        model = FiringRateModel(kind="step", p_inf=1.0,
                                sigma=SigmaMap("constant", sigma_max=0.5))
        age, space = AgeGrid(ns=400, s_max=16.0), SpatialGrid(nx=4)
        n0 = DensityField.from_function(age, space,
                                        lambda s, x: np.exp(-2 * s) * (2 + 0 * x))
        n0.normalize_mass(1.0)
        rep = doeblin_check(n0, np.zeros(4), model)
        from elapsednet.renewal import SolverConfig, linear_step

        equil = DensityField.from_function(
            age, space, lambda s, x: np.exp(-np.maximum(s - 0.5, 0.0)) + 0 * x)
        equil.normalize_mass(1.0)
        cfg = SolverConfig(dt=age.ds / 2)
        f = n0.copy()
        times, dists = [], []
        for k in range(1, 1001):
            f, _ = linear_step(f, np.zeros(4), model, cfg)
            if k % 10 == 0:
                times.append(k * cfg.dt)
                dists.append(np.abs(age.integrate(np.abs(f.values - equil.values))).max())
        fit = fit_decay(np.asarray(times), np.asarray(dists))
        assert fit.lambda_hat >= 0.5 * rep.lambda_theory


class TestHomogenization:
    def test_constant_run_all_zero(self):
        # fully x-independent data: every deviation metric stays at zero
        exp = build_experiment(with_overrides(get_preset("g1i1c").config,
                                              kernel="constant", kernel_amplitude=1.0))
        n0 = DensityField.from_function(exp.age, exp.space,
                                        lambda s, x: np.exp(-s) + 0 * x)
        n0.normalize_mass(1.0)
        rec = nonlinear_run(n0, exp.w0, exp.model, exp.rule, exp.input_model,
                            exp.solver, t_end=1.0, save_every=0.5)
        m = homogenization_metrics(rec)
        assert m.w_deviation.max() <= 1e-12
        assert m.N_deviation.max() <= 1e-12
        assert m.S_deviation.max() <= 1e-12

    def test_inhomogeneous_pattern_persists(self):
        exp = build_experiment(get_preset("g1i1v").config)
        rec = nonlinear_run(exp.n0, exp.w0, exp.model, exp.rule, exp.input_model,
                            exp.solver, t_end=6.0, save_every=0.5)
        m = homogenization_metrics(rec)
        assert m.N_deviation[-1] > 0.01


class TestCertificates:
    @staticmethod
    def setup_args(gamma, w0_amp=10.0, kind="step", n0_max=2.0):
        space = SpatialGrid(nx=16)
        if kind == "step":
            model = FiringRateModel(kind="step", p_inf=1.0, sigma=SigmaMap("identity"))
        else:
            model = FiringRateModel(kind="smooth", p_inf=1.0, sigma=SigmaMap("identity"),
                                    p_star=1.0, s_star=20.0, theta=0.5)
        rule = LearningRule("hebbian", gamma)
        w0 = ConnectivityKernel.from_function(
            space, lambda x, y: w0_amp * np.exp(-10 * (x - y) ** 2))
        g = np.ones(16)
        I = np.ones(16)
        return model, rule, w0, g, I, n0_max

    def test_gamma_zero_with_small_kernel_all_hold(self):
        # the step well-posedness bound also carries max(||w0||, gamma), so a
        # small initial kernel is part of the fully certified configuration
        model, rule, w0, g, I, _ = self.setup_args(0.0, w0_amp=0.2)
        certs = regime_certificates(model, rule, w0, g, I, n0_max=1.0)
        assert all(c.holds for c in certs)

    def test_strong_preset_outside_proved_regime(self):
        exp = build_experiment(get_preset("g35i5c").config)
        certs = regime_certificates(exp.model, exp.rule, exp.w0, exp.g,
                                    exp.input_model.evaluate(exp.space),
                                    n0_max=float(exp.n0.values.max()))
        wellposed = next(c for c in certs if c.name == "wellposed_step")
        assert not wellposed.holds
        assert wellposed.lhs > 1.0

    def test_step_variant_uses_sigma_lipschitz(self):
        model, rule, w0, g, I, n0_max = self.setup_args(1.0)
        certs = {c.name: c for c in regime_certificates(model, rule, w0, g, I,
                                                        n0_max=n0_max)}
        c = certs["wellposed_step"]
        A = max(float(w0.values.max()), rule.gamma)
        B = n0_max + model.p_inf * float(g.max())
        assert c.lhs == pytest.approx(model.p_inf * 1.0 * 1.0 * A * B, rel=1e-12)

    def test_smooth_variant_uses_dpdS(self):
        model, rule, w0, g, I, n0_max = self.setup_args(1.0, kind="smooth")
        certs = {c.name: c for c in regime_certificates(model, rule, w0, g, I,
                                                        n0_max=n0_max)}
        assert "wellposed_smooth" in certs
        A = max(float(w0.values.max()), rule.gamma)
        assert certs["wellposed_smooth"].lhs == pytest.approx(1.0 * 1.0 * 3.0 * A, rel=1e-12)

    def test_monotone_in_gamma(self):
        # raising gamma never turns a false certificate true
        prev_lhs = None
        for gamma in (0.0, 0.5, 2.0, 10.0, 40.0):
            model, rule, w0, g, I, n0_max = self.setup_args(gamma, w0_amp=2.0)
            certs = regime_certificates(model, rule, w0, g, I, n0_max=n0_max)
            lhs = np.array([c.lhs for c in certs])
            if prev_lhs is not None:
                assert np.all(lhs >= prev_lhs - 1e-12)
            prev_lhs = lhs
