import math

import numpy as np
import pytest

import elapsednet.limit as limit_module
from elapsednet.config import build_experiment, with_overrides
from elapsednet.diagnostics import regime_certificates
from elapsednet.grids import ConnectivityKernel, GridError, SpatialGrid
from elapsednet.limit import epsilon_study, inner_fixed_point, limit_run
from elapsednet.models import (FiringRateModel, InputModel, LearningRule, SigmaMap,
                               slaved_profile, survival_F)
from elapsednet.presets import get_preset
from elapsednet.renewal import Recorder, SolverConfig, nonlinear_run, nonlinear_steps
from elapsednet.stationary import StationaryProblem, solve_stationary


def step_model():
    return FiringRateModel(kind="step", p_inf=1.0, sigma=SigmaMap("identity"))


def count_map_evaluations(monkeypatch) -> list[int]:
    """A one-element list that sums the limit's inner map evaluations while the test runs."""
    evaluations, solve = [0], limit_module.damped_fixed_point

    def counted(*args, **kwargs):
        result = solve(*args, **kwargs)
        evaluations[0] += result.iterations
        return result

    monkeypatch.setattr(limit_module, "damped_fixed_point", counted)
    return evaluations


class TestInnerFixedPoint:
    def test_zero_kernel_returns_input(self):
        space = SpatialGrid(nx=8)
        w = ConnectivityKernel.constant(space, 0.0)
        I = np.linspace(0.5, 1.5, 8)
        S, _ = inner_fixed_point(w, np.ones(8), step_model(), I)
        np.testing.assert_allclose(S, I, atol=1e-13)

    def test_constant_kernel_quadratic_root(self):
        # S = w0/(1+S) + I0 has the closed-form root
        # (-(1-I0) + sqrt((1-I0)^2 + 4(w0+I0))) / 2; w0=2, I0=1 gives sqrt(3)
        space = SpatialGrid(nx=8)
        w = ConnectivityKernel.constant(space, 2.0)
        I = np.ones(8)
        S, _ = inner_fixed_point(w, np.ones(8), step_model(), I)
        np.testing.assert_allclose(S, math.sqrt(3.0), atol=1e-11)

    def test_preset_kernel_in_apriori_band(self):
        exp = build_experiment(get_preset("Lg1i1c").config)
        S, _ = inner_fixed_point(exp.w0, exp.g, exp.model, exp.input_model.evaluate(exp.space))
        wq = exp.w0.values * exp.space.weights[None, :]
        F = np.asarray(survival_F(exp.model, S))
        residual = np.abs(wq @ (exp.g * F) + 1.0 - S).max()
        assert residual < 1e-10
        band_hi = float(exp.w0.values.max()) * exp.model.p_inf * float(exp.g.max()) + 1.0
        assert np.all(S >= 1.0 - 1e-12) and np.all(S <= band_hi + 1e-12)


class TestLimitRun:
    def test_gamma_zero_kernel_decays_exactly(self):
        space = SpatialGrid(nx=8)
        w0 = ConnectivityKernel.from_function(space,
                                              lambda x, y: 10 * np.exp(-10 * (x - y) ** 2))
        rec = limit_run(w0, np.ones(8), step_model(), LearningRule("hebbian", 0.0),
                        InputModel("constant", amplitude=1.0),
                        dt=0.05, t_end=10.0, save_every=1.0)
        w_final = rec.w_snapshot_at(10.0)
        assert w_final.max() <= math.exp(-10.0) * 10.0 + 1e-12
        # S = I + integral(w g F): bounded by the residual kernel mass
        np.testing.assert_allclose(rec.final_S(), 1.0, atol=math.exp(-10.0) * 10.0)

    def test_kernel_bound(self):
        exp = build_experiment(get_preset("Lg1i1c").config)
        rec = limit_run(exp.w0, exp.g, exp.model, exp.rule, exp.input_model,
                        dt=0.05, t_end=5.0, save_every=0.5)
        bound = max(float(exp.w0.values.max()), exp.rule.gamma)
        assert max(w.max() for w in rec.w_snapshots.values()) <= bound + 1e-9

    def test_algebraic_identities_along_the_run(self):
        exp = build_experiment(get_preset("Lg1i1c").config)
        rec = limit_run(exp.w0, exp.g, exp.model, exp.rule, exp.input_model,
                        dt=0.1, t_end=2.0, save_every=0.5,
                        snapshot_times=(0.5, 1.0, 2.0), inner_tol=1e-12)
        for i, t in enumerate(rec.times):
            if t == 0.0:
                continue
            w = rec.w_snapshot_at(t) if any(abs(t - k) < 1e-9 for k in (0.5, 1.0, 2.0)) else None
            S, N = rec.S_series[i], rec.N_series[i]
            F = np.asarray(survival_F(exp.model, S))
            np.testing.assert_allclose(N, exp.g * F, rtol=1e-12)
            if w is not None:
                wq = w * exp.space.weights[None, :]
                assert np.abs(wq @ N + 1.0 - S).max() < 1e-10

    def test_one_survival_F_call_per_inner_map_evaluation(self, monkeypatch):
        # the smooth rate, whose F is a quadrature: N comes from the solve's last map
        # evaluation, so no step evaluates F at its solution once more
        space = SpatialGrid(nx=4)
        model = FiringRateModel(kind="smooth", p_inf=1.0, sigma=SigmaMap("identity"),
                                p_star=0.5, s_star=6.0, theta=0.5)
        calls, evaluations = [0], count_map_evaluations(monkeypatch)

        def counted_F(*args):
            calls[0] += 1
            return survival_F(*args)

        monkeypatch.setattr(limit_module, "survival_F", counted_F)
        w0 = ConnectivityKernel.from_function(space, lambda x, y: 1.0 + x * y)
        limit_run(w0, np.ones(4), model, LearningRule("gaussian_sigmoid", 2.0),
                  InputModel("sin_squared", amplitude=1.0), dt=0.05, t_end=0.5)
        assert calls[0] == evaluations[0] > 0

    def test_short_Lg10i1v_limit_takes_at_most_700_inner_map_evaluations(self, monkeypatch):
        # 653 from predicted starts, 956 from each step's last solution; the tolerance is
        # the CLI's picard_tol
        exp = build_experiment(get_preset("Lg10i1v").config)
        evaluations = count_map_evaluations(monkeypatch)
        limit_run(exp.w0, exp.g, exp.model, exp.rule, exp.input_model,
                  dt=exp.config.resolved_dt(), t_end=2.0,
                  inner_tol=exp.config.picard_tol)
        assert evaluations[0] <= 700

    def test_homogenizes_and_matches_stationary(self):
        exp = build_experiment(get_preset("Lg1i1c").config)
        rec = limit_run(exp.w0, exp.g, exp.model, exp.rule, exp.input_model,
                        dt=0.05, t_end=25.0, save_every=0.25)
        devs = rec.w_dev_series
        assert devs[-1] < 1e-3
        assert devs[-1] < devs[0]
        prob = StationaryProblem(exp.space, exp.age, exp.g, exp.model, exp.rule,
                                 exp.input_model.evaluate(exp.space))
        state = solve_stationary(prob, tol=1e-12)[0]
        assert np.abs(rec.final_S() - state.S_star).max() < 1e-3

    @staticmethod
    def limit_uniqueness(cfg):
        exp = build_experiment(cfg)
        certs = regime_certificates(exp.model, exp.rule, exp.w0, exp.g,
                                    exp.input_model.evaluate(exp.space),
                                    n0_max=float(exp.n0.values.max()))
        return next(c for c in certs if c.name == "limit_uniqueness")

    def test_uniqueness_certificate(self):
        # max(||w0||, gamma) ||F'|| = 0.5 ||F'|| with ||F'|| <= 1 for the unit step rate
        weak = with_overrides(get_preset("Lg1i1c").config, kernel_amplitude=0.5, gamma=0.5)
        cert = self.limit_uniqueness(weak)
        assert cert.holds and 0.0 < cert.lhs < 1.0

    def test_uniqueness_certificate_fails_on_Lg1i1c(self):
        cert = self.limit_uniqueness(get_preset("Lg1i1c").config)
        assert not cert.holds and cert.lhs >= 1.0


class TestEpsilonStudy:
    @staticmethod
    def weak_experiment():
        cfg = with_overrides(get_preset("g1i1c").config, kernel_amplitude=2.0,
                             ns=400, s_max=20.0)
        return build_experiment(cfg)

    def test_distances_shrink_with_epsilon(self):
        exp = self.weak_experiment()
        study = epsilon_study((0.4, 0.2, 0.1), exp.n0, exp.w0, exp.model, exp.rule,
                              exp.input_model, T=1.5)
        assert np.all(np.diff(study.dist_n) < 0)
        assert np.all(np.diff(study.dist_N) < 0)
        ratios = study.dist_n[1:] / study.dist_n[:-1]
        assert np.all(ratios >= 0.35) and np.all(ratios <= 0.7)
        assert 0.7 <= study.fitted_order <= 1.3

    def test_epsilon_one_is_the_plain_system(self):
        # the rescaled system at epsilon = 1 is the original one
        exp = self.weak_experiment()
        study = epsilon_study((1.0,), exp.n0, exp.w0, exp.model, exp.rule,
                              exp.input_model, T=1.0)
        cfg = SolverConfig(dt=exp.age.ds / 2, epsilon=1.0)
        rec = nonlinear_run(exp.n0.copy(), exp.w0.copy(), exp.model, exp.rule,
                            exp.input_model, cfg, 1.0, save_every=1.0)
        ref = study.records[1.0]
        np.testing.assert_allclose(ref.final_N(), rec.final_N(), rtol=1e-12)

    def test_smaller_epsilon_closer_to_limit(self):
        exp = self.weak_experiment()
        study = epsilon_study((0.1, 0.01), exp.n0, exp.w0, exp.model, exp.rule,
                              exp.input_model, T=1.0)
        assert study.dist_N[1] < study.dist_N[0]
        assert study.dist_n[1] < study.dist_n[0]

    def test_rejects_bad_lists(self):
        exp = self.weak_experiment()
        with pytest.raises(ValueError):
            epsilon_study((0.1, 0.2), exp.n0, exp.w0, exp.model, exp.rule,
                          exp.input_model, T=1.0)

    def test_off_grid_epsilon_is_refused_before_any_run(self, monkeypatch):
        # ds = 0.05: dt = 0.00175 at epsilon 0.07 does not divide T = 1, dt = 0.0025 at 0.1 does
        exp = self.weak_experiment()

        def no_run(*args, **kwargs):
            raise AssertionError("a run started before the epsilons were checked")

        monkeypatch.setattr(limit_module, "limit_run", no_run)
        with pytest.raises(GridError, match=r"^epsilon 0\.07: t_end = 1\.0 is not a multiple "
                                            r"of dt = 0\.00175"):
            epsilon_study((0.1, 0.07), exp.n0, exp.w0, exp.model, exp.rule,
                          exp.input_model, T=1.0)

    def test_lockstep_matches_one_run_at_a_time(self, monkeypatch):
        # rows not nested across the epsilons, and at 0.05 the samples fall on t / dt_limit
        # = 2.5 k, round-half ties
        cfg = with_overrides(get_preset("g1i1c").config, kernel_amplitude=2.0, ns=200,
                             s_max=20.0)
        exp = build_experiment(cfg)
        eps, T = (0.25, 0.05, 0.04), 1.0
        age, space, g = exp.age, exp.space, exp.n0.mass()
        dt_limit = min(eps) * age.ds / 2.0
        limit_rec = limit_run(exp.w0.copy(), g, exp.model, exp.rule, exp.input_model,
                              dt_limit, T, save_every=dt_limit)
        ref_n, ref_N, rows = [], [], set()
        for e in eps:  # each epsilon alone, with a profile formed at every sample
            recorder = Recorder(space, e * age.ds / 2.0, T, save_every=T)
            run = nonlinear_steps(exp.n0, exp.w0, exp.model, exp.rule, exp.input_model,
                                  SolverConfig(dt=recorder.dt, epsilon=e), recorder)
            samples = []
            for step, (t, values, N, S) in enumerate(run):
                if step % 2 == 0 or step == recorder.n_steps:
                    row = min(round(t / dt_limit), len(limit_rec.times) - 1)
                    rows.add(row)
                    n_bar = slaved_profile(exp.model, age, limit_rec.S_series[row], g)
                    samples.append((t, space.weights @ (age.weights @ np.abs(values - n_bar)),
                                    space.weights @ np.abs(N - limit_rec.N_series[row])))
            t, d_n, d_N = np.array(samples).T.copy()
            half = 0.5 * np.diff(t)
            weights = np.r_[half, 0.0] + np.r_[0.0, half]
            ref_n.append(weights @ d_n)
            ref_N.append(weights @ d_N)

        formed = []

        def counted(model, age, S, g):
            formed.append(S.copy())
            return slaved_profile(model, age, S, g)

        monkeypatch.setattr(limit_module, "slaved_profile", counted)
        study = epsilon_study(eps, exp.n0, exp.w0, exp.model, exp.rule, exp.input_model, T=T)
        assert study.dist_n.tolist() == ref_n and study.dist_N.tolist() == ref_N
        # one profile per distinct sampled row, in row order
        np.testing.assert_array_equal(formed, limit_rec.S_series[sorted(rows)])
