import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from elapsednet.grids import AgeGrid, ConnectivityKernel, DensityField, SpatialGrid
from elapsednet.models import FiringRateModel, InputModel, LearningRule, SigmaMap, survival_F
from elapsednet.renewal import SolverConfig, nonlinear_run
from elapsednet.stationary import StationaryProblem, scalar_stationary, solve_stationary


def make_problem(gamma, input_values, rule_kind="hebbian", nx=32, ns=400, s_max=20.0):
    space = SpatialGrid(nx=nx)
    age = AgeGrid(ns=ns, s_max=s_max)
    model = FiringRateModel(kind="step", p_inf=1.0, sigma=SigmaMap("identity"))
    rule = LearningRule(rule_kind, gamma)
    g = np.ones(nx)
    I = np.asarray(input_values, dtype=float) * np.ones(nx)
    return StationaryProblem(space, age, g, model, rule, I)


class TestApplyT:
    def test_gamma_zero_returns_input(self):
        prob = make_problem(0.0, 1.3)
        S = np.linspace(0.0, 3.0, 32)
        np.testing.assert_allclose(prob.apply_T(S), 1.3, rtol=1e-14)

    def test_hebbian_constant_profile_closed_form(self):
        # for constant S the map collapses to gamma/(1+S)^3 + I
        gamma, I0, c = 2.5, 0.7, 1.4
        prob = make_problem(gamma, I0)
        out = prob.apply_T(np.full(32, c))
        np.testing.assert_allclose(out, gamma / (1 + c) ** 3 + I0, rtol=1e-13)

    def test_gaussian_sigmoid_constant_profile_scalar_oracle(self):
        gamma, I0, c = 1.5, 0.4, 1.1
        prob = make_problem(gamma, I0, rule_kind="gaussian_sigmoid")
        F = 1.0 / (1.0 + c)
        expected = gamma * F / (1.0 + np.exp(-2.0 * F * F + 2.0)) + I0
        out = prob.apply_T(np.full(32, c))
        np.testing.assert_allclose(out, expected, rtol=1e-13)


class TestScalarStationary:
    def test_gamma_zero(self):
        assert scalar_stationary(0.0, 0.8) == 0.8

    def test_bisection_root(self):
        root = scalar_stationary(1.0, 1.0)
        assert root == pytest.approx(1.106919340376217, abs=1e-11)
        assert root == pytest.approx(1.0 / (1 + root) ** 3 + 1.0, abs=1e-11)

    def test_root_in_bracket(self):
        for gamma, I0 in ((15.0, 1.0), (35.0, 5.0), (0.3, 0.0)):
            root = scalar_stationary(gamma, I0)
            assert I0 <= root <= I0 + gamma
            assert root == pytest.approx(gamma / (1 + root) ** 3 + I0, abs=1e-10)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            scalar_stationary(-1.0, 1.0)


class TestSolveStationary:
    def test_gamma_zero_single_iteration(self):
        prob = make_problem(0.0, 1.0)
        state = solve_stationary(prob, tol=1e-12)[0]
        assert state.iterations == 1
        np.testing.assert_allclose(state.S_star, 1.0, rtol=1e-14)

    def test_matches_scalar_bisection(self):
        prob = make_problem(1.0, 1.0)
        state = solve_stationary(prob, tol=1e-12)[0]
        root = scalar_stationary(1.0, 1.0)
        assert np.abs(state.S_star - root).max() <= 1e-10
        assert np.abs(state.S_star - state.S_star.mean()).max() <= 1e-12
        assert state.residual < 1e-12

    def test_strong_gamma_consistent_with_scalar(self):
        prob = make_problem(15.0, 1.0)
        state = solve_stationary(prob, tol=1e-12)[0]
        assert np.abs(state.S_star - scalar_stationary(15.0, 1.0)).max() <= 1e-10

    def test_reapplying_T_moves_little(self):
        prob = make_problem(1.0, 1.0)
        state = solve_stationary(prob, tol=1e-11)[0]
        assert np.abs(prob.apply_T(state.S_star) - state.S_star).max() < 2e-11

    def test_certificate_and_geometric_decay(self):
        prob = make_problem(1.0, 1.0)
        cert = prob.certificate()
        assert cert.holds
        # the certificate bounds the contraction of apply_T itself, so plain steps of it
        S, hist = prob.input_values, []
        for _ in range(40):
            TS = prob.apply_T(S)
            hist.append(np.abs(TS - S).max())
            S = TS
        hist = np.asarray(hist)
        usable = hist > 1e-13
        ratios = hist[1:][usable[1:]] / hist[:-1][usable[1:]]
        assert np.all(ratios <= cert.lhs + 0.05)

    def test_three_starts_give_a_single_point_in_weak_regime(self):
        prob = make_problem(1.0, 1.0)
        assert len(solve_stationary(prob, tol=1e-12)) == 1

    def test_invariants_of_reconstruction(self):
        prob = make_problem(1.0, 1.0)
        state = solve_stationary(prob, tol=1e-12)[0]
        # N* = g F(S*) and w* = gamma G(N*, N*)
        F = np.asarray(survival_F(prob.model, state.S_star))
        np.testing.assert_allclose(state.N_star, prob.g * F, rtol=1e-13)
        target = prob.rule.kernel_target(state.N_star)
        np.testing.assert_allclose(state.w_star.values, target, rtol=1e-13)
        # the reconstructed profile integrates to g to round-off by construction
        assert np.abs(state.n_star.mass() - prob.g).max() <= prob.age.ns * np.finfo(float).eps

    def test_nonconverged_gives_no_state(self):
        prob = make_problem(1.0, 1.0)
        assert solve_stationary(prob, tol=1e-15, max_iters=3) == []

    def test_steep_map_outside_the_certificate_converges(self):
        # apply_T falls from 79 at S = 0 to 0.03 at S = 4 and has slope -2.3 at the state,
        # so plain steps cycle between the ends; restarting the mixing at each rise in
        # residual cycled there too, from every start
        space, age = SpatialGrid(nx=1), AgeGrid(ns=25, s_max=14.0)
        model = FiringRateModel(kind="step", p_inf=3.3, sigma=SigmaMap("bounded", sigma_max=4.0))
        prob = StationaryProblem(space, age, np.ones(1), model, LearningRule("hebbian", 2.2),
                                 np.zeros(1))
        assert not prob.certificate().holds
        states = solve_stationary(prob, tol=1e-12)
        assert len(states) == 1
        assert np.abs(prob.apply_T(states[0].S_star) - states[0].S_star).max() < 1e-11


class TestSmoothRateStationary:
    def test_narrow_ramp_matches_step_fixed_point(self):
        space = SpatialGrid(nx=16)
        age = AgeGrid(ns=400, s_max=20.0)
        model = FiringRateModel(kind="smooth", p_inf=1.0, sigma=SigmaMap("identity"),
                                p_star=1.0, s_star=16.0, theta=1e-3)
        rule = LearningRule("hebbian", 1.0)
        prob = StationaryProblem(space, age, np.ones(16), model, rule, np.ones(16))
        state = solve_stationary(prob, tol=1e-11)[0]
        assert np.abs(state.S_star - scalar_stationary(1.0, 1.0)).max() <= 1e-3


class TestInhomogeneousStationary:
    def test_matches_late_time_dynamics(self):
        from elapsednet.config import build_experiment
        from elapsednet.presets import get_preset

        exp = build_experiment(get_preset("g1i1v").config)
        prob = StationaryProblem(exp.space, exp.age, exp.g, exp.model, exp.rule,
                                 exp.input_model.evaluate(exp.space))
        state = solve_stationary(prob, tol=1e-12)[0]
        assert state.residual < 1e-10
        rec = nonlinear_run(exp.n0, exp.w0, exp.model, exp.rule, exp.input_model,
                            exp.solver, t_end=15.0, save_every=5.0)
        assert np.abs(state.N_star - rec.final_N()).max() < 2e-3


@st.composite
def weak_problems(draw):
    """Stationary problems whose contraction certificate holds, with their input model."""
    space = SpatialGrid(nx=draw(st.integers(1, 16)))
    age = AgeGrid(ns=draw(st.sampled_from([400, 800])), s_max=20.0)
    p_inf = draw(st.floats(0.5, 2.0))
    sigma = draw(st.sampled_from([SigmaMap("identity"), SigmaMap("bounded", sigma_max=2.0)]))
    if draw(st.booleans()):
        model = FiringRateModel(kind="step", p_inf=p_inf, sigma=sigma)
    else:
        model = FiringRateModel(kind="smooth", p_inf=p_inf, sigma=sigma,
                                p_star=draw(st.floats(0.0, 0.5)) * p_inf,
                                s_star=draw(st.floats(8.0, 16.0)), theta=draw(st.floats(0.1, 2.0)))
    rule = LearningRule(draw(st.sampled_from(["hebbian", "gaussian_sigmoid"])),
                        draw(st.floats(0.0, 2.0)))
    input_model = InputModel(draw(st.sampled_from(["constant", "sin_squared"])),
                             amplitude=draw(st.floats(0.2, 2.0)))
    g = 1.0 + draw(st.floats(0.0, 0.5)) * np.sin(np.pi * space.nodes)
    problem = StationaryProblem(space, age, g, model, rule, input_model.evaluate(space))
    assume(problem.certificate().holds)
    return problem, input_model


def stationary_drift(problem, input_model) -> float:
    """max |N(100 dt) - N*| / (dt max N*) of the dynamics started at the stationary state."""
    state = solve_stationary(problem, tol=1e-12)[0]
    space, age = problem.space, problem.age
    cfg = SolverConfig(dt=age.ds / 2)
    rec = nonlinear_run(
        DensityField(state.n_star.values.copy(), age, space),
        ConnectivityKernel(state.w_star.values.copy(), space),
        problem.model, problem.rule, input_model, cfg,
        t_end=100 * cfg.dt, save_every=100 * cfg.dt,
    )
    return np.abs(rec.final_N() - state.N_star).max() / (cfg.dt * np.abs(state.N_star).max())


class TestStationaryFeedsDynamics:
    def test_dynamic_drift_is_small(self):
        space = SpatialGrid(nx=16)
        model = FiringRateModel(kind="step", p_inf=1.0, sigma=SigmaMap("identity"))
        input_model = InputModel("constant", amplitude=1.0)
        prob = StationaryProblem(space, AgeGrid(ns=800, s_max=20.0), np.ones(16), model,
                                 LearningRule("hebbian", 1.0), input_model.evaluate(space))
        assert stationary_drift(prob, input_model) < 10

    # the ratio measured 0 to 0.089 over 6,500 drawn problems (median 2.5e-3), largest
    # for the smooth rate at ns = 400; C = 0.25 leaves a margin of 2.8
    @pytest.mark.filterwarnings("ignore:learning rule")
    @pytest.mark.filterwarnings("ignore:absorbing-node mass")
    @settings(deadline=None, max_examples=30)
    @given(case=weak_problems())
    def test_drift_is_small_on_weak_configs(self, case):
        assert stationary_drift(*case) < 0.25
