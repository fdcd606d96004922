import os
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from elapsednet.diagnostics import regime_certificates
from elapsednet.fixedpoint import PicardError, damped_fixed_point
from elapsednet.grids import (AgeGrid, ConnectivityKernel, DensityField, GridError, SpatialGrid,
                              norms)
from elapsednet.limit import epsilon_study
from elapsednet.models import FiringRateModel, InputModel, LearningRule, SigmaMap
from elapsednet.renewal import (
    CFLError,
    NegativeDensityError,
    PicardOptions,
    RunRecord,
    SolverConfig,
    characteristics_oracle,
    large_input_run,
    linear_step,
    nonlinear_run,
)


def step_model(p_inf=1.0, sigma_kind="identity", sigma_max=None):
    return FiringRateModel(kind="step", p_inf=p_inf,
                           sigma=SigmaMap(sigma_kind, sigma_max=sigma_max))


def transport_model():
    # threshold far above the grid: the rate vanishes everywhere sampled
    return step_model(sigma_kind="constant", sigma_max=1e9)


@st.composite
def weak_runs(draw):
    """Run inputs inside the limit_uniqueness regime, where each step's coupling has one
    solution: nx 1-8, ns 200 or 400 on s_max = 20, step or smooth rate, identity or
    bounded sigma, either rule with gamma <= 1, a constant kernel <= 1."""
    space = SpatialGrid(nx=draw(st.integers(1, 8)))
    age = AgeGrid(ns=draw(st.sampled_from([200, 400])), s_max=20.0)
    p_inf = draw(st.floats(0.5, 2.0))
    sigma = draw(st.sampled_from([SigmaMap("identity"), SigmaMap("bounded", sigma_max=2.0)]))
    if draw(st.booleans()):
        model = FiringRateModel(kind="step", p_inf=p_inf, sigma=sigma)
    else:
        model = FiringRateModel(kind="smooth", p_inf=p_inf, sigma=sigma,
                                p_star=draw(st.floats(0.0, 0.5)) * p_inf,
                                s_star=draw(st.floats(8.0, 16.0)), theta=draw(st.floats(0.1, 2.0)))
    rule = LearningRule(draw(st.sampled_from(["hebbian", "gaussian_sigmoid"])),
                        draw(st.floats(0.0, 1.0)))
    w0 = ConnectivityKernel.constant(space, draw(st.floats(0.0, 1.0)))
    input_model = InputModel(draw(st.sampled_from(["constant", "sin_squared"])),
                             amplitude=draw(st.floats(0.2, 2.0)))
    n0 = DensityField.from_function(age, space, lambda s, x: (x + 1) * np.exp(-s * (x + 1)))
    n0.normalize_mass(1.0)
    certs = regime_certificates(model, rule, w0, n0.mass(), input_model.evaluate(space),
                                n0_max=float(n0.values.max()))
    assume(next(c for c in certs if c.name == "limit_uniqueness").holds)
    return n0, w0, model, rule, input_model


def coupling_gap(n0, w0, model, rule, input_model, dt: float) -> float:
    """sup over the recorded times of |S_lagged - S_iterate| on runs of step dt to t = 1."""
    S = []
    for mode in ("lagged", "iterate"):
        cfg = SolverConfig(dt=dt, picard=PicardOptions(mode=mode, tol=1e-12))
        S.append(nonlinear_run(n0.copy(), w0.copy(), model, rule, input_model, cfg,
                               t_end=1.0, save_every=0.1).S_series)
    return float(np.abs(S[0] - S[1]).max())


class TestDampedFixedPoint:
    def test_linear_contraction(self):
        res = damped_fixed_point(lambda x: 0.5 * x + 1.0, np.array([0.0]), tol=1e-13)
        assert res.converged
        assert res.value[0] == pytest.approx(2.0, abs=1e-12)

    def test_mixing_solves_a_map_on_which_plain_steps_diverge(self):
        # slope -3 at the fixed point: plain Picard steps x <- map(x) diverge
        res = damped_fixed_point(lambda x: -3.0 * x + 4.0, np.array([0.0]),
                                 tol=1e-12, max_iters=500)
        assert res.converged
        assert res.value[0] == pytest.approx(1.0, abs=1e-11)

    def test_reports_nonconvergence(self):
        res = damped_fixed_point(lambda x: x + 1.0, np.array([0.0]), tol=1e-12,
                                 max_iters=30)
        assert not res.converged
        assert res.residual == pytest.approx(1.0)


class TestLinearStep:
    def test_pure_transport_shifts_exactly(self):
        age, space = AgeGrid(ns=200, s_max=10.0), SpatialGrid(nx=3)
        n = DensityField.from_function(age, space,
                                       lambda s, x: np.exp(-20 * (s - 3.0) ** 2) + 0 * x)
        cfg = SolverConfig(dt=age.ds)  # lam = 1: exact shift by one node
        masses = [n.mass()]
        # after 40 steps node j holds the initial value of node j - 40, bit for bit
        expected = np.concatenate([np.zeros(40), n.values[:-40, 0]])
        for _ in range(40):
            n, N = linear_step(n, np.zeros(3), transport_model(), cfg)
            assert N.max() == 0.0
            masses.append(n.mass())
        interior = slice(0, age.ns - 1)  # last node absorbs the outflow
        np.testing.assert_array_equal(n.values[interior, 0], expected[interior])
        assert np.abs(np.diff(masses, axis=0)).max() < 1e-12

    def test_exact_mass_conservation_at_half_cfl(self):
        age, space = AgeGrid(ns=400, s_max=20.0), SpatialGrid(nx=4)
        n = DensityField.from_function(age, space,
                                       lambda s, x: (x + 1) * np.exp(-s * (x + 1)))
        n.normalize_mass(1.0)
        cfg = SolverConfig(dt=age.ds / 2)
        S = np.full(4, 0.8)
        for _ in range(500):
            n, _ = linear_step(n, S, step_model(), cfg)
        assert np.abs(n.mass() - 1.0).max() <= 1e-10
        assert n.values.min() >= -1e-12

    def test_discrete_equilibrium_near_exponential(self):
        # with threshold 0 the continuum equilibrium is e^{-s}; the scheme
        # must stay within O(ds) of it after relaxation
        age, space = AgeGrid(ns=160, s_max=16.0), SpatialGrid(nx=2)
        n = DensityField.from_function(age, space, lambda s, x: np.exp(-s) + 0 * x)
        cfg = SolverConfig(dt=age.ds / 2)
        model = step_model(sigma_kind="constant", sigma_max=0.0)
        for _ in range(1000):
            n, _ = linear_step(n, np.zeros(2), model, cfg)
        interior = age.nodes < 12.0
        err = np.abs(n.values[interior, 0] - np.exp(-age.nodes[interior])).max()
        assert err <= age.ds

    def test_cfl_guard(self):
        age, space = AgeGrid(ns=100, s_max=10.0), SpatialGrid(nx=2)
        n = DensityField.from_function(age, space, lambda s, x: np.exp(-s) + 0 * x)
        cfg = SolverConfig(dt=age.ds)  # lam = 1 plus discharge: positivity fails
        with pytest.raises(CFLError):
            linear_step(n, np.zeros(2), step_model(sigma_kind="constant", sigma_max=0.0), cfg)
        with pytest.raises(CFLError):
            SolverConfig(dt=3 * age.ds).validate(age, step_model())

    def test_negative_density_sentinel(self):
        # NaN fails the sentinel comparison just as a value below -1e-12 does
        age, space = AgeGrid(ns=100, s_max=10.0), SpatialGrid(nx=1)
        values = np.zeros((100, 1))
        values[50] = np.nan
        n = DensityField(values, age, space)
        cfg = SolverConfig(dt=age.ds / 2)
        model = step_model(sigma_kind="constant", sigma_max=0.0)
        with pytest.raises(NegativeDensityError, match="nan"):
            linear_step(n, np.zeros(1), model, cfg)


class TestCharacteristicsOracle:
    def test_pure_transport_exact(self):
        age, space = AgeGrid(ns=100, s_max=10.0), SpatialGrid(nx=2)
        n0 = DensityField.from_function(age, space,
                                        lambda s, x: np.exp(-10 * (s - 2.0) ** 2) + 0 * x)
        out = characteristics_oracle(n0, np.zeros(2), transport_model(), t=1.0, refine=4)
        shift = int(round(1.0 / age.ds))
        expected = np.zeros_like(n0.values)
        expected[shift:] = n0.values[:-shift]
        np.testing.assert_allclose(out.values, expected, atol=1e-14)

    def test_relaxes_to_stationary_profile(self):
        age, space = AgeGrid(ns=400, s_max=16.0), SpatialGrid(nx=2)
        model = step_model(sigma_kind="constant", sigma_max=0.0)
        n0 = DensityField.from_function(age, space, lambda s, x: np.exp(-s) + 0 * x)
        out = characteristics_oracle(n0, np.zeros(2), model, t=17.0, refine=4)
        assert np.abs(out.values - np.exp(-age.nodes)[:, None]).max() < 5e-4

    def test_misshaped_stimulation_is_refused(self):
        age, space = AgeGrid(ns=20, s_max=2.0), SpatialGrid(nx=2)
        n0 = DensityField.from_function(age, space, lambda s, x: np.exp(-s) + 0 * x)
        with pytest.raises(GridError, match="stimulation shape"):
            characteristics_oracle(n0, np.zeros(3), step_model(), t=0.5, refine=4)

    @pytest.mark.parametrize("t, refine, field", [
        (-1.0, 4, "t"), (np.nan, 4, "t"), (np.inf, 4, "t"),
        (0.5, 0, "refine"), (0.5, -1, "refine"), (0.5, 2.5, "refine"),
    ])
    def test_bad_time_or_refinement_is_refused_by_name(self, t, refine, field):
        age, space = AgeGrid(ns=20, s_max=2.0), SpatialGrid(nx=2)
        n0 = DensityField.from_function(age, space, lambda s, x: np.exp(-s) + 0 * x)
        with pytest.raises(GridError, match=f"^{field} ") as err:
            characteristics_oracle(n0, np.zeros(2), step_model(), t=t, refine=refine)
        assert err.value.field == field

    def test_zero_time_returns_the_datum(self):
        age, space = AgeGrid(ns=50, s_max=5.0), SpatialGrid(nx=2)
        n0 = DensityField.from_function(age, space, lambda s, x: np.exp(-s) * (1 + x))
        S = np.full(2, 1.5)
        # with a power-of-two refine the coarse nodes are fine nodes exactly
        for refine in (4, 8):
            out = characteristics_oracle(n0, S, step_model(), t=0.0, refine=refine)
            np.testing.assert_array_equal(out.values, n0.values)
        # otherwise a node moves by an ulp of s, and s |n0'| <= max n0 here: a few ulps of max n0
        out = characteristics_oracle(n0, S, step_model(), t=0.0, refine=7)
        np.testing.assert_allclose(out.values, n0.values, rtol=0, atol=4e-16 * n0.values.max())

    def test_matches_closed_form_for_unit_rate(self):
        # with p = 1 for all s > 0 the activity equals the conserved mass m0,
        # so n(t, s) = n0(s - t) e^{-t} for s >= t and m0 e^{-s} below; the
        # datum e^{-s} + c (s + 1/2) e^{-2s} has n0(0) = m0 = 1 + c/2 for any
        # c, so the solution is continuous across the s = t contact line
        age, space = AgeGrid(ns=480, s_max=12.0), SpatialGrid(nx=2)
        model = step_model(sigma_kind="constant", sigma_max=0.0)
        c = 0.8

        def datum(s):
            return np.exp(-s) + c * (s + 0.5) * np.exp(-2 * s)

        n0 = DensityField.from_function(age, space, lambda s, x: datum(s) + 0 * x)
        t = 1.5
        out = characteristics_oracle(n0, np.zeros(2), model, t=t, refine=8)
        s = age.nodes
        exact = np.where(s >= t, datum(s - t) * np.exp(-t),
                         (1 + c / 2) * np.exp(-s))
        assert np.abs(out.values[:, 0] - exact).max() < 1e-4

    def test_upwind_converges_to_oracle(self):
        # two-level refinement of the boundary-compatible bump datum
        model = step_model()
        errs = []
        for ns in (600, 1200):
            age, space = AgeGrid(ns=ns, s_max=6.0), SpatialGrid(nx=3)
            n0 = DensityField.from_function(
                age, space, lambda s, x: np.exp(-((s - 0.55) / 0.12) ** 2) + 0 * x
            )
            S = np.array([1.2, 1.5, 1.8])
            cfg = SolverConfig(dt=age.ds / 2)
            f = n0.copy()
            for _ in range(int(round(1.0 / cfg.dt))):
                f, _ = linear_step(f, S, model, cfg)
            oracle = characteristics_oracle(n0, S, model, t=1.0, refine=8)
            errs.append(norms(f, oracle)["L1_sx"])
        assert errs[0] / errs[1] >= 2.0 ** 0.8


class TestNonlinearRun:
    def test_decoupled_converges_to_survival_activity(self):
        # gamma = 0 and w0 = 0: S = I and N -> g F(I) = 1/(1+I)
        age, space = AgeGrid(ns=400, s_max=20.0), SpatialGrid(nx=8)
        n0 = DensityField.from_function(age, space,
                                        lambda s, x: (x + 1) * np.exp(-s * (x + 1)))
        n0.normalize_mass(1.0)
        w0 = ConnectivityKernel.constant(space, 0.0)
        rec = nonlinear_run(
            n0, w0, step_model(), LearningRule("hebbian", 0.0),
            InputModel("constant", amplitude=1.0), SolverConfig(dt=age.ds / 2),
            t_end=20.0, save_every=1.0,
        )
        assert np.abs(rec.final_N() - 0.5).max() <= 1e-3
        assert np.abs(rec.final_S() - 1.0).max() <= 1e-12

    def test_gamma_zero_kernel_decays_exactly(self):
        age, space = AgeGrid(ns=200, s_max=20.0), SpatialGrid(nx=4)
        n0 = DensityField.from_function(age, space, lambda s, x: np.exp(-s) + 0 * x)
        n0.normalize_mass(1.0)
        w0 = ConnectivityKernel.from_function(space,
                                              lambda x, y: 3.0 * np.exp(-(x - y) ** 2))
        rec = nonlinear_run(
            n0, w0, step_model(), LearningRule("hebbian", 0.0),
            InputModel("constant", amplitude=1.0), SolverConfig(dt=age.ds / 2),
            t_end=2.0, save_every=1.0, snapshot_times=(2.0,),
        )
        # the exponential integrator with a zero target is exact per step
        np.testing.assert_allclose(rec.w_snapshot_at(2.0),
                                   np.exp(-2.0) * w0.values, rtol=1e-12)

    def test_uniform_bounds(self):
        age, space = AgeGrid(ns=400, s_max=20.0), SpatialGrid(nx=8)
        n0 = DensityField.from_function(age, space,
                                        lambda s, x: (x + 1) * np.exp(-s * (x + 1)))
        n0.normalize_mass(1.0)
        w0 = ConnectivityKernel.from_function(space,
                                              lambda x, y: 10 * np.exp(-10 * (x - y) ** 2))
        model = step_model()
        rec = nonlinear_run(
            n0, w0, model, LearningRule("hebbian", 1.0),
            InputModel("constant", amplitude=1.0), SolverConfig(dt=age.ds / 2),
            t_end=5.0, save_every=0.25,
        )
        g_max = 1.0
        assert rec.N_series.max() <= model.p_inf * g_max + 1e-9
        assert max(w.max() for w in rec.w_snapshots.values()) <= 10.0 + 1e-9
        assert np.abs(rec.mass_series - 1.0).max() <= 1e-10

    def test_lagged_vs_iterate_agree_to_first_order(self):
        age, space = AgeGrid(ns=200, s_max=20.0), SpatialGrid(nx=6)
        n0 = DensityField.from_function(age, space,
                                        lambda s, x: (x + 1) * np.exp(-s * (x + 1)))
        n0.normalize_mass(1.0)
        w0 = ConnectivityKernel.constant(space, 0.5)
        model = step_model()
        rule = LearningRule("hebbian", 1.0)
        I = InputModel("constant", amplitude=1.0)
        finals = {}
        for mode in ("lagged", "iterate"):
            cfg = SolverConfig(dt=age.ds / 2,
                               picard=PicardOptions(mode=mode, tol=1e-12))
            rec = nonlinear_run(n0.copy(), w0.copy(), model, rule, I, cfg,
                                t_end=2.0, save_every=0.5)
            finals[mode] = rec.final_S()
        diff = np.abs(finals["lagged"] - finals["iterate"]).max()
        assert diff <= 10.0 * (age.ds / 2)

    # over 1,000 drawn runs (830 with a gap above 1e-9) the gap at dt = ds/2 read at most
    # 0.147 dt (median 0.003 dt), and halving dt scaled it by 0 to 0.71 (median 0.47)
    @pytest.mark.filterwarnings("ignore:learning rule")
    @pytest.mark.filterwarnings("ignore:absorbing-node mass")
    @settings(deadline=None, max_examples=20)
    @given(case=weak_runs())
    def test_lagged_vs_iterate_gap_is_first_order_on_weak_configs(self, case):
        ds = case[0].age.ds
        coarse, fine = (coupling_gap(*case, dt) for dt in (ds / 2, ds / 4))
        assert coarse <= 0.3 * (ds / 2)
        assert fine <= 0.85 * coarse + 1e-9

    def test_inhomogeneous_mass_profile_conserved(self):
        from elapsednet.config import build_experiment
        from elapsednet.presets import get_preset

        exp = build_experiment(get_preset("g1i1v").config)
        rec = nonlinear_run(exp.n0, exp.w0, exp.model, exp.rule, exp.input_model,
                            exp.solver, t_end=2.0, save_every=0.25)
        assert np.abs(rec.mass_series - exp.g[None, :]).max() <= 1e-10

    def test_g1i1v_iterate_takes_at_most_850_map_evaluations(self, monkeypatch):
        # `run --preset g1i1v --picard iterate --t-end 2`: 818 from predicted starts, 1,014
        # from each step's last solution
        import elapsednet.renewal as renewal
        from elapsednet.config import build_experiment, with_overrides
        from elapsednet.presets import get_preset

        exp = build_experiment(with_overrides(get_preset("g1i1v").config, picard="iterate"))
        evaluations = [0]

        def counted(*args, **kwargs):
            result = damped_fixed_point(*args, **kwargs)
            evaluations[0] += result.iterations
            return result

        monkeypatch.setattr(renewal, "damped_fixed_point", counted)
        nonlinear_run(exp.n0, exp.w0, exp.model, exp.rule, exp.input_model, exp.solver,
                      t_end=2.0)
        assert evaluations[0] <= 850

    def test_iterate_nonconvergence_reports_residual(self):
        age, space = AgeGrid(ns=100, s_max=20.0), SpatialGrid(nx=4)
        n0 = DensityField.from_function(age, space, lambda s, x: np.exp(-s) + 0 * x)
        n0.normalize_mass(1.0)
        w0 = ConnectivityKernel.constant(space, 8.0)
        cfg = SolverConfig(dt=age.ds / 2,
                           picard=PicardOptions(mode="iterate", tol=1e-14, max_iters=2))
        with pytest.raises(PicardError) as err:
            nonlinear_run(n0, w0, step_model(), LearningRule("hebbian", 1.0),
                          InputModel("constant", amplitude=1.0), cfg,
                          t_end=10 * cfg.dt)
        assert err.value.residual > 0

    def test_t_end_must_be_dt_multiple(self):
        age, space = AgeGrid(ns=100, s_max=10.0), SpatialGrid(nx=2)
        n0 = DensityField.from_function(age, space, lambda s, x: np.exp(-s) + 0 * x)
        n0.normalize_mass(1.0)
        w0 = ConnectivityKernel.constant(space, 0.0)
        with pytest.raises(ValueError):
            nonlinear_run(n0, w0, step_model(), LearningRule("hebbian", 0.0),
                          InputModel("constant", amplitude=1.0),
                          SolverConfig(dt=age.ds / 2), t_end=1.0 + 0.3 * age.ds)

    def test_step_sizes_are_checked_before_t_end(self):
        # dt/epsilon > ds and t_end off the grid: the CFLError of the step comes first
        age, space = AgeGrid(ns=100, s_max=10.0), SpatialGrid(nx=2)
        n0 = DensityField.from_function(age, space, lambda s, x: np.exp(-s) + 0 * x)
        n0.normalize_mass(1.0)
        w0 = ConnectivityKernel.constant(space, 0.0)
        cfg = SolverConfig(dt=2 * age.ds)
        args = (n0, w0, step_model(sigma_kind="bounded", sigma_max=2.0),
                LearningRule("hebbian", 0.0), InputModel("constant", amplitude=1.0), cfg)
        with pytest.raises(CFLError):
            nonlinear_run(*args, t_end=1.0 + 0.3 * cfg.dt)
        with pytest.raises(CFLError):
            large_input_run([1.0], *args, t_end=1.0 + 0.3 * cfg.dt, sample_times=(cfg.dt,))


class TestSmoothRate:
    @staticmethod
    def smooth_model(theta=0.2):
        # ramp saturates by sigma + theta; the reachable thresholds stay
        # below s_star so the floor never overrides the ramp here
        return FiringRateModel(kind="smooth", p_inf=1.0, sigma=SigmaMap("identity"),
                               p_star=1.0, s_star=16.0, theta=theta)

    def test_run_invariants(self):
        age, space = AgeGrid(ns=400, s_max=20.0), SpatialGrid(nx=8)
        n0 = DensityField.from_function(age, space,
                                        lambda s, x: (x + 1) * np.exp(-s * (x + 1)))
        n0.normalize_mass(1.0)
        w0 = ConnectivityKernel.constant(space, 0.5)
        rec = nonlinear_run(n0, w0, self.smooth_model(), LearningRule("hebbian", 0.5),
                            InputModel("constant", amplitude=1.0),
                            SolverConfig(dt=age.ds / 2), t_end=5.0, save_every=0.5)
        # the ramp vanishes at s = 0 (sigma >= 1 here), so the boundary
        # bookkeeping stays exact and mass is conserved to round-off
        assert np.abs(rec.mass_series - 1.0).max() <= 1e-10
        assert rec.N_series.max() <= 1.0 + 1e-9
        assert rec.N_series.min() >= 0.0

    def test_narrow_ramp_tracks_step_dynamics(self):
        age, space = AgeGrid(ns=400, s_max=20.0), SpatialGrid(nx=4)
        n0 = DensityField.from_function(age, space,
                                        lambda s, x: (x + 1) * np.exp(-s * (x + 1)))
        n0.normalize_mass(1.0)
        w0 = ConnectivityKernel.constant(space, 0.5)
        rule = LearningRule("hebbian", 0.5)
        I = InputModel("constant", amplitude=1.0)
        cfg = SolverConfig(dt=age.ds / 2)
        finals = {}
        for model in (self.smooth_model(theta=1e-3),
                      FiringRateModel(kind="step", p_inf=1.0, sigma=SigmaMap("identity"))):
            rec = nonlinear_run(n0.copy(), w0.copy(), model, rule, I, cfg,
                                t_end=10.0, save_every=1.0)
            finals[model.kind] = rec.final_S()
        # a ramp narrower than a cell is endpoint-sampled per interval, so
        # the smooth kind carries an O(ds) threshold offset the step kind's
        # fractional overlap avoids; measured 1.4e-3 on this grid
        assert np.abs(finals["smooth"] - finals["step"]).max() <= 3e-3


class TestRunRecord:
    def test_times_strictly_increasing(self):
        space = SpatialGrid(nx=2)
        with pytest.raises(ValueError):
            RunRecord(times=np.array([0.0, 0.0]), N_series=np.zeros((2, 2)),
                      S_series=np.zeros((2, 2)), mass_series=np.zeros((2, 2)),
                      w_mean_series=np.zeros(2), w_dev_series=np.zeros(2),
                      w_snapshots={}, space=space)

    def test_snapshot_lookup_tolerates_rounding(self):
        space = SpatialGrid(nx=2)
        rec = RunRecord(times=np.array([0.0, 1.0]), N_series=np.zeros((2, 2)),
                        S_series=np.zeros((2, 2)), mass_series=np.zeros((2, 2)),
                        w_mean_series=np.zeros(2), w_dev_series=np.zeros(2),
                        w_snapshots={0.5000000000000001: np.eye(2)}, space=space)
        np.testing.assert_array_equal(rec.w_snapshot_at(0.5), np.eye(2))
        with pytest.raises(KeyError):
            rec.w_snapshot_at(0.75)


class TestLargeInput:
    @staticmethod
    def _setup(sigma_kind, sigma_max, input_kind):
        age, space = AgeGrid(ns=320, s_max=16.0), SpatialGrid(nx=16)
        n0 = DensityField.from_function(age, space,
                                        lambda s, x: (x + 1) * np.exp(-s * (x + 1)))
        n0.normalize_mass(1.0)
        w0 = ConnectivityKernel.from_function(space,
                                              lambda x, y: 10 * np.exp(-10 * (x - y) ** 2))
        model = step_model(sigma_kind=sigma_kind, sigma_max=sigma_max)
        rule = LearningRule("hebbian", 1.0)
        I = InputModel(input_kind, amplitude=1.0)
        cfg = SolverConfig(dt=age.ds / 2)
        return n0, w0, model, rule, I, cfg

    def test_rejects_vanishing_input(self):
        n0, w0, model, rule, _, cfg = self._setup("bounded", 2.0, "constant")
        with pytest.raises(ValueError):
            large_input_run([1.0, 10.0], n0, w0, model, rule,
                            InputModel("constant", amplitude=0.0), cfg, t_end=1.0)

    def test_rejects_bad_k_list(self):
        n0, w0, model, rule, I, cfg = self._setup("bounded", 2.0, "constant")
        with pytest.raises(ValueError):
            large_input_run([10.0, 1.0], n0, w0, model, rule, I, cfg, t_end=1.0)

    def test_rejects_sample_time_between_steps(self):
        n0, w0, model, rule, I, cfg = self._setup("bounded", 2.0, "constant")
        t_end = 3 * cfg.dt  # an odd step count: t_end / 2 falls between two steps
        with pytest.raises(GridError, match="sample_times = .* is not a multiple of dt"):
            large_input_run([1.0, 10.0], n0, w0, model, rule, I, cfg, t_end=t_end,
                            sample_times=(t_end / 2, t_end))

    @pytest.mark.parametrize("step", [-1, 41, 80])
    def test_rejects_sample_time_outside_the_run(self, step):
        n0, w0, model, rule, I, cfg = self._setup("bounded", 2.0, "constant")
        t_end = 40 * cfg.dt
        with pytest.raises(GridError, match="sample_times .* must lie in") as caught:
            large_input_run([1.0, 10.0], n0, w0, model, rule, I, cfg, t_end=t_end,
                            sample_times=(t_end / 2, step * cfg.dt))
        assert caught.value.field == "sample_times"

    def test_distance_decreases_with_k(self):
        n0, w0, model, rule, I, cfg = self._setup("bounded", 2.0, "sin_squared")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            study = large_input_run([1.0, 1000.0], n0, w0, model, rule, I, cfg,
                                    t_end=1.0, sample_times=(1.0,))
        assert study.distances[1, 0] < study.distances[0, 0]
        assert study.distances[1, 0] <= 1e-2

    def test_limit_threshold_past_the_age_domain_never_fires(self):
        # sigma(inf) = 20 > s_max = 16: the limit rate, like the runs at large k, is unreachable
        n0, w0, model, rule, I, cfg = self._setup("bounded", 20.0, "constant")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            study = large_input_run([1.0, 10.0], n0, w0, model, rule, I, cfg, t_end=0.25)
        assert not study.limit_record.N_series.any()
        assert study.distances[1, 0] < study.distances[0, 0]

    def test_identity_sigma_activity_vanishes(self):
        n0, w0, model, rule, I, cfg = self._setup("identity", None, "constant")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            study = large_input_run([1.0, 10.0, 100.0], n0, w0, model, rule, I, cfg,
                                    t_end=1.0, sample_times=(1.0,))
        sups = [study.records[k].final_N().max() for k in (1.0, 10.0, 100.0)]
        assert sups[0] > sups[1] > sups[2]


def test_run_warnings_point_at_the_caller():
    # mass 2 lets the Hebbian rule reach 4 > 1, and s_max = 2 leaves mass in the absorbing node
    # of every run; neither warning may name the generator's module or heapq, which merges
    # the study's runs, and each run ends with its check, the last of the zipped ones too
    age, space = AgeGrid(ns=40, s_max=2.0), SpatialGrid(nx=2)
    n0 = DensityField.from_function(age, space, lambda s, x: np.exp(-s) + 0 * x)
    n0.normalize_mass(2.0)
    w0, rule = ConnectivityKernel.constant(space, 0.5), LearningRule("hebbian", 0.5)
    model, I = step_model(sigma_kind="bounded", sigma_max=1.0), InputModel("constant", 1.0)
    cfg = SolverConfig(dt=age.ds / 2)
    # the large-input study's frozen-rate limit run has gain 0, so its rule never warns
    for rules, runs, call, where in [
        (1, 1, lambda: nonlinear_run(n0, w0, model, rule, I, cfg, t_end=0.5), "test_renewal.py"),
        (2, 2, lambda: epsilon_study((1.0, 0.5), n0, w0, model, rule, I, T=0.5), "limit.py"),
        (2, 3, lambda: large_input_run([1.0, 2.0], n0, w0, model, rule, I, cfg, t_end=0.5),
         "test_renewal.py"),
    ]:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            call()
        texts = [str(w.message) for w in caught]
        assert sum(t.startswith("learning rule") for t in texts) == rules, texts
        assert sum(t.startswith("absorbing-node mass") for t in texts) == runs, texts
        assert {os.path.basename(w.filename) for w in caught} == {where}
