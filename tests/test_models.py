import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from elapsednet.grids import AgeGrid, GridError, SpatialGrid
from elapsednet.models import (
    FiringRateModel,
    InputModel,
    LearningRule,
    F_bounds,
    MAX_RAMP_REFINE,
    RAMP_INTERVALS,
    ModelError,
    SigmaMap,
    slaved_profile,
    stimulation_bounds,
    survival_F,
)
from elapsednet.renewal import PicardOptions, SolverConfig


def step_model(p_inf=1.0, sigma_kind="identity", sigma_max=None):
    return FiringRateModel(kind="step", p_inf=p_inf,
                           sigma=SigmaMap(sigma_kind, sigma_max=sigma_max))


def smooth_model(theta, p_inf=1.0, p_star=1.0, s_star=None, sigma_kind="identity"):
    sigma = SigmaMap(sigma_kind)
    if s_star is None:
        s_star = 12.0  # beyond any sigma(S) sampled in these tests, plus theta
    return FiringRateModel(kind="smooth", p_inf=p_inf, sigma=sigma, p_star=p_star,
                           s_star=s_star, theta=theta)


@st.composite
def rate_models(draw):
    """Either rate kind at p_inf 0.05-20 over every sigma kind; the smooth kind with theta
    0.01-5, p_star <= p_inf and s_star -2-15, which may fall inside the ramp or below 0."""
    p_inf = draw(st.floats(0.05, 20.0))
    kind = draw(st.sampled_from(["identity", "bounded", "constant"]))
    sigma = SigmaMap(kind, sigma_max=None if kind == "identity" else draw(st.floats(0.0, 10.0)))
    if draw(st.booleans()):
        return FiringRateModel(kind="step", p_inf=p_inf, sigma=sigma)
    return FiringRateModel(kind="smooth", p_inf=p_inf, sigma=sigma,
                           p_star=draw(st.floats(0.0, 1.0)) * p_inf,
                           s_star=draw(st.floats(-2.0, 15.0)), theta=draw(st.floats(0.01, 5.0)))


NAN, INF = float("nan"), float("inf")
SMOOTH = dict(kind="smooth", p_inf=1.0, sigma=SigmaMap("identity"), p_star=0.5, s_star=2.0,
              theta=0.3)


NON_FINITE_CASES = [
    (lambda v: step_model(p_inf=v), "p_inf", NAN, ModelError),
    (lambda v: step_model(p_inf=v), "p_inf", INF, ModelError),
    (lambda v: FiringRateModel(**{**SMOOTH, "s_star": v}), "s_star", NAN, ModelError),
    (lambda v: FiringRateModel(**{**SMOOTH, "theta": v}), "theta", INF, ModelError),
    (lambda v: FiringRateModel(**{**SMOOTH, "p_star": v}), "p_star", NAN, ModelError),
    (lambda v: LearningRule("hebbian", v), "gamma", NAN, ModelError),
    (lambda v: LearningRule("hebbian", v), "gamma", INF, ModelError),
    (lambda v: SigmaMap("bounded", sigma_max=v), "sigma_max", NAN, ModelError),
    (lambda v: SigmaMap("identity", sigma_max=v), "sigma_max", NAN, ModelError),
    (lambda v: InputModel("constant", amplitude=v), "amplitude", INF, ModelError),
    (lambda v: InputModel("constant", k=v), "k", NAN, ModelError),
    (lambda v: InputModel("table", table=(1.0, v)), "table", NAN, ModelError),
    (lambda v: SolverConfig(dt=v), "dt", NAN, ValueError),
    (lambda v: SolverConfig(dt=v), "dt", INF, ValueError),
    (lambda v: PicardOptions(tol=v), "tol", NAN, ValueError),
    (lambda v: AgeGrid(ns=10, s_max=v), "s_max", INF, GridError),
]


@pytest.mark.parametrize("make, field, value, error", NON_FINITE_CASES,
                         ids=[f"{field}={value}" for _, field, value, _ in NON_FINITE_CASES])
def test_non_finite_fields_are_refused_by_name(make, field, value, error):
    with pytest.raises(error, match=field):
        make(value)


def test_an_unbounded_threshold_stays_legal():
    # limit_model builds sigma_max = inf for the identity map
    assert step_model().limit_model().sigma.sigma_max == INF
    assert SigmaMap("bounded", sigma_max=INF)(5.0) == 5.0


class TestFiringRate:
    def test_step_below_threshold(self):
        m = step_model()
        assert m.evaluate(0.4, 0.5) == 0.0

    def test_step_above_threshold(self):
        m = step_model()
        assert m.evaluate(0.6, 0.5) == 1.0

    def test_smooth_matches_step_away_from_ramp(self):
        theta = 1e-3
        m_smooth = smooth_model(theta)
        m_step = step_model()
        s = np.linspace(0, 6, 1201)
        for S in (0.0, 0.7, 2.3):
            away = np.abs(s - S) >= theta
            diff = np.abs(m_smooth.evaluate(s, S) - m_step.evaluate(s, S))
            assert diff[away].max() == 0.0

    def test_bounds_and_monotonicity(self):
        rng = np.random.default_rng(5)
        for m in (step_model(), smooth_model(0.2, p_star=0.5, s_star=5.2)):
            for S in rng.uniform(0, 5, size=10):
                s = np.sort(rng.uniform(0, 12, size=200))
                p = m.evaluate(s, S)
                assert np.all(p >= 0) and np.all(p <= m.p_inf + 1e-15)
                assert np.all(np.diff(p) >= -1e-12)
                s_star = m.pulse_age(0.0, 5.0)
                tail = s > s_star + 1e-9
                assert np.all(p[tail] >= m.lower_rate - 1e-12)

    def test_dpdS_bound_checked_by_sampling(self):
        # central differences in S on a grid of ages past the ramp at the largest S
        m, n = smooth_model(0.1), 400
        S = np.linspace(0.0, 5.0, n)[None, :]
        s = np.linspace(0.0, 5.0 + m.theta + 1.0, 4 * n)[:, None]
        h = 5.0 / (8 * n)
        seen = np.abs(m.evaluate(s, S + h) - m.evaluate(s, S - h)).max() / (2 * h)
        assert seen <= m.dpdS_bound * (1 + 1e-6)
        assert m.dpdS_bound == 1.5 * m.p_inf / m.theta

    def test_validation(self):
        with pytest.raises(ModelError):
            FiringRateModel(kind="nope", p_inf=1.0, sigma=SigmaMap("identity"))
        with pytest.raises(ModelError):
            FiringRateModel(kind="smooth", p_inf=1.0, sigma=SigmaMap("identity"))
        with pytest.raises(ModelError):
            SigmaMap("bounded")

    def test_cumulative_hazard_step_closed_form(self):
        m = step_model()
        s = np.linspace(0, 5, 11)
        np.testing.assert_allclose(m.cumulative_hazard(s, 2.0), np.maximum(s - 2.0, 0.0))

    def test_cumulative_hazard_smooth_matches_quadrature(self):
        m = smooth_model(0.5, p_star=0.5, s_star=3.0)
        s = np.linspace(0, 8, 4001)
        hz = m.cumulative_hazard(s, 1.0)
        # independent accumulation by midpoint rule on a finer grid
        fine = np.linspace(0, 8, 64001)
        p = m.evaluate(0.5 * (fine[1:] + fine[:-1]), 1.0)
        ref = np.concatenate([[0.0], np.cumsum(p * np.diff(fine))])
        ref_at = np.interp(s, fine, ref)
        assert np.abs(hz - ref_at).max() < 2e-6

    def test_limit_model_identity_never_fires(self):
        m = step_model()
        lim = m.limit_model()
        age = AgeGrid(ns=50, s_max=10.0)
        assert np.all(lim.interval_rates(age, np.array([3.0])) == 0.0)

    def test_limit_model_bounded_freezes_threshold(self):
        m = step_model(sigma_kind="bounded", sigma_max=2.0)
        lim = m.limit_model()
        assert lim.evaluate(2.5, 1e9) == 1.0
        assert lim.evaluate(1.5, 1e9) == 0.0


# a sum of ns positive terms is exact to ns * eps relative (recursive summation); the
# mass errors measured 1-3.5 eps in the median and 18, 20, 31 and 66 eps at most over
# 1,500 random profiles each at ns = 100, 200, 400 and 800
ROUNDOFF = np.finfo(float).eps


class TestSlavedProfile:
    @settings(deadline=None, max_examples=50)
    @given(p_inf=st.floats(0.1, 4.0), sigma_kind=st.sampled_from(["identity", "bounded"]),
           S=st.lists(st.floats(-1.0, 8.0), min_size=1, max_size=8),
           scale=st.floats(0.1, 10.0))
    def test_step_rate_is_a_scaled_exponential_tail(self, p_inf, sigma_kind, S, scale):
        m = step_model(p_inf, sigma_kind, sigma_max=3.0 if sigma_kind == "bounded" else None)
        age, S = AgeGrid(ns=100, s_max=10.0), np.asarray(S)
        g = scale * (1.0 + np.arange(len(S)))
        profile = slaved_profile(m, age, S, g)
        tail = np.exp(-p_inf * np.maximum(age.nodes[:, None] - m.sigma(S)[None, :], 0.0))
        np.testing.assert_allclose(profile, profile[0] * tail, rtol=1e-13)  # H(0, S) = 0
        assert np.all(np.abs(age.weights @ profile - g) <= ROUNDOFF * age.ns * g)

    @settings(deadline=None, max_examples=20)
    @given(theta=st.floats(0.1, 2.0), p_star=st.floats(0.0, 1.0), s_star=st.floats(2.0, 12.0),
           S=st.lists(st.floats(0.0, 6.0), min_size=1, max_size=8))
    def test_smooth_rate_columns_have_trapezoid_mass_g(self, theta, p_star, s_star, S):
        m = smooth_model(theta, p_star=p_star, s_star=s_star)
        age = AgeGrid(ns=200, s_max=20.0)
        g = 0.5 + np.linspace(0.0, 1.0, len(S))
        profile = slaved_profile(m, age, np.asarray(S), g)
        assert np.all(profile > 0)
        assert np.all(np.abs(age.weights @ profile - g) <= ROUNDOFF * age.ns * g)


class TestIntervalRates:
    def test_fractional_cell_weighting_is_continuous(self):
        # the activity quadrature must vary continuously with the threshold
        m = step_model()
        age = AgeGrid(ns=100, s_max=10.0)
        sig_values = np.linspace(2.0, 2.2, 41)
        totals = [m.interval_rates(age, float(S)).sum() for S in sig_values]
        assert np.abs(np.diff(totals)).max() < 0.21  # no ds-size staircase jumps

    def test_interval_rate_is_overlap_fraction(self):
        m = step_model()
        age = AgeGrid(ns=10, s_max=10.0)
        r = m.interval_rates(age, 2.5)  # threshold mid-cell
        np.testing.assert_allclose(r[:2], 0.0)
        assert r[2] == pytest.approx(0.5)
        np.testing.assert_allclose(r[3:], 1.0)


class TestSurvivalF:
    def test_step_closed_form(self):
        m = step_model()
        assert survival_F(m, 0.0) == pytest.approx(1.0)
        assert survival_F(m, 1.0) == pytest.approx(0.5)

    def test_smooth_quadrature_matches_closed_form(self):
        m = smooth_model(1e-3)
        assert survival_F(m, 1.0) == pytest.approx(0.5, abs=1e-3)

    def test_monotone_nonincreasing_in_S(self):
        for m in (step_model(), smooth_model(0.05)):
            S = np.linspace(0.0, 6.0, 61)
            F = np.asarray(survival_F(m, S))
            assert np.all(np.diff(F) <= 1e-12)

    def test_lipschitz_bound_from_structure(self):
        # |F'| <= p_inf^2 ||dp/dS|| (s*^2/2 + s*/p* + 1/p*^2) for S in [0, 10]
        m = smooth_model(0.5, p_star=0.8, s_star=11.0)
        s_star, p_star = m.s_star, m.p_star
        bound = m.p_inf**2 * m.dpdS_bound * (s_star**2 / 2 + s_star / p_star + 1 / p_star**2)
        assert F_bounds(m, 0.0, 10.0)[0] <= bound

    @settings(deadline=None, max_examples=60)
    @given(model=rate_models(), lo=st.floats(-5.0, 15.0), width=st.floats(1e-3, 20.0))
    @example(model=FiringRateModel(kind="smooth", p_inf=0.80042, sigma=SigmaMap("identity"),
                                   p_star=0.081996, s_star=7.3828, theta=4.2815),
             lo=3.65269, width=0.07559)  # a slope at S_lo 1.07e-6 above F(S_lo)^2 at 10,000 S
    @example(model=smooth_model(0.03125, p_inf=8.0, p_star=0.0, s_star=0.0), lo=0.0,
             width=3.0)  # slope 48.135 at S = 0: 201 samples times 1.05 gave 48.103
    def test_F_bounds_hold_every_slope(self, model, lo, width):
        """Every difference slope of F over the band is at most F_bounds' sup |F'|, and its
        sup F is the largest F.  Round-off: the step's F rounds 3 times (1.5 eps relative);
        the smooth ramp is a sum of n + 2 positive terms, each within 6 eps, so its F is
        within (n + 8) eps.  A difference is off by twice that times max F over the
        smallest step, and the quotient adds 2 eps relative.

        Quadrature slack, smooth kind only: the quadrature's F keeps the bound as
        long as the ramp's n intervals move with sigma(S), but where s_star falls inside
        the ramp it splits one interval at a fixed age.  Moving a cut in an interval of
        width h = theta / n changes its trapezoid error by at most h^2 max|p''| / 4 =
        1.5 p_inf / n^2 per unit sigma (|p''| <= 6 p_inf / theta^2), and the survival
        mass past the cut is at most 1/F, so the slope may exceed sigma' F^2 by
        1.5 p_inf F / n^2.  At 10,000 S the tight example above uses 0.9% of it.

        The smooth grid has 401 points: survival_F holds four (points x ramp nodes)
        arrays, up to 1,283 nodes here, and takes 15-40 ms on them."""
        S = np.linspace(lo, lo + width, 10_000 if model.kind == "step" else 401)
        lip, sup = F_bounds(model, lo, lo + width)
        F = np.asarray(survival_F(model, S))
        h = np.diff(S)
        eps = np.finfo(float).eps
        if model.kind == "step":
            rounding, slack, ulps = 3 * eps, 0.0, 0
        else:
            n = RAMP_INTERVALS * max(1, math.ceil(min(math.sqrt(model.p_inf * model.theta),
                                                      MAX_RAMP_REFINE)))
            rounding, slack, ulps = (n + 8) * eps, 1.5 * model.p_inf / n**2, 4
        slopes = np.abs(np.diff(F)) / h
        assert slopes.max() <= lip * (1 + 2 * eps) + (2 * rounding / h.min() + slack) * F.max()
        # sup is F(S_lo) by the scalar path of survival_F, which differs by an ulp or two
        assert abs(sup - F.max()) <= ulps * np.spacing(F.max())

    def test_subnormal_rate_gives_a_vanishing_F(self):
        # p_inf theta underflows to 0 and 1/p_inf overflows: F is 0 to double precision
        m = FiringRateModel(**{**SMOOTH, "p_inf": 5e-324, "p_star": 0.0})
        np.testing.assert_array_equal(survival_F(m, np.array([0.0, 1.0, 5.0])), 0.0)

    def test_vanishing_rate_rejected(self):
        # F is undefined for p_inf = 0, and the rate model itself refuses it
        with pytest.raises(ModelError, match="p_inf"):
            step_model(p_inf=0.0)


class TestLearningRule:
    def test_hebbian_zero(self):
        rule = LearningRule("hebbian", gamma=1.0)
        assert rule.evaluate(0.0, 0.0) == 0.0

    def test_gaussian_sigmoid_at_unit_activities(self):
        rule = LearningRule("gaussian_sigmoid", gamma=1.0)
        assert rule.evaluate(1.0, 1.0) == pytest.approx(0.5)

    def test_gaussian_sigmoid_range(self):
        rng = np.random.default_rng(2)
        rule = LearningRule("gaussian_sigmoid", gamma=3.0)
        a, b = rng.uniform(0, 5, size=(2, 500))
        vals = rule.evaluate(a, b)
        assert np.all(vals > 0) and np.all(vals < 1)

    def test_symmetry(self):
        rng = np.random.default_rng(4)
        a, b = rng.uniform(0, 3, size=(2, 200))
        for kind in ("hebbian", "gaussian_sigmoid"):
            rule = LearningRule(kind, gamma=2.0)
            np.testing.assert_allclose(rule.evaluate(a, b), rule.evaluate(b, a), rtol=1e-14)

    def test_hebbian_kernel_target_constant(self):
        rule = LearningRule("hebbian", gamma=15.0)
        target = rule.kernel_target(np.full(12, 0.5))
        assert target.shape == (12, 12)
        np.testing.assert_allclose(target, 15.0 / 4.0, rtol=1e-14)

    def test_hebbian_target_is_rank_one(self):
        rng = np.random.default_rng(9)
        rule = LearningRule("hebbian", gamma=2.0)
        target = rule.kernel_target(rng.uniform(0.1, 1.0, size=20))
        sv = np.linalg.svd(target, compute_uv=False)
        assert sv[1] < 1e-10 * sv[0]
        np.testing.assert_allclose(target, target.T, rtol=1e-14)

    def test_unnormalized_warning(self):
        rule = LearningRule("hebbian", gamma=1.0)
        with pytest.warns(UserWarning):
            rule.warn_if_unnormalized(2.0)

    @pytest.mark.parametrize("gamma, warns", [(0.0, False), (1e-300, True), (0.5, True)])
    def test_unnormalized_warning_needs_a_gain(self, gamma, warns):
        # a rule of gain 0 never moves the kernel, however large G grows
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            LearningRule("hebbian", gamma=gamma).warn_if_unnormalized(2.0)
        assert len(caught) == warns

    def test_invalid(self):
        with pytest.raises(ModelError):
            LearningRule("oja", gamma=1.0)
        with pytest.raises(ModelError):
            LearningRule("hebbian", gamma=-1.0)


class TestInputModel:
    def test_sin_squared(self):
        space = SpatialGrid(nx=8)
        I = InputModel("sin_squared", amplitude=2.0).evaluate(space)
        np.testing.assert_allclose(I, 2.0 * np.sin(2 * np.pi * space.nodes) ** 2)
        assert np.all(I >= 0)

    def test_constant_and_scaling(self):
        space = SpatialGrid(nx=4)
        I = InputModel("constant", amplitude=1.5).scaled_by(4.0).evaluate(space)
        np.testing.assert_allclose(I, 6.0)

    def test_table(self):
        space = SpatialGrid(nx=3)
        I = InputModel("table", table=(1.0, 2.0, 3.0)).evaluate(space)
        np.testing.assert_allclose(I, [1, 2, 3])
        with pytest.raises(ModelError):
            InputModel("table", table=(1.0,)).evaluate(space)
        with pytest.raises(ModelError):
            InputModel("table")


class TestStimulationBounds:
    def test_band(self):
        m = step_model()
        rule = LearningRule("hebbian", gamma=2.0)
        I = np.array([1.0, 1.5])
        lo, hi = stimulation_bounds(m, rule, w0_max=10.0, g_max=1.0, input_values=I)
        assert lo == 1.0
        assert hi == pytest.approx(10.0 * 1.0 * 1.0 + 1.5)
