"""The characteristics oracle's survivor sum and the smooth-rate survival
normalization F: agreement with the direct sums they replaced, finiteness
where exp(-hazard) underflows, and monotonicity."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from elapsednet.grids import AgeGrid, DensityField, SpatialGrid
from elapsednet.models import FiringRateModel, ModelError, SigmaMap, survival_F
from elapsednet.renewal import _survivor_sum, characteristics_oracle


def shifted_copy_sum(n_a, hazard, p_nodes, delta, m):
    """Q_k = sum_i w_i p_i n_a[i-k] E_i / E_{i-k} with one shifted field per lag."""
    fine_ns, nx = n_a.shape
    E = np.exp(-hazard)
    quad = np.full(fine_ns, delta)
    quad[0] = quad[-1] = 0.5 * delta
    weighted = quad[:, None] * p_nodes
    Q = np.empty((m + 1, nx))
    Q[0] = np.sum(weighted * n_a, axis=0)
    for k in range(1, m + 1):
        if k >= fine_ns:
            Q[k] = 0.0
            continue
        shifted = np.zeros_like(n_a)
        shifted[k:] = n_a[:-k] * (E[k:] / E[:-k])
        Q[k] = np.sum(weighted * shifted, axis=0) - 0.5 * delta * p_nodes[k] * shifted[k]
    return Q


@st.composite
def rate_models(draw, p_inf):
    sigma = SigmaMap("identity")
    if draw(st.booleans()):
        return FiringRateModel(kind="step", p_inf=p_inf, sigma=sigma)
    return FiringRateModel(kind="smooth", p_inf=p_inf, sigma=sigma,
                           p_star=draw(st.floats(0.0, 1.0)) * p_inf,
                           s_star=draw(st.floats(0.0, 5.0)), theta=draw(st.floats(0.05, 2.0)))


# subnormal values keep no relative precision, so comparisons get this absolute floor
UNDERFLOW_FLOOR = 1e-290


@st.composite
def survivor_cases(draw):
    fine_ns, nx = draw(st.integers(2, 120)), draw(st.integers(1, 3))
    s_max = draw(st.floats(0.5, 10.0))
    # the reference divides exp(-H); p_inf * s_max <= 700 keeps it normal,
    # and above 300 the correlation runs in several rescaled blocks
    p_inf = draw(st.floats(0.0, 700.0)) / s_max
    model = draw(rate_models(p_inf))
    S = np.array(draw(st.lists(st.floats(-1.0, s_max + 1.0), min_size=nx, max_size=nx)))
    n_a = draw(hnp.arrays(np.float64, (fine_ns, nx),
                          elements=st.floats(0.0, 10.0, allow_subnormal=False)))
    m = draw(st.integers(1, fine_ns + 5))
    return AgeGrid(ns=fine_ns, s_max=s_max), model, S, n_a, m


@settings(deadline=None)
@given(case=survivor_cases())
# a subnormal p_inf: Q and the reference differ by one subnormal step, 5e-324
@example(case=(AgeGrid(ns=3, s_max=1.0),
               FiringRateModel(kind="smooth", p_inf=2.225073858507e-311,
                               sigma=SigmaMap("identity"), p_star=0.0, s_star=0.0, theta=1.0),
               np.array([0.0]), np.ones((3, 1)), 1))
def test_survivor_sum_matches_shifted_copy_loop(case):
    fine, model, S, n_a, m = case
    hazard = model.cumulative_hazard(fine.nodes, S)
    p_nodes = model.node_rates(fine, S)
    Q = _survivor_sum(n_a, hazard, p_nodes, fine.ds, m, model.p_inf)
    ref = shifted_copy_sum(n_a, hazard, p_nodes, fine.ds, m)
    assert Q.shape == (m + 1, S.size)
    assert np.abs(Q - ref).max() <= max(1e-13 * np.abs(ref).max(), UNDERFLOW_FLOOR)


def test_oracle_finite_where_survival_underflows():
    # p_inf * s_max = 800: exp(-H) is 0 at the top of the age domain
    age, space = AgeGrid(ns=200, s_max=20.0), SpatialGrid(nx=2)
    model = FiringRateModel(kind="step", p_inf=40.0, sigma=SigmaMap("identity"))
    n0 = DensityField.from_function(age, space, lambda s, x: np.exp(-(s - 2.0) ** 2) + 0 * x)
    S, t, refine = np.array([1.2, 1.5]), 0.05, 4
    out = characteristics_oracle(n0, S, model, t=t, refine=refine)
    assert np.all(np.isfinite(out.values)) and out.values.min() >= 0.0
    # sigma > t, so every age s >= t holds survivors n0(s - t) e^{-(H(s) - H(s - t))}
    fine = AgeGrid(ns=age.ns * refine, s_max=age.s_max)
    H = model.cumulative_hazard(fine.nodes, S)
    lag = int(round(t / fine.ds))
    src = slice(refine - lag, -lag, refine)  # fine nodes s - t for the coarse nodes s >= t
    n0_src = np.column_stack([np.interp(fine.nodes[src], age.nodes, n0.values[:, ix])
                              for ix in range(2)])
    survivors = n0_src * np.exp(-(H[refine::refine] - H[src]))
    np.testing.assert_allclose(out.values[1:], survivors, rtol=0, atol=1e-14)


def inverse_F_reference(model, S, n=200_001):
    """Midpoint hazard on a fine grid with nodes at s_star, sigma and sigma + theta."""
    sig = float(model.sigma(S))
    end = max(sig + model.theta, model.s_star) + 1.0
    nodes = np.unique(np.concatenate([np.linspace(0.0, end, n),
                                      [model.s_star, sig, sig + model.theta]]))
    h = np.diff(nodes)
    H = np.concatenate([[0.0], np.cumsum(model.evaluate(0.5 * (nodes[1:] + nodes[:-1]), S) * h)])
    survival = np.exp(-H)
    # beyond max(sigma + theta, s_star) the rate is exactly p_inf
    return 0.5 * float(h @ (survival[1:] + survival[:-1])) + survival[-1] / model.p_inf


@st.composite
def smooth_cases(draw):
    """A smooth model and S with s_star above the ramp, inside it, or below sigma."""
    p_inf = draw(st.floats(0.1, 5.0))
    theta = draw(st.floats(0.01, 2.0))
    S = draw(st.floats(0.0, 8.0))
    u = draw(st.floats(0.0, 1.0, exclude_max=True))
    s_star = draw(st.sampled_from([S + theta + 3.0 * u, S + theta * u, S * u]))
    model = FiringRateModel(kind="smooth", p_inf=p_inf, sigma=SigmaMap("identity"),
                            p_star=draw(st.floats(0.0, 1.0)) * p_inf, s_star=s_star,
                            theta=theta)
    return model, S


def floored_smooth_model(p_star):
    return FiringRateModel(kind="smooth", p_inf=1.0, sigma=SigmaMap("identity"),
                           p_star=p_star, s_star=0.0, theta=1.0)


@settings(deadline=None, max_examples=60)
@given(case=smooth_cases())
# a subnormal p_star must keep the floor term (sigma - s_star): the product
# p_star * x underflows, so (1 - e^{-p_star x}) / p_star cannot be formed directly
@example(case=(floored_smooth_model(5e-324), 0.5))
@example(case=(floored_smooth_model(5e-324), 0.75))
def test_smooth_survival_F_matches_fine_quadrature(case):
    model, S = case
    F = survival_F(model, S)
    assert F == pytest.approx(1.0 / inverse_F_reference(model, S), rel=1e-4)


@settings(deadline=None)
@given(case=smooth_cases(), dS=st.lists(st.floats(0.0, 2.0), min_size=2, max_size=6))
def test_smooth_survival_F_non_increasing(case, dS):
    model, S = case
    F = np.asarray(survival_F(model, S + np.cumsum(dS)))
    assert np.all(np.diff(F) <= 1e-12 * F[:-1])


def test_smooth_survival_F_rejects_vanishing_rate():
    model = FiringRateModel(kind="smooth", p_inf=0.0, sigma=SigmaMap("identity"),
                            p_star=0.0, s_star=1.0, theta=0.5)
    with pytest.raises(ModelError):
        survival_F(model, 1.0)
