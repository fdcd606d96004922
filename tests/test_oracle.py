"""The characteristics oracle's survivor sum, its renewal marching and the
smooth-rate survival normalization F: agreement with the direct sums they
replaced and with closed forms, finiteness where exp(-hazard) underflows,
monotonicity, and agreement of the batched F, hazard and rates with their
per-point values."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from elapsednet.config import build_experiment, with_overrides
from elapsednet.diagnostics import doeblin_check
from elapsednet.grids import AgeGrid, DensityField, SpatialGrid
from elapsednet.models import (MAX_RAMP_REFINE, RAMP_INTERVALS, FiringRateModel, ModelError,
                               SigmaMap, survival_F)
from elapsednet.presets import get_preset
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
def rate_models(draw, p_inf, sigmas=st.just(SigmaMap("identity"))):
    sigma = draw(sigmas)
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
    # and above 2 the sum runs in several rescaled blocks
    p_inf = draw(st.floats(0.0, 700.0, exclude_min=True, allow_subnormal=False)) / s_max
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
# the large source row pairs with the rate only at the last node, over a length-0 interval
@example(case=(AgeGrid(ns=2, s_max=2.0), FiringRateModel(kind="step", p_inf=0.5,
                                                         sigma=SigmaMap("identity")),
               np.array([1.0]), np.array([[1.0], [1e-9]]), 1))
# the large source row meets the rate only past lag m: FFT round-off of that product
# would swamp the sum of the small rows
@example(case=(AgeGrid(ns=5, s_max=2.0), FiringRateModel(kind="step", p_inf=0.5,
                                                         sigma=SigmaMap("identity")),
               np.array([1.0]), np.array([[1e-9], [1.0], [1e-9], [1e-9], [1e-9]]), 1))
def test_survivor_sum_matches_shifted_copy_loop(case):
    fine, model, S, n_a, m = case
    hazard = model.cumulative_hazard(fine.nodes, S)
    p_nodes = model.node_rates(fine, S)
    Q = _survivor_sum(n_a, hazard, p_nodes, fine.ds, m, model.p_inf)
    ref = shifted_copy_sum(n_a, hazard, p_nodes, fine.ds, m)
    assert Q.shape == (m + 1, S.size)
    assert np.abs(Q - ref).max() <= max(1e-13 * np.abs(ref).max(), UNDERFLOW_FLOOR)


@pytest.mark.parametrize("kind, fine_ns, nx", [("step", 8000, 2), ("smooth", 4000, 3)])
@pytest.mark.parametrize("hazard_span", [12.0, 60.0])  # p_inf * s_max
@pytest.mark.parametrize("width", [0.05, 3.0])  # a Gaussian whose tails underflow, a broad one
def test_survivor_sum_in_long_blocks_matches_shifted_copy_loop(kind, fine_ns, nx, hazard_span,
                                                               width, monkeypatch):
    # blocks of hundreds of source rows (a hazard rise of 2 takes 2 fine_ns / hazard_span)
    fine, m = AgeGrid(ns=fine_ns, s_max=10.0), 300
    p_inf = hazard_span / fine.s_max
    model = (FiringRateModel(kind="step", p_inf=p_inf, sigma=SigmaMap("identity")) if kind == "step"
             else FiringRateModel(kind="smooth", p_inf=p_inf, sigma=SigmaMap("identity"),
                                  p_star=0.2 * p_inf, s_star=0.5, theta=1.0))
    S = np.array([1.0, 2.5, 4.0][:nx])
    n_a = np.exp(-(((fine.nodes - 1.5) / width) ** 2))[:, None] * np.arange(1, nx + 1)
    hazard = model.cumulative_hazard(fine.nodes, S)
    p_nodes = model.node_rates(fine, S)
    ref = shifted_copy_sum(n_a, hazard, p_nodes, fine.ds, m)
    clamped = []  # Q as the final clamp at 0 receives it
    maximum = np.maximum

    def spy(x, y, *args, **kwargs):
        if np.isscalar(y) and y == 0.0:
            clamped.append(np.array(x))
        return maximum(x, y, *args, **kwargs)

    monkeypatch.setattr(np, "maximum", spy)
    Q = _survivor_sum(n_a, hazard, p_nodes, fine.ds, m, model.p_inf)
    monkeypatch.undo()
    scale = np.abs(ref).max()
    assert np.abs(Q - ref).max() <= 1e-13 * scale
    assert Q.min() >= 0.0
    (raw,) = clamped
    assert np.all(np.abs(raw[raw < 0.0]) < 1e-14 * scale)


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


def constant_hazard_solution(n0, p_inf, t):
    """Every neuron fires at rate p_inf, so N = p_inf g for all time: the field
    is p_inf g e^{-p_inf s} below s = t and n0(s - t) e^{-p_inf t} above.
    Valid while n0 keeps its mass inside the domain up to t."""
    s = n0.age.nodes[:, None]
    shifted = np.column_stack([np.interp(s[:, 0] - t, n0.age.nodes, col) for col in n0.values.T])
    return np.where(s < t - 1e-9 * n0.age.ds, p_inf * n0.mass() * np.exp(-p_inf * s),
                    shifted * np.exp(-p_inf * t))


def constant_hazard_model(p_inf):
    return FiringRateModel(kind="step", p_inf=p_inf, sigma=SigmaMap("constant", 0.0))


@st.composite
def constant_hazard_cases(draw):
    """A nonnegative n0 that is 0 at the top q + 1 nodes, t = q ds and p_inf * ds/refine in (0, 2]."""
    ns, nx, refine = draw(st.integers(3, 40)), draw(st.integers(1, 3)), draw(st.integers(1, 6))
    age = AgeGrid(ns=ns, s_max=draw(st.floats(0.5, 20.0)))
    q = draw(st.integers(1, ns - 2))
    values = np.zeros((ns, nx))
    values[: ns - q - 1] = draw(hnp.arrays(np.float64, (ns - q - 1, nx),
                                           elements=st.floats(0.0, 10.0, allow_subnormal=False)))
    rise = draw(st.floats(0.0, 2.0, exclude_min=True, allow_subnormal=False))
    n0 = DensityField(values, age, SpatialGrid(nx=nx))
    return n0, rise * refine / age.ds, q * age.ds, refine


@settings(deadline=None)
@given(case=constant_hazard_cases())
def test_oracle_matches_constant_hazard_closed_form(case):
    n0, p_inf, t, refine = case
    out = characteristics_oracle(n0, np.zeros(n0.space.nx), constant_hazard_model(p_inf),
                                 t=t, refine=refine)
    exact = constant_hazard_solution(n0, p_inf, t)
    assert np.abs(out.values - exact).max() <= 1e-12 * np.abs(exact).max()


@pytest.mark.parametrize("p_inf", [10.0, 20.0, 40.0, 60.0, 79.0, 120.0])
def test_oracle_exact_under_fast_renewal(p_inf):
    # trapezoid kernel weights once grew the mass by up to 2e4x here, and
    # p_inf >= 79 broke the windowed Picard solve; n0 = e^{-s} is cut to 0
    # on the top nodes so that no mass leaves the domain by t
    age, space, t = AgeGrid(ns=200, s_max=20.0), SpatialGrid(nx=1), 0.5
    n0 = DensityField.from_function(age, space,
                                    lambda s, x: np.exp(-s) * (s < age.s_max - t - age.ds) + 0 * x)
    out = characteristics_oracle(n0, np.zeros(1), constant_hazard_model(p_inf), t=t, refine=4)
    assert np.all(np.isfinite(out.values)) and out.values.min() >= 0.0
    exact = constant_hazard_solution(n0, p_inf, t)
    assert np.abs(out.values - exact).max() <= 1e-12 * np.abs(exact).max()


def test_doeblin_margin_converges_in_refine():
    # sigma = S = 1 and t0 = 2: one block of lags with no firing, then a second block
    exp = build_experiment(with_overrides(get_preset("g1i1c").config, nx=4))
    S = exp.input_model.evaluate(exp.space)
    coarse, fine = (doeblin_check(exp.n0, S, exp.model, refine=r) for r in (8, 32))
    assert coarse.t0 == 2.0
    assert abs(coarse.minorization_margin - fine.minorization_margin) <= 1e-5


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
# a steep ramp, p_inf theta = 10: 128 intervals were 1.09e-4 off
@example(case=(FiringRateModel(kind="smooth", p_inf=5.0, sigma=SigmaMap("identity"),
                               p_star=1.25, s_star=0.5, theta=2.0), 0.0))
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


@st.composite
def smooth_batch_cases(draw):
    """A smooth model and 0-12 values of S, each putting s_star above the ramp,
    inside it or below sigma: S = s_star + theta v with v <= -1, in (-1, 0] or > 0."""
    p_inf = draw(st.floats(0.1, 5.0))
    theta = draw(st.floats(0.01, 2.0))
    s_star = draw(st.floats(0.0, 8.0))
    model = FiringRateModel(kind="smooth", p_inf=p_inf, sigma=SigmaMap("identity"),
                            p_star=draw(st.floats(0.0, 1.0)) * p_inf, s_star=s_star,
                            theta=theta)
    v = draw(st.lists(st.one_of(st.floats(-4.0, -1.0), st.floats(-1.0, 0.0, exclude_min=True),
                                st.floats(0.0, 4.0, exclude_min=True)), max_size=12))
    return model, s_star + theta * np.array(v, dtype=float)


@settings(deadline=None, max_examples=60)
@given(case=smooth_batch_cases())
def test_batched_survival_F_matches_pointwise(case):
    model, S = case
    F = survival_F(model, S)
    pointwise = [survival_F(model, s) for s in S]
    assert isinstance(F, np.ndarray) and F.shape == S.shape
    assert all(type(f) is float for f in pointwise)
    pointwise = np.array(pointwise)
    # Both paths run the same IEEE operations on the same values; only the
    # library paths of exp/expm1 and the order of the ramp's dot product may
    # differ between an array and a single point.  With exp and expm1 each
    # within 4 ulps, so 8 eps apart, a ramp summand (exp, expm1, then a
    # division and two products) differs by at most 19 eps; the m positive
    # summands, summed in two orders, by (m - 1) eps more; the two additions
    # of 1/F and the reciprocal add 3 eps.
    m = RAMP_INTERVALS * math.ceil(min(math.sqrt(model.p_inf * model.theta),
                                       MAX_RAMP_REFINE)) + 2
    bound = (m + 21) * np.finfo(float).eps
    assert np.all(np.abs(F - pointwise) <= bound * pointwise)
    for S_0 in S[:1]:
        assert type(survival_F(model, np.array(S_0))) is float
    empty = survival_F(model, np.array([]))
    assert isinstance(empty, np.ndarray) and empty.shape == (0,)


def clip_smooth_hazard(model, s, S):
    """The smooth cumulative hazard as written before the trims: np.clip in
    the smoothstep, np.diff steps and a cumsum assigned into np.zeros_like."""
    s = np.asarray(s, dtype=float)
    sig = np.asarray(model.sigma(S), dtype=float)
    nodes = s[:, None] if sig.ndim else s
    u = np.clip((nodes - sig) / model.theta, 0.0, 1.0)
    p = np.maximum(model.p_inf * (u * u * (3.0 - 2.0 * u)),
                   np.where(nodes > model.s_star, model.p_star, 0.0))
    out = np.zeros_like(p)
    ds = np.diff(s)
    out[1:] = np.cumsum(0.5 * (p[1:] + p[:-1]) * (ds[:, None] if p.ndim == 2 else ds), axis=0)
    return out


SIGMA_MAPS = st.one_of(st.just(SigmaMap("identity")), st.builds(
    SigmaMap, st.sampled_from(["bounded", "constant"]), st.floats(0.0, 12.0) | st.just(math.inf)))
ANY_SIGMA_MODELS = st.floats(0.0, 5.0, exclude_min=True, allow_subnormal=False).flatmap(
    lambda p_inf: rate_models(p_inf, SIGMA_MAPS))


@settings(deadline=None)
@given(model=ANY_SIGMA_MODELS,
       s=hnp.arrays(np.float64, st.integers(0, 40), elements=st.floats(0.0, 20.0)),
       S=hnp.arrays(np.float64, st.integers(1, 4), elements=st.floats(-2.0, 12.0)))
def test_cumulative_hazard_columns_match_single_S(model, s, S):
    s = np.sort(s)
    H = model.cumulative_hazard(s, S)
    assert H.shape == (s.size, S.size)
    for j in range(S.size):
        H_j = model.cumulative_hazard(s, S[j])
        assert np.ascontiguousarray(H[:, j]).tobytes() == H_j.tobytes()
        if model.kind == "smooth":
            np.testing.assert_array_equal(H_j, clip_smooth_hazard(model, s, S[j]))
    if model.kind == "smooth":
        np.testing.assert_array_equal(H, clip_smooth_hazard(model, s, S))


@settings(deadline=None)
@given(model=ANY_SIGMA_MODELS,
       age=st.builds(AgeGrid, st.integers(2, 40), st.floats(0.5, 20.0)),
       S=hnp.arrays(np.float64, st.integers(1, 4), elements=st.floats(-2.0, 12.0)),
       rows=st.lists(st.integers(0, 40), min_size=2, max_size=2))
def test_rate_methods_line_up_ages_against_each_S(model, age, S, rows):
    """One rule for how ages meet S, as in `cumulative_hazard`: for an array S, column j
    of `node_rates` and of `interval_rates` on all rows or on the rows lo..hi - 1 holds
    the bits of the same method at the scalar S[j]."""
    lo, hi = sorted(min(r, age.ns - 1) for r in rows)
    for method in (lambda S: model.node_rates(age, S),
                   lambda S: model.interval_rates(age, S),
                   lambda S: model.interval_rates(age, S, lo, hi)):
        columns = method(S)
        assert columns.shape[1:] == S.shape
        for j in range(S.size):
            assert np.ascontiguousarray(columns[:, j]).tobytes() == method(S[j]).tobytes()
    np.testing.assert_array_equal(model.interval_rates(age, S, lo, hi),
                                  model.interval_rates(age, S)[lo:hi])


def test_smooth_survival_F_rejects_vanishing_rate():
    # F is undefined for p_inf = 0, and the rate model itself refuses it
    with pytest.raises(ModelError, match="p_inf"):
        FiringRateModel(kind="smooth", p_inf=0.0, sigma=SigmaMap("identity"),
                        p_star=0.0, s_star=1.0, theta=0.5)
