"""The upwind Stepper: its O(nx) step-rate activity, its band updates of the
step-rate array and update coefficients, mass conservation over random inputs,
NaN detection, and agreement, to round-off, with the per-step loop it replaced."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from elapsednet.grids import AgeGrid, ConnectivityKernel, DensityField, SpatialGrid
from elapsednet.models import FiringRateModel, InputModel, LearningRule, SigmaMap
from elapsednet.renewal import (
    NegativeDensityError,
    SolverConfig,
    Stepper,
    linear_step,
    nonlinear_run,
)

# Below ~1e-292 the products ds * p * nbar are subnormal and keep no relative
# precision, so the comparisons carry this absolute floor.
UNDERFLOW_FLOOR = 1e-290
DENSITY = st.floats(0.0, 10.0, allow_subnormal=False)
# ds * p_inf in (0, 2]; no subnormal, which dividing by ds could round to p_inf = 0
DS_RATE = st.floats(0.0, 2.0, exclude_min=True, allow_subnormal=False)


@st.composite
def grids(draw):
    age = AgeGrid(ns=draw(st.integers(3, 40)), s_max=draw(st.floats(0.5, 20.0)))
    space = SpatialGrid(nx=draw(st.integers(1, 4)))
    values = draw(hnp.arrays(np.float64, (age.ns, space.nx), elements=DENSITY))
    return DensityField(values, age, space)


def stimulation(age: AgeGrid):
    """S anywhere, on a cell edge, at or below 0, or at or beyond s_max."""
    return st.one_of(
        st.floats(-5.0, age.s_max + 5.0),
        st.integers(0, age.ns).map(lambda j: j * age.ds),
        st.floats(-1e6, 0.0),
        st.floats(age.s_max, 1e6),
    )


def just_below_edges(age: AgeGrid):
    """One ulp below a cell edge: the cell above the threshold cell may then fire
    below p_inf, since the computed edge spacing can fall short of ds."""
    return st.integers(1, age.ns - 1).map(lambda j: float(np.nextafter(j * age.ds, -np.inf)))


def sigma_maps(age: AgeGrid):
    level = st.one_of(st.floats(0.0, age.s_max + 1.0),
                      st.integers(0, age.ns).map(lambda j: j * age.ds))
    return st.one_of(
        st.just(SigmaMap("identity")),
        level.map(lambda v: SigmaMap("bounded", sigma_max=v)),
        level.map(lambda v: SigmaMap("constant", sigma_max=v)),
    )


@settings(deadline=None)
@given(data=st.data())
def test_fast_activity_matches_interval_quadrature(data):
    n = data.draw(grids())
    age = n.age
    # ds * p_inf <= 2 is the stepper's coarse-grid bound
    model = FiringRateModel(kind="step", p_inf=data.draw(DS_RATE) / age.ds,
                            sigma=data.draw(sigma_maps(age)))
    S = np.array(data.draw(st.lists(stimulation(age), min_size=n.space.nx,
                                    max_size=n.space.nx)))
    stepper = Stepper(n, model, SolverConfig(dt=age.ds / 2))
    fast = stepper.activity(S)
    nbar = 0.5 * (n.values[1:] + n.values[:-1])
    ref = age.ds * np.sum(model.interval_rates(age, S) * nbar, axis=0)
    np.testing.assert_allclose(fast, ref, rtol=1e-13, atol=UNDERFLOW_FLOOR)
    # no interval lies above a threshold at or beyond s_max
    assert np.all(fast[model.sigma(S) >= age.s_max] == 0.0)
    # the suffix sums are formed once per loaded field and reused
    np.testing.assert_array_equal(stepper.activity(S), fast)


@settings(deadline=None)
@given(data=st.data())
def test_band_update_matches_full_fill(data):
    n = data.draw(grids())
    age, nx = n.age, n.space.nx
    model = FiringRateModel(kind="step", p_inf=data.draw(DS_RATE) / age.ds,
                            sigma=data.draw(sigma_maps(age)))
    stepper = Stepper(n, model, SolverConfig(dt=age.ds / 2))
    S = None
    for _ in range(data.draw(st.integers(1, 12))):
        if S is None or data.draw(st.booleans()):  # anywhere: jumps of many cells
            S = np.array(data.draw(st.lists(st.one_of(stimulation(age), just_below_edges(age)),
                                            min_size=nx, max_size=nx)))
        else:  # the threshold moves by at most two cells
            S = S + age.ds * np.array(data.draw(st.lists(st.floats(-2.0, 2.0),
                                                         min_size=nx, max_size=nx)))
        stepper.set_rates(S)
        rates = model.interval_rates(age, S)
        np.testing.assert_array_equal(stepper.rates, rates)
        B = np.maximum(stepper.lam - rates * stepper.h, 0.0)
        np.testing.assert_array_equal(stepper.B, B)
        np.testing.assert_array_equal(stepper.A, B + (1.0 - 2.0 * stepper.lam))
        # the positivity guard reads the maximum off the last row; where it
        # passes, both coefficients are nonnegative
        assert stepper.rates[-1].max() == stepper.rates.max()
        assert stepper.lam + stepper.h * rates.max() <= 1 + 1e-12
        assert stepper.A.min() >= 0.0 and stepper.B.min() >= 0.0


@settings(deadline=None)
@given(data=st.data())
def test_activity_after_any_step_sequence_matches_a_fresh_stepper(data):
    """`activity` reads only the loaded field, whatever ran before: the suffix row
    past the top cell stays C_{ns-1} = 0, so thresholds in the top cell agree too."""
    n = data.draw(grids())
    age = n.age
    # ds * p_inf <= 2 keeps dt = ds/2 inside the positivity bound
    p_inf = data.draw(DS_RATE) / age.ds
    model = FiringRateModel(kind="step", p_inf=p_inf, sigma=SigmaMap("identity"))
    cfg = SolverConfig(dt=age.ds / 2)
    # thresholds over the whole grid, the top cell included
    thresholds = st.one_of(stimulation(age), st.floats((age.ns - 2) * age.ds, age.s_max))
    draw_S = lambda: np.array(data.draw(st.lists(thresholds, min_size=n.space.nx,
                                                 max_size=n.space.nx)))
    stepper = Stepper(n, model, cfg)
    stepper.set_rates(draw_S())
    for op in data.draw(st.lists(st.sampled_from(["set_rates", "flux", "load", "advance"]),
                                 max_size=8)):
        if op in ("set_rates", "advance"):
            getattr(stepper, op)(draw_S())
        else:
            getattr(stepper, op)()
    stepper.load()
    fresh = Stepper(DensityField(stepper.values.copy(), age, n.space), model, cfg)
    S = draw_S()
    np.testing.assert_array_equal(stepper.activity(S), fresh.activity(S))


@pytest.mark.parametrize("ns, s_max", [(11, 1.0), (15, 20.0), (30, 5.0)])
def test_band_covers_the_cell_above_the_threshold_cell(ns, s_max):
    # one ulp below an edge whose computed spacing falls short of ds, the cell
    # above the threshold cell fires below p_inf, so the band must include it
    age = AgeGrid(ns=ns, s_max=s_max)
    model = FiringRateModel(kind="step", p_inf=1.0, sigma=SigmaMap("identity"))
    n = DensityField(np.ones((ns, 1)), age, SpatialGrid(nx=1))
    short = 0
    for k, edge in enumerate(age.nodes[1:-1]):
        S = np.array([np.nextafter(edge, -np.inf)])
        full = model.interval_rates(age, S)
        short += full[k + 1, 0] < 1.0
        for start in (0.0, S[0] - age.ds):  # from far below, and from the next cell down
            stepper = Stepper(n, model, SolverConfig(dt=age.ds / 2))
            stepper.set_rates(np.array([start]))
            stepper.set_rates(S)
            np.testing.assert_array_equal(stepper.rates, full)
    assert short > 0


def test_fast_activity_at_cell_edges_and_limits():
    age, space = AgeGrid(ns=50, s_max=5.0), SpatialGrid(nx=5)
    n = DensityField.from_function(age, space, lambda s, x: np.exp(-s) * (1 + x))
    model = FiringRateModel(kind="step", p_inf=2.0, sigma=SigmaMap("identity"))
    stepper = Stepper(n, model, SolverConfig(dt=age.ds / 2))
    S = np.array([-1.0, 0.0, 7 * age.ds, age.s_max, 1e9])
    ref = age.ds * np.sum(model.interval_rates(age, S) * stepper.nbar, axis=0)
    np.testing.assert_allclose(stepper.activity(S), ref, rtol=1e-13, atol=0.0)
    assert stepper.activity(S)[3:].tolist() == [0.0, 0.0]
    # S <= 0 fires on the whole age domain
    whole = model.p_inf * age.ds * stepper.nbar[:, 0].sum()
    np.testing.assert_allclose(stepper.activity(S)[0], whole, rtol=1e-13)


@settings(deadline=None)
@given(data=st.data())
def test_mass_conserved_at_half_cfl(data):
    n = data.draw(grids())
    age = n.age
    eps = data.draw(st.floats(0.05, 1.0))
    # ds * p_inf <= 2 keeps dt = eps*ds/2 inside the positivity bound
    p_inf = data.draw(DS_RATE) / age.ds
    sigma = data.draw(sigma_maps(age))
    if data.draw(st.booleans()):
        model = FiringRateModel(kind="step", p_inf=p_inf, sigma=sigma)
    else:
        model = FiringRateModel(kind="smooth", p_inf=p_inf, sigma=sigma, p_star=0.0,
                                s_star=age.s_max, theta=data.draw(st.floats(0.01, 2.0)))
    S = np.array(data.draw(st.lists(stimulation(age), min_size=n.space.nx,
                                    max_size=n.space.nx)))
    cfg = SolverConfig(dt=eps * age.ds / 2, epsilon=eps)
    m0 = n.mass()
    for _ in range(data.draw(st.integers(1, 20))):
        n, N = linear_step(n, S, model, cfg)
        assert np.all(np.isfinite(N)) and N.min() >= 0.0
    assert np.abs(n.mass() - m0).max() <= 1e-12 * max(1.0, float(m0.max()))
    assert n.values.min() >= 0.0


def test_positivity_boundary_leaves_no_negative_round_off():
    # ds * p_inf = 2 and lam = 1/2 put both update coefficients exactly at 0 on
    # the firing rows; unclamped, they round to -1.1e-16 and so do the densities
    age, space = AgeGrid(ns=11, s_max=17.38441727066412), SpatialGrid(nx=1)
    model = FiringRateModel(kind="smooth", p_inf=2.0 / age.ds, sigma=SigmaMap("identity"),
                            p_star=0.0, s_star=age.s_max, theta=1.0)
    cfg = SolverConfig(dt=0.05 * age.ds / 2, epsilon=0.05)
    n = DensityField(np.ones((age.ns, 1)), age, space)
    n, _ = linear_step(n, np.zeros(1), model, cfg)
    assert n.values[2:].tolist() == [[0.0]] * (age.ns - 2)


def test_nan_density_raises():
    age, space = AgeGrid(ns=40, s_max=4.0), SpatialGrid(nx=2)
    n = DensityField.from_function(age, space, lambda s, x: np.exp(-s) + 0 * x)
    n.values[20, 1] = np.nan
    model = FiringRateModel(kind="step", p_inf=1.0, sigma=SigmaMap("identity"))
    with pytest.raises(NegativeDensityError, match="nan"):
        linear_step(n, np.zeros(2), model, SolverConfig(dt=age.ds / 2))


def _reference_lagged_run(n0, w0, model, rule, I_vals, cfg, n_steps, S0):
    """The lagged step loop written with fresh arrays per step, as before the Stepper."""
    age, xw = n0.age, n0.space.weights
    lam = cfg.dt / (cfg.epsilon * age.ds)
    dt_eff = cfg.dt / cfg.epsilon
    decay = np.exp(-cfg.dt)

    def renewal_flux(values, rates):
        nbar = 0.5 * (values[1:] + values[:-1])
        return age.ds * np.sum(rates * nbar, axis=0)

    def advance(values, rates):
        nbar = 0.5 * (values[1:] + values[:-1])
        loss = dt_eff * rates * nbar
        N = age.ds * np.sum(rates * nbar, axis=0)
        new = np.empty_like(values)
        new[1:-1] = values[1:-1] - lam * (values[1:-1] - values[:-2]) - loss[:-1]
        new[-1] = values[-1] + 2.0 * lam * values[-2] - 2.0 * loss[-1]
        new[0] = N
        return new, N

    values, w, S = n0.values.copy(), w0.values.copy(), S0
    N_rows, S_rows = [renewal_flux(values, model.interval_rates(age, S))], [S]
    for _ in range(n_steps):
        N = renewal_flux(values, model.interval_rates(age, S))
        S = w @ (xw * N) + I_vals
        values, N = advance(values, model.interval_rates(age, S))
        w = decay * w + (1.0 - decay) * (rule.gamma * rule.evaluate(N[:, None], N[None, :]))
        N_rows.append(N)
        S_rows.append(S)
    return np.array(N_rows), np.array(S_rows), w


def _small_problem():
    age, space = AgeGrid(ns=200, s_max=20.0), SpatialGrid(nx=6)
    n0 = DensityField.from_function(age, space, lambda s, x: (x + 1) * np.exp(-s * (x + 1)))
    n0.normalize_mass(1.0)
    w0 = ConnectivityKernel.from_function(space, lambda x, y: 2.0 * np.exp(-4 * (x - y) ** 2))
    return n0, w0, InputModel("sin_squared", amplitude=1.0)


@pytest.mark.parametrize("model, rule", [
    (FiringRateModel(kind="step", p_inf=1.0, sigma=SigmaMap("identity")),
     LearningRule("hebbian", 1.0)),
    (FiringRateModel(kind="smooth", p_inf=1.0, sigma=SigmaMap("bounded", sigma_max=3.0),
                     p_star=0.5, s_star=4.0, theta=0.3),
     LearningRule("gaussian_sigmoid", 2.0)),
])
def test_lagged_run_matches_the_fresh_array_loop_to_round_off(model, rule):
    n0, w0, input_model = _small_problem()
    cfg = SolverConfig(dt=n0.age.ds / 2)
    n_steps = 60
    rec = nonlinear_run(n0, w0, model, rule, input_model, cfg, t_end=n_steps * cfg.dt,
                        save_every=cfg.dt)
    # the initial coupling solve is the Stepper's own; the loop starts from it
    N_ref, S_ref, w_ref = _reference_lagged_run(
        n0, w0, model, rule, input_model.evaluate(n0.space), cfg, n_steps, rec.S_series[0]
    )
    # The Stepper's update A_i v_i + B_i v_{i-1} rounds differently from the
    # loop's v_i - lam (v_i - v_{i-1}) - loss_i.  Per step each cell takes at
    # most 8 roundings in either form, each within one ulp of the field's max
    # since the coefficients are nonnegative and at most 1: 16 ulps between the
    # two.  At dt = eps*ds/2 the step is positive and conserves mass, so it does
    # not amplify earlier differences; they add up over the steps.  N, S and w
    # are sums of the field with nonnegative weights and carry the same relative
    # bound.  Measured after 60 steps: at most 2.5e-15 of the max, 1/80 of it.
    tol = n_steps * 16 * np.finfo(float).eps
    for got, ref in ((rec.N_series, N_ref), (rec.S_series, S_ref),
                     (rec.w_snapshot_at(n_steps * cfg.dt), w_ref)):
        np.testing.assert_allclose(got, ref, rtol=0, atol=tol * np.abs(ref).max())


def test_recorded_rows_and_snapshots_do_not_share_buffers():
    n0, w0, input_model = _small_problem()
    model = FiringRateModel(kind="step", p_inf=1.0, sigma=SigmaMap("identity"))
    rule = LearningRule("hebbian", 1.0)
    cfg = SolverConfig(dt=n0.age.ds / 2)
    half, end = 20 * cfg.dt, 40 * cfg.dt
    rec = nonlinear_run(n0, w0, model, rule, input_model, cfg, t_end=end,
                        save_every=cfg.dt, snapshot_times=(half, end))
    early = nonlinear_run(n0, w0, model, rule, input_model, cfg, t_end=half,
                          save_every=cfg.dt, snapshot_times=(half,))
    mid, last = rec.w_snapshot_at(half), rec.w_snapshot_at(end)
    assert not np.shares_memory(mid, last)
    # the mid-run snapshot is not overwritten by the steps after it
    np.testing.assert_array_equal(mid, early.w_snapshot_at(half))
    assert not np.array_equal(mid, last)
    assert len({row.tobytes() for row in rec.N_series}) == len(rec.times)
    np.testing.assert_array_equal(rec.N_series[:21], early.N_series)


def test_observer_sees_step_zero_and_every_step():
    n0, w0, input_model = _small_problem()
    model = FiringRateModel(kind="step", p_inf=1.0, sigma=SigmaMap("identity"))
    cfg = SolverConfig(dt=n0.age.ds / 2)
    seen = []

    def observer(step, values, N, S):
        seen.append((step, n0.age.integrate(values), N.copy()))

    rec = nonlinear_run(n0, w0, model, LearningRule("hebbian", 1.0), input_model, cfg,
                        t_end=40 * cfg.dt, save_every=cfg.dt, observer=observer)
    assert [step for step, _, _ in seen] == list(range(41))
    # the live density at each call is the one the record's row was taken from
    np.testing.assert_array_equal([mass for _, mass, _ in seen], rec.mass_series)
    np.testing.assert_array_equal([N for _, _, N in seen], rec.N_series)
