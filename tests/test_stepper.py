"""The upwind Stepper: its O(nx) step-rate activity, its zones of constant rate
and the band between them against full-field rates and coefficients, its lagged
discharge integral and memory, its sweeps in row blocks, mass conservation over
random inputs, NaN detection, and agreement, to round-off, with the per-step
loop it replaced."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from elapsednet.grids import AgeGrid, ConnectivityKernel, DensityField, SpatialGrid, norms
from elapsednet.models import FiringRateModel, InputModel, LearningRule, SigmaMap
from elapsednet.renewal import (
    BLOCK_ROWS,
    SUFFIX_ROWS,
    NegativeDensityError,
    PicardOptions,
    Recorder,
    SolverConfig,
    Stepper,
    characteristics_oracle,
    linear_step,
    nonlinear_run,
    nonlinear_steps,
)

# Below ~1e-292 the products ds * p * nbar are subnormal and keep no relative
# precision, so the comparisons carry this absolute floor.
UNDERFLOW_FLOOR = 1e-290
DENSITY = st.floats(0.0, 10.0, allow_subnormal=False)
# ds * p_inf in (0, 2]; no subnormal, which dividing by ds could round to p_inf = 0
DS_RATE = st.floats(0.0, 2.0, exclude_min=True, allow_subnormal=False)
# node counts whose suffix sums span one, two, three and four blocks
SUFFIX_SPANS = st.one_of(st.integers(3, 40), st.sampled_from(
    [SUFFIX_ROWS - 1, SUFFIX_ROWS, SUFFIX_ROWS + 1, 2 * SUFFIX_ROWS + 1, 3 * SUFFIX_ROWS + 5]))


@st.composite
def grids(draw, ns=st.integers(3, 40), s_max=st.floats(0.5, 20.0)):
    age = AgeGrid(ns=draw(ns), s_max=draw(s_max))
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
    n = data.draw(grids(SUFFIX_SPANS))
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
    # the suffix blocks are formed once per field and reused
    np.testing.assert_array_equal(stepper.activity(S), fast)


@settings(deadline=None)
@given(data=st.data())
def test_threshold_cell_is_the_clipped_search_over_all_nodes(data):
    """`threshold_cell` searches the interior nodes only: it must give the cell of the
    search over all nodes, less one and clipped to [0, ns - 2], on a node, one ulp either
    side of one, below 0, beyond s_max, at +-inf and at NaN, for arrays and scalars."""
    n = data.draw(grids(SUFFIX_SPANS))
    nodes, ns = n.age.nodes, n.age.ns
    node = st.integers(0, ns - 1).map(lambda i: float(nodes[i]))
    sig = np.array(data.draw(st.lists(st.one_of(
        node,
        node.map(lambda v: float(np.nextafter(v, -np.inf))),
        node.map(lambda v: float(np.nextafter(v, np.inf))),
        st.floats(max_value=0.0, allow_nan=False),
        st.floats(min_value=n.age.s_max, allow_nan=False),
        st.sampled_from([np.inf, -np.inf, np.nan]),
    ), min_size=1, max_size=8)))
    model = FiringRateModel(kind="step", p_inf=1.0 / n.age.ds, sigma=SigmaMap("identity"))
    stepper = Stepper(n, model, SolverConfig(dt=n.age.ds / 2))
    expected = np.clip(np.searchsorted(nodes, sig, side="right") - 1, 0, ns - 2)
    np.testing.assert_array_equal(stepper.threshold_cell(sig), expected)
    assert [int(stepper.threshold_cell(v)) for v in sig] == expected.tolist()


def _full_arrays(stepper):
    """The field-size rates, B and A that a Stepper's zones stand for: the scalars below
    `lo` and from `hi` on, the band's arrays between."""
    rows, nx = stepper.age.ns - 1, stepper.values.shape[1]
    arrays = []
    for below, band, above in ((0.0, stepper.rates, stepper.model.p_inf),
                               (stepper.B0, stepper.B, stepper.B1),
                               (stepper.A0, stepper.A, stepper.A1)):
        full = np.empty((rows, nx))
        full[: stepper.lo], full[stepper.lo : stepper.hi], full[stepper.hi :] = below, band, above
        arrays.append(full)
    return arrays


def assert_zones_rebuild_the_full_fill(stepper, S):
    """Bit for bit against fresh field-size arrays, NaN included; a rate of -0.0, a
    subnormal threshold's underflow, counts as 0.0, as it leaves B and A unchanged."""
    model, age = stepper.model, stepper.age
    rates = model.interval_rates(age, S)
    B = np.maximum(stepper.lam - rates * stepper.h, 0.0)
    A = np.maximum(B + (1.0 - 2.0 * stepper.lam), 0.0)
    for got, ref in zip(_full_arrays(stepper), (rates, B, A)):
        assert (got + 0.0).tobytes() == (ref + 0.0).tobytes()
    # the positivity guard reads the largest rate of the field
    np.testing.assert_array_equal(stepper.r_max, rates.max())


def rate_models(age: AgeGrid, ds_rate=DS_RATE):
    """Step and smooth rates with ds * p_inf from ds_rate: by default up to 2, the stepper's
    coarse-grid bound."""
    p_inf = ds_rate.map(lambda x: x / age.ds)
    step = st.builds(FiringRateModel, kind=st.just("step"), p_inf=p_inf, sigma=sigma_maps(age))
    smooth = st.tuples(p_inf, st.floats(0.0, 1.0), sigma_maps(age),
                       st.floats(-1.0, age.s_max + 1.0), st.floats(1e-3, 2.0 * age.s_max)).map(
        lambda a: FiringRateModel(kind="smooth", p_inf=a[0], p_star=a[1] * a[0], sigma=a[2],
                                  s_star=a[3], theta=a[4]))
    return st.one_of(step, smooth)


@settings(deadline=None)
@given(data=st.data())
def test_zones_rebuild_the_full_rates_and_coefficients(data):
    n = data.draw(grids())
    age, nx = n.age, n.space.nx
    model = data.draw(rate_models(age))
    # lam = dt/ds anywhere in (0, 1], not only 1/2, where 1 - 2 lam is exact
    dt = data.draw(st.floats(0.05, 1.0)) * min(age.ds, 1.0 / model.p_inf)
    stepper = Stepper(n, model, SolverConfig(dt=dt))
    S = None
    for _ in range(data.draw(st.integers(1, 12))):
        if S is None or data.draw(st.booleans()):  # anywhere: jumps of many cells
            S = np.array(data.draw(st.lists(st.one_of(stimulation(age), just_below_edges(age),
                                                      st.just(np.nan)),
                                            min_size=nx, max_size=nx)))
        else:  # the threshold moves by at most two cells
            S = S + age.ds * np.array(data.draw(st.lists(st.floats(-2.0, 2.0),
                                                         min_size=nx, max_size=nx)))
        stepper.set_rates(S)
        assert_zones_rebuild_the_full_fill(stepper, S)
        if model.kind == "step" and not np.isnan(S).any():
            # the band: the threshold cells and the cell above the highest
            cells = stepper.threshold_cell(model.sigma(S))
            assert (stepper.lo, stepper.hi) == (cells.min(), min(cells.max() + 2, age.ns - 1))
        # where the positivity guard passes, both coefficients are nonnegative
        if stepper.lam + stepper.h * stepper.r_max <= 1 + 1e-12:
            assert min(stepper.A0, stepper.A1, stepper.A.min()) >= 0.0
            assert min(stepper.B0, stepper.B1, stepper.B.min()) >= 0.0


@settings(deadline=None)
@given(data=st.data())
def test_activity_after_any_step_sequence_matches_a_fresh_stepper(data):
    """`activity` reads only the current field, whatever ran before: it forms nbar and
    the suffix sums again after `flux` or `advance` spent nbar, and the suffix row past
    the top cell stays C_{ns-1} = 0, so thresholds in the top cell agree too."""
    n = data.draw(grids(SUFFIX_SPANS))
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
    for op in data.draw(st.lists(st.sampled_from(["set_rates", "flux", "activity", "advance"]),
                                 max_size=8)):
        if op == "flux":
            stepper.flux()
        else:
            getattr(stepper, op)(draw_S())
    fresh = Stepper(DensityField(stepper.values.copy(), age, n.space), model, cfg)
    S = draw_S()
    np.testing.assert_array_equal(stepper.activity(S), fresh.activity(S))


def test_suffix_blocks_in_any_order_match_a_fresh_stepper():
    """Trials whose thresholds sit in the top block, then the bottom one, then a middle
    one: each N is the bits of a fresh Stepper's, which forms only the blocks it reads,
    the one that holds C_{k+1} too when k is the last cell of a block."""
    age, space = AgeGrid(ns=3 * SUFFIX_ROWS + 5, s_max=10.0), SpatialGrid(nx=3)
    n = DensityField.from_function(age, space, lambda s, x: np.exp(-s / 4) * (1 + x))
    model = FiringRateModel(kind="step", p_inf=1.5, sigma=SigmaMap("identity"))
    cfg = SolverConfig(dt=age.ds / 2)
    stepper = Stepper(n, model, cfg)
    top = age.nodes[-2] + 0.3 * age.ds  # in the top cell [s_{ns-2}, s_{ns-1})
    trials = [(top, age.nodes[-4], age.nodes[-SUFFIX_ROWS // 2]),  # the top block
              (0.5 * age.ds, 3 * age.ds, age.nodes[SUFFIX_ROWS - 1] + 0.5 * age.ds),  # bottom
              (age.nodes[SUFFIX_ROWS + 7], age.nodes[2 * SUFFIX_ROWS - 1] + 0.5 * age.ds, 2.5)]
    for S in map(np.array, trials):
        fresh = Stepper(DensityField(n.values.copy(), age, space), model, cfg)
        assert stepper.activity(S).tobytes() == fresh.activity(S).tobytes()
        assert fresh.formed == min(-(-(stepper.threshold_cell(S).max() + 2) // SUFFIX_ROWS)
                                   * SUFFIX_ROWS, age.ns - 1)
    assert stepper.formed == age.ns - 1
    # a threshold in the top cell reads C_{ns-1} = 0 and its own cell's part only
    v = n.values
    nbar = 0.5 * (v[-2, 0] + v[-1, 0])
    assert stepper.suffix[-1].tolist() == [0.0] * space.nx
    assert stepper.activity(np.array(trials[0]))[0] == \
        age.ds * model.p_inf * ((age.nodes[-1] - top) / age.ds * nbar)


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
        short += model.interval_rates(age, S)[k + 1, 0] < 1.0
        stepper = Stepper(n, model, SolverConfig(dt=age.ds / 2))
        stepper.set_rates(S)
        assert (stepper.lo, stepper.hi) == (k, min(k + 2, ns - 1))
        assert_zones_rebuild_the_full_fill(stepper, S)
    assert short > 0


def test_fast_activity_at_cell_edges_and_limits():
    age, space = AgeGrid(ns=50, s_max=5.0), SpatialGrid(nx=5)
    n = DensityField.from_function(age, space, lambda s, x: np.exp(-s) * (1 + x))
    model = FiringRateModel(kind="step", p_inf=2.0, sigma=SigmaMap("identity"))
    stepper = Stepper(n, model, SolverConfig(dt=age.ds / 2))
    S = np.array([-1.0, 0.0, 7 * age.ds, age.s_max, 1e9])
    nbar = 0.5 * (n.values[1:] + n.values[:-1])
    ref = age.ds * np.sum(model.interval_rates(age, S) * nbar, axis=0)
    np.testing.assert_allclose(stepper.activity(S), ref, rtol=1e-13, atol=0.0)
    assert stepper.activity(S)[3:].tolist() == [0.0, 0.0]
    # S <= 0 fires on the whole age domain
    whole = model.p_inf * age.ds * nbar[:, 0].sum()
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


@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_l1_distance_of_equal_mass_densities_never_rises(data):
    """The paper's L1 contraction, step by step.  At a frozen S and dt = ds/2 the step is
    linear, with nonnegative coefficients and the trapezoid mass of each column kept, so
    the trapezoid-weighted L1 distance of two densities cannot rise in exact arithmetic.

    Round-off bound: each swept value A v_i + B v_{i-1} is within 3 eps of its exact
    value, and the rounded coefficients keep the mass to a few eps.  The renewal flux N
    and the distance are sums of at most ns + 2 nonnegative terms, so each is within
    (ns + 2) eps of its value, and the boundary row carries ds N / 2 <= ds p_inf mass / 2
    <= mass.  So a step adds at most (ns + 8) eps of the distance and of the two column
    masses.  Each rise is measured against the starting distance: a round-off rise on a
    distance already near 0 is large relative to that distance."""
    n = data.draw(grids())
    model = data.draw(rate_models(n.age))
    S = np.tile(data.draw(st.lists(stimulation(n.age), min_size=n.space.nx,
                                   max_size=n.space.nx)), 2)
    stepper, distance, bound = equal_mass_pair(data, n, model)
    start = last = distance(stepper.values)
    for _ in range(25):
        stepper.advance(S)
        now = distance(stepper.values)
        assert np.all(now - last <= bound), (now - last) / np.maximum(start, UNDERFLOW_FLOOR)
        last = now


def equal_mass_pair(data, n, model):
    """A Stepper at dt = ds/2 over n and a drawn second density of equal column mass, the
    trapezoid-weighted L1 distance of the two per column, and the L1 test's round-off
    bound on one step's rise of it."""
    age, nx = n.age, n.space.nx
    other = data.draw(hnp.arrays(np.float64, (age.ns, nx), elements=DENSITY))
    mass, other_mass = n.mass(), age.integrate(other)
    full = other_mass > 0  # scaled to the first's column mass; an empty column copies it
    other[:, full] = other[:, full] / other_mass[full] * mass[full]
    other[:, ~full] = n.values[:, ~full]
    # both densities side by side in one field: the columns step independently
    pair = DensityField(np.hstack([n.values, other]), age, SpatialGrid(nx=2 * nx))
    stepper = Stepper(pair, model, SolverConfig(dt=age.ds / 2))
    distance = lambda v: age.weights @ np.abs(v[:, :nx] - v[:, nx:])
    start = distance(stepper.values)
    bound = (age.ns + 8) * np.finfo(float).eps * (start + mass + age.integrate(other))
    return stepper, distance, bound


def doeblin_models(age: AgeGrid):
    """Rates of pulse age s_star, past which every age fires at p_star or more: the step
    kind at a constant threshold s_star <= 1.5 (p_star = p_inf), and the smooth kind with
    its floor from s_star <= 2, at a constant threshold anywhere; ds * p_inf <= 2."""
    p_inf = DS_RATE.map(lambda x: x / age.ds)
    constant = lambda top: st.floats(0.0, top).map(lambda v: SigmaMap("constant", sigma_max=v))
    step = st.builds(FiringRateModel, kind=st.just("step"), p_inf=p_inf, sigma=constant(1.5))
    smooth = st.tuples(p_inf, st.floats(0.0, 1.0), constant(age.s_max + 1.0),
                       st.floats(0.0, 2.0), st.floats(1e-3, 2.0 * age.s_max)).map(
        lambda a: FiringRateModel(kind="smooth", p_inf=a[0], p_star=a[1] * a[0], sigma=a[2],
                                  s_star=a[3], theta=a[4]))
    return st.one_of(step, smooth)


@settings(deadline=None, max_examples=30)
@given(data=st.data())
def test_equal_mass_densities_contract_at_the_doeblin_rate(data):
    """The paper's Doeblin contraction.  Past the pulse age s_star every age fires at p_star
    or more and none faster than p_inf, so at t0 = 2 s_star every density of mass g is at
    least p_star exp(-2 p_inf s_star) g on [0, s_star]: two densities of equal mass share
    a mass alpha = p_star s_star exp(-2 p_inf s_star), doeblin_check's formula (with its
    s_star = ds where s_star is 0), and their L1 distance falls to (1 - alpha) of its start.

    After ceil(2 s_star / dt) steps at dt = ds/2 the upwind scheme must reach
    (1 - alpha + C ds) of the start, with C = 0, the continuous rate itself.  C is
    measured, not derived: over 1,500 random problems of this kind the ratio stayed at
    least 0.085 ds below 1 - alpha, and 2.16 ds below it over 378 others, as the scheme's
    own diffusion mixes further; as alpha goes to 0 the bound becomes the L1 contraction.
    The allowance for round-off is the L1 test's per-step bound times the steps.
    s_max >= 4 >= 2 s_star keeps the ages that fire on the grid."""
    n = data.draw(grids(st.integers(40, 399), st.floats(4.0, 20.0)))
    age = n.age
    model = data.draw(doeblin_models(age))
    stepper, distance, bound = equal_mass_pair(data, n, model)
    s_star = model.pulse_age(0.0, 0.0) or age.ds
    alpha = model.lower_rate * s_star * np.exp(-2.0 * model.p_inf * s_star)
    steps = math.ceil(2.0 * s_star / (age.ds / 2))
    start = distance(stepper.values)
    for _ in range(steps):
        stepper.advance(np.zeros(2 * n.space.nx))
    assert np.all(distance(stepper.values) <= (1.0 - alpha) * start + steps * bound)


HALVING_FACTOR = 1.2


@settings(deadline=None, max_examples=15)
@given(data=st.data())
def test_error_to_the_oracle_falls_as_ds_halves(data):
    """First-order convergence to the characteristics oracle.  At a frozen S (three
    columns, s_max = 4) the Gaussian of criterion 2 is stepped to t = 1 at dt = ds/2 on
    ds = 1/25, 1/50 and 1/100, with ds * p_inf <= 1/2 on the coarsest grid.  Over the two
    halvings the L1 error must fall by HALVING_FACTOR^2 = 1.44.

    The factor is measured and argued, not derived.  Where the rate is positive on n0's
    support the renewal flux N(0) differs from n0(0), and the solution carries that jump
    along s = t: upwind steps smear a jump over a width of order sqrt(ds), so its L1 error
    falls by sqrt(2) per halving, the smooth rest by 2.  Over 1,500 draws of this test
    the smallest factor per halving, averaged over the two, was 1.25.  One halving alone
    may not cut the error (it rose on 7 of those draws, by up to 1/0.88): the smooth
    rate jumps at s_star or across a ramp narrower than a cell, which the trapezoid of
    p at the cell edges places to within a cell, so that error's constant depends on
    where the jump falls in its cell.  Rates near the positivity bound are not yet in
    this regime on these grids: in a probe at ds * p_inf = 1.8 the factor read 1.05."""
    coarse = AgeGrid(ns=100, s_max=4.0)
    model = data.draw(rate_models(coarse, st.floats(0.0, 0.5, exclude_min=True)))
    S = np.array(data.draw(st.lists(st.floats(-0.5, 2.5), min_size=3, max_size=3)))
    errors = []
    for ns in (100, 200, 400):
        age = AgeGrid(ns=ns, s_max=coarse.s_max)
        n0 = DensityField.from_function(age, SpatialGrid(nx=3),
                                        lambda s, x: np.exp(-(((s - 0.55) / 0.12) ** 2)) + 0 * x)
        stepper = Stepper(n0, model, SolverConfig(dt=age.ds / 2))
        for _ in range(round(1.0 / (age.ds / 2))):
            stepper.advance(S)
        oracle = characteristics_oracle(n0, S, model, t=1.0)
        errors.append(norms(DensityField(stepper.values, age, n0.space), oracle)["L1_sx"])
    assert errors[2] <= errors[0] / HALVING_FACTOR**2, errors


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


@pytest.mark.parametrize("row", [10, BLOCK_ROWS + 7])
def test_nan_in_a_later_block_raises(row):
    # below the threshold the NaN stays out of the suffix sums and so out of the step's
    # N, which `advance` takes from them after `activity`: only the minimum over the
    # stepped field, whose top block is free of NaN, can see it
    age, space = AgeGrid(ns=2 * BLOCK_ROWS + 100, s_max=20.0), SpatialGrid(nx=2)
    n = DensityField.from_function(age, space, lambda s, x: np.exp(-s / 5) + 0 * x)
    n.values[row, 1] = np.nan
    model = FiringRateModel(kind="step", p_inf=1.0, sigma=SigmaMap("identity"))
    stepper = Stepper(n, model, SolverConfig(dt=age.ds / 2))
    S = np.full(2, age.nodes[-BLOCK_ROWS // 2])
    assert np.isfinite(stepper.activity(S)).all()
    with pytest.raises(NegativeDensityError, match="nan"):
        stepper.advance(S)


def test_flux_counts_the_top_rows_once():
    # the band reaches the top row (sigma in the top two cells, or past s_max) or leaves
    # one row above it, where the top zone's column sum is empty and its end terms remain
    age, space = AgeGrid(ns=10, s_max=10.0), SpatialGrid(nx=1)  # the top cell is [8, 9]
    n = DensityField.from_function(age, space, lambda s, x: 1.0 + s + 0 * x)
    model = FiringRateModel(kind="step", p_inf=1.0, sigma=SigmaMap("identity"))
    stepper = Stepper(n, model, SolverConfig(dt=age.ds / 2))
    nbar = 0.5 * (n.values[1:] + n.values[:-1])
    for sigma, hi in [(6.5, 8), (7.5, 9), (8.2, 9), (8.3, 9), (9.0, 9), (12.0, 9)]:
        S = np.array([sigma])
        ref = age.ds * np.sum(model.interval_rates(age, S) * nbar, axis=0)
        np.testing.assert_allclose(stepper.flux(S), ref, rtol=1e-14)
        assert stepper.hi == hi


@settings(deadline=None)
@given(data=st.data())
def test_kept_top_zone_sum_matches_a_fresh_stepper(data):
    """`flux` keeps the top zone's column sum T with its hi and reuses it while the field
    and hi stay.  After any sequence of `set_rates`, `flux` and `advance`, with hi moving up,
    moving down, staying put and reaching the top row, `flux()` is the bits of a fresh
    Stepper's on a copy of the field at the same S.  Keeping T past an `advance` fails
    this; `test_kept_top_zone_sum_follows_hi` takes each move of hi in turn."""
    n = data.draw(grids())
    age, nx = n.age, n.space.nx
    model = data.draw(rate_models(age))  # dt = ds/2 keeps every step inside the positivity bound
    cfg = SolverConfig(dt=age.ds / 2)
    # thresholds over the whole grid, the top two cells and past s_max included
    thresholds = st.one_of(stimulation(age), st.floats(age.nodes[-3], age.s_max + 1.0))
    stepper = Stepper(n, model, cfg)
    S = np.array(data.draw(st.lists(thresholds, min_size=nx, max_size=nx)))
    stepper.set_rates(S)
    for op in data.draw(st.lists(st.sampled_from(["set_rates", "flux", "flux_S", "advance"]),
                                 min_size=1, max_size=10)):
        if op != "flux" and data.draw(st.booleans()):  # a new S, else hi stays put
            S = np.array(data.draw(st.lists(thresholds, min_size=nx, max_size=nx)))
        if op == "flux_S":
            stepper.flux(S)
        elif op != "flux":
            getattr(stepper, op)(S)
        fresh = Stepper(DensityField(stepper.values.copy(), age, n.space), model, cfg)
        np.testing.assert_array_equal(stepper.flux(), fresh.flux(S))
        assert fresh.hi == stepper.hi


def test_kept_top_zone_sum_follows_hi():
    # hi stays, moves up, moves down, stays over a step, reaches the top row and leaves
    # it; T kept past a change of hi, or past an `advance`, fails this
    age, space = AgeGrid(ns=20, s_max=20.0), SpatialGrid(nx=1)  # ds = 1, top row 19
    n = DensityField.from_function(age, space, lambda s, x: 1.0 + s + 0 * x)
    model = FiringRateModel(kind="step", p_inf=1.0, sigma=SigmaMap("identity"))
    cfg = SolverConfig(dt=age.ds / 2)
    stepper = Stepper(n, model, cfg)
    for op, sigma, hi in [("flux", 9.5, 11), ("flux", 9.7, 11), ("flux", 12.5, 14),
                          ("flux", 4.5, 6), ("advance", 4.5, 6), ("set_rates", 30.0, 19),
                          ("set_rates", 9.5, 11)]:
        S = np.array([sigma])
        getattr(stepper, op)(S)
        fresh = Stepper(DensityField(stepper.values.copy(), age, space), model, cfg)
        np.testing.assert_array_equal(stepper.flux(), fresh.flux(S))
        assert stepper.hi == hi


@pytest.mark.parametrize("sigma", [0.5, 3.9, 5.0])  # firing below, in the top cell, nowhere
def test_nan_in_the_absorbing_row_raises(sigma):
    age, space = AgeGrid(ns=40, s_max=4.0), SpatialGrid(nx=2)
    n = DensityField.from_function(age, space, lambda s, x: np.exp(-s) + 0 * x)
    n.values[-1, 1] = np.nan
    model = FiringRateModel(kind="step", p_inf=1.0, sigma=SigmaMap("identity"))
    stepper = Stepper(n, model, SolverConfig(dt=age.ds / 2))
    with pytest.raises(NegativeDensityError, match="nan"):
        stepper.advance(np.full(2, sigma))


def test_iterate_mode_forms_nbar_once_per_step(monkeypatch):
    # the coupling solve forms nbar and the suffix sums; the step's own N reuses them,
    # with no second pass over the field (a reload or a sum over the zones in `flux`)
    loads, fluxes, in_advance, blocks = [], [], [], []
    activity, flux, advance = Stepper.activity, Stepper.flux, Stepper.advance
    suffix_block = Stepper.suffix_block

    def counting_activity(self, S):
        loads.append(self.formed == 0)
        return activity(self, S)

    def counting_flux(self, S=None):
        fluxes.append(self.steps)
        return flux(self, S)

    def counting_advance(self, S):
        start = len(loads)
        N = advance(self, S)
        in_advance.append(loads[start:])
        return N

    def counting_block(self):
        blocks.append((self.steps, self.formed))
        suffix_block(self)

    monkeypatch.setattr(Stepper, "activity", counting_activity)
    monkeypatch.setattr(Stepper, "suffix_block", counting_block)
    monkeypatch.setattr(Stepper, "flux", counting_flux)
    monkeypatch.setattr(Stepper, "advance", counting_advance)
    n0, w0, input_model = _small_problem()
    model = FiringRateModel(kind="step", p_inf=1.0, sigma=SigmaMap("identity"))
    cfg = SolverConfig(dt=n0.age.ds / 2, picard=PicardOptions(mode="iterate"))
    nonlinear_run(n0, w0, model, LearningRule("hebbian", 1.0), input_model, cfg,
                  t_end=10 * cfg.dt)
    # once per field: the initial solve and the first step's share n0, as `flux` spends
    # no nbar
    assert sum(loads) == 10 and len(loads) > 2 * 11
    assert fluxes == [0]  # the initial N only
    # each step's N is one more trial of the loaded sums
    assert in_advance == [[False]] * 10
    # every trial threshold of this run stays in the bottom block, so each field forms
    # that block and none of the rows above it
    assert blocks == [(step, 0) for step in range(10)]
    assert SUFFIX_ROWS < n0.age.ns - 1


def test_lagged_run_allocates_no_second_field():
    # the zones hold scalars and the band's rows; the sweeps use one block of scratch, so
    # `values` is the one field-size buffer, and `activity`'s sums are never formed
    age, space = AgeGrid(ns=4 * BLOCK_ROWS + 1, s_max=40.0), SpatialGrid(nx=32)
    n0 = DensityField.from_function(age, space, lambda s, x: np.exp(-s) * (1 + x))
    n0.normalize_mass(0.5)  # the Hebbian rule stays below 1
    w0 = ConnectivityKernel.from_function(space, lambda x, y: 0.5 + 0 * x * y)
    model = FiringRateModel(kind="step", p_inf=1.0, sigma=SigmaMap("identity"))
    cfg = SolverConfig(dt=age.ds / 2)
    field = n0.values.nbytes
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        nonlinear_run(n0, w0, model, LearningRule("hebbian", 0.5),
                      InputModel("constant", amplitude=1.0), cfg, t_end=20 * cfg.dt)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert field < peak < 2 * field, (peak, field)


@settings(deadline=None)
@given(data=st.data())
def test_clamps_match_np_clip_bit_for_bit(data):
    """The per-trial clamps use np.minimum/np.maximum in place of np.clip, which costs
    a Python-level wrapper per call; the results are the same bits, NaN and -0.0 too."""
    n = data.draw(grids())
    age = n.age
    model = FiringRateModel(kind="step", p_inf=data.draw(DS_RATE) / age.ds,
                            sigma=SigmaMap("identity"))
    S = np.array(data.draw(st.lists(st.one_of(stimulation(age), just_below_edges(age),
                                              st.just(np.nan), st.just(-0.0)),
                                    min_size=n.space.nx, max_size=n.space.nx)))
    stepper = Stepper(n, model, SolverConfig(dt=age.ds / 2))
    cells = np.searchsorted(age.nodes, S, side="right") - 1
    np.testing.assert_array_equal(stepper.threshold_cell(S), np.clip(cells, 0, age.ns - 2))
    fracs = (age.nodes[:, None][1:] - S) / age.ds
    ref = np.clip(fracs, 0.0, 1.0) * model.p_inf
    got = model.interval_rates(age, S)
    assert got.tobytes() == ref.tobytes()
    unit = np.minimum(1.0, np.maximum(0.0, fracs))
    assert unit.tobytes() == np.clip(fracs, 0.0, 1.0).tobytes()


def _reference_lagged_step(v, S_old, S, model, age, lam, h):
    """One lagged step from fresh arrays: the rates of S_old and of S filled in full,
    N at each from one full product, and the transport unblocked."""
    nbar = 0.5 * (v[1:] + v[:-1])
    N_lag = age.ds * np.sum(model.interval_rates(age, S_old) * nbar, axis=0)
    rates = model.interval_rates(age, S)
    N = age.ds * np.sum(rates * nbar, axis=0)
    B = np.maximum(lam - rates * h, 0.0)
    A = np.maximum(B + (1.0 - 2.0 * lam), 0.0)
    new = np.empty_like(v)
    new[-1] = (A[-1] + B[-1]) * v[-1] + 2.0 * B[-1] * v[-2]
    new[1:-1] = A[:-1] * v[1:-1] + B[:-1] * v[:-2]
    new[0] = N
    return N_lag, N, new


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_blocked_lagged_steps_match_full_products(data):
    """k lagged steps of the Stepper (N from the band's product plus p_inf times one
    column sum over the top zone, the transport zone by zone in blocks from the top)
    against fresh arrays.

    The reference sums n = ns - 1 nonnegative terms r_i nbar_i ds, each formed in at
    most 3 roundings; a sum of n terms in any order errs by at most (n - 1) u times the
    sum of the terms (u = eps/2), so its N is within (n + 2) u N of the exact one.  The
    Stepper forms the band's terms r_i (n_{i-1} + n_i) in 2 roundings each and the top
    zone's 2 T + n_hi + n_{ns-1}, T a column sum, from nonnegative values only, then
    adds the two parts and scales them by ds/2: within (n + 5) u N, as nothing cancels.
    So |N - N_ref| <= (2n + 7) u N <= (n + 4) eps (N_lag + N), and N_lag likewise.
    The update A_i v_i + B_i v_{i-1} is the same expression on both sides, with the
    same A and B (`test_zones_rebuild_the_full_rates_and_coefficients`), so rows 1..
    agree exactly.
    """
    nrows = data.draw(st.one_of(st.integers(2, 40), st.sampled_from(
        [BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS, 2 * BLOCK_ROWS + 37])))
    age, space = AgeGrid(ns=nrows + 1, s_max=data.draw(st.floats(0.5, 20.0))), SpatialGrid(
        nx=data.draw(st.integers(1, 3)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    values = rng.uniform(0.0, 10.0, (age.ns, space.nx)) * (rng.random((age.ns, space.nx)) < 0.9)
    nan_row = data.draw(st.none() | st.integers(BLOCK_ROWS, age.ns - 1)) if nrows > BLOCK_ROWS \
        else None
    if nan_row is not None:
        values[nan_row, data.draw(st.integers(0, space.nx - 1))] = np.nan
    model = FiringRateModel(kind="step", p_inf=data.draw(DS_RATE) / age.ds,
                            sigma=SigmaMap("identity"))
    stepper = Stepper(DensityField(values, age, space), model, SolverConfig(dt=age.ds / 2))
    lam, h, eps = stepper.lam, stepper.h, np.finfo(float).eps
    # thresholds over the whole grid, the top cell and its edges included
    thresholds = st.one_of(stimulation(age), st.floats(age.nodes[-2], age.s_max),
                           st.sampled_from([age.nodes[-2], age.s_max]))
    draw_S = lambda: np.array(data.draw(st.lists(thresholds, min_size=space.nx,
                                                 max_size=space.nx)))
    gain = data.draw(st.floats(0.0, 1.0))  # S = gain N_lag + drawn level, as in the coupling
    S = draw_S()
    stepper.set_rates(S)
    for _ in range(data.draw(st.integers(1, 4))):
        v, level = stepper.values.copy(), draw_S()
        N_lag = stepper.flux()
        S_old, S = S, gain * N_lag + level
        if nan_row is not None:
            with pytest.raises(NegativeDensityError, match="nan"):
                stepper.advance(S)
            return
        N = stepper.advance(S)
        N_lag_ref, N_ref, new_ref = _reference_lagged_step(v, S_old, S, model, age, lam, h)
        tol = (age.ns + 3) * eps  # (n + 4) eps
        assert np.all(np.abs(N_lag - N_lag_ref) <= tol * N_lag_ref + UNDERFLOW_FLOOR)
        # S takes N_lag's error times the gain, and on each side one rounding of the
        # product and one of the sum
        S_ref = gain * N_lag_ref + level
        assert np.all(np.abs(S - S_ref) <= gain * (tol * N_lag_ref + UNDERFLOW_FLOOR)
                      + 2 * eps * (gain * N_lag_ref + np.abs(S_ref)))
        assert np.all(np.abs(N - N_ref) <= tol * (N_lag_ref + N_ref) + UNDERFLOW_FLOOR)
        np.testing.assert_array_equal(stepper.values[1:], new_ref[1:])
        np.testing.assert_array_equal(stepper.values[0], N)


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


def test_steps_yield_step_zero_and_every_step():
    n0, w0, input_model = _small_problem()
    model = FiringRateModel(kind="step", p_inf=1.0, sigma=SigmaMap("identity"))
    rule = LearningRule("hebbian", 1.0)
    cfg = SolverConfig(dt=n0.age.ds / 2)
    recorder = Recorder(n0.space, cfg.dt, 40 * cfg.dt, save_every=cfg.dt)
    seen = [(t, n0.age.integrate(values), N.copy())
            for t, values, N, S in nonlinear_steps(n0, w0, model, rule, input_model, cfg, recorder)]
    rec = recorder.record()
    assert [t for t, _, _ in seen] == [step * cfg.dt for step in range(41)] == list(rec.times)
    # the live density of each state is the one the record's row was taken from
    np.testing.assert_array_equal([mass for _, mass, _ in seen], rec.mass_series)
    np.testing.assert_array_equal([N for _, _, N in seen], rec.N_series)
    # nonlinear_run drains the same steps into the same record
    run = nonlinear_run(n0, w0, model, rule, input_model, cfg, t_end=40 * cfg.dt,
                        save_every=cfg.dt)
    np.testing.assert_array_equal(run.N_series, rec.N_series)
    np.testing.assert_array_equal(run.mass_series, rec.mass_series)
