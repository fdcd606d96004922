import numpy as np
import pytest

from elapsednet.grids import (
    AgeGrid,
    ConnectivityKernel,
    DensityField,
    GridError,
    SpatialGrid,
    norms,
    whole_steps,
)


def simpson(f, a, b, n):
    """Independent quadrature oracle (composite Simpson, n even intervals)."""
    x = np.linspace(a, b, n + 1)
    y = f(x)
    h = (b - a) / n
    return h / 3 * (y[0] + y[-1] + 4 * y[1:-1:2].sum() + 2 * y[2:-1:2].sum())


class TestWholeSteps:
    @pytest.mark.parametrize("t", [1e-12, 1e-10, 0.5 + 8e-10])
    def test_refuses_a_time_off_the_grid_by_less_than_1e_9(self, t):
        # the tolerance is relative to t: 1e-12 rounds to 0 steps of 0.0125, 1e-12 off
        with pytest.raises(GridError, match="is not a multiple of dt") as caught:
            whole_steps(t, 0.0125)
        assert caught.value.field == "t_end"

    @pytest.mark.parametrize("t, dt, steps", [(0.0, 0.0125, 0), (3e-12, 1e-12, 3),
                                              (0.3, 0.1, 3), (-1.0, 0.0125, -80)])
    def test_whole_multiples_of_any_size_pass(self, t, dt, steps):
        assert whole_steps(t, dt) == steps


class TestSpatialGrid:
    def test_nodes_are_cell_midpoints(self):
        g = SpatialGrid(nx=4)
        assert g.dx == 0.25
        np.testing.assert_allclose(g.nodes, [0.125, 0.375, 0.625, 0.875])
        assert np.all(np.diff(g.nodes) > 0)
        assert g.nodes[0] > 0.0 and g.nodes[-1] < 1.0

    def test_weights_sum_to_domain_length(self):
        g = SpatialGrid(nx=64)
        assert g.weights.sum() == pytest.approx(1.0, abs=1e-15)

    def test_invalid(self):
        with pytest.raises(GridError):
            SpatialGrid(nx=0)


class TestAgeGrid:
    def test_layout(self):
        g = AgeGrid(ns=5, s_max=1.0)
        assert g.ds == pytest.approx(0.2)
        np.testing.assert_allclose(g.nodes, [0.0, 0.2, 0.4, 0.6, 0.8])
        assert len(g.weights) == g.ns

    def test_weights_shape_matches_ns(self):
        g = AgeGrid(ns=7, s_max=2.0)
        assert g.weights.shape == (7,)
        with pytest.raises(GridError):
            g.integrate(np.ones(6))


class TestAgeIntegral:
    # the age integral of a field at each x is its mass
    def test_zero_integrand(self):
        age, space = AgeGrid(ns=50, s_max=5.0), SpatialGrid(nx=8)
        f = DensityField(np.zeros((age.ns, space.nx)), age, space)
        np.testing.assert_array_equal(f.mass(), np.zeros(8))

    def test_exponential_mass(self):
        # closed form: integral of exp(-s) over [0, inf) is 1; composite
        # trapezoid at h = 0.01 carries a frozen h^2/12 boundary defect
        age, space = AgeGrid(ns=4000, s_max=40.0), SpatialGrid(nx=3)
        f = DensityField.from_function(age, space, lambda s, x: np.exp(-s) + 0 * x)
        vals = f.mass()
        np.testing.assert_allclose(vals, 1.0000083333194445, rtol=1e-12)
        assert np.abs(vals - 1.0).max() <= 1e-5

    def test_unit_mass_datum(self):
        # (x+1) exp(-s(x+1)) has unit age-integral at every x; the trapezoid
        # boundary defect h^2 (x+1)^2 / 12 needs h = 1e-3 to sit below 1e-6
        age, space = AgeGrid(ns=20000, s_max=20.0), SpatialGrid(nx=16)
        f = DensityField.from_function(age, space, lambda s, x: (x + 1) * np.exp(-s * (x + 1)))
        assert np.abs(f.mass() - 1.0).max() <= 1e-6

    def test_exact_on_piecewise_linear(self):
        rng = np.random.default_rng(7)
        age, space = AgeGrid(ns=40, s_max=4.0), SpatialGrid(nx=2)
        node_vals = rng.uniform(0, 1, size=(40, 2))
        f = DensityField(node_vals, age, space)
        # exact integral of the piecewise-linear interpolant over [0, s_max - ds]
        exact = np.sum(0.5 * (node_vals[1:] + node_vals[:-1]) * age.ds, axis=0)
        np.testing.assert_allclose(f.mass(), exact, rtol=1e-14)

    def test_weighted(self):
        age, space = AgeGrid(ns=2000, s_max=20.0), SpatialGrid(nx=2)
        f = DensityField.from_function(age, space, lambda s, x: np.exp(-s) + 0 * x)
        w = age.nodes[:, None]  # weight by s: integral s e^-s = 1
        assert age.integrate(f.values * w)[0] == pytest.approx(1.0, abs=1e-4)

    def test_linearity(self):
        rng = np.random.default_rng(3)
        age, space = AgeGrid(ns=30, s_max=3.0), SpatialGrid(nx=4)
        a = DensityField(rng.uniform(size=(30, 4)), age, space)
        b = DensityField(rng.uniform(size=(30, 4)), age, space)
        lhs = age.integrate(2.5 * a.values - 1.25 * b.values)
        rhs = 2.5 * a.mass() - 1.25 * b.mass()
        np.testing.assert_allclose(lhs, rhs, rtol=1e-14)

    def test_refinement_reduces_error(self):
        space = SpatialGrid(nx=1)
        errs = []
        for ns in (200, 400):
            age = AgeGrid(ns=ns, s_max=20.0)
            f = DensityField.from_function(age, space, lambda s, x: np.exp(-s) + 0 * x)
            errs.append(abs(float(f.mass()[0]) - 1.0))
        assert errs[0] / errs[1] >= 3.5


class TestKernelApply:
    # the kernel action, the integral of w(x, y) N(y) over y, is space.integrate(w.values * N)
    def test_zero_kernel(self):
        space = SpatialGrid(nx=16)
        w = ConnectivityKernel.constant(space, 0.0)
        np.testing.assert_array_equal(space.integrate(w.values * np.ones(16)), np.zeros(16))

    def test_unit_kernel_constant_field(self):
        space = SpatialGrid(nx=64)
        w = ConnectivityKernel.constant(space, 1.0)
        np.testing.assert_allclose(space.integrate(w.values * 3.25), 3.25, rtol=1e-14)

    def test_gaussian_kernel_vs_simpson_oracle(self):
        space = SpatialGrid(nx=1024)
        w = ConnectivityKernel.from_function(
            space, lambda x, y: 10 * np.exp(-10 * (x - y) ** 2)
        )
        out = space.integrate(w.values)
        ix = int(np.argmin(np.abs(space.nodes - 0.5)))
        oracle = simpson(lambda y: 10 * np.exp(-10 * (0.5 - y) ** 2), 0.0, 1.0, 100000)
        assert oracle == pytest.approx(5.462919717851481, abs=1e-12)
        # node nearest 0.5 sits dx/2 away; compare against the oracle at
        # that exact node position
        x0 = space.nodes[ix]
        oracle_node = simpson(lambda y: 10 * np.exp(-10 * (x0 - y) ** 2), 0.0, 1.0, 100000)
        assert abs(out[ix] - oracle_node) <= 1e-4

    def test_dimension_mismatch(self):
        space = SpatialGrid(nx=8)
        w = ConnectivityKernel.constant(space, 1.0)
        with pytest.raises(GridError):
            space.integrate(w.values[:, :7])


class TestNorms:
    def test_zero_distance(self):
        age, space = AgeGrid(ns=20, s_max=2.0), SpatialGrid(nx=4)
        f = DensityField.from_function(age, space, lambda s, x: np.exp(-s) * (x + 1))
        d = norms(f, f.copy())
        assert d["L1_sx"] == 0 and d["Linf"] == 0 and d["Linf_x_L1_s"] == 0

    def test_constant_kernel_stats(self):
        space = SpatialGrid(nx=32)
        w = ConnectivityKernel.constant(space, 5.0)
        assert w.mean() == pytest.approx(5.0, abs=1e-13)
        assert w.deviation_from_mean() == pytest.approx(0.0, abs=1e-13)

    def test_linear_kernel_stats(self):
        # double integral of x + y over the unit square is 1; the sup of
        # |x + y - 1| is reached at the corner nodes, distance dx from 1
        space = SpatialGrid(nx=50)
        w = ConnectivityKernel.from_function(space, lambda x, y: x + y)
        assert w.mean() == pytest.approx(1.0, abs=1e-13)
        assert abs(w.deviation_from_mean() - 1.0) <= 2 * space.dx

    def test_triangle_inequality_and_positivity(self):
        rng = np.random.default_rng(11)
        age, space = AgeGrid(ns=15, s_max=3.0), SpatialGrid(nx=5)
        for _ in range(20):
            a, b, c = (DensityField(rng.normal(size=(15, 5)), age, space) for _ in range(3))
            dab = norms(a, b)
            dbc = norms(b, c)
            dac = norms(a, c)
            for key in ("L1_sx", "Linf", "Linf_x_L1_s"):
                assert dab[key] >= 0
                assert dac[key] <= dab[key] + dbc[key] + 1e-12

    def test_shape_mismatch(self):
        age, space = AgeGrid(ns=10, s_max=1.0), SpatialGrid(nx=4)
        a = DensityField(np.zeros((10, 4)), age, space)
        b = DensityField(np.zeros((12, 4)), AgeGrid(ns=12, s_max=1.0), space)
        with pytest.raises(GridError):
            norms(a, b)


class TestDensityField:
    def test_normalize_mass(self):
        age, space = AgeGrid(ns=400, s_max=20.0), SpatialGrid(nx=8)
        f = DensityField.from_function(age, space, lambda s, x: (x + 1) * np.exp(-s * (x + 1)))
        f.normalize_mass(1.0)
        np.testing.assert_allclose(f.mass(), 1.0, atol=1e-14)

    def test_normalize_rejects_empty_column(self):
        age, space = AgeGrid(ns=10, s_max=1.0), SpatialGrid(nx=2)
        f = DensityField(np.zeros((age.ns, space.nx)), age, space)
        with pytest.raises(GridError):
            f.normalize_mass(1.0)

    def test_shape_check(self):
        with pytest.raises(GridError):
            DensityField(np.zeros((3, 3)), AgeGrid(ns=4, s_max=1.0), SpatialGrid(nx=3))
