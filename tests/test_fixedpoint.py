"""Properties of the Anderson-mixed fixed-point solver on maps with known fixed points."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from elapsednet.fixedpoint import MEMORY, damped_fixed_point


@st.composite
def contractive_affine_maps(draw, max_dim=8):
    """(A, b, x0) with ||A||_2 <= 0.9 in dimension 1 to max_dim."""
    d = draw(st.integers(1, max_dim))
    entries = st.floats(-1.0, 1.0)
    A = np.array(draw(st.lists(entries, min_size=d * d, max_size=d * d))).reshape(d, d)
    norm = np.linalg.norm(A, 2)
    if norm > 0:  # |A_ij| <= norm, so A / norm cannot overflow where r / norm can
        A = A / norm * draw(st.floats(0.0, 0.9))
    vectors = st.lists(st.floats(-1e3, 1e3), min_size=d, max_size=d)
    return A, np.array(draw(vectors)), np.array(draw(vectors))


@settings(deadline=None)
@given(case=contractive_affine_maps())
def test_converges_on_contractive_affine_maps(case):
    A, b, x0 = case
    scale = max(1.0, np.abs(b).max(), np.abs(x0).max())
    res = damped_fixed_point(lambda x: A @ x + b, x0, tol=1e-10 * scale)
    assert res.converged  # within the default max_iters, 200
    reference = np.linalg.solve(np.eye(len(b)) - A, b)
    # |x - x*| <= sqrt(d) |A x + b - x| / (1 - ||A||_2) in the sup norm
    assert np.abs(res.value - reference).max() <= 30e-10 * scale


@settings(deadline=None)
@given(case=contractive_affine_maps(max_dim=MEMORY))
def test_ends_within_three_steps_of_the_dimension_on_affine_maps(case):
    """With d <= MEMORY the mixing is GMRES on the affine map: the residual is affine, so the
    d + 1 iterates evaluated first span the affine space that holds the fixed point, the
    next step lands on it up to round-off, and evaluation d + 2 confirms it.  The third
    spare evaluation covers round-off and a difference dropped as nearly dependent."""
    A, b, x0 = case
    scale = max(1.0, np.abs(b).max(), np.abs(x0).max())
    res = damped_fixed_point(lambda x: A @ x + b, x0, tol=1e-10 * scale)
    assert res.converged and res.iterations <= len(b) + 3


def plain_picard(apply_map, x, tol):
    """The fixed point that plain steps x <- map(x) reach."""
    for _ in range(10_000):
        fx = apply_map(x)
        if np.abs(fx - x).max() < tol:
            return fx
        x = fx
    raise AssertionError("plain steps did not converge")


@settings(deadline=None)
@given(start=st.lists(st.floats(0.4, 20.0).flatmap(lambda v: st.sampled_from([v, -v])),
                      min_size=3, max_size=3))
def test_keeps_the_attractor_of_plain_iteration_on_a_bistable_map(start):
    """x -> tanh(3x) has stable points +-0.9949 per component and an unstable one at 0.
    From |x0_i| >= 0.4 plain steps keep each sign; the mixed solve must reach the same
    attractor.  (From 0.01 (1, -1, 3) it converges to 0 instead.)"""
    x0 = np.array(start)
    res = damped_fixed_point(lambda x: np.tanh(3.0 * x), x0, tol=1e-12, max_iters=500)
    assert res.converged
    expected = plain_picard(lambda x: np.tanh(3.0 * x), x0, 1e-12)
    np.testing.assert_allclose(res.value, expected, atol=1e-10)
    assert np.all(np.sign(res.value) == np.sign(x0))
