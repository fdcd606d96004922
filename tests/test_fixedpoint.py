"""Properties of the Anderson-mixed fixed-point solver on maps with known fixed points."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from elapsednet.fixedpoint import DEPENDENT, MEMORY, _least_squares, damped_fixed_point

EPS = np.finfo(float).eps


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


@pytest.mark.parametrize("tol", [0.0, -1e-12, float("nan")])
def test_refuses_a_tolerance_that_is_not_positive(tol):
    with pytest.raises(ValueError, match="tol must be positive"):
        damped_fixed_point(lambda x: 0.5 * x, np.zeros(2), tol=tol)


@pytest.mark.parametrize("max_iters", [0, -1])
def test_refuses_fewer_than_one_iteration(max_iters):
    with pytest.raises(ValueError, match="max_iters must be at least 1"):
        damped_fixed_point(lambda x: 0.5 * x, np.zeros(2), tol=1e-12, max_iters=max_iters)


def test_converges_without_a_lapack_call(monkeypatch):
    """The least squares runs on plain floats, as the first LAPACK call faults BLAS pages
    into the resident memory of the process: with numpy's dense solvers made to raise, a
    64-dimensional contractive affine map must still be solved."""
    rng = np.random.default_rng(7)
    A = rng.standard_normal((64, 64))
    A *= 0.9 / np.linalg.norm(A, 2)
    b = rng.standard_normal(64)
    reference = np.linalg.solve(np.eye(64) - A, b)

    def refuse(*args, **kwargs):
        raise AssertionError("the solver called LAPACK")

    for name in ("solve", "lstsq", "cholesky", "qr", "inv"):
        monkeypatch.setattr(np.linalg, name, refuse)
    res = damped_fixed_point(lambda x: A @ x + b, np.zeros(64), tol=1e-10)
    assert res.converged and res.iterations >= 5
    assert np.abs(res.value - reference).max() <= 80e-10  # sqrt(64) tol / (1 - 0.9)


@st.composite
def newest_first_differences(draw):
    """(dF, f): 1 to MEMORY differences dF[p], newest first, of length n >= m + 4, each row
    scaled by 10^-6..10^6.  An older difference is free, zero, a multiple of a newer one, in
    the span of two newer ones (0.5 dF[a] + 1e-7 dF[b], exactly dependent), nearly dependent
    (0.5 dF[a] plus noise at 1e-7 of its size) or weakly dependent (noise at 3e-2: kept)."""
    m = draw(st.integers(1, MEMORY))
    n = draw(st.integers(m + 4, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dF = rng.standard_normal((m, n))
    for j in range(1, m):
        kind = draw(st.sampled_from(["free", "zero", "multiple", "span", "near", "weak"]))
        a, b = draw(st.integers(0, j - 1)), draw(st.integers(0, j - 1))
        size = np.abs(dF[a]).max()
        dF[j] = {"free": dF[j], "zero": 0.0 * dF[j], "multiple": -2.5 * dF[a],
                 "span": 0.5 * dF[a] + 1e-7 * dF[b],
                 "near": 0.5 * dF[a] + 1e-7 * size * rng.standard_normal(n),
                 "weak": 0.5 * dF[a] + 3e-2 * size * rng.standard_normal(n)}[kind]
    dF *= 10.0 ** np.array([draw(st.floats(-6.0, 6.0)) for _ in range(m)])[:, None]
    return dF, rng.standard_normal(n) * 10.0 ** draw(st.floats(-6.0, 6.0))


def unit_rows(rows):
    return rows / np.sqrt(np.sum(rows**2, axis=1))[:, None]


def expected_kept(dF):
    """Positions kept by the newest-first rule: those whose share of |dF[p]|^2 off the span
    of the kept newer ones exceeds DEPENDENT; drawn cases within 10x of it are skipped.  The
    span is taken on unit rows, as lstsq loses accuracy on columns of unlike sizes."""
    kept = []
    for p, row in enumerate(dF):
        if not row.any():
            continue
        share = 1.0
        if kept:
            basis, unit = unit_rows(dF[kept]), row / np.sqrt(row @ row)
            share = np.sum((unit - np.linalg.lstsq(basis.T, unit, rcond=None)[0] @ basis) ** 2)
        assume(not DEPENDENT / 10 <= share <= 10 * DEPENDENT)
        if share > DEPENDENT:
            kept.append(p)
    return kept


@settings(deadline=None)
@given(case=newest_first_differences())
def test_least_squares_matches_lstsq_in_every_ring_rotation(case):
    """Each rotation of the ring (position p in slot (newest - p) % m) gives the same
    coefficients; a dropped difference gets exactly 0, and the kept ones match lstsq.

    Round-off bound, from the scaled columns A = dF[kept]^T D^-1, D = diag |dF[p]|: forming
    the Gram matrix and dF f perturbs each scaled entry by at most n eps |entries|, and the
    Cholesky of a k x k system adds a backward error of (k + 1) eps per scaled entry
    (Higham, Accuracy and Stability, Thm. 10.3), so
    |D (c - c*)| <= k (n + k + 1) eps (|D c*| + |f|) / lambda_min(A^T A).
    lstsq runs on A itself, whose conditioning does not depend on the row scales.  Over
    20,000 draws of this strategy the error used at most 0.29 of the bound."""
    dF, f = case
    m, n = dF.shape
    kept = expected_kept(dF)
    gram, rhs = [(dF @ row).tolist() for row in dF], (dF @ f).tolist()
    rotations = []
    for newest in range(m):
        position = [(newest - s) % m for s in range(m)]  # of the difference in slot s
        c = _least_squares([[gram[position[s]][position[t]] for t in range(m)]
                            for s in range(m)], [rhs[position[s]] for s in range(m)], newest)
        rotations.append([c[(newest - p) % m] for p in range(m)])
    assert all(c == rotations[0] for c in rotations)
    c = np.array(rotations[0])
    assert all(c[p] == 0.0 for p in range(m) if p not in kept)
    if kept:
        norms, scaled = np.sqrt(np.sum(dF[kept] ** 2, axis=1)), unit_rows(dF[kept]).T
        reference = np.linalg.lstsq(scaled, f, rcond=None)[0]
        lam = np.linalg.svd(scaled, compute_uv=False)[-1] ** 2
        k = len(kept)
        bound = k * (n + k + 1) * EPS * (np.linalg.norm(reference) + np.linalg.norm(f)) / lam
        assert np.linalg.norm(norms * c[kept] - reference) <= bound
