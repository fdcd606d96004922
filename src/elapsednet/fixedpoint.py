"""Anderson-mixed fixed-point iteration shared by the stimulation couplings and solvers."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


class PicardError(RuntimeError):
    """Fixed-point iteration failed to reach tolerance; carries the residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


MEMORY = 4  # residual differences kept; 1-3 take more map evaluations, 6 no fewer
DEPENDENT = 1e-5  # drop a difference whose Gram pivot is below this share of its norm^2


@dataclass
class PicardResult:
    value: np.ndarray
    residual: float
    iterations: int
    converged: bool
    residual_history: list[float]


def _least_squares(gram: list[list[float]], rhs: list[float], newest: int) -> list[float]:
    """c minimising |f - c @ dF| over the m = len(rhs) ring slots, from rhs = dF f and
    gram[s][t] = dF_s . dF_t (read for t not newer than s), by a plain-float Cholesky that
    puts slot (newest - p) % m at position p; a nearly dependent difference gets c = 0."""
    m, kept = len(rhs), []
    L, c = [[0.0] * m for _ in range(m + 1)], [0.0] * m  # L by position, L[m] = L^-1 rhs
    for j in range(m):
        a, Lj, total = (newest - j) % m, L[j], 0.0
        for k in kept:
            total += Lj[k] * Lj[k]
        if not (pivot := gram[a][a] - total) > DEPENDENT * gram[a][a]:
            continue
        Lj[j] = math.sqrt(pivot)
        for i in range(j + 1, m + 1):
            Li, total = L[i], 0.0
            for k in kept:
                total += Li[k] * Lj[k]
            Li[j] = ((gram[a][(newest - i) % m] if i < m else rhs[a]) - total) / Lj[j]
        kept.append(j)
    for j in reversed(kept):
        total = 0.0
        for i in kept:  # terms i <= j are 0: L is lower triangular, c[j] not yet set
            total += L[i][j] * c[i]
        c[j] = (L[m][j] - total) / L[j][j]
    return [c[(newest - s) % m] for s in range(m)]


def damped_fixed_point(apply_map: Callable[[np.ndarray], np.ndarray], x0: np.ndarray,
                       tol: float, max_iters: int = 200) -> PicardResult:
    """Anderson mixing (type II, memory MEMORY) of x -> map(x), x a 1-D array, until the
    sup-residual |map(x) - x| is below tol; else the last iterate and its residual.

    Each step is the affine combination of the last MEMORY + 1 map values whose residuals
    combine to the least 2-norm, at mixing weight 1: on an affine map of dimension <= MEMORY
    this is GMRES, and ends a few steps past the dimension.  The differences dF of residuals
    and dG of map values fill a ring of MEMORY slots; a step adds one plain-float Gram row
    dF @ dF_new, forms dF @ f and mixes by c @ dG: matrix-vector products only, as the first
    LAPACK or matrix-matrix call faults BLAS pages into RSS.  The memory is never cleared: a
    restart after a rise in residual can cycle on a steep map that mixing solves.  Where the
    map has several stable states, mixing may settle where plain steps do not: on
    x -> tanh(3x) in R^3, from 0.01 (1, -1, 3) it reaches the unstable point 0."""
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if max_iters < 1:
        raise ValueError(f"max_iters must be at least 1, got {max_iters}")
    x = np.array(x0, dtype=float)
    dF, dG = np.empty((MEMORY, x.size)), np.empty((MEMORY, x.size))  # a ring of differences
    gram: list[list[float]] = [[]] * MEMORY  # row s: dF_s . dF_t when s was filled
    history: list[float] = []
    for it in range(1, max_iters + 1):
        gx = np.asarray(apply_map(x), dtype=float)
        f = gx - x
        residual = float(np.abs(f).max())
        history.append(residual)
        if residual < tol:
            return PicardResult(gx, residual, it, True, history)
        step = x + f
        if it > 1:
            m, new = min(it - 1, MEMORY), (it - 2) % MEMORY  # filled slots, newest
            dF[new], dG[new] = f - f_last, gx - g_last
            gram[new] = (dF[:m] @ dF[new]).tolist()
            step -= np.dot(_least_squares(gram, (dF[:m] @ f).tolist(), new), dG[:m])
        x_last, x, f_last, g_last = x, step, f, gx
    return PicardResult(x_last, residual, max_iters, False, history)
