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


def _least_squares(gram: list[list[float]], rhs: list[float]) -> list[float]:
    """Minimise |f - c @ dF| from gram = dF dF^T and rhs = dF f by a Cholesky on plain
    floats; a difference nearly dependent on the earlier ones is dropped (its c is 0),
    which bounds the coefficients."""
    L = [[0.0] * len(rhs) for _ in rhs]
    y, c, kept = [0.0] * len(rhs), [0.0] * len(rhs), []
    for j, row in enumerate(gram):
        pivot = row[j] - sum(L[j][k] ** 2 for k in kept)
        if not pivot > DEPENDENT * row[j]:
            continue
        L[j][j] = math.sqrt(pivot)
        for i in range(j + 1, len(rhs)):
            L[i][j] = (gram[i][j] - sum(L[i][k] * L[j][k] for k in kept)) / L[j][j]
        y[j] = (rhs[j] - sum(L[j][k] * y[k] for k in kept)) / L[j][j]
        kept.append(j)
    for j in reversed(kept):
        c[j] = (y[j] - sum(L[i][j] * c[i] for i in kept if i > j)) / L[j][j]
    return c


def damped_fixed_point(
    apply_map: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    tol: float,
    max_iters: int = 200,
) -> PicardResult:
    """Anderson mixing (type II, memory MEMORY) of x -> map(x), x a 1-D array, until the
    sup-residual |map(x) - x| is below tol; without convergence, the last iterate and its
    residual.

    Each step is the affine combination of the last MEMORY + 1 map values whose residuals
    combine to the least 2-norm, at mixing weight 1: on an affine map of dimension
    <= MEMORY this is GMRES, and ends a few steps past the dimension.  The memory is never
    cleared: a restart after a rise in residual, with its plain step map(x), can cycle on a
    steep map that mixing solves.  Where the map has several stable states, mixing may
    settle where plain steps do not: on x -> tanh(3x) in R^3 it converged from
    0.01 (1, -1, 3) to the unstable point 0, and from 0.1 (1, -1, 3) to another sign pattern.
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    x = np.array(x0, dtype=float)
    dF, dG = np.empty((MEMORY, x.size)), np.empty((MEMORY, x.size))  # newest first
    x_last, residual = x, np.inf
    history: list[float] = []
    for it in range(1, max_iters + 1):
        gx = np.asarray(apply_map(x), dtype=float)
        f = gx - x
        residual = float(np.abs(f).max())
        history.append(residual)
        if residual < tol:
            return PicardResult(gx, residual, it, True, history)
        step = x + f
        m = min(it - 1, MEMORY)
        if m:
            dF[1:], dG[1:] = dF[:-1], dG[:-1]
            dF[0], dG[0] = f - f_last, gx - g_last
            # matrix-vector products only: lstsq, solve and dgemm fault BLAS pages into RSS
            c = np.array(_least_squares([(dF[:m] @ row).tolist() for row in dF[:m]],
                                        (dF[:m] @ f).tolist()))
            step -= c @ dG[:m]
        x_last, x, f_last, g_last = x, step, f, gx
    return PicardResult(x_last, residual, max_iters, False, history)
