"""Damped Picard iteration shared by the stimulation couplings and solvers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


class PicardError(RuntimeError):
    """Fixed-point iteration failed to reach tolerance; carries the residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


MIN_DAMPING = 1.0 / 64.0


@dataclass
class PicardResult:
    value: np.ndarray
    residual: float
    iterations: int
    converged: bool
    residual_history: list[float]


def damped_fixed_point(
    apply_map: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    tol: float,
    max_iters: int = 200,
    damping: float = 1.0,
) -> PicardResult:
    """Iterate x <- (1 - w) x + w map(x) until the sup-residual drops below tol.

    The damping w starts at `damping` and is halved whenever the residual
    increases (down to MIN_DAMPING), which keeps oscillating inhibitory
    maps convergent well outside the proved contraction regime.
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    x = np.array(x0, dtype=float)
    w = damping
    history: list[float] = []
    last = np.inf
    for it in range(1, max_iters + 1):
        fx = np.asarray(apply_map(x), dtype=float)
        residual = float(np.abs(fx - x).max())
        history.append(residual)
        if residual < tol:
            return PicardResult(fx, residual, it, True, history)
        # non-improving residuals include period-2 cycles, so halve on >= too
        if residual >= last and w > MIN_DAMPING:
            w = max(0.5 * w, MIN_DAMPING)
        last = residual
        x = (1.0 - w) * x + w * fx
    return PicardResult(x, last, max_iters, False, history)
