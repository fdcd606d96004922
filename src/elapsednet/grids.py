"""Grids, field containers, quadrature and norms shared by all solvers.

The spatial domain is the unit interval, split into ``nx`` uniform cells with nodes
at the cell midpoints; integrals over position use the cell-width weights
(exact for constants, second order for smooth integrands).  The age domain
[0, s_max) carries ``ns`` uniform nodes starting at s=0 so the renewal
boundary value participates in every activity integral; integrals over age
use the composite trapezoid rule, which is exact for piecewise-linear
integrands with kinks at the nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class FieldError(Exception):
    """A refused value; `field` names the attribute or argument that holds it."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


class GridError(FieldError, ValueError):
    """Inconsistent grid parameters or mismatched field shapes."""


def whole_steps(t: float, dt: float, field: str = "t_end") -> int:
    """The number of steps of size dt that make up t, refused with a GridError naming
    `field` unless t is a whole multiple of dt to a relative 1e-9."""
    steps = int(round(t / dt))
    if abs(steps * dt - t) > 1e-9 * max(1.0, t):
        raise GridError(f"{field} = {t} is not a multiple of dt = {dt}", field=field)
    return steps


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform cell-midpoint grid on the unit interval (0, 1), so |Omega| = 1."""

    nx: int

    def __post_init__(self) -> None:
        if self.nx < 1:
            raise GridError(f"nx must be a positive integer, got {self.nx}", field="nx")

    @property
    def dx(self) -> float:
        return 1.0 / self.nx

    @property
    def nodes(self) -> np.ndarray:
        return (np.arange(self.nx) + 0.5) * self.dx

    @property
    def weights(self) -> np.ndarray:
        return np.full(self.nx, self.dx)

    def integrate(self, values: np.ndarray):
        """Cell-weight quadrature over x; last axis must match the grid."""
        values = np.asarray(values, dtype=float)
        if values.shape[-1] != self.nx:
            raise GridError(f"expected last axis {self.nx}, got {values.shape}", field="values")
        out = np.sum(values * self.weights, axis=-1)
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class AgeGrid:
    """Uniform age nodes s_j = j*ds, j = 0..ns-1, truncating [0, inf) at s_max.

    The last node owns the tail: solvers treat it as an absorbing cell so
    that no mass ever leaves the truncated domain through s_max.
    """

    ns: int
    s_max: float

    def __post_init__(self) -> None:
        if self.ns < 2:
            raise GridError(f"ns must be at least 2, got {self.ns}", field="ns")
        if not 0 < self.s_max < np.inf:
            raise GridError(f"s_max must be positive and finite, got {self.s_max}", field="s_max")

    @property
    def ds(self) -> float:
        return self.s_max / self.ns

    @property
    def nodes(self) -> np.ndarray:
        return np.arange(self.ns) * self.ds

    @property
    def weights(self) -> np.ndarray:
        w = np.full(self.ns, self.ds)
        w[0] = 0.5 * self.ds
        w[-1] = 0.5 * self.ds
        return w

    def integrate(self, values: np.ndarray) -> np.ndarray:
        """Trapezoid quadrature over age; `values` is (ns,) or (ns, nx)."""
        values = np.asarray(values, dtype=float)
        if values.shape[0] != self.ns:
            raise GridError(f"expected leading axis {self.ns}, got {values.shape}", field="values")
        out = np.tensordot(self.weights, values, axes=(0, 0))
        return float(out) if out.ndim == 0 else out


@dataclass
class DensityField:
    """Density n(s, x) sampled on (age node, space node); the simulation state.

    Entries are probability density per unit age per unit position; they stay
    nonnegative under the solvers and each column's age-integral is the
    conserved mass profile g(x).
    """

    values: np.ndarray
    age: AgeGrid
    space: SpatialGrid

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.age.ns, self.space.nx):
            raise GridError(
                f"density shape {self.values.shape} does not match grid "
                f"({self.age.ns}, {self.space.nx})", field="values"
            )

    @classmethod
    def from_function(cls, age: AgeGrid, space: SpatialGrid, fn) -> "DensityField":
        s = age.nodes[:, None]
        x = space.nodes[None, :]
        return cls(np.asarray(fn(s, x), dtype=float) * np.ones((age.ns, space.nx)), age, space)

    def copy(self) -> "DensityField":
        return DensityField(self.values.copy(), self.age, self.space)

    def mass(self) -> np.ndarray:
        """Per-column age integral (the conserved profile g)."""
        return self.age.integrate(self.values)

    def normalize_mass(self, target: np.ndarray | float = 1.0) -> "DensityField":
        """Rescale each column so its discrete age-integral equals `target`."""
        current = self.mass()
        if np.any(current <= 0):
            raise GridError("cannot normalize a column with nonpositive mass", field="values")
        self.values *= np.asarray(target, dtype=float) / current
        return self


@dataclass
class ConnectivityKernel:
    """Connectivity w(x, y) on (space node, space node); the learning state."""

    values: np.ndarray
    space: SpatialGrid

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.space.nx, self.space.nx):
            raise GridError(
                f"kernel shape {self.values.shape} does not match grid "
                f"({self.space.nx}, {self.space.nx})", field="values"
            )

    @classmethod
    def from_function(cls, space: SpatialGrid, fn) -> "ConnectivityKernel":
        x = space.nodes[:, None]
        y = space.nodes[None, :]
        return cls(np.asarray(fn(x, y), dtype=float) * np.ones((space.nx, space.nx)), space)

    @classmethod
    def constant(cls, space: SpatialGrid, value: float) -> "ConnectivityKernel":
        return cls(np.full((space.nx, space.nx), float(value)), space)

    def copy(self) -> "ConnectivityKernel":
        return ConnectivityKernel(self.values.copy(), self.space)

    def mean(self) -> float:
        """Domain-averaged kernel value <w>, the double integral of w over |Omega| = 1."""
        w = self.space.weights
        return float(w @ self.values @ w)

    def deviation_from_mean(self) -> float:
        """Sup-norm distance of w from its domain average <w>."""
        return float(np.abs(self.values - self.mean()).max())


def norms(a: DensityField, b: DensityField) -> dict[str, float]:
    """Distances L1_sx, Linf and Linf_x_L1_s between two same-shaped density
    fields, using the module quadratures."""
    if not (isinstance(a, DensityField) and isinstance(b, DensityField)):
        raise GridError(f"unsupported field pair: {type(a).__name__}, {type(b).__name__}")
    if a.values.shape != b.values.shape:
        raise GridError("density shape mismatch")
    diff = np.abs(a.values - b.values)
    per_x = a.age.integrate(diff)
    return {
        "L1_sx": float(a.space.integrate(per_x)),
        "Linf": float(diff.max()),
        "Linf_x_L1_s": float(per_x.max()),
    }
