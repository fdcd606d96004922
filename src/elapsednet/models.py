"""Firing-rate families p(s, S), the survival normalization F, learning rules
G and external inputs.

Two rate families are provided.  The step family fires at the full rate
p_inf once the elapsed time exceeds a stimulation-dependent threshold
sigma(S); the smooth family replaces the jump with a clamped-cubic ramp of
width theta and is floored so the lower bound p >= p_star for s > s_star
holds by construction.  F(S) is the reciprocal mean inter-discharge time at
frozen stimulation S and links S to the stationary activity via N = g F(S).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .grids import AgeGrid, FieldError, GridError, SpatialGrid


class ModelError(FieldError, ValueError):
    """Invalid model descriptor."""


def _require_finite(owner: object, names: tuple[str, ...]) -> None:
    """Refuse a NaN or infinite value in each named field that is set."""
    for name in names:
        value = getattr(owner, name)
        if value is not None and not math.isfinite(value):
            raise ModelError(f"{name} must be finite, got {value}", field=name)


@dataclass(frozen=True)
class SigmaMap:
    """Firing threshold sigma(S): identity, bounded min(S+, sigma_max) or constant."""

    kind: str = "identity"
    sigma_max: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("identity", "bounded", "constant"):
            raise ModelError(f"unknown sigma kind: {self.kind!r}", field="kind")
        if self.sigma_max is not None and math.isnan(self.sigma_max):  # +inf: identity's limit
            raise ModelError("sigma_max must be a number, got nan", field="sigma_max")
        if self.kind != "identity" and (self.sigma_max is None or self.sigma_max < 0):
            raise ModelError(f"sigma kind {self.kind!r} needs sigma_max >= 0", field="sigma_max")

    def __call__(self, S):
        S = np.asarray(S, dtype=float)
        if self.kind == "identity":
            out = np.maximum(S, 0.0)
        elif self.kind == "bounded":
            out = np.minimum(np.maximum(S, 0.0), self.sigma_max)
        else:
            out = np.full_like(S, self.sigma_max)
        return float(out) if out.ndim == 0 else out

    @property
    def lipschitz(self) -> float:
        return 0.0 if self.kind == "constant" else 1.0


def _by_column(s: np.ndarray, S) -> np.ndarray:
    """The ages s lined up against S: a column, one S value per column, for an array S;
    as given for a scalar S."""
    return s[:, None] if np.ndim(S) else s


def _smoothstep(u: np.ndarray) -> np.ndarray:
    u = np.minimum(np.maximum(u, 0.0), 1.0)
    return u * u * (3.0 - 2.0 * u)


@dataclass(frozen=True)
class FiringRateModel:
    """Discharge hazard p(s, S) with its structural constants.

    kind 'step':    p = p_inf * 1_{s > sigma(S)}  (p_star = p_inf, s_star = sup sigma)
    kind 'smooth':  p = max(p_inf * ramp((s - sigma(S)) / theta), p_star * 1_{s > s_star})
    """

    kind: str
    p_inf: float
    sigma: SigmaMap
    p_star: float | None = None
    s_star: float | None = None
    theta: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("step", "smooth"):
            raise ModelError(f"unknown rate kind: {self.kind!r}", field="kind")
        _require_finite(self, ("p_inf", "p_star", "s_star", "theta"))
        if self.p_inf <= 0:
            raise ModelError(f"p_inf must be positive, got {self.p_inf}", field="p_inf")
        if self.kind == "smooth":
            if self.theta is None or self.theta <= 0:
                raise ModelError("smooth rate needs a positive width theta", field="theta")
            if self.p_star is None or self.s_star is None:
                raise ModelError("smooth rate needs explicit p_star and s_star",
                                 field="p_star" if self.p_star is None else "s_star")
        if self.p_star is not None and not 0 <= self.p_star <= self.p_inf:
            raise ModelError(f"p_star must lie in [0, p_inf], got {self.p_star}", field="p_star")

    @property
    def dpdS_bound(self) -> float | None:
        """sup |dp/dS| of the smooth rate, p_inf ||sigma'|| / theta times the smoothstep's
        steepest slope 3/2; None for the step rate, which jumps."""
        return None if self.kind == "step" else 1.5 * self.p_inf * self.sigma.lipschitz / self.theta

    @property
    def lower_rate(self) -> float:
        return self.p_inf if self.p_star is None else self.p_star

    def pulse_age(self, s_lo: float, s_hi: float) -> float:
        """s_star valid on the reachable stimulation interval [s_lo, s_hi]: sigma is
        nondecreasing, so the step rate's is sigma(s_hi)."""
        return self.sigma(s_hi) if self.s_star is None else self.s_star

    def evaluate(self, s, S):
        """p(s, S); total function with values in [0, p_inf]."""
        s = np.asarray(s, dtype=float)
        sig = self.sigma(S)
        if self.kind == "step":
            out = np.where(s > sig, self.p_inf, 0.0)
        else:
            out = self.p_inf * _smoothstep((s - sig) / self.theta)
            floor = np.where(s > self.s_star, self.p_star, 0.0)
            out = np.maximum(out, floor)
        return float(out) if np.ndim(out) == 0 else out

    def interval_rates(self, age: AgeGrid, S, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """Mean rate over each age interval (s_{i-1}, s_i], shape (ns-1, [nx]), or over
        the rows lo..hi - 1 only.

        For the step kind the cell containing sigma(S) gets the exact
        fractional overlap of the interval with (sigma, inf), which removes
        the staircase dependence of the activity on sigma.
        """
        edges = _by_column(np.arange(lo, age.ns if hi is None else hi + 1) * age.ds, S)
        if self.kind == "step":
            out = np.divide(np.subtract(edges[1:], self.sigma(S)), age.ds)
            np.minimum(1.0, np.maximum(0.0, out, out=out), out=out)
            return np.multiply(out, self.p_inf, out=out)
        p = self.evaluate(edges, S)
        return np.multiply(np.add(p[:-1], p[1:]), 0.5)

    def node_rates(self, age: AgeGrid, S) -> np.ndarray:
        """Per-node rates for trapezoid quadratures of the discharge integral."""
        s = _by_column(age.nodes, S)
        if self.kind == "step":
            lo = np.maximum(s - 0.5 * age.ds, 0.0)
            hi = s + 0.5 * age.ds
            return self.p_inf * np.clip((hi - self.sigma(S)) / (hi - lo), 0.0, 1.0)
        return self.evaluate(s, S)

    def cumulative_hazard(self, s: np.ndarray, S) -> np.ndarray:
        """Integral of p(u, S) for u in [0, s]; closed form for the step kind."""
        s = _by_column(np.asarray(s, dtype=float), S)
        if self.kind == "step":
            return self.p_inf * np.maximum(s - self.sigma(S), 0.0)
        p = self.evaluate(s, S)
        out = np.empty_like(p)
        out[:1] = 0.0
        np.cumsum(0.5 * (p[1:] + p[:-1]) * (s[1:] - s[:-1]), axis=0, out=out[1:])
        return out

    def limit_model(self) -> "FiringRateModel":
        """The frozen large-stimulation rate p(s, inf) as a constant-threshold model."""
        return replace(self, sigma=SigmaMap("constant", sigma_max=self.sigma(np.inf)))


def slaved_profile(model: FiringRateModel, age: AgeGrid, S, g) -> np.ndarray:
    """e^{-H(s, S)} per column, scaled to trapezoid mass g (age.weights @ profile == g): the
    stationary density and the density slaved to S in the slow-learning limit."""
    profile = np.exp(-model.cumulative_hazard(age.nodes, S))
    return profile * (g / (age.weights @ profile))


RAMP_INTERVALS = 128  # quadrature intervals across a ramp of hazard rise p_inf * theta <= 1
MAX_RAMP_REFINE = 64  # caps the cost of one point on very steep ramps


def survival_F(model: FiringRateModel, S):
    """F(S) = (integral of exp(-hazard(s)) ds)^(-1), the stationary discharge rate.

    Step kind uses the closed form 1 / (1/p_inf + sigma(S)).  For the smooth
    kind the rate is the floor p_star 1_{s > s_star} below sigma and exactly
    p_inf above sigma + theta, so with x = (sigma - s_star)+ (a negative s_star
    counts as 0)

        1/F = min(sigma, s_star) + (1 - e^{-p_star x}) / p_star
              + int_sigma^{sigma+theta} e^{-H} ds + e^{-H(sigma+theta)} / p_inf,

    and only the ramp term is a quadrature, with s_star (and the next double,
    where the floor switches on) added as nodes when it falls inside the
    ramp: H from the trapezoid rule at the nodes, and e^{-H} integrated
    exactly for H linear between them, so a flat stretch of the rate adds no
    error and F stays non-increasing in S where it is constant (p_star =
    p_inf, s_star <= sigma).  The error of the trapezoid hazard grows like
    p_inf theta / n^2 on n intervals, so the ramp gets RAMP_INTERVALS times
    ceil(sqrt(p_inf theta)) of them (at least once, as p_inf theta underflows
    for a subnormal p_inf, and at most MAX_RAMP_REFINE times).

    All points share one (points x nodes) array pass; only H is formed per
    point.  A scalar S gives a float.
    """
    if model.kind == "step":
        sig = model.sigma(S)
        return 1.0 / (1.0 / model.p_inf + sig)
    S_arr = np.asarray(S, dtype=float)
    S_flat = S_arr.reshape(-1)
    theta, p_star, s_star = model.theta, model.p_star, model.s_star
    sig = model.sigma(S_flat)
    s_on = max(s_star, 0.0)  # the floor holds on (s_on, sigma)
    x = np.maximum(sig - s_on, 0.0)
    z = p_star * x  # ratio first: (1 - e^{-z}) / p_star fails once z underflows
    ratio = np.divide(-np.expm1(-z), z, out=np.ones_like(z), where=z > 0)
    below = np.minimum(sig, s_on) + x * ratio
    refine = max(1, math.ceil(min(math.sqrt(model.p_inf * theta), MAX_RAMP_REFINE)))
    intervals = RAMP_INTERVALS * refine
    windows = np.empty((S_flat.size, intervals + 3))
    np.add(sig[:, None], theta * np.linspace(0.0, 1.0, intervals + 1), out=windows[:, :-2])
    windows[:, -2:] = windows[:, -3:-2]  # zero-width, or s_star's nodes on a split ramp
    split = (sig <= s_star) & (s_star < sig + theta)
    if split.any():
        windows[split, -2:] = (s_star, np.nextafter(s_star, np.inf))
        windows[split] = np.sort(windows[split], axis=1)
    hazard = np.empty_like(windows)
    for k, S_k in enumerate(S_flat.tolist()):
        hazard[k] = model.cumulative_hazard(windows[k], S_k)
    hazard += (p_star * x)[:, None]
    # e^{-H} integrated exactly between nodes with H linear there:
    # h e^{-H_a} (1 - e^{-rise}) / rise, whose limit at rise = 0 the 1e-300 gives;
    # formed in place, so that at most four (points x nodes) arrays are alive
    rise = hazard[:, 1:] - hazard[:, :-1]
    rise += 1e-300
    weights = np.negative(rise)
    np.expm1(weights, out=weights)
    np.negative(weights, out=weights)
    weights /= rise
    h = np.subtract(windows[:, 1:], windows[:, :-1], out=rise)
    h[~split, :-2] = theta / intervals  # the uniform width itself, not a difference of nodes
    weights *= h
    survival = np.exp(np.negative(hazard, out=hazard), out=hazard)
    ramp = (survival[:, None, :-1] @ weights[:, :, None])[:, 0, 0]
    with np.errstate(over="ignore"):  # a subnormal p_inf: the last term is inf and F = 0
        F = 1.0 / (below + ramp + survival[:, -1] / model.p_inf)
    return float(F[0]) if S_arr.ndim == 0 else F.reshape(S_arr.shape)


def F_bounds(model: FiringRateModel, S_lo: float, S_hi: float) -> tuple[float, float]:
    """Bounds (sup |F'|, sup F) over [S_lo, S_hi]: (F(S0)^2, F(S_lo)), with S0 the lowest S
    of the band where sigma rises (S >= 0, below a bounded map's cap), or 0 for the slope
    where it never does.

    Both rate kinds are p(s, S) = max(p_inf ramp((s - sigma(S)) / theta), floor(s)), the
    step's ramp a unit jump and its floor 0, and the floor does not depend on S.  So
    |dH/dS| <= sigma' p_inf ramp(..) <= sigma' p, and |d(1/F)/dS| <= sigma' int p e^{-H} ds
    <= sigma', which is |F'| <= sigma' F^2; p, and with it F, does not increase with S.
    For the step kind, F = 1/(1/p_inf + sigma(S)), both bounds are exact.
    """
    S_hi = max(S_hi, S_lo + 1e-9)  # degenerate band: probe a point neighborhood
    S0 = max(S_lo, 0.0)
    rises = model.sigma.lipschitz > 0 and S0 < min(S_hi, model.sigma(np.inf))
    F0 = survival_F(model, S0)
    return F0 * F0 if rises else 0.0, survival_F(model, S_lo)


@dataclass(frozen=True)
class LearningRule:
    """Symmetric learning rule G and connectivity gain gamma.

    'hebbian':          G(a, b) = a * b
    'gaussian_sigmoid': G(a, b) = exp(-(a-b)^2) / (1 + exp(-2ab + 2)), values in (0, 1)
    """

    kind: str
    gamma: float

    def __post_init__(self) -> None:
        if self.kind not in ("hebbian", "gaussian_sigmoid"):
            raise ModelError(f"unknown learning rule: {self.kind!r}", field="kind")
        _require_finite(self, ("gamma",))
        if self.gamma < 0:
            raise ModelError(f"gamma must be nonnegative, got {self.gamma}", field="gamma")

    def evaluate(self, Na, Nb):
        Na = np.asarray(Na, dtype=float)
        Nb = np.asarray(Nb, dtype=float)
        if self.kind == "hebbian":
            out = Na * Nb
        else:
            out = np.exp(-((Na - Nb) ** 2)) / (1.0 + np.exp(-2.0 * Na * Nb + 2.0))
        return float(out) if out.ndim == 0 else out

    def kernel_target(self, N: np.ndarray) -> np.ndarray:
        """The relaxation target gamma * G(N(x), N(y)) of the kernel dynamics."""
        N = np.asarray(N, dtype=float)
        return self.gamma * self.evaluate(N[:, None], N[None, :])

    def relax(self, w: np.ndarray, N: np.ndarray, decay: float) -> None:
        """w <- decay w + (1 - decay) kernel_target(N), in place and rounded as written."""
        target = self.kernel_target(N)
        target *= 1.0 - decay
        w *= decay
        w += target

    def kernel_bound(self, w0_max: float) -> float:
        """The uniform kernel bound A = max(||w0||_inf, gamma), taking G <= 1 where N reaches."""
        return max(w0_max, self.gamma)

    def warn_if_unnormalized(self, N_max: float) -> None:
        """The Hebbian rule can exceed 1 on large activities; warn, never reject.  A rule of
        gain 0 never moves the kernel and stays silent."""
        g_max = float(self.evaluate(N_max, N_max))
        if self.gamma > 0 and g_max > 1.0 + 1e-12:
            warnings.warn(
                f"learning rule {self.kind!r} reaches {g_max:.3g} > 1 on the reachable "
                f"activity range; the uniform kernel bound max(||w0||, gamma*G) applies",
                stacklevel=4,  # past `nonlinear_steps` and its driver, to the driver's caller
            )


@dataclass(frozen=True)
class InputModel:
    """External input I(x) = k * amplitude * profile(x), constant in time.

    kinds: 'constant' (profile 1), 'sin_squared' (profile sin^2(2 pi x)),
    'table' (given per-node values times k).
    """

    kind: str
    amplitude: float = 1.0
    k: float = 1.0
    table: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("constant", "sin_squared", "table"):
            raise ModelError(f"unknown input kind: {self.kind!r}", field="kind")
        _require_finite(self, ("amplitude", "k"))
        if self.table is not None and not np.all(np.isfinite(self.table)):
            raise ModelError(f"input table must be finite, got {self.table}", field="table")
        if self.kind == "table" and self.table is None:
            raise ModelError("table input needs explicit values", field="table")
        if self.kind != "table" and self.amplitude < 0:
            raise ModelError(f"built-in inputs need amplitude >= 0, got {self.amplitude}",
                             field="amplitude")
        scaled = self.table if self.kind == "table" else (self.amplitude,)  # profiles in [0, 1]
        if not all(math.isfinite(self.k * float(v)) for v in scaled):
            raise ModelError(f"k = {self.k} makes the input overflow to infinity", field="k")

    def evaluate(self, space: SpatialGrid) -> np.ndarray:
        if self.kind == "table":
            vals = np.asarray(self.table, dtype=float)
            if vals.shape != (space.nx,):
                raise ModelError(
                    f"input table has {vals.size} entries, grid needs {space.nx}", field="table"
                )
            return self.k * vals
        if self.kind == "sin_squared":
            profile = np.sin(2.0 * np.pi * space.nodes) ** 2
        else:
            profile = np.ones(space.nx)
        return self.k * self.amplitude * profile

    def scaled_by(self, k: float) -> "InputModel":
        return InputModel(self.kind, self.amplitude, self.k * k, self.table)


def stimulation_bounds(
    model: FiringRateModel,
    rule: LearningRule,
    w0_max: float,
    g_max: float,
    input_values: np.ndarray,
) -> tuple[float, float]:
    """A-priori reachable stimulation interval [min I, A p_inf ||g|| + max I].

    A = `rule.kernel_bound(w0_max)` is the uniform kernel bound and p_inf ||g||_inf
    bounds the activity, so S = integral(w N) + I stays in this band.
    """
    A = rule.kernel_bound(w0_max)
    lo = float(np.min(input_values))
    hi = A * model.p_inf * g_max + float(np.max(input_values))
    return lo, hi


def check_reachable_threshold(age: AgeGrid, model: FiringRateModel, rule: LearningRule,
                              w0_max: float, g_max: float, input_values: np.ndarray) -> None:
    """Refuse an age domain that the firing threshold can reach: s_max must exceed
    sup sigma over the stimulation band of `stimulation_bounds`.  A threshold infinite
    on the whole band (a constant sigma = inf) never fires and is pure transport."""
    lo, hi = stimulation_bounds(model, rule, w0_max, g_max, input_values)
    threshold = model.sigma(hi)
    if threshold >= age.s_max and model.sigma(lo) < np.inf:
        raise GridError(
            f"s_max = {age.s_max} must strictly exceed the reachable firing "
            f"threshold {threshold:.6g} (stimulation bound {hi:.6g})", field="s_max",
        )
