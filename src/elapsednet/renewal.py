"""Time integration of the elapsed-time network and a characteristics oracle.

The transport update is an explicit upwind sweep along age.  Per step the
discharge integral and the renewal boundary injection use the identical
interval quadrature

    N = sum_i ds * r_i * (n_{i-1} + n_i) / 2,

with r_i the mean firing rate over the i-th age interval, so the mass a
column loses to discharge exactly equals the mass injected at s = 0.  The
last age node is absorbing (it receives the upwind flux and keeps
discharging), hence nothing leaks through the domain truncation: the
discrete column mass is conserved to round-off when dt = eps * ds / 2 and
drifts only by the telescoped boundary mismatch (N - n_0)(ds/2 - dt/eps)
otherwise.  Pairing the loss term with the same interval means gives the
scheme a Crank-Nicolson stationary profile, accurate to O(ds^2).

One `Stepper` takes every upwind step in place, as new_i = A_i n_i +
B_i n_{i-1} with B = lam - dt r_i/(2 eps) and A = B + 1 - 2 lam, in blocks of
rows that stay in cache.  At a given S every interval below a band of rows
fires at exactly 0 and every one above it at exactly p_inf; for the step rate
the band is the threshold cells and the cell above them.  Those two zones are
swept with scalar coefficients, and N is the band's product plus p_inf times
one column sum over the top zone.  For the step rate each trial activity of an
iterated coupling costs O(nx), from the suffix sums C_k of the interval means,
formed by blocks of rows up to the highest threshold cell the trials reach.

The connectivity kernel relaxes toward gamma * G(N(x), N(y)) and is advanced
by the exact one-step exponential formula with the activity frozen over the
step, which is unconditionally stable.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .fixedpoint import PicardError, damped_fixed_point
from .grids import (AgeGrid, ConnectivityKernel, DensityField, FieldError, GridError,
                    SpatialGrid, whole_steps)
from .models import FiringRateModel, InputModel, LearningRule, ModelError


class CFLError(FieldError, RuntimeError):
    """Explicit step too large for the upwind stability/positivity bound."""


class NegativeDensityError(RuntimeError):
    """Density below the -1e-12 sentinel or NaN: scheme instability, not round-off."""


NEGATIVE_SENTINEL = -1e-12
BLOCK_ROWS = 512  # rows per block of a Stepper sweep: a block of each buffer stays in L2
SUFFIX_ROWS = 64  # rows per block of the step-rate suffix sums, formed as trials reach them


@dataclass(frozen=True)
class PicardOptions:
    mode: str = "lagged"
    tol: float = 1e-10
    max_iters: int = 200

    def __post_init__(self) -> None:
        if self.mode not in ("lagged", "iterate"):
            raise ModelError(f"unknown picard mode: {self.mode!r}", field="mode")
        if not 0 < self.tol < np.inf:
            raise ModelError(f"tol must be positive and finite, got {self.tol}", field="tol")
        if self.max_iters < 1:
            raise ModelError(f"max_iters must be >= 1, got {self.max_iters}", field="max_iters")


@dataclass(frozen=True)
class SolverConfig:
    dt: float
    epsilon: float = 1.0
    picard: PicardOptions = field(default_factory=PicardOptions)

    def __post_init__(self) -> None:
        # epsilon first: an auto dt is epsilon ds / 2, so a bad epsilon makes a bad dt
        if not 0 < self.epsilon <= 1:
            raise ModelError(f"epsilon must lie in (0, 1], got {self.epsilon}", field="epsilon")
        if not 0 < self.dt < np.inf:
            raise ModelError(f"dt must be positive and finite, got {self.dt}", field="dt")

    def validate(self, age: AgeGrid, model: FiringRateModel) -> None:
        """Stability checks of the step: dt*p_inf <= 1, dt/eps <= ds and ds*p_inf <= 2.

        The sharper positivity bound dt/(eps*ds) + dt*r/(2*eps) <= 1 is
        enforced per step against the rates actually present on the grid
        (see Stepper.advance); a threshold above s_max legitimately makes
        the step pure transport where lam = 1 is exact.
        """
        if self.dt * model.p_inf > 1.0 + 1e-12:
            raise CFLError(
                f"dt = {self.dt} violates dt * p_inf <= 1 (p_inf = {model.p_inf})", field="dt"
            )
        if self.dt / self.epsilon > age.ds * (1.0 + 1e-12):
            raise CFLError(
                f"dt/epsilon = {self.dt / self.epsilon} exceeds ds = {age.ds}", field="dt"
            )
        if age.ds * model.p_inf > 2.0:
            raise CFLError(f"ds = {age.ds} too coarse for p_inf = {model.p_inf} "
                           f"(needs ds*p_inf <= 2)", field="age")


@dataclass
class RunRecord:
    """Time series of activity, stimulation, mass and kernel statistics."""

    times: np.ndarray
    N_series: np.ndarray
    S_series: np.ndarray
    mass_series: np.ndarray
    w_mean_series: np.ndarray
    w_dev_series: np.ndarray
    w_snapshots: dict[float, np.ndarray]
    space: SpatialGrid

    def __post_init__(self) -> None:
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("record times must be strictly increasing")
        nt = len(self.times)
        for name in ("N_series", "S_series", "mass_series"):
            if getattr(self, name).shape[0] != nt:
                raise ValueError(f"{name} length does not match times")

    def final_N(self) -> np.ndarray:
        return self.N_series[-1]

    def final_S(self) -> np.ndarray:
        return self.S_series[-1]

    def w_snapshot_at(self, t: float) -> np.ndarray:
        for key, value in self.w_snapshots.items():
            if abs(key - t) <= 1e-9 * max(1.0, abs(t)):
                return value
        raise KeyError(f"no snapshot near t = {t}; available: {sorted(self.w_snapshots)}")


class Recorder:
    """Rows every `save_every` (default t_end), at `snapshot_times` and at t_end;
    kernel snapshots at the snapshot times and t_end."""

    def __init__(self, space: SpatialGrid, dt: float, t_end: float,
                 save_every: float | None = None, snapshot_times: tuple[float, ...] = ()):
        self.n_steps = whole_steps(t_end, dt)
        self.space, self.dt = space, dt
        self.stride = max(1, int(round((t_end if save_every is None else save_every) / dt)))
        self.snap_steps = {int(round(ts / dt)) for ts in snapshot_times} | {self.n_steps}
        self.series: tuple[list, ...] = ([], [], [], [], [], [])  # t, N, S, mass, <w>, |w - <w>|
        self.w_snaps = {}  # t -> kernel

    def due(self, step: int) -> bool:
        return step % self.stride == 0 or step == self.n_steps or step in self.snap_steps

    def save(self, step: int, N: np.ndarray, S: np.ndarray, mass: np.ndarray,
             w: np.ndarray) -> None:
        t = step * self.dt
        kernel = ConnectivityKernel(w, self.space)
        values = (t, N.copy(), S.copy(), mass.copy(), kernel.mean(), kernel.deviation_from_mean())
        for series, value in zip(self.series, values):
            series.append(value)
        if step in self.snap_steps:
            self.w_snaps[t] = w.copy()

    def record(self) -> RunRecord:
        return RunRecord(*map(np.asarray, self.series), self.w_snaps, self.space)


class Stepper:
    """Explicit upwind steps of eps dn/dt + dn/ds + p(s, S) n = 0 on a copy of n.

    Per step: N for the coupling, from `flux` at the set rates (lagged) or `activity`
    at trial S (iterated), then `advance` at S.  `set_rates` splits the rows into zones:
    in every column the rows below `lo` fire at exactly 0 and those from `hi` on at
    exactly p_inf, so they are swept with the scalars (A0, B0) and (A1, B1); only the
    band [lo, hi) holds its `rates`, `A` and `B`.  A lagged run holds one field-size
    buffer, `values`, and a block of `scratch`; the step-kind `activity` adds nbar and
    the suffix sums.
    """

    def __init__(self, n: DensityField, model: FiringRateModel, cfg: SolverConfig):
        cfg.validate(n.age, model)
        self.age, self.model, self.cfg = n.age, model, cfg
        self.lam = cfg.dt / (cfg.epsilon * n.age.ds)
        self.h = cfg.dt / (2.0 * cfg.epsilon)  # the loss weight of each interval end
        self.values = n.values.copy()
        self.scratch = np.empty((min(BLOCK_ROWS, n.age.ns - 1), n.space.nx))
        self.ones = np.ones(n.age.ns)  # column sums as BLAS products
        (self.B0, self.B1), (self.A0, self.A1) = self.coefficients(np.array([0.0, model.p_inf]))
        self.edges, self.cols = n.age.nodes, np.arange(n.space.nx)  # cols: activity's gathers
        self.nbar = self.suffix = None  # formed by the step-kind `activity`
        self.steps, self.formed = 0, 0  # rows of nbar and the suffix sums formed

    def coefficients(self, rates: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """B = lam - h r and A = B + 1 - 2 lam, clamped at 0 against round-off: B >= 0 as
        ds p_inf <= 2, and A >= 0 under the positivity check."""
        B = np.maximum(self.lam - rates * self.h, 0.0)
        return B, np.maximum(B + (1.0 - 2.0 * self.lam), 0.0)

    def activity(self, S: np.ndarray) -> np.ndarray:
        """N = ds sum_i r_i(S) nbar_i of the field, one value per x.

        For the step kind every interval above the cell k holding sigma(S) fires at
        p_inf, so with the suffix sums C_k of nbar, formed up to the highest C_{k+1} the
        trials of the field read, N = ds p_inf (C_{k+1} + frac_k nbar_k) costs O(nx) per
        trial.  The smooth kind sums the zones.
        """
        model, ds, cols = self.model, self.age.ds, self.cols
        if model.kind != "step":
            return self.flux(S)
        if self.suffix is None:  # C_{ns-1} = 0
            self.nbar, self.suffix = np.empty_like(self.values[1:]), np.zeros(self.values.shape)
        sig = model.sigma(S)
        k = self.threshold_cell(sig)
        while self.formed < min(int(k.max()) + 2, self.age.ns - 1):  # rows 0..k+1
            self.suffix_block()
        frac = np.minimum(1.0, np.maximum(0.0, (self.edges[1:][k] - sig) / ds))  # s_{k+1}
        return ds * model.p_inf * (self.suffix[1:][k, cols] + frac * self.nbar[k, cols])

    def suffix_block(self) -> None:
        """nbar and C on the next SUFFIX_ROWS rows [a, e): a reversed cumsum plus one column
        sum C_e = (v_e + v_{ns-1}) / 2 + ones @ v[e+1:-1], whatever the trials formed before."""
        v, a = self.values, self.formed
        e = self.formed = min(a + SUFFIX_ROWS, len(v) - 1)
        nbar = np.add(v[a:e], v[a + 1 : e + 1], out=self.nbar[a:e])
        nbar *= 0.5
        C = np.cumsum(nbar[::-1], axis=0, out=self.suffix[a:e][::-1])
        if e < len(v) - 1:
            C += 0.5 * (v[e] + v[-1]) + self.ones[e + 2 :] @ v[e + 1 : -1]

    def threshold_cell(self, sig: np.ndarray) -> np.ndarray:
        """Per column the cell k with s_k <= sigma < s_{k+1}, clipped to the grid."""
        return np.searchsorted(self.edges[1:-1], sig, side="right")

    def set_rates(self, S: np.ndarray) -> None:
        """The band [lo, hi) at S, its `rates` and `coefficients` B and A, and the field's
        largest rate `r_max`.  Rows below the cell where the rate leaves 0 (at sigma, or
        min(sigma, s_star) for the smooth kind) end at or below it; rows from the second
        cell above the one where it reaches p_inf (sigma, or sigma + theta) fire at p_inf,
        as one ulp below an edge the cell above the threshold cell can fire below p_inf.
        A NaN threshold gives NaN rates on every row."""
        model, rows = self.model, self.age.ns - 1
        sig = model.sigma(S)
        zero, full = ((sig, sig) if model.kind == "step"
                      else (np.minimum(sig, model.s_star), sig + model.theta))
        self.lo = 0 if np.isnan(sig).any() else int(self.threshold_cell(zero.min()))
        self.hi = min(int(self.threshold_cell(full.max())) + 2, rows)
        self.rates = model.interval_rates(self.age, S, self.lo, self.hi)
        self.B, self.A = self.coefficients(self.rates)
        self.r_max = model.p_inf if self.hi < rows else float(self.rates.max())

    def flux(self, S: np.ndarray | None = None) -> np.ndarray:
        """N = ds sum_i r_i nbar_i of the field at the zones set at S, or last set: the
        band's product plus p_inf (2 T + v_hi + v_{ns-1}) over the top zone, with
        T = ones @ v[hi+1:-1] one column sum.  Every term is nonnegative: nothing cancels."""
        if S is not None:
            self.set_rates(S)
        v, lo, hi = self.values, self.lo, self.hi
        total = self.ones[: hi - lo] @ (self.rates * (v[lo:hi] + v[lo + 1 : hi + 1]))
        if hi < len(v) - 1:
            total += self.model.p_inf * (2.0 * (self.ones[hi + 2 :] @ v[hi + 1 : -1])
                                         + v[hi] + v[-1])
        return 0.5 * self.age.ds * total

    def advance(self, S: np.ndarray) -> np.ndarray:
        """One step of the field at stimulation S, in place; returns the injected N.

        new_i = A_i v_i + B_i v_{i-1} is v_i - lam (v_i - v_{i-1}) - (dt/eps) r_i nbar_i,
        so lam = 1 with r = 0 (A = 0, B = 1) shifts exactly.  The absorbing row, (A + B) v
        + 2 B v_{ns-2}, goes first, then each zone's blocks from the top: row i reads the
        old v_{i-1}.
        """
        self.set_rates(S)
        lam, v, lo, hi, top = self.lam, self.values, self.lo, self.hi, self.age.ns - 2
        if (bound := lam + self.h * self.r_max) > 1 + 1e-12:
            raise CFLError(f"positivity bound violated: dt/(eps*ds) + dt*r_max/(2*eps) = "
                           f"{bound:.6g} > 1 (max rate {self.r_max:.6g})")
        N = self.activity(S) if self.formed else self.flux()  # the suffix sums when formed
        A, B = (self.A1, self.B1) if hi <= top else (self.A[-1], self.B[-1])
        v[-1] = (A + B) * v[-1] + 2.0 * B * v[-2]
        low = np.minimum(N.min(), v[-1].min())  # np.minimum, unlike min(), keeps a NaN
        for z0, z1, A, B in ((hi, top, self.A1, self.B1), (lo, min(hi, top), self.A, self.B),
                             (0, lo, self.A0, self.B0)):
            for a in reversed(range(z0, z1, BLOCK_ROWS)):
                b = min(a + BLOCK_ROWS, z1)
                Ab, Bb = (A[a - z0 : b - z0], B[a - z0 : b - z0]) if np.ndim(A) else (A, B)
                scratch = np.multiply(Bb, v[a:b], out=self.scratch[: b - a])
                v[a + 1 : b + 1] *= Ab
                v[a + 1 : b + 1] += scratch
                low = np.minimum(low, v[a + 1 : b + 1].min())
        v[0] = N
        self.formed = 0
        self.steps += 1
        if not low >= NEGATIVE_SENTINEL:  # NaN fails this comparison too
            raise NegativeDensityError(
                f"density reached {low:.3e} at t = {self.steps * self.cfg.dt:.6g}")
        return N


def linear_step(n: DensityField, S: np.ndarray, model: FiringRateModel,
                cfg: SolverConfig) -> tuple[DensityField, np.ndarray]:
    """One explicit step of eps dn/dt + dn/ds + p(s, S) n = 0 with S frozen.

    The boundary node is set to the renewal integral of the pre-step field.
    Returns the stepped field and the injected activity N.
    """
    S = np.asarray(S, dtype=float)
    if S.shape != (n.space.nx,):
        raise GridError(f"stimulation shape {S.shape} does not match grid ({n.space.nx},)")
    stepper = Stepper(n, model, cfg)
    N = stepper.advance(S)
    return DensityField(stepper.values, n.age, n.space), N


def nonlinear_run(
    n0: DensityField,
    w0: ConnectivityKernel,
    model: FiringRateModel,
    rule: LearningRule,
    input_model: InputModel,
    cfg: SolverConfig,
    t_end: float,
    save_every: float | None = None,
    snapshot_times: tuple[float, ...] = (),
) -> RunRecord:
    """Advance the coupled density/kernel system to t_end by `nonlinear_steps`, recorded
    every `save_every`, at `snapshot_times` and at t_end; a CFLError comes before a GridError."""
    cfg.validate(n0.age, model)
    recorder = Recorder(n0.space, cfg.dt, t_end, save_every, snapshot_times)
    for _ in nonlinear_steps(n0, w0, model, rule, input_model, cfg, recorder):
        pass
    return recorder.record()


def nonlinear_steps(
    n0: DensityField,
    w0: ConnectivityKernel,
    model: FiringRateModel,
    rule: LearningRule,
    input_model: InputModel,
    cfg: SolverConfig,
    recorder: Recorder,
):
    """Step the coupled density/kernel system to the recorder's last step, saving its
    due rows and yielding (t, values, N, S) at step 0 and after every step.

    Per step: (i) activity N from the current density and stimulation;
    (ii) S = integral(w N) + I, once in 'lagged' mode or solved by Anderson
    mixing to the configured tolerance in 'iterate' mode; (iii) upwind
    transport step with S frozen; (iv) kernel update
    w <- exp(-dt) w + (1 - exp(-dt)) gamma G(N(x), N(y)) with N frozen.

    `values` is the live density until the generator is resumed, so studies read it
    without the record storing it.  The initial coupling solve and, in 'iterate' mode,
    every per-step one raise PicardError when they do not converge.  `build_experiment`,
    not this function, checks that the firing threshold stays inside the age domain.
    Its warnings skip the one frame that drives it (`nonlinear_run`, `large_input_run`,
    `heapq.merge` or a loop over it) and name that frame's caller.
    """
    stepper = Stepper(n0, model, cfg)  # validates the step sizes first
    space, age = n0.space, n0.age
    g = n0.mass()
    I_vals = input_model.evaluate(space)
    rule.warn_if_unnormalized(model.p_inf * float(g.max()))

    w = w0.values.copy()
    decay = np.exp(-cfg.dt)
    xw = space.weights
    opts = cfg.picard

    def coupling(S_trial: np.ndarray) -> np.ndarray:  # S = integral(w N(n, S)) + I
        # a lagged run sums the zones: only iterate mode forms the suffix sums
        N = stepper.activity(S_trial) if opts.mode == "iterate" else stepper.flux(S_trial)
        return w @ (xw * N) + I_vals

    def solve_coupling(S_start: np.ndarray, step: int) -> np.ndarray:
        result = damped_fixed_point(coupling, S_start, opts.tol, opts.max_iters)
        if not result.converged:
            raise PicardError(f"stimulation iteration stalled at t = {step * cfg.dt:.6g} "
                              f"(residual {result.residual:.3e}); possible "
                              f"strong-interconnection multiplicity", result.residual)
        return result.value

    # the initial stimulation solves the coupling on n0
    S = solve_coupling(I_vals, 0)
    N = stepper.flux(S)
    recorder.save(0, N, S, age.integrate(stepper.values), w)
    yield 0.0, stepper.values, N, S

    for step in range(1, recorder.n_steps + 1):
        # (i)-(ii): stimulation coupling on the pre-step field
        if opts.mode == "lagged":
            # the zones are those the last transport step set
            S = w @ (xw * stepper.flux()) + I_vals
        else:
            S = solve_coupling(S, step)

        # (iii): transport with S frozen; the injected flux is the activity
        N = stepper.advance(S)

        # (iv): exact exponential kernel relaxation with N frozen
        w = decay * w + (1.0 - decay) * rule.kernel_target(N)

        if recorder.due(step):  # the mass is integrated on recorded steps only
            recorder.save(step, N, S, age.integrate(stepper.values), w)
        yield step * cfg.dt, stepper.values, N, S

    tail = float(stepper.values[-1].max() * age.weights[-1])
    if tail > 1e-8 * max(1.0, float(g.max())):
        warnings.warn(
            f"absorbing-node mass {tail:.3e} at run end; consider a larger s_max",
            stacklevel=3,
        )


# ---------------------------------------------------------------------------
# Characteristics oracle
# ---------------------------------------------------------------------------


def characteristics_oracle(
    n0: DensityField,
    S: np.ndarray,
    model: FiringRateModel,
    t: float,
    refine: int = 8,
) -> DensityField:
    """Evaluate the density at time t from its Duhamel form, S frozen for all time.

    The field is advanced as one window of fine steps ds/refine, the
    duration rounded up to a whole number of fine steps.  Survivors transport
    the initial field with the accumulated hazard; the reborn part
    N(t - s) exp(-hazard(s)) closes a renewal equation for the boundary
    activity, marched forward by product integration with exact kernel
    masses (see `_oracle_window`).  The survivors' share of the boundary
    activity is a correlation over all lags, formed by blocked real FFTs
    (see `_survivor_sum`).

    The oracle never touches the upwind stepping; it is the independent
    reference for convergence tests.
    """
    age, space = n0.age, n0.space
    if not (isinstance(refine, (int, np.integer)) and refine >= 1):
        raise GridError(f"refine must be an integer of at least 1, got {refine!r}", field="refine")
    if not (np.isfinite(t) and t >= 0.0):
        raise GridError(f"t must be finite and at least 0, got {t!r}", field="t")
    S = np.asarray(S, dtype=float)
    if S.shape != (space.nx,):
        raise GridError(f"stimulation shape {S.shape} does not match grid ({space.nx},)")
    fine = AgeGrid(ns=age.ns * refine, s_max=age.s_max)
    s_fine, delta = fine.nodes, fine.ds
    values = np.zeros((fine.ns, space.nx))
    # seed the fine grid by linear interpolation of the coarse columns
    for ix in range(space.nx):
        values[:, ix] = np.interp(s_fine, age.nodes, n0.values[:, ix])
    if t > 1e-14:
        steps = t / delta  # rounded up unless within round-off of a whole number
        m = max(1, int(np.ceil(steps - 1e-9 * max(1.0, steps))))
        values = _oracle_window(values, s_fine, S, model, delta, m)
    return DensityField(values[::refine].copy(), age, space)


def _oracle_window(
    n_a: np.ndarray,
    s_fine: np.ndarray,
    S: np.ndarray,
    model: FiringRateModel,
    delta: float,
    m: int,
) -> np.ndarray:
    """Advance the window-start field n_a by m fine steps at frozen S.

    N(tau) = Q(tau) + int_0^tau N(tau - s) p e^{-H} ds is marched with the
    exact kernel mass mu_l = E_l - E_{l+1} of each fine cell (0 past the age
    domain) and N the mean of its end values there: N_0 = Q_0 and, with
    w_j = (mu_{j-1} + mu_j)/2,
    N_k (1 - mu_0/2) = Q_k + mu_{k-1} N_0 / 2 + sum_{j=1}^{k-1} w_j N_{k-j}.
    While mu_0 = .. = mu_{b-1} = 0 (no firing below sigma), b steps depend
    on earlier N only and form one product.  Survival ratios E_i/E_j are
    formed as exp(H_j - H_i), so nothing underflows to 0/0.
    """
    fine_ns, nx = n_a.shape
    hazard = model.cumulative_hazard(s_fine, S)
    p_nodes = model.node_rates(AgeGrid(ns=fine_ns, s_max=fine_ns * delta), S)
    Q = _survivor_sum(n_a, hazard, p_nodes, delta, m, model.p_inf)

    # mu_l = e^{-H_l} (1 - e^{-(H_{l+1} - H_l)}): no 0/0 where e^{-H} underflows
    mu = np.zeros((m + 1, nx))
    cells = min(m + 1, fine_ns - 1)
    np.expm1(hazard[:cells] - hazard[1 : cells + 1], out=mu[:cells])
    mu[:cells] *= -np.exp(-hazard[:cells])
    w = np.zeros((2 * m + 1, nx))  # w[m + j] = w_j for j = 1..m, 0 for j <= 0
    w[m + 1 :] = 0.5 * (mu[:-1] + mu[1:])
    # toeplitz[k, :, r] = w_{k + r - m}: row k against N_{m - r} in reverse order
    toeplitz = np.lib.stride_tricks.sliding_window_view(w, m + 1, axis=0)

    N = np.empty((m + 1, nx))
    N[0] = Q[0]
    rhs = Q[1:] + 0.5 * mu[:-1] * Q[0]  # Q_k + mu_{k-1} N_0 / 2, k = 1..m
    diag = 1.0 - 0.5 * mu[0]
    fired = np.flatnonzero(mu.any(axis=1))
    block = max(int(fired[0]) if fired.size else m, 1)
    back = N[::-1]
    for k0 in range(1, m + 1, block):
        k1 = min(k0 + block, m + 1)
        history = np.einsum("kcr,rc->kc", toeplitz[k0:k1, :, m + 1 - k0 : m],
                            back[m + 1 - k0 : m])  # N_{k0-1} .. N_1
        np.divide(history + rhs[k0 - 1 : k1 - 1], diag, out=N[k0:k1])

    new = np.zeros_like(n_a)
    mm = min(m, fine_ns)
    if m < fine_ns:
        survivors = np.subtract(hazard[:-m], hazard[m:], out=new[m:])
        np.exp(survivors, out=survivors)
        survivors *= n_a[:-m]
    new[:mm] = N[m - np.arange(mm)] * np.exp(-hazard[:mm])  # reborn: N(tau_m - s_i) e^{-H(s_i)}
    return new


# the log-factor by which a survivor-sum block lets the hazard rise and the rate grow:
# FFT round-off then stays within about 1e-14 of the largest Q_k
EXP_SPAN = 2.0


def _survivor_sum(
    n_a: np.ndarray,
    hazard: np.ndarray,
    p_nodes: np.ndarray,
    delta: float,
    m: int,
    p_inf: float,
) -> np.ndarray:
    """Survivor part Q(tau_k) = int p(s) n_a(s - tau_k) e^{H(s - tau_k) - H(s)} ds, k = 0..m.

    With trapezoid weights w_i, Q_k = sum_j A_{j+k} B_j correlates
    A = w p e^{H_ref - H} with B = n_a e^{H - H_ref}.  A block of source rows
    j0..j1-1, with H_ref at its middle row, gives every lag and column from
    one zero-padded real-FFT product.  Round-off of its products at lags past
    kmax or below 0 reaches every lag, so a block spans a hazard rise of at
    most EXP_SPAN (p_inf * delta per node) and ends before the rate, which
    does not fall with age, passes e^EXP_SPAN p_{j0 + kmax}.  The row j = 0
    has trapezoid half-weight (the integrand starts at s = tau_k) and is
    added directly; only it reaches the last node, over a length-0 interval.
    Q sums nonnegative terms, so FFT residue below 0 is clamped.
    """
    fine_ns, nx = n_a.shape
    kmax = min(m, fine_ns - 1)  # lags k >= fine_ns see no surviving mass
    rise = p_inf * delta
    span = fine_ns if rise * fine_ns <= EXP_SPAN else max(1, int(EXP_SPAN / rise))
    fft = np.fft  # loaded on first use, not at import
    Q = np.zeros((m + 1, nx))
    j0 = 0
    while j0 < fine_ns:
        j1 = min(j0 + span, fine_ns)
        i0 = min(j0 + kmax, fine_ns - 1)
        grown = (p_nodes[i0 : j1 + kmax] > np.exp(EXP_SPAN) * p_nodes[i0]).any(axis=1)
        if grown.any():
            j1 = j0 + int(grown.argmax())
        i1 = min(j1 + kmax, fine_ns)
        h_ref = hazard[(j0 + j1 - 1) // 2]
        A = np.exp(h_ref - hazard[j0:i1]) * p_nodes[j0:i1] * delta
        if i1 == fine_ns:
            A[-1] *= 0.5
        B = np.exp(hazard[j0:j1] - h_ref) * n_a[j0:j1]
        if j0 == 0:  # the half-weight row j = 0, added directly
            Q[: kmax + 1] += A[: kmax + 1] * (0.5 * B[0])
            B[0] = 0.0
        n = j1 - j0 + kmax  # lags past kmax and below 0 wrap onto each other only
        q = 1 << max(0, n.bit_length() - 4)
        n = -(-n // q) * q  # 8 to 16 times a power of 2: a fast FFT length
        product = fft.rfft(A, n, axis=0) * fft.rfft(B, n, axis=0).conj()
        Q[: kmax + 1] += fft.irfft(product, n, axis=0)[: kmax + 1]
        j0 = j1
    Q[fine_ns - 1 :] = 0.0  # reached by j = 0 only, over a length-0 interval
    return np.maximum(Q, 0.0, out=Q)


# ---------------------------------------------------------------------------
# Large-input study
# ---------------------------------------------------------------------------


@dataclass
class LargeInputStudy:
    ks: tuple[float, ...]
    sample_times: tuple[float, ...]
    distances: np.ndarray  # (len(ks), len(sample_times)), L1 over (s, x)
    records: dict[float, RunRecord]
    limit_record: RunRecord


def check_ks(k_values) -> tuple[float, ...]:
    """The study's input scales as floats, refused unless 0 < k_1 < k_2 < ..."""
    ks = tuple(float(k) for k in k_values)
    if not ks or not all(a < b for a, b in zip((0.0, *ks), ks)):
        raise ModelError(f"k values must satisfy 0 < k_1 < k_2 < ..., got {ks}", field="k_values")
    return ks


def large_input_run(
    k_values,
    n0: DensityField,
    w0: ConnectivityKernel,
    model: FiringRateModel,
    rule: LearningRule,
    input_model: InputModel,
    cfg: SolverConfig,
    t_end: float,
    sample_times: tuple[float, ...] = (),
) -> LargeInputStudy:
    """Run the system with inputs k*I and compare to the frozen-rate limit.

    The limit dynamics use the rate p(s, inf) = lim_{S->inf} p(s, S): the
    large-stimulation threshold sigma(inf) frozen, no coupling.  Requires
    I > 0 everywhere so the stimulation diverges with k.  The limit run and the
    k runs share one dt and step side by side, so each distance is taken from the
    live densities at its sample step.
    """
    I_vals = input_model.evaluate(n0.space)
    if np.min(I_vals) <= 0:
        raise ModelError("large-input study requires I(x) > 0 on the grid")
    ks = check_ks(k_values)
    if not sample_times:
        sample_times = (t_end,)

    sample_steps = [whole_steps(ts, cfg.dt, field="sample_times") for ts in sample_times]
    cfg.validate(n0.age, model)  # the step sizes before the t_end grid, as in nonlinear_run
    recorders = [Recorder(n0.space, cfg.dt, t_end, save_every=t_end) for _ in (0, *ks)]
    if not all(0 <= step <= recorders[0].n_steps for step in sample_steps):
        raise GridError(f"sample_times {sample_times} must lie in [0, t_end = {t_end}]",
                        field="sample_times")
    w_zero = ConnectivityKernel(np.zeros_like(w0.values), w0.space)
    runs = [nonlinear_steps(n0, w_zero, model.limit_model(), LearningRule(rule.kind, 0.0),
                            input_model, cfg, recorders[0])]
    runs += [nonlinear_steps(n0, w0, model, rule, input_model.scaled_by(k), cfg, recorder)
             for k, recorder in zip(ks, recorders[1:])]

    at_step = {}  # sample step -> L1 distance over (s, x) of each k run
    # strict: the k runs are resumed past their last step too, to their end-of-run checks
    for step, ((_, limit_n, _, _), *states) in enumerate(zip(*runs, strict=True)):
        if step in sample_steps:
            at_step[step] = [float(n0.space.integrate(n0.age.integrate(np.abs(n_k - limit_n))))
                             for _, n_k, _, _ in states]
    distances = np.array([at_step[step] for step in sample_steps]).T
    records = {k: recorder.record() for k, recorder in zip(ks, recorders[1:])}
    return LargeInputStudy(ks, tuple(sample_times), distances, records, recorders[0].record())
