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
rows that stay in cache.  For the step rate every interval above the cell k
holding sigma(S) fires at p_inf, so with the suffix sums C_k of the interval
means each trial activity of the coupling costs O(nx), and the rates change
only in a band of rows between the old and the new k, plus the one above.
A lagged step sums r_i nbar_i once, at the last step's rates, and corrects
the sum by the band's change of rates.

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


@dataclass(frozen=True)
class PicardOptions:
    mode: str = "lagged"
    tol: float = 1e-10
    max_iters: int = 200
    damping: float = 0.5

    def __post_init__(self) -> None:
        if self.mode not in ("lagged", "iterate"):
            raise ModelError(f"unknown picard mode: {self.mode!r}", field="mode")
        if not 0 < self.tol < np.inf:
            raise ModelError(f"tol must be positive and finite, got {self.tol}", field="tol")
        if self.max_iters < 1:
            raise ModelError(f"max_iters must be >= 1, got {self.max_iters}", field="max_iters")
        if not 0 < self.damping <= 1:
            raise ModelError(f"damping must lie in (0, 1], got {self.damping}", field="damping")


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
    at trial S (iterated), then `advance` at S.  `flux` and `advance` sweep the field
    in blocks of BLOCK_ROWS rows with a slice of nbar as scratch, so `activity` forms
    nbar and the suffix sums again when the field or nbar changed.  Buffers of the
    field's size: values, nbar, rates, A, B and suffix (the step-kind activity's sums).
    """

    def __init__(self, n: DensityField, model: FiringRateModel, cfg: SolverConfig):
        cfg.validate(n.age, model)
        self.age, self.model, self.cfg = n.age, model, cfg
        self.lam = cfg.dt / (cfg.epsilon * n.age.ds)
        self.h = cfg.dt / (2.0 * cfg.epsilon)  # the loss weight of each interval end
        # B >= 0 as ds p_inf <= 2, A >= 0 under the positivity check:
        # both are clamped at 0 against round-off
        self.values = n.values.copy()
        self.nbar, self.rates, self.A, self.B = (np.empty_like(n.values[1:]) for _ in range(4))
        self.suffix = np.zeros(n.values.shape)  # C_k = sum_{i >= k} nbar_i; C_{ns-1} = 0
        self.widths = np.full(n.age.ns - 1, n.age.ds)  # N = widths @ (r nbar), a column sum
        self.edges = n.age.nodes
        self.cells = None  # threshold cells of the step-kind rates once they are set
        self.N = None  # N of the field at the set rates, from `flux` on
        self.steps, self.loaded = 0, False

    def activity(self, S: np.ndarray) -> np.ndarray:
        """N = ds sum_i r_i(S) nbar_i of the field, one value per x.

        For the step kind every interval above the cell k holding sigma(S)
        fires at p_inf, so N = ds p_inf (C_{k+1} + frac_k nbar_k) costs O(nx).
        """
        model, ds = self.model, self.age.ds
        if not self.loaded:  # nbar and the suffix sums of the current field
            np.add(self.values[1:], self.values[:-1], out=self.nbar)
            self.nbar *= 0.5
            if model.kind == "step":
                np.cumsum(self.nbar[::-1], axis=0, out=self.suffix[-2::-1])
            self.loaded = True
        if model.kind != "step":
            rates = model.interval_rates(self.age, S)
            return self.widths @ np.multiply(rates, self.nbar, out=rates)
        sig = model.sigma(S)
        k = self.threshold_cell(sig)
        frac = np.minimum(1.0, np.maximum(0.0, (self.edges[k + 1] - sig) / ds))
        cols = np.arange(len(k))
        return ds * model.p_inf * (self.suffix[k + 1, cols] + frac * self.nbar[k, cols])

    def threshold_cell(self, sig: np.ndarray) -> np.ndarray:
        """Per column the cell k with s_k <= sigma < s_{k+1}, clipped to the grid."""
        k = np.searchsorted(self.edges, sig, side="right") - 1
        return np.minimum(len(self.edges) - 2, np.maximum(0, k))

    def set_rates(self, S: np.ndarray) -> None:
        """The rates r at S and the coefficients B = lam - h r, A = B + 1 - 2 lam, clamped at 0;
        after a first full step-kind fill only rows min(k_old, k) .. max(k_old, k) + 1 change,
        and N of `flux` takes their change (ds/2) sum (r - r_old)(n_{i-1} + n_i)."""
        model, lam, h, ds, top = self.model, self.lam, self.h, self.age.ds, self.age.ns - 2
        sig = model.sigma(S)
        k = self.threshold_cell(sig) if model.kind == "step" else None
        if self.cells is None:
            model.interval_rates(self.age, S, out=self.rates)
            np.subtract(lam, np.multiply(self.rates, h, out=self.B), out=self.B)
            np.maximum(self.B, 0.0, out=self.B)
            np.maximum(np.add(self.B, 1.0 - 2.0 * lam, out=self.A), 0.0, out=self.A)
            self.N = None
        else:
            lo = np.minimum(k, self.cells)
            band = lo + np.arange(int((np.maximum(k, self.cells) - lo).max()) + 2)[:, None]
            rows = np.minimum(band, top)  # rows past the top repeat it: their change counts once
            nx = len(k)
            at = rows * nx + np.arange(nx)  # flat index into values, rates, A and B alike
            r = np.minimum(1.0, np.maximum(0.0, (self.edges[rows + 1] - sig) / ds)) * model.p_inf
            if self.N is not None:
                change = np.where(band <= top, r - self.rates.take(at), 0.0)
                change *= self.values.take(at) + self.values.take(at + nx)
                N = self.N + 0.5 * ds * change.sum(axis=0)
                # a band that takes more than half of N leaves cancellation: form N afresh
                self.N = N if (N >= 0.5 * self.N).all() else None
            self.rates.put(at, r)
            self.B.put(at, b := np.maximum(lam - r * h, 0.0))
            self.A.put(at, np.maximum(b + (1.0 - 2.0 * lam), 0.0))
        self.cells = k

    def flux(self) -> np.ndarray:
        """N = ds sum_i r_i nbar_i of the field at the set rates, from the bottom block up."""
        v, total = self.values, np.zeros(self.values.shape[1])
        for a in range(0, len(self.rates), BLOCK_ROWS):
            b = min(a + BLOCK_ROWS, len(self.rates))
            scratch = np.add(v[a:b], v[a + 1 : b + 1], out=self.nbar[: b - a])
            scratch *= self.rates[a:b]
            total += self.widths[: b - a] @ scratch
        self.loaded, self.N = False, 0.5 * total
        return self.N

    def advance(self, S: np.ndarray) -> np.ndarray:
        """One step of the field at stimulation S, in place; returns the injected N.

        new_i = A_i v_i + B_i v_{i-1} is v_i - lam (v_i - v_{i-1}) - (dt/eps) r_i nbar_i,
        so lam = 1 with r = 0 (A = 0, B = 1) shifts exactly.  The absorbing row, (A + B) v
        + 2 B v_{ns-2}, goes first, then the blocks from the top: row i reads the old v_{i-1}.
        """
        self.set_rates(S)
        lam, v, A, B = self.lam, self.values, self.A, self.B
        # step-kind columns are non-decreasing in age: the last row holds the maximum
        r_max = float((self.rates[-1] if self.model.kind == "step" else self.rates).max())
        if (bound := lam + self.h * r_max) > 1 + 1e-12:
            raise CFLError(f"positivity bound violated: dt/(eps*ds) + dt*r_max/(2*eps) = "
                           f"{bound:.6g} > 1 (max rate {r_max:.6g})")
        if (N := self.N) is None:
            N = self.activity(S) if self.loaded and self.model.kind == "step" else self.flux()
        v[-1] = (A[-1] + B[-1]) * v[-1] + 2.0 * B[-1] * v[-2]
        low = np.minimum(N.min(), v[-1].min())  # np.minimum, unlike min(), keeps a NaN
        for a in reversed(range(0, len(v) - 2, BLOCK_ROWS)):
            b = min(a + BLOCK_ROWS, len(v) - 2)
            scratch = np.multiply(B[a:b], v[a:b], out=self.nbar[: b - a])
            v[a + 1 : b + 1] *= A[a:b]
            v[a + 1 : b + 1] += scratch
            low = np.minimum(low, v[a + 1 : b + 1].min())
        v[0] = N
        self.N, self.loaded = None, False
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
    observer=None,
) -> RunRecord:
    """Advance the coupled density/kernel system to t_end.

    Per step: (i) activity N from the current density and stimulation;
    (ii) S = integral(w N) + I, once in 'lagged' mode or iterated with
    damping to the configured tolerance in 'iterate' mode; (iii) upwind
    transport step with S frozen; (iv) kernel update
    w <- exp(-dt) w + (1 - exp(-dt)) gamma G(N(x), N(y)) with N frozen.

    An `observer(step, values, N, S)` callback, when given, is invoked at
    step 0 and after every step with the live state, so studies read the
    density without the record storing it.  The initial coupling solve and,
    in 'iterate' mode, every per-step one raise PicardError when they do
    not converge.  `build_experiment`, not this function, checks that the
    firing threshold stays inside the age domain.
    """
    stepper = Stepper(n0, model, cfg)  # validates the step sizes first
    space, age = n0.space, n0.age
    g = n0.mass()
    I_vals = input_model.evaluate(space)
    rule.warn_if_unnormalized(model.p_inf * float(g.max()))
    recorder = Recorder(space, cfg.dt, t_end, save_every, snapshot_times)

    w = w0.values.copy()
    decay = np.exp(-cfg.dt)
    xw = space.weights
    opts = cfg.picard

    def coupling(S_trial: np.ndarray) -> np.ndarray:  # S = integral(w N(n, S)) + I
        return w @ (xw * stepper.activity(S_trial)) + I_vals

    def solve_coupling(S_start: np.ndarray, step: int) -> np.ndarray:
        result = damped_fixed_point(coupling, S_start, opts.tol, opts.max_iters, opts.damping)
        if not result.converged:
            raise PicardError(f"stimulation iteration stalled at t = {step * cfg.dt:.6g} "
                              f"(residual {result.residual:.3e}); possible "
                              f"strong-interconnection multiplicity", result.residual)
        return result.value

    # the initial stimulation solves the coupling on n0
    S = solve_coupling(I_vals, 0)
    stepper.set_rates(S)
    N = stepper.flux()
    recorder.save(0, N, S, age.integrate(stepper.values), w)
    if observer is not None:
        observer(0, stepper.values, N, S)

    for step in range(1, recorder.n_steps + 1):
        # (i)-(ii): stimulation coupling on the pre-step field
        if opts.mode == "lagged":
            # the buffered rates are those of the last transport step, at this S
            S = w @ (xw * stepper.flux()) + I_vals
        else:
            S = solve_coupling(S, step)

        # (iii): transport with S frozen; the injected flux is the activity
        N = stepper.advance(S)

        # (iv): exact exponential kernel relaxation with N frozen
        target = rule.gamma * rule.evaluate(N[:, None], N[None, :])
        w = decay * w + (1.0 - decay) * target

        if recorder.due(step):  # the mass is integrated on recorded steps only
            recorder.save(step, N, S, age.integrate(stepper.values), w)
        if observer is not None:
            observer(step, stepper.values, N, S)

    tail = float(stepper.values[-1].max() * age.weights[-1])
    if tail > 1e-8 * max(1.0, float(g.max())):
        warnings.warn(
            f"absorbing-node mass {tail:.3e} at run end; consider a larger s_max",
            stacklevel=2,
        )
    return recorder.record()


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
    activity is one correlation per column over all lags, rescaled blockwise
    so that no exponential of the hazard overflows or underflows to 0/0.

    The oracle never touches the upwind stepping; it is the independent
    reference for convergence tests.
    """
    age, space = n0.age, n0.space
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


# exp(+-EXP_SPAN) stays far inside the double range
EXP_SPAN = 300.0


def _aligned_empty(rows: int, cols: int) -> np.ndarray:
    """An empty C-contiguous (rows, cols) array that starts on a 64-byte boundary."""
    raw = np.empty(rows * cols + 8)
    start = (-raw.ctypes.data % 64) // 8
    return raw[start : start + rows * cols].reshape(rows, cols)


def _survivor_sum(
    n_a: np.ndarray,
    hazard: np.ndarray,
    p_nodes: np.ndarray,
    delta: float,
    m: int,
    p_inf: float,
) -> np.ndarray:
    """Survivor part Q(tau_k) = int p(s) n_a(s - tau_k) e^{H(s - tau_k) - H(s)} ds, k = 0..m.

    With trapezoid weights w_i, Q_k = sum_j A_{j+k} B_j is a correlation of
    A = w p e^{H_ref - H} with B = n_a e^{H - H_ref}: one `np.correlate` per
    column gives every lag.  H rises by at most p_inf * delta per node, so
    blocks of source rows j, each with H_ref taken at its first row, keep
    both factors within exp(+-EXP_SPAN).  The integrand starts at s = tau_k,
    so its first sample gets trapezoid half-weight.
    """
    fine_ns, nx = n_a.shape
    kmax = min(m, fine_ns - 1)  # lags k >= fine_ns see no surviving mass
    rise = p_inf * delta
    if rise * (fine_ns + kmax) <= EXP_SPAN:
        block = fine_ns
    else:
        block = max(1, int(EXP_SPAN / rise) - kmax)
    Q = np.zeros((m + 1, nx))
    for j0 in range(0, fine_ns, block):
        j1 = min(j0 + block, fine_ns)
        i1 = min(j1 + kmax, fine_ns)
        h_ref = hazard[j0]
        A = np.zeros((nx, j1 - j0 + kmax))  # zero past the last node
        a = A[:, : i1 - j0].T
        np.exp(np.subtract(h_ref, hazard[j0:i1], out=a), out=a)
        a *= p_nodes[j0:i1]
        a *= delta
        if j0 == 0:
            a[0] *= 0.5
        if i1 == fine_ns:
            a[-1] *= 0.5
        # np.correlate runs ~25% slower when its second operand is not 64-byte aligned:
        # rows padded to a multiple of 8 doubles each start on a 64-byte boundary
        B = _aligned_empty(nx, -(-(j1 - j0) // 8) * 8)[:, : j1 - j0]
        np.subtract(hazard[j0:j1].T, h_ref[:, None], out=B)
        np.exp(B, out=B)
        B *= n_a[j0:j1].T
        for ix in range(nx):
            Q[: kmax + 1, ix] += np.correlate(A[ix], B[ix], "valid")
    # in the order A_k B_0 is formed, so the last lag cancels exactly
    k = np.arange(1, kmax + 1)
    Q[k] -= np.exp(hazard[0] - hazard[k]) * p_nodes[k] * delta * 0.5 * n_a[0]
    return Q


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
    I > 0 everywhere so the stimulation diverges with k.
    """
    I_vals = input_model.evaluate(n0.space)
    if np.min(I_vals) <= 0:
        raise ModelError("large-input study requires I(x) > 0 on the grid")
    ks = check_ks(k_values)
    if not sample_times:
        sample_times = (t_end,)

    sample_steps = [whole_steps(ts, cfg.dt, field="sample_times") for ts in sample_times]

    def run(*args) -> tuple[RunRecord, dict[int, np.ndarray]]:
        densities: dict[int, np.ndarray] = {}

        def keep_samples(step, values, N, S):
            if step in sample_steps:
                densities[step] = values.copy()

        rec = nonlinear_run(*args, cfg, t_end, save_every=t_end, observer=keep_samples)
        return rec, densities

    limit_rate = model.limit_model()
    zero_rule = LearningRule(rule.kind, 0.0)
    w_zero = ConnectivityKernel(np.zeros_like(w0.values), w0.space)
    limit_record, limit_n = run(n0.copy(), w_zero, limit_rate, zero_rule, input_model)

    records: dict[float, RunRecord] = {}
    distances = np.zeros((len(ks), len(sample_times)))
    for i, k in enumerate(ks):
        records[k], n_k = run(n0.copy(), w0.copy(), model, rule, input_model.scaled_by(k))
        for j, step in enumerate(sample_steps):
            per_x = n0.age.integrate(np.abs(n_k[step] - limit_n[step]))
            distances[i, j] = float(n0.space.integrate(per_x))
    return LargeInputStudy(ks, tuple(sample_times), distances, records, limit_record)
