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

One `Stepper` takes every upwind step, in place on preallocated buffers.
For the step rate every interval above the cell k holding sigma(S) fires
at p_inf, so with the suffix sums C_k of the interval means, formed once
per step, each trial activity of the stimulation coupling costs O(nx).
Its step-kind rates are one full fill and then band updates: the rows
below k are exactly 0 and those above k + 1 exactly p_inf, so a step
rewrites only the rows between the old and the new k, plus the one above.

The connectivity kernel relaxes toward gamma * G(N(x), N(y)) and is advanced
by the exact one-step exponential formula with the activity frozen over the
step, which is unconditionally stable.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .fixedpoint import PicardError, damped_fixed_point
from .grids import AgeGrid, ConnectivityKernel, DensityField, GridError, SpatialGrid
from .models import FiringRateModel, InputModel, LearningRule, stimulation_bounds


class CFLError(RuntimeError):
    """Explicit step too large for the upwind stability/positivity bound."""


class NegativeDensityError(RuntimeError):
    """Density below the -1e-12 sentinel or NaN: scheme instability, not round-off."""


NEGATIVE_SENTINEL = -1e-12


@dataclass(frozen=True)
class PicardOptions:
    mode: str = "lagged"
    tol: float = 1e-10
    max_iters: int = 200
    damping: float = 0.5

    def __post_init__(self) -> None:
        if self.mode not in ("lagged", "iterate"):
            raise ValueError(f"picard mode must be 'lagged' or 'iterate', got {self.mode!r}")
        if self.tol <= 0:
            raise ValueError(f"picard tol must be positive, got {self.tol}")
        if self.max_iters < 1:
            raise ValueError(f"picard max_iters must be at least 1, got {self.max_iters}")
        if not 0 < self.damping <= 1:
            raise ValueError(f"picard damping must lie in (0, 1], got {self.damping}")


@dataclass(frozen=True)
class SolverConfig:
    dt: float
    epsilon: float = 1.0
    picard: PicardOptions = field(default_factory=PicardOptions)
    cfl_guard: bool = True

    def __post_init__(self) -> None:
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not 0 < self.epsilon <= 1:
            raise ValueError(f"epsilon must lie in (0, 1], got {self.epsilon}")

    def validate(self, age: AgeGrid, model: FiringRateModel) -> None:
        """Stability checks: dt*p_inf <= 1, dt/eps <= ds, ds*p_inf <= 2.

        The sharper positivity bound dt/(eps*ds) + dt*r/(2*eps) <= 1 is
        enforced per step against the rates actually present on the grid
        (see Stepper.advance); a threshold above s_max legitimately makes
        the step pure transport where lam = 1 is exact.
        """
        if self.dt * model.p_inf > 1.0 + 1e-12:
            raise CFLError(
                f"dt = {self.dt} violates dt * p_inf <= 1 (p_inf = {model.p_inf})"
            )
        if self.dt / self.epsilon > age.ds * (1.0 + 1e-12):
            raise CFLError(
                f"dt/epsilon = {self.dt / self.epsilon} exceeds ds = {age.ds}"
            )
        if age.ds * model.p_inf > 2.0:
            raise CFLError(
                f"ds = {age.ds} too coarse for p_inf = {model.p_inf} (needs ds*p_inf <= 2)"
            )


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
    n_snapshots: dict[float, np.ndarray]
    space: SpatialGrid
    age: AgeGrid

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

    @staticmethod
    def _lookup(table: dict[float, np.ndarray], t: float) -> np.ndarray:
        for key, value in table.items():
            if abs(key - t) <= 1e-9 * max(1.0, abs(t)):
                return value
        raise KeyError(f"no snapshot near t = {t}; available: {sorted(table)}")

    def w_snapshot_at(self, t: float) -> np.ndarray:
        return self._lookup(self.w_snapshots, t)

    def n_snapshot_at(self, t: float) -> np.ndarray:
        return self._lookup(self.n_snapshots, t)


class Recorder:
    """Rows every `save_every` (default t_end), at `snapshot_times` and at t_end;
    kernel (and density, if given) snapshots at the snapshot times and t_end."""

    def __init__(self, space: SpatialGrid, age: AgeGrid, dt: float, t_end: float,
                 save_every: float | None = None, snapshot_times: tuple[float, ...] = ()):
        self.n_steps = int(round(t_end / dt))
        if abs(self.n_steps * dt - t_end) > 1e-9 * max(1.0, t_end):
            raise ValueError(f"t_end = {t_end} is not a multiple of dt = {dt}")
        self.space, self.age, self.dt = space, age, dt
        self.stride = max(1, int(round((t_end if save_every is None else save_every) / dt)))
        self.snap_steps = {int(round(ts / dt)) for ts in snapshot_times} | {self.n_steps}
        self.series: tuple[list, ...] = ([], [], [], [], [], [])  # t, N, S, mass, <w>, |w - <w>|
        self.w_snaps, self.n_snaps = {}, {}  # t -> kernel, t -> density

    def due(self, step: int) -> bool:
        return step % self.stride == 0 or step == self.n_steps or step in self.snap_steps

    def save(self, step: int, N: np.ndarray, S: np.ndarray, mass: np.ndarray,
             w: np.ndarray, n: np.ndarray | None = None) -> None:
        t = step * self.dt
        kernel = ConnectivityKernel(w, self.space)
        values = (t, N.copy(), S.copy(), mass.copy(), kernel.mean(), kernel.deviation_from_mean())
        for series, value in zip(self.series, values):
            series.append(value)
        if step in self.snap_steps:
            self.w_snaps[t] = w.copy()
            if n is not None:
                self.n_snaps[t] = n.copy()

    def record(self) -> RunRecord:
        return RunRecord(*map(np.asarray, self.series), self.w_snaps, self.n_snaps,
                         self.space, self.age)


class Stepper:
    """Explicit upwind steps of eps dn/dt + dn/ds + p(s, S) n = 0 on a copy of n.

    Per step: `load` the interval means, evaluate the activity for the
    coupling, and `advance`, whose rates stay buffered for the next `flux`.
    """

    def __init__(self, n: DensityField, model: FiringRateModel, cfg: SolverConfig):
        cfg.validate(n.age, model)
        self.age, self.model, self.cfg = n.age, model, cfg
        self.lam = cfg.dt / (cfg.epsilon * n.age.ds)
        self.values, self.new = n.values.copy(), np.empty_like(n.values)
        self.nbar, self.rates, self.loss = (np.empty_like(n.values[1:]) for _ in range(3))
        self.suffix = np.zeros_like(n.values)  # C_k = sum_{i >= k} nbar_i; C_{ns-1} = 0
        self.edges = n.age.nodes
        self.cells = None  # threshold cells of the step-kind rates once they are set
        self.steps = 0
        self.load()

    def load(self) -> None:
        """Form the interval means nbar = (n_{i-1} + n_i)/2 of the current field."""
        np.add(self.values[1:], self.values[:-1], out=self.nbar)
        self.nbar *= 0.5
        self.suffix_ready = False

    def activity(self, S: np.ndarray) -> np.ndarray:
        """N = ds sum_i r_i(S) nbar_i of the loaded field, one value per x.

        For the step kind every interval above the cell k holding sigma(S)
        fires at p_inf, so N = ds p_inf (C_{k+1} + frac_k nbar_k) costs O(nx).
        """
        model, ds = self.model, self.age.ds
        if model.kind != "step":
            return ds * np.sum(model.interval_rates(self.age, S) * self.nbar, axis=0)
        if not self.suffix_ready:
            np.cumsum(self.nbar[::-1], axis=0, out=self.suffix[-2::-1])
            self.suffix_ready = True
        sig = model.sigma(S)
        k = self.threshold_cell(sig)
        frac = np.clip((self.edges[k + 1] - sig) / ds, 0.0, 1.0)
        cols = np.arange(len(k))
        return ds * model.p_inf * (self.suffix[k + 1, cols] + frac * self.nbar[k, cols])

    def threshold_cell(self, sig: np.ndarray) -> np.ndarray:
        """Per column the cell k with s_k <= sigma < s_{k+1}, clipped to the grid."""
        return np.clip(np.searchsorted(self.edges, sig, side="right") - 1, 0, len(self.edges) - 2)

    def set_rates(self, S: np.ndarray) -> None:
        """The interval rates at S; after a first full step-kind fill only rows
        min(k_old, k) .. max(k_old, k) + 1 change, each set as interval_rates sets it."""
        model = self.model
        if model.kind != "step":
            model.interval_rates(self.age, S, out=self.rates)
            return
        sig = model.sigma(S)
        k = self.threshold_cell(sig)
        if self.cells is None:
            model.interval_rates(self.age, S, out=self.rates)
        else:
            lo = np.minimum(k, self.cells)
            width = int((np.maximum(k, self.cells) - lo).max()) + 2
            rows = np.minimum(lo + np.arange(width)[:, None], len(self.rates) - 1)
            band = np.clip((self.edges[rows + 1] - sig) / self.age.ds, 0.0, 1.0) * model.p_inf
            self.rates[rows, np.arange(len(k))] = band
        self.cells = k

    def flux(self) -> np.ndarray:
        """The discharge integral ds sum_i r_i nbar_i at the set rates."""
        return self.age.ds * np.multiply(self.rates, self.nbar, out=self.loss).sum(axis=0)

    def advance(self, S: np.ndarray) -> np.ndarray:
        """One step of the loaded field at stimulation S; returns the injected N.

        The coefficients are formed once so that lam = 1 shifts exactly.
        """
        self.set_rates(S)
        cfg, lam, v, new, loss = self.cfg, self.lam, self.values, self.new, self.loss
        # step-kind columns are non-decreasing in age: the last row holds the maximum
        r_max = float((self.rates[-1] if self.model.kind == "step" else self.rates).max())
        if cfg.cfl_guard and (bound := lam + 0.5 * (cfg.dt / cfg.epsilon) * r_max) > 1 + 1e-12:
            raise CFLError(f"positivity bound violated: dt/(eps*ds) + dt*r_max/(2*eps) = "
                           f"{bound:.6g} > 1 (max rate {r_max:.6g})")
        N = self.flux()
        np.multiply(self.rates, cfg.dt / cfg.epsilon, out=loss)
        loss *= self.nbar
        inner = np.subtract(v[1:-1], v[:-2], out=new[1:-1])
        inner *= lam
        np.subtract(v[1:-1], inner, out=inner)
        inner -= loss[:-1]
        new[-1] = v[-1] + 2.0 * lam * v[-2] - 2.0 * loss[-1]
        new[0] = N
        self.values, self.new = new, v
        self.steps += 1
        low = float(new.min())
        if not low >= NEGATIVE_SENTINEL:  # NaN fails this comparison too
            raise NegativeDensityError(
                f"density reached {low:.3e} at t = {self.steps * cfg.dt:.6g}")
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
    record_density: bool = False,
    observer=None,
    observe_stride: int = 1,
    check_domain: bool = True,
) -> RunRecord:
    """Advance the coupled density/kernel system to t_end.

    Per step: (i) activity N from the current density and stimulation;
    (ii) S = integral(w N) + I, once in 'lagged' mode or iterated with
    damping to the configured tolerance in 'iterate' mode; (iii) upwind
    transport step with S frozen; (iv) kernel update
    w <- exp(-dt) w + (1 - exp(-dt)) gamma G(N(x), N(y)) with N frozen.

    An `observer(t, values, N, S)` callback, when given, is invoked every
    `observe_stride` steps (and at t = 0 and t_end) with the live state, so
    studies can accumulate distances without storing density snapshots.
    """
    stepper = Stepper(n0, model, cfg)  # validates the step sizes first
    space, age = n0.space, n0.age
    g = n0.mass()
    I_vals = input_model.evaluate(space)
    lo, hi = stimulation_bounds(model, rule, float(w0.values.max()), float(g.max()), I_vals)
    threshold = model.sigma.sup_over(lo, hi)
    if check_domain and np.isfinite(threshold) and threshold >= age.s_max:
        # an infinite threshold means the rate vanishes identically: pure
        # transport, used by the large-input limit reference; large-input
        # study runs disable the check since unreachable thresholds simply
        # mean no firing, which is the intended limit behavior
        raise GridError(
            f"s_max = {age.s_max} does not exceed the reachable firing threshold "
            f"{threshold:.6g}"
        )
    rule.warn_if_unnormalized(model.p_inf * float(g.max()))
    recorder = Recorder(space, age, cfg.dt, t_end, save_every, snapshot_times)
    n_steps = recorder.n_steps

    w = w0.values.copy()
    decay = np.exp(-cfg.dt)
    xw = space.weights
    opts = cfg.picard

    def coupling(S_trial: np.ndarray) -> np.ndarray:  # S = integral(w N(n, S)) + I
        return w @ (xw * stepper.activity(S_trial)) + I_vals

    # the initial stimulation solves the coupling on n0
    result = damped_fixed_point(coupling, I_vals, opts.tol, opts.max_iters, opts.damping)
    S = result.value if result.converged else coupling(I_vals)
    if not result.converged:
        warnings.warn(f"initial stimulation fixed point stopped at residual "
                      f"{result.residual:.3e}; using a single lagged evaluation", stacklevel=2)

    stepper.set_rates(S)
    N = stepper.flux()
    recorder.save(0, N, S, age.integrate(stepper.values), w,
                  stepper.values if record_density else None)
    if observer is not None:
        observer(0.0, stepper.values, N, S)

    for step in range(1, n_steps + 1):
        # (i)-(ii): stimulation coupling on the pre-step field
        stepper.load()
        if opts.mode == "lagged":
            # the buffered rates are those of the last transport step, at this S
            S = w @ (xw * stepper.flux()) + I_vals
        else:
            result = damped_fixed_point(coupling, S, opts.tol, opts.max_iters, opts.damping)
            if not result.converged:
                raise PicardError(f"stimulation iteration stalled at t = {step * cfg.dt:.6g} "
                                  f"(residual {result.residual:.3e}); possible "
                                  f"strong-interconnection multiplicity", result.residual)
            S = result.value

        # (iii): transport with S frozen; the injected flux is the activity
        N = stepper.advance(S)

        # (iv): exact exponential kernel relaxation with N frozen
        target = rule.gamma * rule.evaluate(N[:, None], N[None, :])
        w = decay * w + (1.0 - decay) * target

        if recorder.due(step):  # the mass is integrated on recorded steps only
            recorder.save(step, N, S, age.integrate(stepper.values), w,
                          stepper.values if record_density else None)
        if observer is not None and (step % observe_stride == 0 or step == n_steps):
            observer(step * cfg.dt, stepper.values, N, S)

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


class OracleError(RuntimeError):
    """Characteristics oracle could not resolve the requested evolution."""


def characteristics_oracle(
    n0: DensityField,
    S_path,
    model: FiringRateModel,
    t: float,
    refine: int = 8,
    picard_tol: float = 1e-12,
    max_iters: int = 400,
) -> DensityField:
    """Evaluate the frozen-coupling density at time t from its Duhamel form.

    `S_path` is either a single per-x stimulation vector (frozen for all
    time) or a list of (S_values, duration) pieces, constant in time on each
    piece.  Survivors transport the window-start field with the accumulated
    hazard; the reborn part N(t - s) exp(-hazard(s)) closes a Volterra
    equation for the boundary activity which is solved by Picard iteration
    to `picard_tol` on a time grid of spacing ds/refine.  Windows are kept
    shorter than 0.45/p_inf so the iteration is a guaranteed contraction.
    The survivors' share of the boundary activity is one correlation per
    column over all lags of a window, rescaled blockwise so that no
    exponential of the hazard overflows or underflows to 0/0.

    The oracle never touches the upwind stepping; it is the independent
    reference for convergence tests.
    """
    age, space = n0.age, n0.space
    fine = AgeGrid(ns=age.ns * refine, s_max=age.s_max)
    delta = fine.ds
    if isinstance(S_path, np.ndarray):
        S_path = [(np.asarray(S_path, dtype=float), float(t))]
    total = sum(d for _, d in S_path)
    if t > total + 1e-12:
        raise OracleError(f"requested t = {t} beyond the stimulation path length {total}")

    s_fine = fine.nodes
    values = np.zeros((fine.ns, space.nx))
    # seed the fine grid by linear interpolation of the coarse columns
    for ix in range(space.nx):
        values[:, ix] = np.interp(s_fine, age.nodes, n0.values[:, ix])

    max_window = 0.45 / model.p_inf if model.p_inf > 0 else np.inf
    remaining = float(t)
    for S_piece, duration in S_path:
        S_piece = np.asarray(S_piece, dtype=float)
        if S_piece.shape != (space.nx,):
            raise GridError(
                f"stimulation shape {S_piece.shape} does not match grid ({space.nx},)"
            )
        piece_left = min(duration, remaining)
        while piece_left > 1e-14:
            window = min(piece_left, max_window)
            m = int(round(window / delta))
            if m < 1 or abs(m * delta - window) > 1e-9 * max(delta, window):
                m = max(1, int(np.floor(window / delta + 1e-9)))
            window = m * delta
            values = _oracle_window(values, s_fine, S_piece, model, delta, m, picard_tol, max_iters)
            piece_left -= window
            remaining -= window
        if remaining <= 1e-14:
            break
    if remaining > 1e-12:
        raise OracleError(f"stimulation path too short: {remaining} time units uncovered")

    coarse = values[::refine].copy()
    return DensityField(coarse, age, space)


def _oracle_window(
    n_a: np.ndarray,
    s_fine: np.ndarray,
    S: np.ndarray,
    model: FiringRateModel,
    delta: float,
    m: int,
    picard_tol: float,
    max_iters: int,
) -> np.ndarray:
    """Advance the window-start field n_a by m fine steps at frozen S.

    Every survival ratio E(s_i)/E(s_j) is formed as exp(H_j - H_i), so the
    result stays finite where exp(-H) underflows.
    """
    fine_ns, nx = n_a.shape
    hazard = model.cumulative_hazard(s_fine, S)
    if hazard.ndim == 1:
        hazard = np.broadcast_to(hazard[:, None], (fine_ns, nx)).copy()
    p_nodes = model.node_rates(AgeGrid(ns=fine_ns, s_max=fine_ns * delta), S)
    if p_nodes.ndim == 1:
        p_nodes = np.broadcast_to(p_nodes[:, None], (fine_ns, nx)).copy()
    Q = _survivor_sum(n_a, hazard, p_nodes, delta, m, model.p_inf)

    # reborn convolution kernel and the Volterra-Picard solve for N(tau)
    kern = np.exp(-hazard)
    kern *= p_nodes  # (fine_ns, nx)
    N = Q.copy()
    for _ in range(max_iters):
        N_new = Q.copy()
        for ix in range(nx):
            conv = np.convolve(kern[: m + 1, ix], N[:, ix])[: m + 1]
            conv -= 0.5 * (kern[0, ix] * N[:, ix] + kern[: m + 1, ix] * N[0, ix])
            N_new[:, ix] += delta * conv
        change = float(np.abs(N_new - N).max())
        N = N_new
        if change < picard_tol:
            break
    else:
        raise OracleError(
            f"Volterra Picard iteration did not reach {picard_tol} in {max_iters} "
            f"iterations (last change {change:.3e}); window too long"
        )

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
        B = np.subtract(hazard[j0:j1].T, h_ref[:, None], out=np.empty((nx, j1 - j0)))
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
        raise ValueError("large-input study requires I(x) > 0 on the grid")
    ks = tuple(float(k) for k in k_values)
    if not ks or any(k <= 0 for k in ks) or any(b <= a for a, b in zip(ks, ks[1:])):
        raise ValueError(f"k values must be positive and increasing, got {ks}")
    if not sample_times:
        sample_times = (t_end,)

    limit_rate = model.limit_model()
    zero_rule = LearningRule(rule.kind, 0.0)
    w_zero = ConnectivityKernel(np.zeros_like(w0.values), w0.space)
    limit_record = nonlinear_run(
        n0.copy(), w_zero, limit_rate, zero_rule, input_model, cfg, t_end,
        save_every=t_end, snapshot_times=sample_times, record_density=True,
    )

    records: dict[float, RunRecord] = {}
    distances = np.zeros((len(ks), len(sample_times)))
    for i, k in enumerate(ks):
        rec = nonlinear_run(
            n0.copy(), w0.copy(), model, rule, input_model.scaled_by(k), cfg, t_end,
            save_every=t_end, snapshot_times=sample_times, record_density=True,
            check_domain=False,
        )
        records[k] = rec
        for j, ts in enumerate(sample_times):
            diff = np.abs(rec.n_snapshot_at(ts) - limit_record.n_snapshot_at(ts))
            per_x = n0.age.integrate(diff)
            distances[i, j] = float(n0.space.integrate(per_x))
    return LargeInputStudy(ks, tuple(sample_times), distances, records, limit_record)
