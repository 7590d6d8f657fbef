"""Constrained optimization of pulse amplitudes, impulse times and horizon.

The decision vector is sigma = (eta_0..eta_n, t_1..t_n, T). Constraints are
linear, xi = A sigma + b <= 0 (:func:`constraint_matrix`): minimal
interpulse spacing, the horizon row t_n + g <= T, amplitude bounds and the
horizon cap T < t_max, each a row of one map and one log barrier term.
The horizon gap g is i_min for the interval-weighted tracking costs
(``track_cn``, ``track_force``), whose last interval [t_n, T] is the only
place pulse n enters the cost, and 0 for terminal costs and plain
callables, where T is an observation time.

The solver is a log-barrier interior-point loop with a fraction-to-boundary
line search. Its inner model of the Hessian is the exact barrier Hessian
plus 2 J^T J + S for the cost. ``track_cn`` is a sum of squared residuals
r_k = sqrt(w_k) (mean_k - c_ref) with an exact Jacobian J (one
forward sweep of the concentration state), so its gradient is 2 J^T r; S is
a Powell-damped BFGS matrix updated with the structured secant
dg - 2 J+^T J+ s. The other costs and plain callables have no exact
Jacobian: they take central finite-difference gradients (:func:`fd_gradient`)
and a J with no rows, which leaves S a damped BFGS model of the whole cost.
An inner loop ends when the gradient is below max(0.3 kkt_tol, 0.02 mu) and,
with an exact Jacobian, the model's Newton step is below
``_NEWTON_STEP_TOL``; at ``_INNER_MAX_ITER`` iterations it stops and the
barrier trace marks it ``capped``. The barrier weight mu starts at
|cost(init)| (at least 1e-4) and shrinks by ``_MU_SHRINK`` per outer round
to a floor of min(``_MU_MIN`` |cost(init)|, kkt_tol / 10); ``_ARMIJO_C1``,
``_MAX_LINE_HALVINGS`` and ``_STEP_CAP`` set the line search,
``_AMPLITUDE_NUDGE`` pulls free start amplitudes off their bounds, and
``_FD_H_REL`` is the relative step of the finite differences.

One function, :func:`_session`, lays out and integrates every session of
trains and rests: the ``track_force_fatigue`` cost's and the planner's. A
session is the program ``simulate_force_fatigue`` takes, a list of
``PulseTrain`` and ``Rest`` values, flattened by
``simulate._flatten_program``; each rest is laid out by the train before it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .approx import ForceApprox, _check_m_approx_args, build_m_approx
from .model import ConcentrationState, ModelParams, PulseTrain, eval_cn
from .simulate import Rest, _flatten_program, _integrate, _stitch, simulate_force

__all__ = [
    "DecisionVector",
    "ObjectiveSpec",
    "OptOutcome",
    "SolveOptions",
    "KKTReport",
    "InfeasibleSigma",
    "SessionTooShort",
    "StepCollision",
    "OBJECTIVE_KINDS",
    "eval_constraints",
    "constraint_matrix",
    "horizon_gap",
    "objective_value",
    "fd_gradient",
    "solve",
    "kkt_check",
]

OBJECTIVE_KINDS = (
    "max_force_terminal",
    "track_force",
    "track_force_fatigue",
    "max_cn_terminal",
    "track_cn",
)

# Costs summed over the pulse intervals [t_k, t_{k+1}] (see horizon_gap).
_INTERVAL_WEIGHTED_KINDS = ("track_cn", "track_force")

# Finite-difference probes may step a hair past an amplitude bound; the
# model is smooth there, so evaluation tolerates this much overshoot.
_AMP_EVAL_SLACK = 0.05

# Barrier schedule, line search and finite-difference step of the solver.
_MU_SHRINK = 0.1            # barrier weight factor per outer round
_MU_MIN = 1e-8              # barrier weight floor, relative to |cost(init)|
_AMPLITUDE_NUDGE = 0.01     # pull free start amplitudes off their bounds
_ARMIJO_C1 = 1e-4
_MAX_LINE_HALVINGS = 45
_STEP_CAP = 120.0           # trust cap on ||alpha * d||_inf per iterate
_FD_H_REL = 1e-5            # relative step of the central differences (fd_gradient)
# With an exact residual Jacobian an inner loop also waits until the model's
# Newton step is below this fraction of every coordinate (taken as at least
# 1). On a degenerate tracking optimum only the barrier picks the point, and
# its gradient along the optimal set is far below any gradient tolerance.
_NEWTON_STEP_TOL = 1e-5
# Relative rounding level of the barrier merit. Where an exact gradient
# predicts a smaller decrease, the line search cannot rank trial points and
# the Newton step is taken whole (finite-difference gradients are not
# accurate enough to be trusted there).
_MERIT_ROUNDING = 1e-14
_INNER_MAX_ITER = 120       # iterations of one inner loop before it is capped


class InfeasibleSigma(ValueError):
    """Times out of order (or past the horizon): the objective is undefined."""


class SessionTooShort(InfeasibleSigma):
    """A train is longer than the session t_f it should tile."""


class StepCollision(RuntimeError):
    """A finite-difference probe broke the time ordering even after shrinking."""


@dataclass(frozen=True)
class _EvalTrain(PulseTrain):
    """Objective-evaluation train: ordering is enforced strictly but
    amplitudes may overshoot [0, 1] slightly (finite-difference probes)."""

    def __post_init__(self) -> None:
        _check_evaluable(self.times, self.amplitudes, self.horizon)


def _check_evaluable(times, amplitudes, horizon: float) -> None:
    """Raise :class:`InfeasibleSigma` where a cost is undefined."""
    if any(b - a <= 0.0 for a, b in zip(times, times[1:])):
        raise InfeasibleSigma("impulse times must be strictly increasing")
    if times[-1] >= horizon:
        raise InfeasibleSigma("last impulse must precede the horizon")
    lo, hi = -_AMP_EVAL_SLACK, 1.0 + _AMP_EVAL_SLACK
    if any(a < lo or a > hi for a in amplitudes):
        raise InfeasibleSigma(f"amplitudes {tuple(amplitudes)} far outside [0, 1]")


@dataclass(frozen=True)
class DecisionVector:
    """sigma = (eta_0..eta_n, t_1..t_n, T), with an optional frozen-amplitude
    layout (amplitudes held at their stored values, e.g. 1 for terminal
    maximization problems)."""

    amplitudes: tuple[float, ...]
    times: tuple[float, ...]
    horizon: float
    freeze_amplitudes: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "amplitudes", tuple(float(a) for a in self.amplitudes))
        object.__setattr__(self, "times", tuple(float(t) for t in self.times))
        object.__setattr__(self, "horizon", float(self.horizon))
        if len(self.amplitudes) != len(self.times) + 1:
            raise ValueError("need one more amplitude than free times (eta_0..eta_n)")

    @property
    def n(self) -> int:
        return len(self.times)

    @property
    def dimension(self) -> int:
        return 2 * self.n + 2

    def flat(self) -> np.ndarray:
        return np.array(self.amplitudes + self.times + (self.horizon,))

    def free_mask(self) -> np.ndarray:
        mask = np.ones(self.dimension, dtype=bool)
        if self.freeze_amplitudes:
            mask[: self.n + 1] = False
        return mask

    def with_flat(self, vec: np.ndarray) -> "DecisionVector":
        n = self.n
        return replace(
            self,
            amplitudes=tuple(vec[: n + 1]),
            times=tuple(vec[n + 1 : 2 * n + 1]),
            horizon=float(vec[2 * n + 1]),
        )

    def with_free(self, free_vec: np.ndarray) -> "DecisionVector":
        full = self.flat()
        full[self.free_mask()] = free_vec
        return self.with_flat(full)

    def to_train(self, i_min: float = 0.0) -> PulseTrain:
        """Strictly validated train (public contract; raises on any
        amplitude outside [0, 1] beyond rounding)."""
        times = (0.0,) + self.times
        amps = tuple(min(max(a, 0.0), 1.0) for a in self.amplitudes)
        if any(abs(a - b) > 1e-9 for a, b in zip(amps, self.amplitudes)):
            raise InfeasibleSigma(f"amplitudes {self.amplitudes} outside [0, 1]")
        try:
            return PulseTrain(times=times, amplitudes=amps, horizon=self.horizon, i_min=i_min)
        except ValueError as exc:
            raise InfeasibleSigma(str(exc)) from exc

    def eval_train(self) -> PulseTrain:
        """Relaxed train for objective evaluation (FD-probe friendly)."""
        return _EvalTrain(
            times=(0.0,) + self.times,
            amplitudes=self.amplitudes,
            horizon=self.horizon,
            i_min=0.0,
        )

    @classmethod
    def regular(
        cls,
        n: int,
        horizon: float,
        amplitude: float = 1.0,
        freeze_amplitudes: bool = False,
    ) -> "DecisionVector":
        """Evenly spread initialization: t_i = i * horizon / (n + 1)."""
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        if not 0.0 <= amplitude <= 1.0:
            raise ValueError(f"amplitude must lie in [0, 1], got {amplitude}")
        times = tuple(i * horizon / (n + 1) for i in range(1, n + 1))
        return cls(
            amplitudes=(amplitude,) * (n + 1),
            times=times,
            horizon=horizon,
            freeze_amplitudes=freeze_amplitudes,
        )


def eval_constraints(
    sigma: DecisionVector, options: SolveOptions, horizon_gap: float = 0.0
) -> np.ndarray:
    """Constraint vector of length 3n+4, all entries <= 0 when feasible.

    Order: spacing (n entries, t_{i-1} - t_i + i_min), horizon
    (t_n - T + horizon_gap), lower amplitude bounds (n+1 entries, -eta_i),
    upper amplitude bounds (n+1, eta_i - 1), horizon cap (T - t_max), with
    i_min and t_max from ``options``.
    ``solve`` sets ``horizon_gap`` per objective (see :func:`horizon_gap`).
    """
    n = sigma.n
    return constraint_matrix(n) @ sigma.flat() + _constraint_offset(n, options, horizon_gap)


def constraint_matrix(n: int) -> np.ndarray:
    """A in xi = A sigma + b, over the flat sigma layout; the Jacobian of
    the constraint vector."""
    a = np.zeros((3 * n + 4, 2 * n + 2))
    r = np.arange(n + 1)
    # Spacing and horizon rows: consecutive differences of (0, t_1..t_n, T).
    a[r[1:], n + r[1:]] = 1.0
    a[r, n + 1 + r] = -1.0
    a[n + 1 + r, r] = -1.0  # -eta_i
    a[2 * n + 2 + r, r] = 1.0  # eta_i - 1
    a[-1, -1] = 1.0  # T - t_max
    return a


def _constraint_offset(n: int, options: SolveOptions, gap: float) -> np.ndarray:
    """b in xi = A sigma + b."""
    return np.concatenate([np.full(n, options.i_min), [gap], np.zeros(n + 1),
                           np.full(n + 1, -1.0), [-options.t_max]])


@dataclass(frozen=True)
class ObjectiveSpec:
    """Which cost to minimize and through which force backend.

    ``backend`` is "approx" (closed-form force approximation) or "oracle"
    (RK4 reference simulation; mandatory for the fatigue-penalized cost).
    The c_N costs (``track_cn``, ``max_cn_terminal``) are closed form
    whatever the backend.
    """

    kind: str
    f_ref: float | None = None
    c_ref: float | None = None
    w1: float = 1.0
    a_s: float | None = None
    backend: str = "approx"
    scheme: str = "affine-constant"
    p: int = 2
    nu: float = 1.0
    t_f: float | None = None
    rest_duration: float | None = None
    sim_step: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in OBJECTIVE_KINDS:
            raise ValueError(f"unknown objective kind {self.kind!r}")
        if self.backend not in ("approx", "oracle"):
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.kind in ("track_force", "track_force_fatigue") and self.f_ref is None:
            raise ValueError(f"{self.kind} needs f_ref")
        if self.kind == "track_cn" and self.c_ref is None:
            raise ValueError("track_cn needs c_ref")
        if self.kind == "track_force_fatigue":
            if self.backend != "oracle":
                raise ValueError("track_force_fatigue requires the oracle backend")
            if self.t_f is None or self.rest_duration is None or self.a_s is None:
                raise ValueError("track_force_fatigue needs t_f, rest_duration and a_s")
        if self.w1 < 0.0:
            raise ValueError("w1 must be >= 0")
        _check_m_approx_args(self.scheme, self.p, self.nu)
        for name in ("rest_duration", "sim_step"):
            value = getattr(self, name)
            if value is not None and value <= 0.0:
                raise ValueError(f"{name} must be positive, got {value}")


def horizon_gap(spec, i_min: float) -> float:
    """Floor g on T - t_n that ``solve`` imposes for an objective.

    The interval-weighted tracking costs see pulse n only through
    [t_n, T]; collapsing that interval would hide eta_n while the pulse is
    still delivered, so it keeps the spacing floor i_min (the next train of
    a tiled program starts at T). Terminal costs and plain callables get 0.
    """
    if isinstance(spec, ObjectiveSpec) and spec.kind in _INTERVAL_WEIGHTED_KINDS:
        return i_min
    return 0.0


def _force_at_nodes(spec: ObjectiveSpec, train: PulseTrain, params: ModelParams, nodes):
    if spec.backend == "approx":
        approx = build_m_approx(train, params, scheme=spec.scheme, p=spec.p, nu=spec.nu)
        return np.atleast_1d(ForceApprox(approx).values(np.asarray(nodes), params.a_rest))
    traj = simulate_force(train, params, spec.sim_step)
    return np.array([traj.at("force", t) for t in nodes])


def _next_rest(remaining: float, rest: float, horizon: float) -> float:
    """The rest after a train that leaves ``remaining`` ms of the session: 0
    at its end, else ``rest`` capped at ``remaining``, or all of
    ``remaining`` where what the rest would leave is too short for another
    train of ``horizon`` ms."""
    if remaining <= 1e-9:
        return 0.0
    r = min(rest, remaining)
    return remaining if remaining - r < horizon else r


def _session(pick, t_f: float, rest: float, params: ModelParams, step, what: str = "train"):
    """Lay out and integrate a session of ``t_f`` ms from rest. Each train is
    ``pick(a_start)`` at the fatigue state (kN/s) at its start, and its rest
    is :func:`_next_rest`'s for trains of its own horizon; the two take one
    RK4 call at ``step``, bit for bit ``simulate_force_fatigue`` of the
    finished program. Returns the program (trains and rests), its breaks
    (see :func:`simulate._flatten_program`), grid, c_N, F and A (kN/ms).
    Raises :class:`SessionTooShort`, naming the train ``what``, where a
    picked train overruns t_f."""
    program, parts = [], ([], [], [], [])  # grid, c_N, F and A of each integration
    forces, a_parts = parts[2:]
    k, cur, a_start = 0, 0.0, params.a_rest  # k: the train start's index in the breaks
    more = True
    while more:
        train = pick(a_start)
        if cur + train.horizon > t_f + 1e-9:
            left = f"the {t_f - cur:.1f} ms left of " if program else ""
            raise SessionTooShort(f"{what} span {train.horizon:.1f} ms exceeds {left}"
                                  f"the session t_f={t_f} ms")
        program.append(train)
        cur += train.horizon
        r = _next_rest(t_f - cur, rest, train.horizon)
        if r:
            program.append(Rest(r))
            cur += r
        more = cur + train.horizon <= t_f + 1e-9
        times, amps, breaks, _ = _flatten_program(program)
        # A next pulse sets c_N at the segment's last node, where only its
        # time matters (u = 0), so it enters with zero weight.
        pad = [cur] if more else []
        state = ConcentrationState.from_pulses(times + pad, amps + [0.0] * len(pad), params)
        start = (forces[-1][-1], a_parts[-1][-1]) if forces else (0.0, None)
        for part, out in zip(parts, _integrate(state, breaks[k:], params, step,
                                               params.alpha_a_ms, *start)):
            part.append(out)
        k = len(breaks) - 1
        a_start = a_parts[-1][-1] * 1e3
    # One channel at a time, each freeing its parts, so that only one
    # channel is held twice.
    channels = []
    for part in parts:
        channels.append(_stitch(part))
        part.clear()
    return program, breaks, *channels


def _fatigue_cost(spec: ObjectiveSpec, train: PulseTrain, params: ModelParams) -> float:
    _, edges, grid, _, force, a_ms = _session(
        lambda a_start: train, spec.t_f, spec.rest_duration, params, spec.sim_step
    )
    # Right-endpoint rule on the pulse intervals of each train, rests
    # contributing as single intervals. The grid is sorted: the points in
    # [a, b] (±1e-9) are one slice, whose last point is b.
    lo = np.searchsorted(grid, np.array(edges[:-1]) - 1e-9).tolist()
    hi = np.searchsorted(grid, np.array(edges[1:]) + 1e-9, "right").tolist()
    cost = 0.0
    for a, b, i, j in zip(edges, edges[1:], lo, hi):
        a_mean = float(np.trapezoid(a_ms[i:j] * 1e3, grid[i:j])) / (b - a)
        cost += (float(force[j - 1]) - spec.f_ref) ** 2 * (b - a)
        cost += spec.w1 * (a_mean - spec.a_s) ** 2 * (b - a)
    return cost


def objective_value(spec, sigma: DecisionVector, params: ModelParams | None = None) -> float:
    """Cost of a decision vector. ``spec`` may also be a plain callable
    DecisionVector -> float (used by tests and custom problems)."""
    return _cost(spec, sigma, sigma.flat(), params)


def _cost(spec, sigma: DecisionVector, x: np.ndarray, params: ModelParams | None) -> float:
    """Cost at the flat ``x`` laid out as ``sigma`` (``track_cn`` without a train)."""
    if callable(spec) and not isinstance(spec, ObjectiveSpec):
        return float(spec(sigma.with_flat(x)))
    n = sigma.n
    if spec.kind == "track_cn":
        _, means, widths = _track_cn_state(x, n, params)
        return float(((means - spec.c_ref) ** 2 @ widths))

    t = np.concatenate(([0.0], x[n + 1 :]))  # (0, t_1..t_n, T)
    widths = t[1:] - t[:-1]
    train = sigma.with_flat(x).eval_train()
    if spec.kind == "max_force_terminal":
        return -float(_force_at_nodes(spec, train, params, [train.horizon])[0])
    if spec.kind == "track_force":
        f_nodes = _force_at_nodes(spec, train, params, t[1:])
        return float(((f_nodes - spec.f_ref) ** 2 @ widths))
    if spec.kind == "max_cn_terminal":
        return -float(eval_cn(train, params, train.horizon))
    return _fatigue_cost(spec, train, params)  # track_force_fatigue


def _track_cn_state(x: np.ndarray, n: int, params: ModelParams):
    """Concentration state, interval means and interval widths of the flat ``x``."""
    t = np.concatenate(([0.0], x[n + 1 :]))  # (0, t_1..t_n, T)
    times, amps, horizon = t[:-1].tolist(), x[: n + 1].tolist(), float(t[-1])
    _check_evaluable(times, amps, horizon)
    state = ConcentrationState.from_pulses(times, amps, params)
    return state, state.means(horizon), t[1:] - t[:-1]


def _track_cn_residuals(
    spec: ObjectiveSpec, x: np.ndarray, n: int, params: ModelParams
) -> tuple[np.ndarray, np.ndarray]:
    """Residuals r_k = sqrt(w_k) (mean_k - c_ref) of ``track_cn`` at the flat
    ``x`` (their squared norm is the cost) and their exact Jacobian over the
    flat layout: dr_k = sqrt(1 / w_k) (dI_k - (mean_k + c_ref) dw_k / 2), with
    I_k the interval integral and w_k = t_{k+1} - t_k."""
    state, means, widths = _track_cn_state(x, n, params)
    root = np.sqrt(1.0 / widths)
    jac = state.integrals_jacobian(float(x[-1]), params)
    half = 0.5 * (means + spec.c_ref)
    k = np.arange(n + 1)
    jac[k, n + 1 + k] -= half  # w_k grows with t_{k+1} (t_{n+1} = T) ...
    jac[k[1:], n + k[1:]] += half[1:]  # ... and shrinks with t_k
    return root * widths * (means - spec.c_ref), root[:, None] * jac


def fd_gradient(spec, sigma: DecisionVector, params: ModelParams | None = None) -> np.ndarray:
    """Central finite differences over the free coordinates.

    Per-coordinate step h = _FD_H_REL * max(|sigma_i|, 1); a probe that breaks
    the time ordering is retried with h/10 up to three times before
    raising :class:`StepCollision`.
    """
    free = np.flatnonzero(sigma.free_mask())
    base = sigma.flat()
    grad = np.empty(len(free))
    for out_i, i in enumerate(free):
        h = _FD_H_REL * max(abs(base[i]), 1.0)
        for attempt in range(4):
            try:
                hi = base.copy()
                hi[i] += h
                lo = base.copy()
                lo[i] -= h
                f_hi = _cost(spec, sigma, hi, params)
                f_lo = _cost(spec, sigma, lo, params)
                grad[out_i] = (f_hi - f_lo) / (2.0 * h)
                break
            except InfeasibleSigma:
                if attempt == 3:
                    raise StepCollision(
                        f"coordinate {i}: probe step {h} collides with time ordering"
                    ) from None
                h /= 10.0
    return grad


@dataclass(frozen=True)
class SolveOptions:
    i_min: float = 20.0
    t_max: float = 1500.0            # cap on T, the last constraint row
    kkt_tol: float = 1e-6
    n_starts: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.i_min < 0.0:
            raise ValueError(f"i_min must be >= 0, got {self.i_min}")
        if self.kkt_tol <= 0.0:
            raise ValueError(f"kkt_tol must be positive, got {self.kkt_tol}")
        if self.n_starts < 1:
            raise ValueError(f"n_starts must be at least 1, got {self.n_starts}")


@dataclass(frozen=True)
class KKTReport:
    stationarity: float
    complementarity: float
    feasibility: float
    passed: bool


@dataclass(frozen=True)
class OptOutcome:
    sigma_star: DecisionVector
    objective: float
    multipliers: tuple[float, ...]
    kkt_residual: float
    stationarity: float
    complementarity: float
    feasibility: float
    iterations: int
    status: str
    options: SolveOptions
    trace: tuple[dict, ...] = field(default_factory=tuple)


def _nudge_start(sigma: DecisionVector) -> DecisionVector:
    if sigma.freeze_amplitudes:
        return sigma
    eps = _AMPLITUDE_NUDGE
    amps = tuple(min(max(a, eps), 1.0 - eps) for a in sigma.amplitudes)
    return replace(sigma, amplitudes=amps)


def _solve_single(spec, start: DecisionVector, params, opts: SolveOptions) -> OptOutcome:
    n = start.n
    a_full = constraint_matrix(n)
    free = start.free_mask()
    jac = a_full[:, free]
    rows = np.flatnonzero(np.abs(jac).sum(axis=1) > 0.0)

    b = _constraint_offset(n, opts, horizon_gap(spec, opts.i_min))
    sigma = _nudge_start(start)
    flat = sigma.flat()  # frozen coordinates stay; free ones take the iterate
    x = flat[free]
    total_iters = 0
    trace: list[dict] = []
    status = "converged"

    def theta(xv: np.ndarray) -> float:
        flat[free] = xv
        return _cost(spec, sigma, flat, params)

    def constraints(xv: np.ndarray) -> np.ndarray:
        flat[free] = xv
        return a_full @ flat + b

    xi0 = constraints(x)
    if np.any(xi0[rows] >= 0.0):
        raise InfeasibleSigma(
            f"initialization is not strictly feasible: max constraint {float(xi0[rows].max())}"
        )

    def phi(xv: np.ndarray, mu: float, theta_x: float | None = None) -> tuple[float, float]:
        """Barrier merit and cost at xv; a known cost ``theta_x`` is reused."""
        xi = constraints(xv)
        if np.any(xi[rows] >= 0.0):
            return math.inf, math.nan
        if theta_x is None:
            theta_x = theta(xv)
        return theta_x - mu * float(np.log(-xi[rows]).sum()), theta_x

    exact = isinstance(spec, ObjectiveSpec) and spec.kind == "track_cn"
    no_rows = np.zeros((0, len(x)))

    def derivatives(xv: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cost gradient, residuals r and their Jacobian J over the free
        coordinates. Costs without an exact Jacobian take finite differences
        and have no residual rows."""
        if not exact:
            grad = fd_gradient(spec, sigma.with_free(xv), params)
            return grad, np.zeros(0), no_rows
        flat[free] = xv
        r, j = _track_cn_residuals(spec, flat, n, params)
        j = j[:, free]
        return 2.0 * (j.T @ r), r, j

    def barrier_grad_hess(xv: np.ndarray, mu: float):
        jr = jac[rows]
        slack = -constraints(xv)[rows]
        return mu * (jr.T @ (1.0 / slack)), mu * (jr.T * (1.0 / slack**2)) @ jr

    dim = len(x)
    # The cost Hessian is modelled as 2 J^T J + S: the Gauss-Newton term is
    # exact, S is a quasi-Newton model of the rest (of all of it when J has
    # no rows). The barrier block is analytic and recomputed at every iterate.
    b_theta = 1e-8 * np.eye(dim)
    g_t, r_t, j_t = derivatives(x)
    # The barrier weight schedule follows the cost magnitude, which makes
    # the iterate path invariant under positive rescaling of the objective;
    # the floor still honors the complementarity tolerance for large costs.
    theta_x = theta(x)  # the cost at the current iterate, carried along
    theta_scale = max(1e-4, abs(theta_x))
    mu = theta_scale
    mu_floor = max(min(_MU_MIN * theta_scale, 0.1 * opts.kkt_tol), 1e-18)
    while True:
        g_b, h_b = barrier_grad_hess(x, mu)
        g = g_t + g_b
        inner_tol = max(0.3 * opts.kkt_tol, 0.02 * mu)
        stalled = capped = False
        for used in range(_INNER_MAX_ITER + 1):
            h_full = b_theta + 2.0 * (j_t.T @ j_t) + h_b
            h_full = h_full + (1e-12 * (1.0 + float(np.trace(h_full)) / dim)) * np.eye(dim)
            d = -np.linalg.solve(h_full, g)
            if float(np.max(np.abs(g))) <= inner_tol and (
                not exact
                or float(np.max(np.abs(d) / np.maximum(np.abs(x), 1.0))) <= _NEWTON_STEP_TOL
            ):
                break
            if used == _INNER_MAX_ITER:
                capped = True
                break
            if float(d @ g) >= 0.0:
                d = -g
            deltas = jac[rows] @ d
            toward = deltas > 1e-14
            ratios = -constraints(x)[rows][toward] / deltas[toward]
            alpha_max = float(ratios.min()) if ratios.size else math.inf
            d_inf = float(np.max(np.abs(d)))
            alpha_limit = min(0.99 * alpha_max, _STEP_CAP / max(d_inf, 1e-30))
            alpha = min(1.0, alpha_limit)
            phi0, _ = phi(x, mu, theta_x)
            slope = float(g @ d)
            accepted = False
            phi_a, theta_a = phi(x + alpha * d, mu)
            whole = exact and -slope <= _MERIT_ROUNDING * abs(phi0) and math.isfinite(phi_a)
            if whole or phi_a <= phi0 + _ARMIJO_C1 * alpha * slope:
                # Newton steps through flat valleys may still be short;
                # expand greedily while the merit keeps dropping.
                accepted = True
                while not whole and 2.0 * alpha <= alpha_limit:
                    phi_b, theta_b = phi(x + 2.0 * alpha * d, mu)
                    if phi_b < phi_a:
                        alpha *= 2.0
                        phi_a, theta_a = phi_b, theta_b
                    else:
                        break
            else:
                for _ in range(_MAX_LINE_HALVINGS):
                    alpha *= 0.5
                    phi_a, theta_a = phi(x + alpha * d, mu)
                    if phi_a <= phi0 + _ARMIJO_C1 * alpha * slope:
                        accepted = True
                        break
            if not accepted:
                stalled = True
                break
            x_new = x + alpha * d
            g_t_new, r_t_new, j_t_new = derivatives(x_new)
            s = x_new - x
            # Structured secant of NL2SOL (Dennis, Gay & Welsch): S learns
            # 2 (J+ - J)^T r+, the change of gradient that the old Jacobian
            # does not explain through the change of residuals.
            y = g_t_new - g_t - 2.0 * (j_t.T @ (r_t_new - r_t))
            bs = b_theta @ s
            sbs = float(s @ bs)
            sy = float(s @ y)
            # Powell-damped BFGS keeps S positive definite. With an exact
            # Jacobian, S is only the residual-curvature remainder, which may
            # be indefinite: where it shows none along s, S is left as it is,
            # since damping would inflate it across the badly scaled
            # amplitude and time axes.
            if sbs > 0.0 and not (exact and sy <= 0.0):
                if sy < 0.2 * sbs:
                    tau_d = 0.8 * sbs / (sbs - sy)
                    y = tau_d * y + (1.0 - tau_d) * bs
                    sy = float(s @ y)
                if sy > 1e-14 * float(np.linalg.norm(s) * np.linalg.norm(y) + 1e-30):
                    b_theta = (
                        b_theta
                        - np.outer(bs, bs) / sbs
                        + np.outer(y, y) / sy
                    )
            x, g_t, r_t, j_t, theta_x = x_new, g_t_new, r_t_new, j_t_new, theta_a
            g_b, h_b = barrier_grad_hess(x, mu)
            g = g_t + g_b
            total_iters += 1
        trace.append(
            {
                "mu": mu,
                "phi": phi(x, mu, theta_x)[0],
                "grad_inf": float(np.max(np.abs(g))),
                "iterations": total_iters,
                "stalled": stalled,
                "capped": capped,
            }
        )
        if stalled and float(np.max(np.abs(g))) > 10.0 * inner_tol:
            status = "line_search_stalled"
        if mu <= mu_floor * (1.0 + 1e-12):
            break
        mu = max(mu * _MU_SHRINK, mu_floor)

    xi = constraints(x)
    lam = np.zeros(len(xi))
    lam[rows] = mu_floor / (-xi[rows])
    # g_t is the cost gradient at x, already taken by the loop.
    stationarity, complementarity, feasibility = _kkt_residuals(g_t, jac, lam, xi)
    kkt = max(stationarity, complementarity, feasibility)
    if status == "converged" and kkt > opts.kkt_tol:
        status = "max_iterations"
    return OptOutcome(
        sigma_star=sigma.with_free(x),
        objective=theta_x,
        multipliers=tuple(float(v) for v in lam),
        kkt_residual=kkt,
        stationarity=stationarity,
        complementarity=complementarity,
        feasibility=feasibility,
        iterations=total_iters,
        status=status,
        options=opts,
        trace=tuple(trace),
    )


def _kkt_residuals(g, jac, lam, xi) -> tuple[float, float, float]:
    """Stationarity, complementarity and feasibility of (x, lam): the
    largest |g + jac^T lam|, |lam * xi| and max(xi, 0)."""
    stationarity = float(np.max(np.abs(g + jac.T @ lam)))
    complementarity = float(np.max(np.abs(lam * xi)))
    feasibility = float(max(0.0, xi.max()))
    return stationarity, complementarity, feasibility


def _jittered_starts(init: DecisionVector, opts: SolveOptions) -> list[DecisionVector]:
    starts = [init]
    if opts.n_starts <= 1:
        return starts
    rng = np.random.default_rng(opts.seed)
    n_gaps = init.n + 1
    for _ in range(opts.n_starts - 1):
        gaps = np.diff(np.asarray((0.0,) + init.times + (init.horizon,)))
        slack = np.maximum(gaps - opts.i_min, 0.05 * opts.i_min)
        new_gaps = opts.i_min + slack * rng.uniform(0.3, 1.4, size=n_gaps)
        total = float(new_gaps.sum())
        limit = 0.95 * opts.t_max
        if total > limit:
            # Shrink the slack uniformly so the horizon fits under the cap.
            beta = (limit - n_gaps * opts.i_min) / (total - n_gaps * opts.i_min)
            new_gaps = opts.i_min + (new_gaps - opts.i_min) * max(beta, 0.0)
        t_cum = np.cumsum(new_gaps)
        amps = (
            init.amplitudes
            if init.freeze_amplitudes
            else tuple(rng.uniform(0.3, 0.9, size=init.n + 1))
        )
        starts.append(
            DecisionVector(
                amplitudes=amps,
                times=tuple(float(v) for v in t_cum[:-1]),
                horizon=float(t_cum[-1]),
                freeze_amplitudes=init.freeze_amplitudes,
            )
        )
    return starts


def solve(
    spec,
    init: DecisionVector,
    params: ModelParams | None = None,
    options: SolveOptions | None = None,
) -> OptOutcome:
    """Run the barrier loop from ``init`` (and ``n_starts - 1`` jittered
    companions); the best feasible outcome by objective wins. Deterministic
    for fixed inputs, options and seed."""
    opts = options or SolveOptions()
    starts = _jittered_starts(init, opts)
    outcomes = []
    for idx, start in enumerate(starts):
        try:
            outcomes.append(_solve_single(spec, start, params, opts))
        except InfeasibleSigma:
            if idx == 0:
                raise
    best = min(outcomes, key=lambda o: o.objective)
    if len(outcomes) > 1:
        best = replace(
            best,
            trace=best.trace + ({"start_objectives": [o.objective for o in outcomes]},),
        )
    return best


def kkt_check(
    spec, outcome: OptOutcome, params: ModelParams | None = None, tol: float = 1e-6
) -> KKTReport:
    """Recompute first-order optimality residuals at an outcome, against
    the constraint map that ``solve`` used: the outcome's options and the
    objective's horizon gap rebuild every row, the horizon cap included."""
    sigma = outcome.sigma_star
    lam = np.asarray(outcome.multipliers)
    jac = constraint_matrix(sigma.n)[:, sigma.free_mask()]
    g = fd_gradient(spec, sigma, params)
    opts = outcome.options
    xi = eval_constraints(sigma, opts, horizon_gap(spec, opts.i_min))
    stationarity, complementarity, feasibility = _kkt_residuals(g, jac, lam, xi)
    passed = stationarity <= tol and complementarity <= tol and feasibility <= tol
    return KKTReport(stationarity, complementarity, feasibility, passed)
