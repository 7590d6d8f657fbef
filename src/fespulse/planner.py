"""Endurance-program assembly for a closed-loop-free smart stimulator.

A user-level force target is converted, through the steady-state root of
the Hill dynamics, into a reference concentration; an L2 concentration
tracking problem produces a template train; ``optimize._session``, which
lays out the ``track_force_fatigue`` cost's session too, tiles trains and
recovery rests over the session and integrates it once, train by train,
the fatigue state at each train start picking (or re-solving) its template
and that template's horizon sizing the rest after it. The program is the
``PulseTrain``/``Rest`` sequence that ``simulate_force_fatigue`` takes, and
its trajectory is that simulation's, bit for bit. The finished trajectory
flags any crossing of the fatigue threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .model import ModelParams, PulseTrain, steady_state_root
from .optimize import DecisionVector, ObjectiveSpec, SolveOptions, _session, solve
from .simulate import Rest, Trajectory, _flatten_program, simulate_force

__all__ = [
    "ProgramSpec",
    "StimulationProgram",
    "TemplateNotConverged",
    "plan_endurance",
    "derive_f_max",
]

# Re-solve the template when A at a train start drifts more than this
# (relative) from the A of every template solved so far.
_REDRIFT_TOL = 0.10


class TemplateNotConverged(RuntimeError):
    """A template or f_max solve ended with a status other than ``converged``."""


@dataclass(frozen=True)
class ProgramSpec:
    """User-level description of a training program.

    ``f_ref`` may be given directly, or derived as f_max / k_ratio with
    f_max obtained from a terminal-force maximization. The fatigue
    threshold is a_rest / k_fatigue; both ratios must exceed 1.
    """

    f_ref: float | None = None
    k_ratio: float | None = None
    n: int = 5
    i_min: float = 20.0
    train_horizon: float = 400.0     # ms, start horizon of every template solve
    rest_duration: float | None = None   # ms; 3*tau_fat when unset
    t_f: float = 2000.0              # ms, total session span
    k_fatigue: float = 2.0
    sim_step: float | None = None

    def __post_init__(self) -> None:
        if self.f_ref is None and self.k_ratio is None:
            raise ValueError("give f_ref or k_ratio")
        if self.k_ratio is not None and self.k_ratio <= 1.0:
            raise ValueError(f"k_ratio must exceed 1, got {self.k_ratio}")
        if self.k_fatigue <= 1.0:
            raise ValueError(f"k_fatigue must exceed 1, got {self.k_fatigue}")
        if self.n < 0:
            raise ValueError(f"n must be >= 0, got {self.n}")
        if self.i_min < 0.0:
            raise ValueError(f"i_min must be >= 0, got {self.i_min}")
        # The regular start splits train_horizon into n+1 gaps, each of
        # which must exceed i_min strictly.
        if (self.n + 1) * self.i_min >= self.train_horizon:
            raise ValueError(
                f"(n+1)*i_min = {(self.n + 1) * self.i_min} does not fit under "
                f"train_horizon {self.train_horizon}"
            )
        if self.t_f < self.train_horizon:
            raise ValueError("session t_f must fit at least one train")
        for name in ("f_ref", "rest_duration", "sim_step"):
            value = getattr(self, name)
            if value is not None and value <= 0.0:
                raise ValueError(f"{name} must be positive, got {value}")


@dataclass(frozen=True, eq=False)
class StimulationProgram:
    """An assembled session: trains and rests tiling [0, t_f] back to back
    (the program ``simulate_force_fatigue`` takes), the concentration
    reference they track, and the simulated fatigue audit."""

    segments: tuple[PulseTrain | Rest, ...]
    c_n_ref: float
    f_ref: float
    a_threshold: float
    trajectory: Trajectory
    fatigue_breach_time: float | None
    train_summaries: tuple[dict, ...]

    @property
    def bounds(self) -> list[float]:
        """0, then the end of each segment, summed in program order."""
        return _flatten_program(self.segments)[3]

    @property
    def t_f(self) -> float:
        return self.bounds[-1]


def _solve_template(
    objective: ObjectiveSpec,
    spec: ProgramSpec,
    params: ModelParams,
    options: SolveOptions | None,
    freeze_amplitudes: bool = False,
) -> PulseTrain:
    """The train solving ``objective`` from the regular start of n + 1 pulses
    over ``spec.train_horizon``, spaced by at least ``spec.i_min``."""
    opts = replace(options or SolveOptions(), i_min=spec.i_min)
    init = DecisionVector.regular(spec.n, spec.train_horizon, freeze_amplitudes=freeze_amplitudes)
    outcome = solve(objective, init, params, opts)
    if outcome.status != "converged":
        raise TemplateNotConverged(
            f"template solve of {objective.kind} ended with status={outcome.status} after "
            f"{outcome.iterations} iterations (kkt residual {outcome.kkt_residual:.3g})"
        )
    return outcome.sigma_star.to_train(i_min=spec.i_min)


def plan_endurance(
    spec: ProgramSpec,
    params: ModelParams,
    options: SolveOptions | None = None,
) -> StimulationProgram:
    """Build and audit an endurance program for a target force level.

    Raises :class:`fespulse.model.UnreachableForce` when the requested
    force has no steady state, :class:`TemplateNotConverged` when a
    template solve or the f_max solve does not converge (an unconverged
    template is never tiled), and :class:`SessionTooShort` when a
    template is longer than what is left of the session. Fatigue-threshold
    crossings do not abort the program; they are reported through
    ``fatigue_breach_time``.
    ``spec.i_min`` replaces the spacing floor of ``options``.
    """
    f_ref = spec.f_ref
    if f_ref is None:
        f_ref = derive_f_max(spec, params, options) / spec.k_ratio
    _, c_n_ref = steady_state_root(params, params.a_rest, f_ref)

    template = _solve_template(ObjectiveSpec(kind="track_cn", c_ref=c_n_ref), spec, params, options)
    # 95% recovery of the fatigue state takes about three time constants.
    rest_len = spec.rest_duration if spec.rest_duration is not None else 3.0 * params.tau_fat_ms

    # Tile with the single template, and re-solve wherever the simulated
    # fatigue drift at a train start exceeds the tolerance.
    templates_by_a: list[tuple[float, PulseTrain]] = [(params.a_rest, template)]

    def pick_template(a_start: float) -> PulseTrain:
        for a_used, train in templates_by_a:
            if abs(a_start - a_used) / a_used <= _REDRIFT_TOL:
                return train
        _, c_ref_k = steady_state_root(params, a_start, f_ref)
        objective = ObjectiveSpec(kind="track_cn", c_ref=c_ref_k)
        templates_by_a.append((a_start, _solve_template(objective, spec, params, options)))
        return templates_by_a[-1][1]

    segments, _, grid, c_n, force, a_ch = _session(
        pick_template, spec.t_f, rest_len, params, spec.sim_step, "optimized train"
    )
    a_ch *= 1e3  # kN/s
    trajectory = Trajectory(grid, {"c_n": c_n, "force": force, "a": a_ch})
    a_threshold = params.a_rest / spec.k_fatigue
    below = np.flatnonzero(a_ch < a_threshold)
    breach = float(trajectory.grid[below[0]]) if len(below) else None

    summaries = []
    bounds = _flatten_program(segments)[3]
    for seg, lo, hi in zip(segments, bounds, bounds[1:]):
        if not isinstance(seg, PulseTrain):
            continue
        # The grid is sorted: the points in [lo, hi] (±1e-9) are one slice.
        sel = slice(np.searchsorted(grid, lo - 1e-9), np.searchsorted(grid, hi + 1e-9, "right"))
        summaries.append(
            {
                "start_ms": lo,
                "end_ms": hi,
                "peak_force_kN": float(force[sel].max()),
                "terminal_force_kN": float(force[sel][-1]),
                "a_start": float(a_ch[sel][0]),
                "a_end": float(a_ch[sel][-1]),
            }
        )

    return StimulationProgram(
        segments=tuple(segments),
        c_n_ref=c_n_ref,
        f_ref=f_ref,
        a_threshold=a_threshold,
        trajectory=trajectory,
        fatigue_breach_time=breach,
        train_summaries=tuple(summaries),
    )


def derive_f_max(
    spec: ProgramSpec, params: ModelParams, options: SolveOptions | None = None
) -> float:
    """Peak attainable terminal force: the terminal force of ``spec.n`` + 1
    full-amplitude pulses, maximized by a template solve and simulated at
    ``spec.sim_step``. Raises :class:`TemplateNotConverged` when the solve
    does not converge."""
    objective = ObjectiveSpec(kind="max_force_terminal")
    train = _solve_template(objective, spec, params, options, freeze_amplitudes=True)
    return simulate_force(train, params, spec.sim_step).terminal("force")
