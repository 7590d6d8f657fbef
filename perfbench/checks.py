"""Output checks: every artifact against the independent reference
(:mod:`reference`) or against properties the method must have.

Each ``check_*`` function reads one operation's output directory and
returns ``(problems, facts)``: a list of human-readable failures (empty when
the artifact is correct) and the figures that cross-operation checks need.
CSV times and values carry 9 significant digits, so every comparison
allows what that rounding can move (:func:`reference.rounding_allowance`).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import reference as ref

# Program RK4 (step tau_c/50) against DOP853 at rtol 1e-10: about 1e-7 kN
# on a 250-pulse train and 5e-9 kN over a 10-train session.
FORCE_TOL = 1e-6      # kN
A_TOL = 1e-6          # kN/s
CN_TOL = 1e-12
FEAS_TOL = 1e-8       # the solver's feasibility tolerance
STEADY_REL_TOL = 1e-9


def read_csv(path: Path) -> dict[str, np.ndarray]:
    """Columns of a CLI CSV artifact (provenance lines start with '#')."""
    skip = 0
    with open(path) as fh:
        for line in fh:
            if not line.startswith("#"):
                columns = line.strip().split(",")
                break
            skip += 1
        else:
            raise ValueError(f"{path} has no header row")
    data = np.loadtxt(path, delimiter=",", skiprows=skip + 1, ndmin=2)
    return {name: data[:, i] for i, name in enumerate(columns)}


def _compare(problems, what, t, got, want, slope, tol) -> None:
    err = np.abs(got - want) - ref.rounding_allowance(t, slope, want)
    worst = int(np.argmax(err))
    if err[worst] > tol:
        problems.append(
            f"{what} differs from the reference by {abs(got[worst] - want[worst]):.3e} "
            f"at t = {t[worst]} ms (tolerance {tol:.1e})"
        )


def _spacing(problems, what, times, horizon, i_min) -> None:
    times = np.asarray(times, dtype=float)
    if times[0] != 0.0:
        problems.append(f"{what}: first pulse at {times[0]} ms, not 0")
    gaps = np.diff(times)
    if gaps.size and gaps.min() < i_min - FEAS_TOL:
        problems.append(f"{what}: pulse gap {gaps.min():.9g} ms under i_min {i_min}")
    if horizon - times[-1] < i_min - FEAS_TOL:
        problems.append(f"{what}: horizon gap {horizon - times[-1]:.9g} ms under i_min {i_min}")


def _amplitudes(problems, what, amps) -> None:
    amps = np.asarray(amps, dtype=float)
    if amps.min() < -FEAS_TOL or amps.max() > 1.0 + FEAS_TOL:
        problems.append(f"{what}: amplitude outside [0, 1]: {amps.min()}..{amps.max()}")


def tracking_cost(times, horizon, force_at_nodes, f_ref) -> float:
    """sum_k (F(t_{k+1}) - f_ref)^2 (t_{k+1} - t_k) with t_{n+1} = T."""
    edges = np.append(np.asarray(times, dtype=float), horizon)
    return float(((np.asarray(force_at_nodes) - f_ref) ** 2) @ np.diff(edges))


def check_track_force(spec: dict, out: Path):
    problems: list[str] = []
    sol = json.loads((out / "solution.json").read_text())
    times, amps, horizon = sol["times_ms"], sol["amplitudes"], sol["horizon_ms"]
    if sol["status"] != "converged":
        problems.append(f"status {sol['status']!r}, not 'converged'")
    if sol["kkt"]["residual"] > 1e-6:
        problems.append(f"KKT residual {sol['kkt']['residual']:.3e} above 1e-6")
    if len(times) != spec["n"] + 1:
        problems.append(f"{len(times)} pulses, expected {spec['n'] + 1}")
        return problems, {}
    _spacing(problems, "optimized train", times, horizon, spec["i_min"])
    _amplitudes(problems, "optimized train", amps)

    csv = read_csv(out / "response.csv")
    t = csv["t_ms"]
    nodes = np.append(times[1:], horizon)
    got = ref.solve(times, amps, horizon, np.concatenate([t, nodes]))
    k = len(t)
    _compare(problems, "response.csv oracle", t, csv["oracle"], got.force[:k],
             got.force_slope[:k], FORCE_TOL)
    cost = tracking_cost(times, horizon, got.force[k:], spec["f_ref"])

    n, h0 = spec["n"], spec["init_horizon"]
    start = [i * h0 / (n + 1) for i in range(n + 1)]
    start_force = ref.solve(start, [1.0] * (n + 1), h0, start[1:] + [h0]).force
    start_cost = tracking_cost(start, h0, start_force, spec["f_ref"])
    if not cost < start_cost:
        problems.append(f"tracking cost {cost:.6g} of the optimum is not below {start_cost:.6g} "
                        "of the regular start (independent force)")
    return problems, {"cost": cost, "start_cost": start_cost}


def check_plan(spec: dict, out: Path):
    problems: list[str] = []
    prog = json.loads((out / "program.json").read_text())
    a_rest = ref.MODEL["a_rest"]
    segments = prog["segments"]

    end = 0.0
    pulse_t: list[float] = []
    pulse_a: list[float] = []
    bounds: list[float] = []
    for i, seg in enumerate(segments):
        if abs(seg["start_ms"] - end) > 1e-6:
            problems.append(f"segment {i} starts at {seg['start_ms']} ms, previous ends at {end} ms")
        if seg["kind"] == "train":
            _spacing(problems, f"train {i}", seg["times_ms"], seg["duration_ms"], spec["i_min"])
            _amplitudes(problems, f"train {i}", seg["amplitudes"])
            pulse_t.extend(seg["start_ms"] + t for t in seg["times_ms"])
            pulse_a.extend(seg["amplitudes"])
        end = seg["start_ms"] + seg["duration_ms"]
        bounds.append(end)
    if abs(end - spec["t_f"]) > 1e-6:
        problems.append(f"segments end at {end} ms, not t_f = {spec['t_f']} ms")

    f_ref = prog["f_ref_kN"]
    if f_ref != spec["f_ref"]:
        problems.append(f"f_ref_kN {f_ref} differs from the scenario's {spec['f_ref']}")
    f_of_c = ref.steady_force(prog["c_n_ref"], a_rest)
    if abs(f_of_c - spec["f_ref"]) > STEADY_REL_TOL * spec["f_ref"]:
        problems.append(f"c_n_ref {prog['c_n_ref']} gives steady force {f_of_c!r} kN, "
                        f"not f_ref {spec['f_ref']}")
    threshold = a_rest / spec["k_fatigue"]
    if abs(prog["a_threshold"] - threshold) > 1e-12 * threshold:
        problems.append(f"a_threshold {prog['a_threshold']} is not a_rest/k_fatigue {threshold}")

    csv = read_csv(out / "program_trajectory.csv")
    t, a = csv["t_ms"], csv["a"]
    if pulse_t:
        got = ref.solve(pulse_t, pulse_a, end, t, fatigue=True, boundaries=bounds)
        _compare(problems, "c_n", t, csv["c_n"], got.c_n, got.c_slope, CN_TOL)
        _compare(problems, "force_kN", t, csv["force_kN"], got.force, got.force_slope, FORCE_TOL)
        _compare(problems, "a", t, a, got.a, got.a_slope, A_TOL)
    else:
        problems.append("the program has no train")
    if a.min() <= 0.0 or a.max() > a_rest * (1.0 + 5e-9):
        problems.append(f"a leaves (0, a_rest]: {a.min()}..{a.max()}")

    below = np.flatnonzero(a < prog["a_threshold"])
    breach = prog["fatigue_breach_time_ms"]
    if below.size == 0 and breach is not None:
        problems.append(f"fatigue_breach_time_ms {breach} but a never crosses a_threshold")
    elif below.size and (breach is None or abs(breach - t[below[0]]) > 5e-9 * t[below[0]] + 1e-9):
        problems.append(f"fatigue_breach_time_ms {breach}, first crossing at {t[below[0]]} ms")
    return problems, {}


def check_approximate(spec: dict, out: Path):
    problems: list[str] = []
    csv = read_csv(out / "approximation.csv")
    t = csv["t_ms"]
    if t[0] != 0.0 or abs(t[-1] - spec["horizon"]) > 5e-9 * spec["horizon"]:
        problems.append(f"grid spans {t[0]}..{t[-1]} ms, not 0..{spec['horizon']}")
    got = ref.solve(spec["times"], spec["amplitudes"], spec["horizon"], t)
    _compare(problems, "c_n", t, csv["c_n"], got.c_n, got.c_slope, CN_TOL)
    _compare(problems, "f_oracle_kN", t, csv["f_oracle_kN"], got.force, got.force_slope, FORCE_TOL)
    excess = csv["c_n_truncated"] - csv["c_n"] - 5e-9 * np.abs(csv["c_n"])
    if excess.max() > 1e-15:
        i = int(np.argmax(excess))
        problems.append(f"c_n_truncated {csv['c_n_truncated'][i]} above c_n {csv['c_n'][i]} "
                        f"at t = {t[i]} ms")
    gap = float(np.max(np.abs(csv["f_tilde_kN"] - got.force)))
    return problems, {"f_tilde_gap": gap}


def check_refinement(gaps_by_p: dict[int, float], train: str) -> list[str]:
    """The closed-form force must get closer to the reference at p = 8 than at p = 2."""
    if not gaps_by_p[8] < gaps_by_p[2]:
        return [f"train {train}: max |f_tilde - F| is {gaps_by_p[8]:.3e} kN at p = 8, "
                f"not below {gaps_by_p[2]:.3e} kN at p = 2"]
    return []


CHECKS = {
    "optimize": check_track_force,
    "plan": check_plan,
    "approximate": check_approximate,
}
