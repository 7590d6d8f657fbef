"""Scenario generators of the three workloads.

One round of a workload is a fixed list of CLI operations. The seed orders
the operations of a round and, for ``approximate-long``, draws the pulse
trains; the amount of work in a round does not depend on it. The program
sees only the scenario files written from these operations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from reference import MODEL

I_MIN = 20.0
KKT_TOL = 1e-6

# (n, f_ref kN, nu): n from 3 to 7, f_ref from 0.1 to 0.2 kN, nu in {1, 0.95}.
# The three middle operations take about the same time, so the median
# operation time rests on three samples per round instead of one.
TRACK_FORCE = ((3, 0.10, 1.0), (4, 0.15, 0.95), (5, 0.15, 0.95), (5, 0.10, 1.0), (7, 0.20, 1.0))
TRACK_FORCE_INIT_HORIZON = 1000.0

# (label, f_ref kN, t_f ms, rest ms). "steady" keeps the fatigue drift at
# train starts under 6 % (one template solve, no threshold crossing);
# "drifting" needs 2 template solves and crosses a_rest/k_fatigue. Every
# drift stays at least 0.3 percentage points away from the 10 % re-solve
# tolerance, so the number of solves cannot flip on rounding.
SESSIONS = (("steady", 0.15, 20000.0, 2000.0), ("drifting", 0.25, 12000.0, 300.0))
K_FATIGUE = 1.1
TRAIN_PULSES = 5
TRAIN_HORIZON = 400.0

# Pulse counts of the long trains; each train runs at both p values.
LONG_TRAIN_PULSES = (30, 60, 120, 180, 250)
LONG_TRAIN_GAP_SLACK = 25.0   # ms, mean of the exponential slack over I_MIN
LONG_TRAIN_TAIL = 100.0       # ms after the last pulse
APPROX_P = (2, 8)

WORKLOADS = ("track-force", "endurance-plan", "approximate-long")


@dataclass(frozen=True)
class Operation:
    """One CLI call: subcommand, scenario text, and what the checks need."""

    label: str
    command: str
    config: str
    spec: dict


def _model_section() -> str:
    return "[model]\n" + "".join(f"{k} = {v!r}\n" for k, v in MODEL.items())


def _floats(values) -> str:
    return ", ".join(repr(float(v)) for v in values)


def track_force_ops() -> list[Operation]:
    ops = []
    for n, f_ref, nu in TRACK_FORCE:
        config = (
            _model_section()
            + f"[objective]\nkind = track_force\nf_ref = {f_ref!r}\nbackend = approx\nnu = {nu!r}\n"
            + f"[solver]\nn = {n}\ni_min = {I_MIN!r}\ninit_horizon = {TRACK_FORCE_INIT_HORIZON!r}\n"
            + f"kkt_tol = {KKT_TOL!r}\n"
        )
        spec = {"n": n, "f_ref": f_ref, "nu": nu, "i_min": I_MIN,
                "init_horizon": TRACK_FORCE_INIT_HORIZON}
        ops.append(Operation(f"n{n}-f{f_ref}-nu{nu}", "optimize", config, spec))
    return ops


def endurance_ops() -> list[Operation]:
    ops = []
    for label, f_ref, t_f, rest in SESSIONS:
        config = (
            _model_section()
            + f"[program]\nf_ref = {f_ref!r}\nt_f = {t_f!r}\nrest = {rest!r}\n"
            + f"k_fatigue = {K_FATIGUE!r}\nn = {TRAIN_PULSES}\ni_min = {I_MIN!r}\n"
            + f"train_horizon = {TRAIN_HORIZON!r}\n"
        )
        spec = {"f_ref": f_ref, "t_f": t_f, "rest": rest, "k_fatigue": K_FATIGUE, "i_min": I_MIN}
        ops.append(Operation(label, "plan", config, spec))
    return ops


def long_train(rng: np.random.Generator, pulses: int) -> tuple[list[float], list[float], float]:
    """Gaps I_MIN + Exp(25 ms), rescaled so the total slack is exactly
    25 ms per gap: the shape is random, the horizon (and so the work) is not."""
    slack = rng.exponential(LONG_TRAIN_GAP_SLACK, size=pulses - 1)
    slack *= LONG_TRAIN_GAP_SLACK * (pulses - 1) / slack.sum()
    times = np.concatenate([[0.0], np.cumsum(I_MIN + slack)])
    amplitudes = rng.uniform(0.3, 1.0, size=pulses)
    return [float(t) for t in times], [float(a) for a in amplitudes], float(times[-1]) + LONG_TRAIN_TAIL


def approximate_op(train: str, times, amps, horizon: float, p: int) -> Operation:
    config = (
        _model_section()
        + f"[train]\ntimes = {_floats(times)}\namplitudes = {_floats(amps)}\n"
        + f"horizon = {horizon!r}\ni_min = {I_MIN!r}\n"
        + f"[approx]\np = {p}\n"
    )
    spec = {"train": train, "p": p, "times": times, "amplitudes": amps, "horizon": horizon}
    return Operation(f"{train}-p{p}", "approximate", config, spec)


def approximate_ops(rng: np.random.Generator) -> list[Operation]:
    ops = []
    for pulses in LONG_TRAIN_PULSES:
        train = long_train(rng, pulses)
        ops += [approximate_op(f"N{pulses}", *train, p) for p in APPROX_P]
    return ops


def make_round(workload: str, seed: int) -> list[Operation]:
    """The operations of one round, in the seed's order."""
    rng = np.random.default_rng(seed)
    if workload == "track-force":
        ops = track_force_ops()
    elif workload == "endurance-plan":
        ops = endurance_ops()
    elif workload == "approximate-long":
        ops = approximate_ops(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return [ops[i] for i in rng.permutation(len(ops))]
