import math
import tracemalloc

import numpy as np
import pytest

from fespulse import ModelParams, PulseTrain, compute_scaling, eval_cn


@pytest.fixture(scope="session")
def params() -> ModelParams:
    return ModelParams()


def traced_peak(fn):
    """(peak bytes that tracemalloc sees allocated while ``fn()`` runs, above
    what was allocated when it started; ``fn()``'s result)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return peak, result


def rk4_cn_max_error(train: PulseTrain, params: ModelParams, step: float = 0.2) -> float:
    """Independent oracle: RK4 on c' = E(t) - c/tau_c against the closed form.

    Within each inter-pulse interval the stimulation signal is restricted
    to the pulses already fired (E is right-continuous at impulse times,
    so the interval-end stage must use the left limit).
    """
    breaks = list(train.times) + [train.horizon]
    tau = params.tau_c
    w = np.asarray(compute_scaling(train, params)) * np.asarray(train.amplitudes) / tau
    t_i = np.asarray(train.times)
    c = 0.0
    worst = 0.0
    for lo, hi in zip(breaks, breaks[1:]):
        if hi - lo <= 1e-12:
            continue
        m = max(1, math.ceil((hi - lo) / step))
        nodes = np.linspace(lo, hi, m + 1)
        h = (hi - lo) / m
        stages = np.empty(2 * m + 1)
        stages[0::2] = nodes
        stages[1::2] = 0.5 * (nodes[:-1] + nodes[1:])
        active = t_i <= lo + 1e-12
        e = (w[active] * np.exp(-(stages[:, None] - t_i[active]) / tau)).sum(axis=1)
        exact = np.asarray(eval_cn(train, params, nodes))
        for j in range(m):
            e0, em, e1 = e[2 * j], e[2 * j + 1], e[2 * j + 2]
            k1 = e0 - c / tau
            k2 = em - (c + 0.5 * h * k1) / tau
            k3 = em - (c + 0.5 * h * k2) / tau
            k4 = e1 - (c + h * k3) / tau
            c += h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
            worst = max(worst, abs(c - exact[j + 1]))
    return worst
