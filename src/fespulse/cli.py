"""Scenario-driven command line front end.

Subcommands: simulate, approximate, optimize, plan, validate, bench. Each
reads an INI scenario file, writes deterministic CSV/JSON artifacts into
--out, and returns exit code 0 (ok), 2 (config error), 3 (solver or
numerical failure: a solve that does not converge or cannot start, or
``QuadratureNoConvergence``) or 4 (validation failure: a failed
``validate`` suite, or a ``bench`` speed-up below its threshold).
Every output carries a provenance header with the config hash and artifact
version so plots and regressions can be pinned to an exact scenario.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import io
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, checks
from .approx import ForceApprox, build_m_approx, interval_averages, truncated_cn
from .model import ModelParams, PulseTrain, UnreachableForce
from .optimize import (
    DecisionVector,
    InfeasibleSigma,
    ObjectiveSpec,
    SessionTooShort,
    SolveOptions,
    StepCollision,
    objective_value,
    solve,
)
from .planner import ProgramSpec, TemplateNotConverged, plan_endurance
from .simulate import QuadratureNoConvergence, simulate_force

__all__ = ["ScenarioConfig", "ConfigError", "parse_config", "main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_VALIDATION = 4


class ConfigError(ValueError):
    """Scenario file is malformed, has unknown keys or misses required ones."""


def _parse_bool(s: str) -> bool:
    if s.lower() in ("1", "true", "yes", "on"):
        return True
    if s.lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _float(s: str) -> float:
    """float(s), rejecting nan and ±inf."""
    value = float(s)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _parse_floats(s: str) -> tuple[float, ...]:
    return tuple(_float(x) for x in s.replace(",", " ").split())


_SCHEMA: dict[str, dict[str, object]] = {
    "model": {k: _float for k in (
        "tau_c", "r_bar", "a_rest", "k_m", "tau_1", "tau_2", "alpha_a", "tau_fat")},
    "train": {
        "times": _parse_floats, "amplitudes": _parse_floats,
        "horizon": _float, "i_min": _float,
    },
    "objective": {
        "kind": str, "f_ref": _float, "c_ref": _float, "w1": _float, "a_s": _float,
        "backend": str, "scheme": str, "p": int, "nu": _float,
        "t_f": _float, "rest": _float,
    },
    "solver": {
        "i_min": _float, "t_max": _float, "n": int, "init_horizon": _float,
        "freeze_amplitudes": _parse_bool, "amplitude": _float,
        "n_starts": int, "kkt_tol": _float,
    },
    "sim": {"step": _float},
    "approx": {"scheme": str, "p": int, "nu": _float, "trunc_p": int},
    "program": {
        "f_ref": _float, "k_ratio": _float, "n": int, "i_min": _float,
        "train_horizon": _float, "rest": _float, "t_f": _float, "k_fatigue": _float,
    },
    "validate": {"n_trains": int},
    "bench": {"n_points": int, "threshold": _float},
}


@dataclass(frozen=True, eq=True)
class ScenarioConfig:
    """Validated scenario: raw string values keyed by section and option."""

    sections: tuple[tuple[str, tuple[tuple[str, str], ...]], ...]

    def get(self, section: str, key: str, default=None):
        for name, items in self.sections:
            if name != section:
                continue
            for k, raw in items:
                if k == key:
                    return _SCHEMA[section][key](raw)
        return default

    def set_values(self, section: str, *keys: str, **renamed: str) -> dict:
        """The values of ``section`` that the scenario sets, as keyword
        arguments: each of ``keys`` under its own name, each
        ``field=key`` of ``renamed`` under ``field``. Unset keys are left
        out, so the receiving type's own defaults fill them."""
        fields = {key: key for key in keys} | {key: name for name, key in renamed.items()}
        values = {name: self.get(section, key) for key, name in fields.items()}
        return {name: value for name, value in values.items() if value is not None}

    def to_text(self) -> str:
        buf = io.StringIO()
        for name, items in self.sections:
            buf.write(f"[{name}]\n")
            for k, raw in items:
                buf.write(f"{k} = {raw}\n")
            buf.write("\n")
        return buf.getvalue()

    def sha256(self) -> str:
        return hashlib.sha256(self.to_text().encode()).hexdigest()

    def model_params(self) -> ModelParams:
        if self.get("model", "k_m") is None:
            raise ConfigError("[model] k_m is required (it has no canonical value)")
        try:
            return ModelParams(**self.set_values("model", *_SCHEMA["model"]))
        except ValueError as exc:
            raise ConfigError(f"[model] invalid parameters: {exc}") from exc

    def train(self) -> PulseTrain:
        times = self.get("train", "times")
        horizon = self.get("train", "horizon")
        if times is None or horizon is None:
            raise ConfigError("[train] times and horizon are required")
        i_min = self.get("train", "i_min", 0.0)
        amps = self.get("train", "amplitudes")
        if amps is None:
            amps = (1.0,) * len(times)
        elif len(amps) == 1:
            amps = amps * len(times)
        try:
            return PulseTrain(times=times, amplitudes=amps, horizon=horizon, i_min=i_min)
        except ValueError as exc:
            raise ConfigError(f"[train] invalid train: {exc}") from exc

    def sim_step(self) -> float | None:
        """``[sim] step``: the RK4 step of every command but ``bench``,
        None where unset."""
        step = self.get("sim", "step")
        if step is not None and step <= 0.0:
            raise ConfigError(f"[sim] step must be positive, got {step}")
        return step


def parse_config(text: str) -> ScenarioConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        # configparser's messages span lines; the CLI reports one.
        reason = "; ".join(line.strip() for line in str(exc).splitlines())
        raise ConfigError(f"cannot parse scenario: {reason}") from exc
    sections = []
    for name in parser.sections():
        if name not in _SCHEMA:
            raise ConfigError(f"unknown section [{name}]")
        items = []
        for key, raw in parser.items(name):
            if key not in _SCHEMA[name]:
                raise ConfigError(f"unknown key {key!r} in section [{name}]")
            raw = raw.strip()
            if raw == "":
                continue
            try:
                _SCHEMA[name][key](raw)
            except ValueError as exc:
                raise ConfigError(f"bad value for [{name}] {key}: {raw!r} ({exc})") from exc
            items.append((key, raw))
        sections.append((name, tuple(items)))
    return ScenarioConfig(sections=tuple(sections))


def load_config(path: str | Path) -> ScenarioConfig:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    return parse_config(p.read_text())


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------


def _header_lines(cfg: ScenarioConfig, command: str, seed: int) -> list[str]:
    return [
        f"# artifact_version=fespulse-{__version__}",
        f"# config_sha256={cfg.sha256()}",
        f"# command={command}",
        f"# seed={seed}",
    ]


# CSV bodies are formatted this many rows at a time: 2048-4096 rows was the
# fastest in a sweep from 256 to 8192, and each working array of a 5-column
# block stays near 80 KB.
_CSV_CHUNK_ROWS = 2048

# `_format_g9` writes "%.9g" in array passes. With e = floor(log10|x|),
# y = |x|·10^(8−e) has 9 digits before the point. The output is rint(y) at
# exponent e, which is the correctly rounded significand when y lies more
# than _G9_MARGIN from every rounding boundary:
# - k + 1/2 for each integer k;
# - _G9_HI = 999999999.5, above which the significand carries to exponent
#   e + 1;
# - _G9_LO = 99999999.95. y < 1e8 means that log10 rounded up to e, one
#   above the true exponent. Above _G9_LO the digits there, 10y, round up to
#   1e9 and carry into exponent e, as rint(y) = 1e8 says; below it they do
#   not carry.
# A value outside (_G9_LO, _G9_HI) is rare and goes to `format`.
_G9_MARGIN = 1e-5
_G9_MIN, _G9_MAX = 1e-290, 1e290
_G9_LO, _G9_HI = 99999999.95, 999999999.5
_G9_E0 = 300    # exponent e is kept as the table index e + _G9_E0
_G9_SCALE = np.array([float(f"1e{8 - e}") for e in range(-_G9_E0, _G9_E0 + 1)])


def _le_words(raw: np.ndarray) -> np.ndarray:
    """Each 8 bytes of ``raw`` (uint8) as one little-endian int64."""
    return raw.view("<i8").astype(np.int64)


def _g9_tables():
    """Lookup tables of `_format_g9`, built with array arithmetic.

    A value is written as a 32-byte record, four little-endian words, whose
    NUL bytes are dropped afterwards:

    - byte 0: sign;
    - bytes 1-5: the "0.000" prefix of 1e-4 <= |x| < 1 (first 1 - e bytes);
    - bytes 6-22: digits d0..d8 at even offsets, a point slot after each of
      d0..d7;
    - bytes 24-28: the exponent suffix ("e+05", "e-123");
    - byte 29: the separator.

    The layout is fixed by the key 50·(clip(e, -5, 9) + 5) + 10·z_b +
    2·z_a + sign, where z_b and z_a count the trailing zeros of d5..d8 and of
    d1..d4 (4 for "0000"); they give the number of significant digits.
    """
    k = np.arange(10000)
    spaced = np.zeros((k.size, 8), np.uint8)
    spaced[:, ::2] = k[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")
    zeros = sum((k % 10 ** j == 0).astype(np.int64) for j in range(1, 5))

    key = np.arange(750)
    e = key // 50 - 5
    z_b, z_a = key // 10 % 5, key // 2 % 5
    n_sig = np.where(z_b < 4, 9 - z_b, 5 - z_a)
    fixed = (e >= -4) & (e <= 8)
    n_prefix = np.where(fixed & (e < 0), 1 - e, 0)
    n_digits = np.where(fixed & (e >= 0), np.maximum(n_sig, e + 1), n_sig)
    point = np.where(fixed, np.where(e >= 0, e, 8), 0)
    point = np.where(point < n_sig - 1, point, 8)
    const = np.zeros((key.size, 32), np.uint8)
    mask = np.zeros((key.size, 32), np.uint8)
    const[:, 0] = ord("-") * (key % 2)
    const[:, 1:6] = np.frombuffer(b"0.000", np.uint8) * (np.arange(5) < n_prefix[:, None])
    mask[:, 6:23:2] = 255 * (np.arange(9) < n_digits[:, None])
    const[:, 7:22:2] = ord(".") * (np.arange(8) == point[:, None])

    e = np.arange(-_G9_E0, _G9_E0 + 1)
    mag = np.abs(e)
    suffix = np.zeros((e.size, 8), np.uint8)
    suffix[:, 0] = ord("e")
    suffix[:, 1] = np.where(e < 0, ord("-"), ord("+"))
    suffix[:, 2] = np.where(mag >= 100, ord("0") + mag // 100, 0)
    suffix[:, 3] = ord("0") + mag // 10 % 10
    suffix[:, 4] = ord("0") + mag % 10
    suffix[(e >= -4) & (e <= 8)] = 0
    exp_key = 50 * (np.clip(e, -5, 9) + 5)
    return (_le_words(spaced)[:, 0], 10 * zeros, 2 * zeros, _le_words(const).T.copy(),
            _le_words(mask).T.copy(), _le_words(suffix)[:, 0], exp_key)


_G9_DIGITS, _G9_ZB, _G9_ZA, _G9_CONST, _G9_MASK, _G9_SUFFIX, _G9_EKEY = _g9_tables()


class _G9Buffers:
    """Working arrays of `_format_g9` for up to ``size`` values, made once
    per CSV file and reused by every block. A block then allocates nothing
    of its own size, so its memory is not handed back to the system and
    faulted in anew after each block, which glibc would do or not depending
    on how earlier allocations left its heap."""

    def __init__(self, size: int):
        self.f = np.empty((3, size))
        self.i = np.empty((7, size), np.int64)
        self.b = np.empty((3, size), bool)
        self.rows = np.empty((size, 4), np.int64)


def _take(table: np.ndarray, idx: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``table[idx]`` into ``out``. Every index is in range, so mode="clip"
    never clips; unlike mode="raise" it writes ``out`` without a copy."""
    return np.take(table, idx, out=out, mode="clip")


def _format_g9(x: np.ndarray, seps: np.ndarray, buf: _G9Buffers) -> bytes:
    """``format(v, ".9g")`` of each value of the flat array ``x``, each
    followed by its separator (``seps``: the separator byte << 40), worked
    out in ``buf`` (see `_G9Buffers`)."""
    n = x.size
    ax, y, r = (v[:n] for v in buf.f)
    ei, d, q, b, a, key, t = (v[:n] for v in buf.i)
    zero, ok, flag = (v[:n] for v in buf.b)
    np.abs(x, out=ax)
    np.equal(ax, 0.0, out=zero)
    np.greater_equal(ax, _G9_MIN, out=ok)
    ok &= np.less_equal(ax, _G9_MAX, out=flag)
    np.copyto(ax, 1.0, where=np.logical_not(ok, out=flag))
    np.floor(np.log10(ax, out=y), out=y)
    np.copyto(ei, y, casting="unsafe")
    ei += _G9_E0
    np.multiply(_take(_G9_SCALE, ei, y), ax, out=y)
    np.rint(y, out=r)
    np.abs(np.subtract(y, r, out=ax), out=ax)
    ok &= np.less(ax, 0.5 - _G9_MARGIN, out=flag)
    ok &= np.greater(y, _G9_LO + _G9_MARGIN, out=flag)
    ok &= np.less(y, _G9_HI - _G9_MARGIN, out=flag)
    np.copyto(r, 0.0, where=zero)    # ±0: the digits 000000000 at exponent 0 print as "0"
    # The significand d = d0·10^8 + a·10^4 + b, with a = d1..d4, b = d5..d8.
    np.copyto(d, r, casting="unsafe")
    np.floor_divide(d, 10000, out=q)
    np.subtract(d, np.multiply(q, 10000, out=b), out=b)
    hi = np.floor_divide(q, 10000, out=d)
    np.subtract(q, np.multiply(hi, 10000, out=a), out=a)
    _take(_G9_EKEY, ei, key)
    key += _take(_G9_ZB, b, t)
    key += _take(_G9_ZA, a, t)
    key += np.signbit(x, out=flag)
    rows = buf.rows[:n]
    hi += ord("0")
    hi <<= 48
    _take(_G9_CONST[0], key, t)
    t |= hi
    rows[:, 0] = t
    for j, digits in ((1, a), (2, b)):
        _take(_G9_DIGITS, digits, t)
        t &= _take(_G9_MASK[j], key, q)
        t |= _take(_G9_CONST[j], key, q)
        rows[:, j] = t
    _take(_G9_SUFFIX, ei, t)
    t |= seps
    rows[:, 3] = t
    np.logical_or(ok, zero, out=flag)
    rest = np.flatnonzero(np.logical_not(flag, out=flag))
    if rest.size:    # nan, ±inf, |x| outside [_G9_MIN, _G9_MAX], near-ties
        text = b"".join(format(v, ".9g").encode().ljust(32, b"\0") for v in x[rest].tolist())
        rows[rest] = _le_words(np.frombuffer(text, np.uint8)).reshape(-1, 4)
        rows[rest, 3] |= seps[rest]
    return rows.astype("<i8", copy=False).tobytes().translate(None, b"\0")


def _csv_blocks(cols: list[np.ndarray]):
    """Rows of the equal-length columns ``cols`` as comma-separated
    ``format(v, ".9g")`` lines, one bytes object per `_CSV_CHUNK_ROWS` rows,
    each block interleaved from the columns' slices into one buffer and
    formatted in one `_G9Buffers`."""
    seps = np.full(len(cols), ord(","), np.int64)
    seps[-1] = ord("\n")
    seps = np.tile(seps << 40, _CSV_CHUNK_ROWS)
    n_rows = len(cols[0])
    table = np.empty((_CSV_CHUNK_ROWS, len(cols)))
    work = _G9Buffers(table.size)
    for start in range(0, n_rows, _CSV_CHUNK_ROWS):
        rows = table[:min(_CSV_CHUNK_ROWS, n_rows - start)]
        for i, col in enumerate(cols):
            rows[:, i] = col[start:start + len(rows)]
        yield _format_g9(rows.ravel(), seps[:rows.size], work)


def _write_csv(path: Path, cfg, command, seed, columns, data) -> None:
    """One row per sample, every value byte for byte ``format(value, ".9g")``;
    ``data`` holds one array per name in ``columns``.

    The body comes from `_format_g9`, in array passes. Its scaled value
    y = |x|·10^(8−e) is one product of |x| with a correctly rounded tabled
    power of ten, so |y − Y| ≤ (2u + u²)·Y < 2.3e-7 for the exact Y < 1e9
    (u = 2^-53). The 1e-5 margin it keeps from every rounding boundary is
    over 40 times that bound, so rint(y) is the correctly rounded 9-digit
    significand that ``format`` prints. nan, ±inf, |x| outside
    [1e-290, 1e290] and values nearer a boundary go through ``format``
    itself; ±0 is written directly.

    The file takes the header, then each block as it is formatted from
    the columns' rows, so neither the table nor the body is ever copied
    whole: beyond the columns, memory stays at one block's temporaries
    whatever the row count."""
    cols = [np.asarray(col, dtype=float) for col in data]
    if any(col.shape != cols[0].shape or col.ndim != 1 for col in cols):
        raise ValueError("CSV columns must be 1-D and of one length")
    lines = _header_lines(cfg, command, seed)
    lines.append(",".join(columns))
    with path.open("wb") as out:
        out.write(("\n".join(lines) + "\n").encode())
        out.writelines(_csv_blocks(cols))


def _write_json(path: Path, cfg, command, seed, payload: dict) -> None:
    doc = {
        "meta": {
            "artifact_version": f"fespulse-{__version__}",
            "config_sha256": cfg.sha256(),
            "command": command,
            "seed": seed,
        },
        **payload,
    }
    path.write_bytes((json.dumps(doc, indent=2, sort_keys=True) + "\n").encode())


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def run_simulate(cfg: ScenarioConfig, out_dir: Path, seed: int) -> int:
    params = cfg.model_params()
    train = cfg.train()
    traj = simulate_force(train, params, cfg.sim_step())
    grid = traj.grid
    c_n = traj.channel("c_n")
    force = traj.channel("force")
    a_col = np.broadcast_to(params.a_rest, grid.shape)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(
        out_dir / "trajectory.csv", cfg, "simulate", seed,
        ["t_ms", "c_n", "force_kN", "a"],
        [grid, c_n, force, a_col],
    )
    i_peak_f = int(np.argmax(force))
    i_peak_c = int(np.argmax(c_n))
    _write_json(
        out_dir / "summary.json", cfg, "simulate", seed,
        {
            "terminal": {
                "t_ms": float(grid[-1]),
                "c_n": float(c_n[-1]),
                "force_kN": float(force[-1]),
            },
            "peak_force_kN": float(force[i_peak_f]),
            "peak_force_time_ms": float(grid[i_peak_f]),
            "peak_c_n": float(c_n[i_peak_c]),
            "peak_c_n_time_ms": float(grid[i_peak_c]),
        },
    )
    return EXIT_OK


def run_approximate(cfg: ScenarioConfig, out_dir: Path, seed: int) -> int:
    params = cfg.model_params()
    train = cfg.train()
    trunc_p = cfg.get("approx", "trunc_p", 2)
    try:
        approx = build_m_approx(train, params, **cfg.set_values("approx", "scheme", "p", "nu"))
        trunc = truncated_cn(train, params, trunc_p)
    except ValueError as exc:
        raise ConfigError(f"[approx] {exc}") from exc
    traj = simulate_force(train, params, cfg.sim_step())
    grid = traj.grid
    f_tilde = np.atleast_1d(ForceApprox(approx).values(grid, params.a_rest))
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(
        out_dir / "approximation.csv", cfg, "approximate", seed,
        ["t_ms", "c_n", "c_n_truncated", "f_tilde_kN", "f_oracle_kN"],
        [grid, traj.channel("c_n"), trunc(grid), f_tilde, traj.channel("force")],
    )
    gap = np.abs(f_tilde - traj.channel("force"))
    _write_json(
        out_dir / "approx_summary.json", cfg, "approximate", seed,
        {
            "scheme": approx.scheme, "p": approx.p, "nu": approx.nu, "trunc_p": trunc_p,
            "max_abs_force_gap_kN": float(gap.max()),
            "terminal_f_tilde_kN": float(f_tilde[-1]),
            "terminal_f_oracle_kN": traj.terminal("force"),
        },
    )
    return EXIT_OK


def _objective_from_config(cfg: ScenarioConfig, sim_step: float | None) -> ObjectiveSpec:
    if cfg.get("objective", "kind") is None:
        raise ConfigError("[objective] kind is required")
    try:
        return ObjectiveSpec(sim_step=sim_step, **cfg.set_values(
            "objective", "kind", "f_ref", "c_ref", "w1", "a_s", "backend", "scheme", "p", "nu",
            "t_f", rest_duration="rest",
        ))
    except ValueError as exc:
        raise ConfigError(f"[objective] {exc}") from exc


def _solver_from_config(cfg: ScenarioConfig, seed: int) -> tuple[SolveOptions, DecisionVector]:
    n = cfg.get("solver", "n")
    if n is None:
        raise ConfigError("[solver] n is required")
    horizon = cfg.get("solver", "init_horizon", 1000.0)
    try:
        opts = SolveOptions(seed=seed, **cfg.set_values(
            "solver", "i_min", "t_max", "kkt_tol", "n_starts",
        ))
        init = DecisionVector.regular(
            n, horizon, **cfg.set_values("solver", "amplitude", "freeze_amplitudes")
        )
    except ValueError as exc:
        raise ConfigError(f"[solver] {exc}") from exc
    if horizon >= opts.t_max:
        raise ConfigError(f"[solver] init_horizon {horizon} must be below t_max {opts.t_max}")
    # The regular start splits the horizon into n+1 equal gaps, each of
    # which must exceed i_min strictly.
    if (n + 1) * opts.i_min >= horizon:
        raise ConfigError(
            f"infeasible scenario: (n+1)*i_min = {(n + 1) * opts.i_min} does not fit under "
            f"the horizon {horizon}"
        )
    return opts, init


def run_optimize(cfg: ScenarioConfig, out_dir: Path, seed: int) -> int:
    params = cfg.model_params()
    sim_step = cfg.sim_step()
    spec = _objective_from_config(cfg, sim_step)
    opts, init = _solver_from_config(cfg, seed)
    init_cost = objective_value(spec, init, params)
    outcome = solve(spec, init, params, opts)
    if outcome.status != "converged":
        print(f"solver did not converge: status={outcome.status}", file=sys.stderr)
        for entry in outcome.trace:
            print(f"  trace: {entry}", file=sys.stderr)
        return EXIT_SOLVER

    sigma = outcome.sigma_star
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(
        out_dir / "solution.json", cfg, "optimize", seed,
        {
            "times_ms": [0.0] + list(sigma.times),
            "amplitudes": list(sigma.amplitudes),
            "horizon_ms": sigma.horizon,
            "objective": outcome.objective,
            "objective_at_init": init_cost,
            "kkt": {
                "residual": outcome.kkt_residual,
                "stationarity": outcome.stationarity,
                "complementarity": outcome.complementarity,
                "feasibility": outcome.feasibility,
            },
            "multipliers": list(outcome.multipliers),
            "iterations": outcome.iterations,
            "status": outcome.status,
        },
    )

    train = sigma.to_train()
    traj = simulate_force(train, params, sim_step)
    grid = traj.grid
    if spec.kind in ("max_cn_terminal", "track_cn"):
        exact = traj.channel("c_n")
        steps = np.zeros_like(grid)
        for k, mean in enumerate(interval_averages(train, params)):
            lo, hi = train.interval(k)
            steps[np.searchsorted(grid, lo):np.searchsorted(grid, hi, "right")] = mean
        approx_col, oracle_col = steps, exact
    else:
        approx = build_m_approx(train, params, scheme=spec.scheme, p=spec.p, nu=spec.nu)
        approx_col = np.atleast_1d(ForceApprox(approx).values(grid, params.a_rest))
        oracle_col = traj.channel("force")
    _write_csv(
        out_dir / "response.csv", cfg, "optimize", seed,
        ["t_ms", "approx", "oracle"],
        [grid, approx_col, oracle_col],
    )
    return EXIT_OK


def run_plan(cfg: ScenarioConfig, out_dir: Path, seed: int) -> int:
    params = cfg.model_params()
    sim_step = cfg.sim_step()
    try:
        spec = ProgramSpec(sim_step=sim_step, **cfg.set_values(
            "program", "f_ref", "k_ratio", "n", "i_min", "train_horizon", "t_f", "k_fatigue",
            rest_duration="rest",
        ))
    except ValueError as exc:
        raise ConfigError(f"[program] {exc}") from exc
    program = plan_endurance(spec, params)
    out_dir.mkdir(parents=True, exist_ok=True)
    segments = []
    for seg, start in zip(program.segments, program.bounds):
        if isinstance(seg, PulseTrain):
            segments.append(
                {
                    "kind": "train",
                    "start_ms": start,
                    "duration_ms": seg.horizon,
                    "times_ms": list(seg.times),
                    "amplitudes": list(seg.amplitudes),
                }
            )
        else:
            segments.append({"kind": "rest", "start_ms": start, "duration_ms": seg.duration})
    _write_json(
        out_dir / "program.json", cfg, "plan", seed,
        {
            "f_ref_kN": program.f_ref,
            "c_n_ref": program.c_n_ref,
            "a_threshold": program.a_threshold,
            "fatigue_breach_time_ms": program.fatigue_breach_time,
            "segments": segments,
            "train_summaries": list(program.train_summaries),
        },
    )
    traj = program.trajectory
    _write_csv(
        out_dir / "program_trajectory.csv", cfg, "plan", seed,
        ["t_ms", "c_n", "force_kN", "a"],
        [traj.grid, traj.channel("c_n"), traj.channel("force"), traj.channel("a")],
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# validation suite
# ---------------------------------------------------------------------------


def _check(name: str, passed: bool, measured: float, threshold: float, info: str = "") -> dict:
    return {
        "name": name,
        "passed": bool(passed),
        "measured": float(measured),
        "threshold": float(threshold),
        "info": info,
    }


_SUITES = ("lobe", "oracles", "truncation", "force_bound", "envelope", "fatigue")


def _validation_checks(suite: str, params: ModelParams, rng, n_trains: int, sim_step) -> list[dict]:
    """The named pass/fail checks of one suite, from :mod:`fespulse.checks`."""
    if suite == "lobe":
        peak, mass, inflection_ok = checks.lobe_law(params, rng, n_trains)
        return [
            _check("lobe-peak-value", peak < 1e-10, peak, 1e-10),
            _check("lobe-mass-95pct", mass >= 0.95, mass, 0.95, "fraction within 5 tau_c"),
            _check("lobe-inflection-2tau", inflection_ok, float(inflection_ok), 1.0),
        ]
    if suite == "oracles":
        sq, rq = checks.oracle_concordance(params, rng, n_trains, sim_step)
        return [
            _check("sim-vs-quadrature", sq < 1e-6, sq, 1e-6, "kN"),
            _check("reparam-vs-quadrature", rq < 1e-6, rq, 1e-6, "kN"),
        ]
    if suite == "truncation":
        trains = [checks.random_train(rng) for _ in range(n_trains)]
        _, violations, margin = checks.truncation_bound(params, trains)
        return [
            _check("truncation-bound-dominates", violations == 0, violations, 0.0,
                   f"min bound-gap margin {margin:.3e}")
        ]
    if suite == "force_bound":
        _, violations, refine_ok = checks.force_bound(params, rng, n_trains, sim_step)
        frac = refine_ok / n_trains
        return [
            _check("force-error-bound-dominates", violations == 0, violations, 0.0),
            _check("force-refinement-monotone", frac >= 0.9, frac, 0.9,
                   "fraction of cases with err(p=4) <= err(p=2)"),
        ]
    if suite == "envelope":
        upper, lower, _ = checks.envelope_margins(params, checks.T6, sim_step)
        return [
            _check("nu-upper-envelope", upper >= -1e-9, upper, -1e-9,
                   "min(F_high(nu=0.95) - F_oracle) on the scenario grid"),
            _check("nu-lower-envelope", lower <= 1e-9, lower, 1e-9,
                   "max(F_low(nu=1.05) - F_oracle) on the scenario grid"),
        ]
    # suite == "fatigue"; run_validate has rejected unknown names
    stays_below, drop, rate_err = checks.fatigue_response(params, sim_step)
    declined = stays_below and drop > 1e-9
    return [
        _check("fatigue-declines-under-load", declined, float(declined), 1.0),
        _check("fatigue-recovery-rate", rate_err < 0.02, rate_err, 0.02,
               "relative error of fitted recovery rate vs 1/tau_fat"),
    ]


def run_validate(cfg: ScenarioConfig, out_dir: Path, seed: int, suite: str) -> int:
    n_trains = cfg.get("validate", "n_trains", 6)
    if n_trains < 1:
        raise ConfigError(f"[validate] n_trains must be at least 1, got {n_trains}")
    sim_step = cfg.sim_step() or 0.2
    names = list(_SUITES) if suite == "default" else [suite]
    if any(name not in _SUITES for name in names):
        raise ConfigError(f"unknown suite {suite!r}; choices: default, {', '.join(_SUITES)}")
    rng = np.random.default_rng(seed)
    results: list[dict] = []
    try:
        params = cfg.model_params()
    except ConfigError as exc:
        results.append(_check("model-invariants", False, math.nan, 0.0, str(exc)))
        params = None
    if params is not None:
        for name in names:
            results.extend(_validation_checks(name, params, rng, n_trains, sim_step))
    all_passed = all(c["passed"] for c in results)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(
        out_dir / "validation.json", cfg, "validate", seed,
        {"suite": suite, "all_passed": all_passed, "checks": results},
    )
    for c in results:
        tag = "PASS" if c["passed"] else "FAIL"
        print(f"[{tag}] {c['name']}: measured={c['measured']:.6g} threshold={c['threshold']:.6g}")
    return EXIT_OK if all_passed else EXIT_VALIDATION


def run_bench(cfg: ScenarioConfig, out_dir: Path, seed: int) -> int:
    params = cfg.model_params()
    n_points = cfg.get("bench", "n_points", 10000)
    if n_points < 1:
        raise ConfigError(f"[bench] n_points must be at least 1, got {n_points}")
    threshold = cfg.get("bench", "threshold", 5.0)
    if threshold <= 0.0:
        raise ConfigError(f"[bench] threshold must be positive, got {threshold}")
    build_s, eval_s, oracle_s = checks.evaluation_speedup(params, n_points)
    speedup = oracle_s / eval_s if eval_s > 0 else math.inf
    passed = speedup >= threshold
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(
        out_dir / "bench.json", cfg, "bench", seed,
        {
            "n_points": n_points,
            "build_seconds": build_s,
            "f_tilde_eval_seconds": eval_s,
            "oracle_sim_seconds": oracle_s,
            "speedup": speedup,
            "threshold": threshold,
            "passed": passed,
        },
    )
    print(f"F~ evaluation {eval_s * 1e3:.3f} ms vs oracle {oracle_s * 1e3:.3f} ms "
          f"(speedup {speedup:.1f}x, threshold {threshold}x)")
    return EXIT_OK if passed else EXIT_VALIDATION


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fespulse",
        description="Pulse-train simulation, approximation and optimization scenarios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("simulate", "approximate", "optimize", "plan", "validate", "bench"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default="out")
        p.add_argument("--seed", type=int, default=0)
        if name == "validate":
            p.add_argument("--suite", default="default")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    out_dir = Path(args.out)
    try:
        cfg = load_config(args.config)
        if args.command == "simulate":
            return run_simulate(cfg, out_dir, args.seed)
        if args.command == "approximate":
            return run_approximate(cfg, out_dir, args.seed)
        if args.command == "optimize":
            return run_optimize(cfg, out_dir, args.seed)
        if args.command == "plan":
            return run_plan(cfg, out_dir, args.seed)
        if args.command == "validate":
            return run_validate(cfg, out_dir, args.seed, args.suite)
        if args.command == "bench":
            return run_bench(cfg, out_dir, args.seed)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, UnreachableForce, SessionTooShort) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (InfeasibleSigma, StepCollision, TemplateNotConverged) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except QuadratureNoConvergence as exc:
        message = " ".join(str(exc).split())
        print(f"numerical failure: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    raise SystemExit(main())
