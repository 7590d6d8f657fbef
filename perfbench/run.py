#!/usr/bin/env python3
"""fespulse benchmark: time to an optimized train, a planned session and a
long-train prediction, checked against an independent reference.

    python3 perfbench/run.py --workload endurance-plan --seed 1 --seconds 50 --trace 0

Runs from the root of a source checkout; the package is imported from
``src/``. One process drives ``fespulse.cli.main`` for whole rounds of the
workload's operations until the next round would end past ``--seconds``
(at least one round), then checks every artifact and prints, as the last
line of standard output, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs one untraced round for reference, then traced rounds,
and reports the per-layer metrics (per operation) and the tracing overhead.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_ROOT = ROOT / ".perfbench-out"
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 120


def _parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: one set-up sample in a fresh process (see measure_setup).
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def set_up(workload: str, seed: int, work_dir: Path):
    """Import the program from this checkout, generate the seeded round and
    write its scenario files. Exits with code 2 if the program is missing."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import fespulse.cli
    except ImportError as exc:
        print(f"cannot import fespulse from {ROOT / 'src'}: {exc}", file=sys.stderr)
        raise SystemExit(2) from exc
    if not Path(fespulse.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"fespulse was imported from {fespulse.cli.__file__}, not from this checkout",
              file=sys.stderr)
        raise SystemExit(2)
    ops = workloads.make_round(workload, seed)
    scenarios = work_dir / "scenarios"
    scenarios.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, op in enumerate(ops):
        path = scenarios / f"{i:02d}-{op.label}.ini"
        path.write_text(op.config)
        paths.append(path)
    return fespulse.cli, ops, paths


def measure_setup(args, work_dir: Path) -> list[float]:
    """Set-up time of fresh processes: from spawning the interpreter until
    the round's scenario files are written and the first operation could
    begin. CLOCK_MONOTONIC is shared by all processes of the machine."""
    samples = []
    for k in range(SETUP_SAMPLES):
        probe_dir = work_dir / f"setup-{k}"
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-probe", str(probe_dir)]
        spawned = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
                              cwd=ROOT)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"set-up probe exited with code {proc.returncode}")
        samples.append(float(proc.stdout.split()[-1]) - spawned)
        shutil.rmtree(probe_dir, ignore_errors=True)
    return samples


def _malloc_trim():
    """glibc's malloc_trim, or None where the C library has none."""
    try:
        return ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError):
        return None


MALLOC_TRIM = _malloc_trim()


def fresh_process_state() -> None:
    """Start each operation as a new ``fespulse`` process would: empty every
    module-level functools cache of the package (rounds repeat the same
    inputs, and a later round must not find the earlier round's tables) and
    hand the C heap's free memory back to the system (otherwise the heap
    left by earlier operations, which depends on their order, moves the peak
    resident memory of later ones)."""
    for name, module in list(sys.modules.items()):
        if name == "fespulse" or name.startswith("fespulse."):
            for obj in list(vars(module).values()):
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()
    if MALLOC_TRIM is not None:
        MALLOC_TRIM(0)


def run_round(cli, ops, paths, run_dir: Path, round_no: int, seed: int) -> list[dict]:
    results = []
    for i, (op, path) in enumerate(zip(ops, paths)):
        out = run_dir / f"r{round_no:03d}-{i:02d}"
        argv = [op.command, "--config", str(path), "--out", str(out), "--seed", str(seed)]
        fresh_process_state()
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except (Exception, SystemExit):  # an operation that crashes counts as failed
            traceback.print_exc()
            code = None
        elapsed = time.perf_counter() - start
        if code != 0:
            print(f"operation {op.label} failed with exit code {code}", file=sys.stderr)
        results.append({"op": i, "round": round_no, "seconds": elapsed, "ok": code == 0,
                        "out": out})
    return results


def run_rounds(cli, ops, paths, run_dir: Path, seconds: float, seed: int, first_round: int):
    """Whole rounds until the next one would end past ``seconds`` (at least one)."""
    results = []
    start = time.perf_counter()
    rounds = 0
    while True:
        results += run_round(cli, ops, paths, run_dir, first_round + rounds, seed)
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rounds > seconds:
            return results, elapsed, rounds


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_outputs(ops, results) -> list[str]:
    """Check every artifact of every successful operation. Byte-identical
    artifacts get the same verdict, so each distinct output is checked once."""
    import checks

    problems: list[str] = []
    seen: dict[str, tuple[list[str], dict]] = {}
    gaps: dict[tuple[int, str], dict[int, float]] = {}
    for res in results:
        if not res["ok"]:
            continue
        op = ops[res["op"]]
        files = sorted(p for p in res["out"].iterdir() if p.is_file())
        res["bytes"] = sum(p.stat().st_size for p in files)
        key = op.command + ":" + op.label + ":" + ":".join(_digest(p) for p in files)
        if key not in seen:
            try:
                seen[key] = checks.CHECKS[op.command](op.spec, res["out"])
            except (OSError, KeyError, ValueError, IndexError) as exc:
                seen[key] = ([f"unreadable artifact: {exc!r}"], {})
        found, facts = seen[key]
        problems += [f"round {res['round']} {op.label}: {msg}" for msg in found]
        if "f_tilde_gap" in facts:
            gaps.setdefault((res["round"], op.spec["train"]), {})[op.spec["p"]] = facts["f_tilde_gap"]
    for (round_no, train), by_p in sorted(gaps.items()):
        if len(by_p) == 2:
            problems += [f"round {round_no}: {msg}" for msg in checks.check_refinement(by_p, train)]
    return problems


def op_medians(results, n_ops: int) -> list[float]:
    """Each operation's median time over the rounds (successful runs of it,
    or all of them if it never succeeded)."""
    medians = []
    for i in range(n_ops):
        mine = [r for r in results if r["op"] == i]
        times = [r["seconds"] for r in mine if r["ok"]] or [r["seconds"] for r in mine]
        medians.append(statistics.median(times))
    return medians


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.setup_probe:
        set_up(args.workload, args.seed, Path(args.setup_probe))
        print(time.monotonic())
        return 0

    run_dir = OUT_ROOT / f"{args.workload}-{os.getpid()}"
    try:
        cli, ops, paths = set_up(args.workload, args.seed, run_dir)
        setup = measure_setup(args, run_dir)

        tracer = None
        reference_round = []
        if args.trace:
            import tracing

            reference_round = run_round(cli, ops, paths, run_dir, 0, args.seed)
            tracer = tracing.Tracer()
            tracer.install()
        try:
            results, phase_s, rounds = run_rounds(cli, ops, paths, run_dir, args.seconds,
                                                  args.seed, 1)
        finally:
            if tracer is not None:
                tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        every = reference_round + results
        problems = check_outputs(ops, every)
        for msg in problems[:20]:
            print(f"CHECK FAILED: {msg}", file=sys.stderr)
        attempted = len(every)
        failed = sum(not r["ok"] for r in every)
        medians = op_medians(results, len(ops))

        if tracer is None:
            metrics = {
                "setup_s": _metric(statistics.median(setup), "s"),
                "op_s": _metric(statistics.geometric_mean(medians), "s"),
                "ops_per_s": _metric(sum(r["ok"] for r in results) / phase_s, "1/s"),
                "peak_rss_mb": _metric(peak_rss_mb, "MB"),
            }
        else:
            untraced_s = sum(r["seconds"] for r in reference_round)
            overhead = sum(r["seconds"] for r in results) / (rounds * untraced_s) - 1.0
            span_file = OUT_ROOT / f"trace-{args.workload}.npz"
            tracer.save(span_file)
            artifact_bytes = sum(r.get("bytes", 0) for r in results)
            values = tracing.layer_metrics(tracing.SpanTable(tracer), len(results),
                                           artifact_bytes, overhead)
            metrics = {name: _metric(v, tracing.LAYER_METRICS[name][0]) for name, v in values.items()}
            print(f"tracing overhead {overhead:+.1%} over {rounds} traced round(s); "
                  f"{len(tracer.start)} spans written to {span_file}")

        for op, median in zip(ops, medians):
            print(f"  {op.label}: median {median:.4f} s over {rounds} run(s)")
        print(f"{args.workload}: {attempted} operations in {rounds} timed round(s) of "
              f"{len(ops)}, {failed} failed, {len(problems)} check failure(s)")
        print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                          "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
