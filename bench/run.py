#!/usr/bin/env python3
"""Benchmark of varbreak: one workload per call, one JSON result line.

    python3 bench/run.py --workload grid|large-n|series --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: varbreak is imported from
``src/`` and the surrogate-series generators and loop-based oracles
from ``tests/``.  With ``--trace 0`` the run measures the end-to-end
metrics with tracing off; with ``--trace 1`` it alternates untraced and
traced passes of the same work and reports per-layer metrics.  Every
run also executes the workload's correctness gates.  Times are wall
times scaled to a reference machine speed by calibration kernels run
next to them (see ``bench/clock.py``).

The last line of standard output is ``{"correct", "attempted",
"failed", "metrics"}``.  The full record, with an environment
fingerprint, the gates and sample counts, goes to
``.bench_out/results/``; traced runs write their spans to
``.bench_out/spans/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
REQUIRED = ("src/varbreak/__init__.py", "tests/conftest.py", "tests/oracles.py")

SETUP_REPEATS = 3
IMPORT_SAMPLES = 5
CLI_SHARE = 0.35  # share of --seconds spent on command-line calls (trace 0)
ROUND_S = 0.05  # seconds between in-process calibrations
KEEP_TRACED_PASSES = 5  # traced passes whose spans are written out


def _parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("grid", "large-n", "series"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def import_seconds(module: str) -> float:
    """Import time of ``module`` in a fresh interpreter, interpreter start excluded."""
    code = f"import time; t = time.perf_counter(); import {module}; print(repr(time.perf_counter() - t))"
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=_child_env(),
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(proc.stdout)


def run_cli(args: list[str]) -> subprocess.CompletedProcess:
    """``python -m varbreak.cli ARGS`` in a subprocess."""
    return subprocess.run(
        [sys.executable, "-m", "varbreak.cli", *args], cwd=ROOT, env=_child_env(),
        capture_output=True, text=True, timeout=120,
    )


def _quantile(samples: list[float], q: int) -> float:
    """The q-th percentile (q in 1..99) by the exclusive method, or the one sample."""
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100)[q - 1]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _cache_sizes() -> dict[str, int | None]:
    names = ("LEVEL1_DCACHE_SIZE", "LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE")
    try:
        proc = subprocess.run(["getconf", "-a"], capture_output=True, text=True, timeout=30)
    except OSError:
        return dict.fromkeys(names)
    values = dict(line.split(None, 1) for line in proc.stdout.splitlines() if len(line.split()) == 2)
    return {name: int(values[name]) if values.get(name, "").isdigit() else None for name in names}


def fingerprint(seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
        "caches": _cache_sizes(),
        "seed": seed,
    }


def set_up(workload_cls, seed: int, cpu, spawn):
    """Import, inputs and a warm-up block, repeated; returns the last workload and the samples."""

    def once():
        workload = workload_cls(seed, OUT / "inputs" / f"{workload_cls.name}-{seed}")
        workload.prepare()
        workload.run_block(-1)
        return workload

    handles = []
    for _ in range(SETUP_REPEATS):
        in_process, workload = cpu.time(once)
        spawned, import_s = spawn.time(import_seconds, "varbreak")
        handles.append((in_process, spawned, import_s))
    cpu.calibrate()
    spawn.calibrate()
    samples = [cpu.scaled(h) + s * spawn.factor(g) for h, g, s in handles]
    return workload, samples


def _loop(seconds: float, step) -> None:
    """Call ``step(k)`` for k = 0, 1, ... until ``seconds`` have passed, at least once."""
    end = time.perf_counter() + seconds
    k = 0
    while True:
        step(k)
        k += 1
        if time.perf_counter() >= end:
            return


def measure(workload, cpu, spawn, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics: closed-loop blocks, then command-line calls."""
    blocks = []  # (clock handle, operations, failed operations)

    def block(k: int) -> None:
        handle, (ops, failed) = cpu.time(workload.run_block, k)
        blocks.append((handle, ops, failed))

    _loop(seconds * (1.0 - CLI_SHARE), block)
    cpu.calibrate()
    rss = _peak_rss_mb()

    calls = []  # (clock handle, failed)

    def call(j: int) -> None:
        handle, proc = spawn.time(run_cli, workload.cli_args(j))
        calls.append((handle, proc.returncode != 0 or proc.stdout != workload.expected_cli(j)))

    _loop(seconds * CLI_SHARE, call)
    spawn.calibrate()

    ops = sum(n for _, n, _ in blocks)
    per_op_ms = [1000.0 * cpu.scaled(h) / n for h, n, _ in blocks]
    wall_ms = [1000.0 * cpu.wall(h) / n for h, n, _ in blocks]
    metrics = {
        "ops_per_s": (ops / sum(cpu.scaled(h) for h, _, _ in blocks), "1/s"),
        "op_ms_p50": (statistics.median(per_op_ms), "ms"),
        "op_ms_p90": (_quantile(per_op_ms, 90), "ms"),
        "cli_s_p50": (statistics.median(spawn.scaled(h) for h, _ in calls), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    counts = {
        "ops": ops,
        "failed_ops": sum(f for _, _, f in blocks),
        "blocks": len(blocks),
        "cli_calls": len(calls),
        "failed_cli": sum(f for _, f in calls),
        "wall_op_ms_p50": statistics.median(wall_ms),
        "wall_op_ms_p90": _quantile(wall_ms, 90),
        "wall_cli_s_p50": statistics.median(spawn.wall(h) for h, _ in calls),
    }
    return metrics, counts


def trace(workload, cpu, spawn, seconds: float, spans_path: Path) -> tuple[dict, dict]:
    """Per-layer metrics from traced passes alternated with untraced ones."""
    import tracing

    tracer = tracing.Tracer(keep_passes=KEEP_TRACED_PASSES)
    pairs = []  # (untraced handle, traced handle, traced operations, calls, self ns)
    ops = failed = 0

    def pair(k: int) -> None:
        nonlocal ops, failed
        plain, (plain_ops, plain_failed) = cpu.time(workload.traced_pass, k)
        with tracer.patched():
            traced, (traced_ops, traced_failed) = cpu.time(workload.traced_pass, k)
        pairs.append((plain, traced, traced_ops, *tracer.end_pass()))
        ops += plain_ops + traced_ops
        failed += plain_failed + traced_failed

    _loop(seconds, pair)
    cpu.calibrate()
    tracer.write(spans_path)

    traced_ops = sum(p[2] for p in pairs)
    metrics = {}
    for label in tracing.LABELS:
        calls = sum(p[3][label] for p in pairs)
        self_s = sum(p[4][label] * cpu.factor(p[1]) for p in pairs) / 1e9
        metrics[f"{label}.calls"] = (calls / traced_ops, "calls/op")
        metrics[f"{label}.self_s"] = (self_s / traced_ops, "s/op")
    fits = metrics["variance_poly.fit_variance_poly.calls"][0]
    used = metrics["cusum.statistic_corrected.calls"][0]  # each corrected statistic consumes one fit
    metrics["variance_poly.fit_used_ratio"] = (used / fits if fits else 0.0, "ratio")
    metrics["mc.failed_ratio"] = (failed / ops if workload.is_mc else 0.0, "ratio")
    imports = [spawn.time(import_seconds, "varbreak.cli") for _ in range(IMPORT_SAMPLES)]
    spawn.calibrate()
    metrics["cli.import_s"] = (statistics.median(s * spawn.factor(h) for h, s in imports), "s")
    metrics["tracing_overhead_ratio"] = (
        sum(cpu.scaled(p[1]) for p in pairs) / sum(cpu.scaled(p[0]) for p in pairs), "ratio"
    )
    counts = {"ops": ops, "failed_ops": failed, "passes": len(pairs)}
    return metrics, counts


def main(argv=None) -> int:
    args = _parse(argv)
    missing = [name for name in REQUIRED if not (ROOT / name).is_file()]
    if missing:
        print(f"bench: {ROOT} is not a varbreak checkout; missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import varbreak

    if Path(varbreak.__file__).resolve().parent != (ROOT / "src" / "varbreak").resolve():
        print(f"bench: imported varbreak from {varbreak.__file__}, not from src/", file=sys.stderr)
        return 2
    import clock
    import workloads

    env = fingerprint(args.seed)
    print(json.dumps({"fingerprint": env}, sort_keys=True))
    cpu = clock.ScaledClock(clock.interpreter_kernel, clock.INTERPRETER_REFERENCE_S, every_s=ROUND_S)
    spawn = clock.ScaledClock(clock.spawn_kernel, clock.SPAWN_REFERENCE_S)
    workload, setup_samples = set_up(workloads.WORKLOADS[args.workload], args.seed, cpu, spawn)

    stamp = f"{args.workload}-s{args.seed}-t{args.trace}-{time.time_ns()}"
    if args.trace:
        metrics, counts = trace(workload, cpu, spawn, args.seconds, OUT / "spans" / f"{stamp}.jsonl.gz")
    else:
        metrics, counts = measure(workload, cpu, spawn, args.seconds)
        metrics = {"setup_s": (statistics.median(setup_samples), "s"), **metrics}
    gates = workload.gates()
    for name, ok, detail in gates:
        print(f"gate {name}: {'PASS' if ok else 'FAIL'} - {detail}")

    attempted = counts["ops"] + counts.get("cli_calls", 0) + len(gates)
    failed = counts["failed_ops"] + counts.get("failed_cli", 0) + sum(not ok for _, ok, _ in gates)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "fingerprint": env,
        "setup_samples_s": setup_samples,
        "speed_factors": {"cpu": cpu.median_factor(), "spawn": spawn.median_factor()},
        "counts": counts,
        "gates": [{"name": n, "passed": ok, "detail": d} for n, ok, d in gates],
        "result": result,
    }
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{stamp}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
