#!/usr/bin/env python3
"""Compare two sets of benchmark results, metric by metric.

    python3 bench/compare.py BASE NEW
    python3 bench/compare.py RESULTS

Each argument is a set of result records written by ``bench/run.py``:
a directory of record files (such as ``.bench_out/results``), a JSON
file holding one record or a list of them (such as
``bench/baseline.json``), or a file with one record per line.

For every workload and metric the script prints each side's median and
quartiles.  An end-to-end pairing is "unresolved" when either side's
run-to-run spread (quartile distance over median) exceeds the metric's
bound in ``BENCHMARK.json``.  Otherwise it is "worse" when the new
median is worse than the base median by more than the bound, "better"
when it is better by more than the base spread, and "same" otherwise.
Per-layer metrics have no bound and get no verdict.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_records(path: Path) -> list[dict]:
    if path.is_dir():
        return [json.loads(p.read_text()) for p in sorted(path.glob("*.json"))]
    text = path.read_text()
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        return [json.loads(line) for line in text.splitlines() if line.strip()]
    return data if isinstance(data, list) else [data]


def collect(records: list[dict]) -> dict[tuple[str, str], list[float]]:
    values: dict[tuple[str, str], list[float]] = {}
    for record in records:
        for name, metric in record["result"]["metrics"].items():
            values.setdefault((record["workload"], name), []).append(metric["value"])
    return values


def summary(values: list[float]) -> tuple[float, float, float]:
    """Median and first and third quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def spread(values: list[float]) -> float:
    median, q1, q3 = summary(values)
    if median == 0:
        return 0.0 if q1 == q3 else float("inf")
    return (q3 - q1) / abs(median)


def verdict(base: list[float], new: list[float], bound: float, better: str) -> str:
    if spread(base) > bound or spread(new) > bound:
        return "unresolved"
    base_median, new_median = summary(base)[0], summary(new)[0]
    change = (new_median - base_median) / abs(base_median)
    worse_by = change if better == "lower" else -change
    if worse_by > bound:
        return "worse"
    if -worse_by > spread(base):
        return "better"
    return "same"


def _fmt(values: list[float]) -> str:
    median, q1, q3 = summary(values)
    return f"{median:.5g} [{q1:.5g}, {q3:.5g}] n={len(values)}"


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    sides = [collect(load_records(Path(arg))) for arg in argv]
    keys = sorted(set().union(*sides), key=lambda key: (key[0], key[1] not in end_to_end, key[1]))
    for workload, name in keys:
        columns = [f"{workload:8s} {name:42s} {units.get(name, '?'):9s}"]
        columns += [_fmt(side[(workload, name)]) if (workload, name) in side else "-" for side in sides]
        if len(sides) == 2 and all((workload, name) in side for side in sides):
            base, new = (side[(workload, name)] for side in sides)
            base_median = summary(base)[0]
            if base_median:
                columns.append(f"{(summary(new)[0] - base_median) / abs(base_median):+.1%}")
            if name in end_to_end:
                metric = end_to_end[name]
                columns.append(verdict(base, new, metric["bound"], metric["better"]))
        print("  ".join(columns))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
