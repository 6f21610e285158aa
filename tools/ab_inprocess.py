"""In-process A/B timing of two varbreak source trees on one benchmark operation.

    python tools/ab_inprocess.py TREE_A TREE_B [--workload grid|large-n|series] [--rounds N] [--seed S]

TREE_A and TREE_B are checkouts (each with ``src/varbreak``).  Both packages are
imported into this one process, one after the other, with bytecode writing off,
so neither tree is written to; each side's modules are put back in
``sys.modules`` before it runs, so an import inside a function reads its own tree.

A round runs the workload's operation once on each side, and which side goes
first switches every round, so both sides see the same drift in the machine's
speed.  The rounds are those of the bench workloads of the same names:

* ``grid``: tables 1-4 at n = 50, 100 and 200, 25 replications a cell, the power
  tables' shift taking the values 1..5 in turn;
* ``large-n``: one dgp1 and one dgp2 null cell at n = 2000, 80 replications each;
* ``series``: ``load_csv`` -> ``run_test_pipeline`` -> ``emit_report(..., "json")``
  with ``clamp=True`` on a monthly (661 levels) and a quarterly (270 levels)
  surrogate made by ``tests/conftest.py``, ``SERIES_PASSES`` times a round.

Before any timing, both sides run one untimed round and must give the same
``keep_statistics`` bytes and the same report text; every timed round is checked
the same way after it is timed.  On ``series`` the untimed round also runs both
surrogates strict (``clamp=False``) and three failing inputs, strict and clamped:
``split_levels()`` times 2**1025 (a dip past the float max), 10 levels alternating
in sign at ``gamma=0.35`` (constant squares) and a 120-level exponential ramp at
``p_max=1`` (a dip), all at ``diff_order=0, ar_order=0``; both sides must give the
same reports, or the same error type and text.  A difference exits 1 with no timing.  Otherwise
the last line of output is one JSON object: each side's median ms per operation,
the median over rounds of the time ratio A/B with its quartiles (above 1 means B
is faster), and the number of rounds that B won.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import hashlib
import importlib
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

CHECKOUT = Path(__file__).resolve().parent.parent
SERIES_PASSES = 10


def _varbreak_modules() -> dict:
    return {name: module for name, module in sys.modules.items() if name == "varbreak" or name.startswith("varbreak.")}


def _src_sha256(tree: Path) -> str:
    """The digest of the tree's ``src/`` that ``bench/run.py`` records as its fingerprint's ``src_sha256``."""
    digest = hashlib.sha256()
    for path in sorted((tree / "src").rglob("*.py")):
        digest.update(path.relative_to(tree).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


class Side:
    """One tree's varbreak package, every submodule imported, and its own ``sys.modules`` entries."""

    def __init__(self, tree: Path) -> None:
        for name in _varbreak_modules():
            del sys.modules[name]
        sys.path.insert(0, str(tree / "src"))
        try:
            package = importlib.import_module("varbreak")
            for path in sorted((tree / "src" / "varbreak").glob("*.py")):
                importlib.import_module(f"varbreak.{path.stem}" if path.stem != "__init__" else "varbreak")
        finally:
            sys.path.remove(str(tree / "src"))
        if Path(package.__file__).resolve().parent != (tree / "src" / "varbreak").resolve():
            raise SystemExit(f"varbreak was imported from {package.__file__}, not from {tree}")
        self.modules = _varbreak_modules()
        self.mc, self.dataio, self.pipeline = (self.modules[f"varbreak.{name}"] for name in ("mc", "dataio", "pipeline"))
        self.nulldist = self.modules["varbreak.nulldist"]

    def activate(self) -> None:
        for name in _varbreak_modules():
            del sys.modules[name]
        sys.modules.update(self.modules)


def _round_seed(seed: int, k: int) -> int:
    return int(np.random.SeedSequence([seed, k]).generate_state(1, np.uint64)[0])


def _mc_output(side: Side, results: list) -> bytes:
    """The keep_statistics bytes and the JSON text of a list of cell results."""
    arrays = b"".join(r.statistics_std.tobytes() + r.statistics_mod.tobytes() for r in results)
    return arrays + side.pipeline.emit_report(results, "json").encode()


def grid_round(side: Side, seed: int, k: int) -> tuple[int, list]:
    mc = side.mc
    alpha = mc.TABLE_ALPHAS[k % len(mc.TABLE_ALPHAS)]
    specs = [
        mc.experiment_for_cell(table, n, 0.0 if mc.TABLE_KIND[table] == "size" else alpha, _round_seed(seed, k), 25,
                               keep_statistics=True)
        for table in sorted(mc.TABLE_DGP)
        for n in mc.TABLE_NS
    ]
    return sum(spec.replications for spec in specs), [mc.run_experiment(spec) for spec in specs]


def large_n_round(side: Side, seed: int, k: int) -> tuple[int, list]:
    mc = side.mc
    specs = [
        mc.McExperimentSpec(dgp=dgp, n=2000, replications=80, path=mc.VariancePathSpec(n=2000),
                            seed=_round_seed(seed, k), decision=side.nulldist.DecisionRule.fixed_boundary(),
                            keep_statistics=True)
        for dgp in mc.DGPS
    ]
    return sum(spec.replications for spec in specs), [mc.run_experiment(spec) for spec in specs]


def series_round(side: Side, files: list[Path], k: int) -> tuple[int, list]:
    pipeline = side.pipeline
    config = pipeline.PipelineConfig(clamp=True)
    texts = [
        pipeline.emit_report(list(pipeline.run_test_pipeline(side.dataio.load_csv(path), config)), "json")
        for _ in range(SERIES_PASSES)
        for path in files
    ]
    return len(texts), texts


def series_check(side: Side, cases: list) -> list[str]:
    """Each case's JSON reports, or its error's type and text."""
    pipeline, texts = side.pipeline, []
    for path, options in cases:
        try:
            reports = pipeline.run_test_pipeline(side.dataio.load_csv(path), pipeline.PipelineConfig(**options))
            texts.append(pipeline.emit_report(list(reports), "json"))
        except Exception as exc:  # compared, not handled
            texts.append(f"{type(exc).__name__}: {exc}")
    return texts


def _conftest():
    sys.path.insert(0, str(CHECKOUT / "tests"))
    try:
        import conftest  # the surrogate generators the bench uses
    finally:
        sys.path.remove(str(CHECKOUT / "tests"))
    return conftest


def _check_cases(files: list[Path], directory: Path) -> list[tuple[Path, dict]]:
    """The untimed check's runs: the surrogates strict, and the failing inputs strict and clamped."""
    conftest, tested_as_is = _conftest(), {"diff_order": 0, "ar_order": 0}
    edges = {
        "SPLIT": (np.ldexp(conftest.split_levels(), 1025), tested_as_is),
        "ALTERNATING": (np.tile([1.0, -1.0], 5), {**tested_as_is, "gamma": 0.35}),
        "RAMP": (np.exp(np.linspace(0.0, 6.0, 120)) * np.random.default_rng(11).standard_normal(120),
                 {**tested_as_is, "p_max": 1}),
    }
    cases = [(path, {}) for path in files]
    for name, (levels, options) in edges.items():
        dates = conftest.month_starts(datetime.date(1990, 1, 1), len(levels), 1)
        path = conftest.write_fred_csv(directory / f"{name}.csv", name, dates, levels)
        cases += [(path, {**options, "clamp": clamp}) for clamp in (False, True)]
    return cases


def _series_files(seed: int, directory: Path) -> list[Path]:
    conftest = _conftest()
    files = []
    for count, start, step in ((661, datetime.date(1959, 1, 1), 1), (270, datetime.date(1946, 10, 1), 3)):
        levels = conftest.growing_variance_levels(count, _round_seed(seed, count))
        path = directory / f"SURROGATE_{count}.csv"
        files.append(conftest.write_fred_csv(path, path.stem, conftest.month_starts(start, count, step), levels))
    return files


def run(tree_a: Path, tree_b: Path, workload: str, rounds: int, seed: int) -> dict:
    """Time ``rounds`` alternating rounds of ``workload`` on both trees; see the module docstring."""
    sides = [Side(tree_a), Side(tree_b)]
    check = None  # on grid and large-n the cell bytes are the whole check
    with tempfile.TemporaryDirectory() as directory:
        if workload == "series":
            files = _series_files(seed, Path(directory))
            operation, output = (lambda side, k: series_round(side, files, k)), (lambda side, texts: "".join(texts))
            check = functools.partial(series_check, cases=_check_cases(files, Path(directory)))
        else:
            operation = grid_round if workload == "grid" else large_n_round
            operation, output = (lambda side, k, op=operation: op(side, seed, k)), _mc_output
        outputs, times, ops = [None, None], [[], []], 0
        for k in range(-1, rounds):  # round -1 is the untimed check
            for index in ((0, 1) if k % 2 == 0 else (1, 0)):
                side = sides[index]
                side.activate()
                start = time.perf_counter()
                ops, results = operation(side, max(k, 0))
                elapsed = time.perf_counter() - start
                outputs[index] = output(side, results)
                if k >= 0:
                    times[index].append(elapsed)
                elif check is not None:
                    outputs[index] = (outputs[index], check(side))
            if outputs[0] != outputs[1]:
                return {"workload": workload, "seed": seed, "identical": False, "round": k}
    ratios = [a / b for a, b in zip(*times)]
    q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive") if rounds > 1 else ratios * 3
    return {
        "workload": workload,
        "seed": seed,
        "identical": True,
        "rounds": rounds,
        "ops_per_round": ops,
        "a_src_sha256": _src_sha256(tree_a),
        "b_src_sha256": _src_sha256(tree_b),
        "a_ms_per_op_median": round(1e3 * statistics.median(times[0]) / ops, 5),
        "b_ms_per_op_median": round(1e3 * statistics.median(times[1]) / ops, 5),
        "ratio_a_over_b_median": round(median, 4),
        "ratio_q1": round(q1, 4),
        "ratio_q3": round(q3, 4),
        "b_faster_rounds": sum(b < a for a, b in zip(*times)),
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree_a", type=Path)
    parser.add_argument("tree_b", type=Path)
    parser.add_argument("--workload", choices=("grid", "large-n", "series"), default="grid")
    parser.add_argument("--rounds", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    sys.dont_write_bytecode = True
    before = _varbreak_modules()
    try:
        result = run(args.tree_a, args.tree_b, args.workload, args.rounds, args.seed)
    finally:
        for name in _varbreak_modules():
            del sys.modules[name]
        sys.modules.update(before)
    print(json.dumps(result))
    return 0 if result["identical"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
