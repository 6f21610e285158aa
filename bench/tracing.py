"""Span tracing of varbreak's public functions from outside the package.

Each traced function is replaced, for the duration of a traced pass, by
a wrapper at every name a ``varbreak`` module looks it up by (for
example ``varbreak.mc.fit_ar_ols`` and ``varbreak.pipeline.fit_ar_ols``
for :func:`varbreak.armodel.fit_ar_ols`).  Calls made inside a wrapped
function therefore become child spans of it, and a span's self time is
its duration minus the durations of its children.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
import json
import sys
from pathlib import Path
from time import perf_counter_ns

#: Traced functions by layer; the metric prefix is ``<layer>.<name>``.
TARGETS = {
    "mc": (
        "stream",
        "sample_innovations",
        "variance_path",
        "simulate_dgp1",
        "simulate_dgp2",
        "run_experiment",
    ),
    "series": ("ResidualSeries",),
    "armodel": ("fit_ar_ols", "select_ar_order"),
    "variance_poly": ("select_poly_order_aic", "fit_variance_poly", "check_positivity"),
    "cusum": ("statistic_subsample", "statistic_corrected"),
    "nulldist": ("pvalue", "kolmogorov_quantile"),
    "dataio": ("load_csv", "difference"),
    "pipeline": ("run_test_pipeline", "emit_report"),
    "cli": ("main",),
}

LABELS = tuple(f"{layer}.{name}" for layer, names in TARGETS.items() for name in names)


class Tracer:
    """Records one span per wrapped call: name, start, end and parent.

    Spans are kept in memory per traced pass.  :meth:`end_pass` folds a
    pass's spans into call counts and self times and keeps the spans of
    the first passes for :meth:`write`, which bounds the memory a long
    traced run needs.
    """

    def __init__(self, keep_passes: int) -> None:
        self.keep_passes = keep_passes
        self.kept: list[tuple[int, list[list]]] = []  # (pass index, spans)
        self.passes = 0
        self._spans: list[list] = []  # [label, start_ns, end_ns, parent index]
        self._stack: list[int] = []

    def wrap(self, label: str, fn):
        spans = self._spans
        stack = self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            span = [label, 0, 0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def patched(self):
        """Swap every target for its traced wrapper; restore on exit."""
        patches = []
        modules = [
            module
            for name, module in list(sys.modules.items())
            if name == "varbreak" or name.startswith("varbreak.")
        ]
        try:
            for layer, names in TARGETS.items():
                home = importlib.import_module(f"varbreak.{layer}")
                for name in names:
                    original = getattr(home, name)
                    wrapper = self.wrap(f"{layer}.{name}", original)
                    for module in modules:
                        if getattr(module, name, None) is original:
                            setattr(module, name, wrapper)
                            patches.append((module, name, original))
            yield self
        finally:
            for module, name, original in reversed(patches):
                setattr(module, name, original)

    def end_pass(self) -> tuple[dict[str, int], dict[str, int]]:
        """Call counts and self time in nanoseconds, by label, of the pass just traced."""
        spans = self._spans
        child_ns = [0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls = dict.fromkeys(LABELS, 0)
        self_ns = dict.fromkeys(LABELS, 0)
        for index, (label, start, end, _) in enumerate(spans):
            calls[label] += 1
            self_ns[label] += end - start - child_ns[index]
        if self.passes < self.keep_passes:
            self.kept.append((self.passes, list(spans)))
        self.passes += 1
        spans.clear()
        return calls, self_ns

    def write(self, path: Path) -> None:
        """Write the kept spans as gzipped JSON lines ``[pass, id, name, start, end, parent]``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for pass_index, spans in self.kept:
                for index, (label, start, end, parent) in enumerate(spans):
                    handle.write(json.dumps([pass_index, index, label, start, end, parent]) + "\n")
