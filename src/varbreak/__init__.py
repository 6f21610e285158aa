"""Variance-break tests for series with smoothly changing unconditional variance.

Cumulative-sums-of-squares tests spuriously reject a no-break null when
the error variance drifts smoothly with time.  This package provides
the classical statistics, a corrected statistic that first removes a
fitted polynomial variance profile, a deterministic Monte Carlo engine
for size/power studies, and a CSV-to-report pipeline with a CLI.

Public names load with their module on first use, so ``varbreak test``
loads neither the Monte Carlo engine nor a process pool.
"""

import importlib

__version__ = "0.1.0"

#: The public names of each submodule; ``__all__`` is derived from it.
_EXPORTS = {
    "armodel": ("ArFit", "default_max_order", "fit_ar_ols", "select_ar_order"),
    "cusum": ("statistic_corrected", "statistic_it", "statistic_sanso", "statistic_subsample"),
    "dataio": ("SeriesFile", "difference", "load_csv"),
    "errors": (
        "CsvParseError",
        "DateOrderError",
        "DegenerateSeriesError",
        "ExperimentIntegrityError",
        "NonpositiveVarianceError",
        "SingularDesignError",
        "VarbreakError",
        "WindowBoundsError",
        "ZeroDispersionError",
    ),
    "mc": (
        "McExperimentSpec",
        "McResult",
        "SimulationTable",
        "VariancePathSpec",
        "experiment_for_cell",
        "run_experiment",
        "run_table",
        "sample_innovations",
        "simulate_dgp1",
        "simulate_dgp2",
        "stream",
        "variance_path",
    ),
    "nulldist": ("DecisionRule", "kolmogorov_cdf", "kolmogorov_quantile", "pvalue"),
    "pipeline": ("PipelineConfig", "TestReport", "emit_report", "run_test_pipeline"),
    "series": ("ResidualSeries", "SubsampleWindow"),
    "variance_poly": (
        "VariancePolyFit",
        "check_positivity",
        "fit_variance_poly",
        "select_poly_order_aic",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = {*_EXPORTS, "_ols", "cli"}

__all__ = sorted(_OWNER)


def __getattr__(name: str):
    """Import the module that owns ``name``, or the submodule ``name``, on first access (PEP 562)."""
    if name in _OWNER:
        value = getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
