"""Variance-break tests for series with smoothly changing unconditional variance.

Cumulative-sums-of-squares tests spuriously reject a no-break null when
the error variance drifts smoothly with time.  This package provides
the classical statistics, a corrected statistic that first removes a
fitted polynomial variance profile, a deterministic Monte Carlo engine
for size/power studies, and a CSV-to-report pipeline with a CLI.
"""

from varbreak.armodel import ArFit, default_max_order, fit_ar_ols, select_ar_order
from varbreak.cusum import (
    statistic_corrected,
    statistic_it,
    statistic_sanso,
    statistic_subsample,
)
from varbreak.dataio import SeriesFile, difference, infer_frequency, load_csv
from varbreak.errors import (
    CsvParseError,
    DateOrderError,
    DegenerateSeriesError,
    ExperimentIntegrityError,
    NonpositiveVarianceError,
    SingularDesignError,
    VarbreakError,
    WindowBoundsError,
    ZeroDispersionError,
)
from varbreak.mc import (
    McExperimentSpec,
    McResult,
    SimulationTable,
    VariancePathSpec,
    experiment_for_cell,
    run_experiment,
    run_table,
    sample_innovations,
    simulate_dgp1,
    simulate_dgp2,
    stream,
    variance_path,
)
from varbreak.nulldist import DecisionRule, kolmogorov_cdf, kolmogorov_quantile, pvalue
from varbreak.pipeline import PipelineConfig, TestReport, emit_report, run_test_pipeline
from varbreak.series import ResidualSeries, SubsampleWindow
from varbreak.variance_poly import (
    OrderSelection,
    PositivityReport,
    VariancePolyFit,
    check_positivity,
    fit_variance_poly,
    select_poly_order_aic,
)

__version__ = "0.1.0"

__all__ = [
    "ArFit",
    "CsvParseError",
    "DateOrderError",
    "DecisionRule",
    "DegenerateSeriesError",
    "ExperimentIntegrityError",
    "McExperimentSpec",
    "McResult",
    "NonpositiveVarianceError",
    "OrderSelection",
    "PipelineConfig",
    "PositivityReport",
    "ResidualSeries",
    "SeriesFile",
    "SimulationTable",
    "SingularDesignError",
    "SubsampleWindow",
    "TestReport",
    "VarbreakError",
    "VariancePathSpec",
    "VariancePolyFit",
    "WindowBoundsError",
    "ZeroDispersionError",
    "check_positivity",
    "default_max_order",
    "difference",
    "emit_report",
    "experiment_for_cell",
    "fit_ar_ols",
    "fit_variance_poly",
    "infer_frequency",
    "kolmogorov_cdf",
    "kolmogorov_quantile",
    "load_csv",
    "pvalue",
    "run_experiment",
    "run_table",
    "run_test_pipeline",
    "sample_innovations",
    "select_ar_order",
    "select_poly_order_aic",
    "simulate_dgp1",
    "simulate_dgp2",
    "statistic_corrected",
    "statistic_it",
    "statistic_sanso",
    "statistic_subsample",
    "stream",
    "variance_path",
]
