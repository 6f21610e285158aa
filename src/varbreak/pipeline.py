"""End-to-end test pipeline and report emission.

The pipeline differences a loaded series, prewhitens it with an OLS
autoregression, and runs the uncorrected (Q_std) and variance-profile-
corrected (Q_mod) statistics on one window of the residuals, the full
sample unless ``gamma < 1``.  Reports expose every choice made along the
way (difference order, AR order and coefficients, polynomial order and
coefficients, window, threshold) so a run can be audited or replicated
from its output alone.
"""

from __future__ import annotations

import contextlib
import json
import operator
from dataclasses import dataclass, field

from varbreak.armodel import ArFit, default_max_order, fit_ar_ols, select_ar_order
from varbreak.cusum import statistic_corrected, statistic_subsample
from varbreak.dataio import SeriesFile, difference
from varbreak.errors import VarbreakError
from varbreak.mc import McResult, SimulationTable
from varbreak.nulldist import DecisionRule, pvalue
from varbreak.series import ResidualSeries, SubsampleWindow
from varbreak.variance_poly import DEFAULT_P_MAX, check_positivity, select_poly_order_aic

REPORT_SCHEMA_VERSION = 1
MIN_PIPELINE_LENGTH = 10

FORMATS = ("human", "json", "csv")

#: The row model of experiment output: field name -> attribute path on
#: :class:`McResult`, in CSV column order.
_EXPERIMENT_FIELDS = {
    "dgp": "spec.dgp",
    "n": "spec.n",
    "alpha": "spec.path.alpha",
    "kappa": "spec.path.kappa",
    "replications": "spec.replications",
    "seed": "spec.seed",
    "rate_std": "rejection_rate_std",
    "se_std": "se_std",
    "rate_mod": "rejection_rate_mod",
    "se_mod": "se_mod",
    "n_valid_std": "n_valid_std",
    "n_valid_mod": "n_valid_mod",
    "critical_value": "spec.decision.critical_value",
    "rule": "spec.decision.source",
    "failures": "failures",
}
_EXPERIMENT_GETTER = operator.attrgetter(*_EXPERIMENT_FIELDS.values())
# fields a simulation table states once for all of its cells
_TABLE_LEVEL_FIELDS = ("dgp", "kappa", "critical_value", "rule")

#: The CSV row model of :class:`TestReport`: column name -> attribute.
_REPORT_FIELDS = {
    "kind": "kind",
    "statistic": "statistic",
    "critical_value": "critical_value",
    "rule": "rule_source",
    "p_value": "p_value",
    "reject": "reject",
    "ar_order": "ar_order",
    "poly_order": "poly_order",
}
_REPORT_GETTER = operator.attrgetter(*_REPORT_FIELDS.values())


@dataclass(frozen=True)
class PipelineConfig:
    """Choices of the end-to-end pipeline; all recorded in the reports."""

    diff_order: int = 1
    ar_order: int | None = None  # None selects by AIC
    p_max: int = DEFAULT_P_MAX
    gamma: float = 1.0  # window length floor(n**gamma); 1.0 is the full residual sample
    offset_fraction: float = 0.0
    rule: DecisionRule = field(default_factory=DecisionRule.asymptotic)
    clamp: bool = False


@dataclass(frozen=True)
class TestReport:
    """Outcome of one statistic on one series."""

    __test__ = False  # not a pytest class, despite the name

    kind: str  # "Q_std" | "Q_mod"
    statistic: float
    critical_value: float
    rule_source: str
    level: float | None
    p_value: float
    reject: bool
    source_id: str
    n_input: int
    diff_order: int
    dropped_missing: int
    ar_order: int
    ar_coefficients: tuple[float, ...]
    ar_intercept: float | None
    ar_demeaned: bool
    n_effective: int
    window_offset: int
    window_length: int
    window_gamma: float
    window_center: float
    poly_order: int | None = None
    poly_coefficients: tuple[float, ...] | None = None
    poly_rss: float | None = None
    poly_aic_scores: tuple[tuple[int, float], ...] | None = None
    warnings: tuple[str, ...] = ()

    def summary(self) -> str:
        lines = [
            f"{self.kind} on {self.source_id or 'series'} "
            f"(n={self.n_input}, diff={self.diff_order}, AR({self.ar_order}), "
            f"effective n={self.n_effective})",
            f"  statistic      {self.statistic:.6f}",
            f"  critical value {self.critical_value:.6f} [{self.rule_source}]",
            f"  p-value        {self.p_value:.6g}",
            f"  decision       {'reject' if self.reject else 'do not reject'} the no-break null",
        ]
        if self.poly_order is not None:
            lines.append(f"  variance poly  order {self.poly_order}, rss {self.poly_rss:.6g}")
        if self.warnings:
            lines.extend(f"  warning        {w}" for w in self.warnings)
        return "\n".join(lines)


@contextlib.contextmanager
def _stage(name: str):
    """Re-raise a :class:`VarbreakError` of the block as the same type, its message prefixed by ``name``."""
    try:
        yield
    except VarbreakError as exc:
        raise type(exc)(f"{name}: {exc}") from exc


def run_test_pipeline(series: SeriesFile, config: PipelineConfig) -> tuple[TestReport, TestReport]:
    """Difference, prewhiten, and test a series; returns (Q_std, Q_mod) reports.

    Raises
    ------
    ValueError
        If the series is shorter than 10 observations or the
        configuration is inconsistent.
    VarbreakError
        Propagated from the failing stage with a stage label.
    """
    if config.diff_order < 0:
        raise ValueError(f"difference order must be at least 0, got {config.diff_order}")
    if series.n < MIN_PIPELINE_LENGTH:
        raise ValueError(
            f"need at least {MIN_PIPELINE_LENGTH} observations to run the tests, got {series.n}"
        )
    worked = difference(series, config.diff_order) if config.diff_order > 0 else series
    values = worked.values

    with _stage("ar-fit"):
        order = config.ar_order
        if order is None:
            order = select_ar_order(values, default_max_order(values.size, worked.frequency))
        ar_fit: ArFit = fit_ar_ols(values, order, intercept=True)
    residuals: ResidualSeries = ar_fit.residuals

    window = SubsampleWindow.from_exponent(residuals.n, config.gamma, config.offset_fraction)

    with _stage("statistic-std"):
        q_std = statistic_subsample(residuals, window)

    warnings: list[str] = []
    p_max = min(config.p_max, max(1, window.length - 2))  # the largest order the window supports, if any
    if p_max < config.p_max:
        warnings.append(f"polynomial order search capped at {p_max} by window length {window.length}")
    with _stage("variance-fit"):
        selection = select_poly_order_aic(residuals, window, p_max)
    poly_fit = selection.fit
    positivity = check_positivity(poly_fit)
    if not positivity.passed and config.clamp:
        warnings.append(
            f"variance profile floored at {positivity.floor:.6g} "
            f"(minimum {positivity.min_value:.6g} at t={positivity.t_min})"
        )
    with _stage("statistic-mod"):
        q_mod = statistic_corrected(residuals, poly_fit, positivity="clamp" if config.clamp else "error")

    common = dict(
        rule_source=config.rule.source,
        critical_value=config.rule.critical_value,
        level=config.rule.level,
        source_id=series.source_id,
        n_input=series.n,
        diff_order=config.diff_order,
        dropped_missing=series.dropped_missing,
        ar_order=ar_fit.order,
        ar_coefficients=ar_fit.coefficients,
        ar_intercept=ar_fit.intercept,
        ar_demeaned=False,
        n_effective=residuals.n,
        window_offset=window.offset,
        window_length=window.length,
        window_gamma=config.gamma,
        window_center=window.center,
    )
    report_std = TestReport(
        kind="Q_std",
        statistic=q_std,
        p_value=pvalue(q_std),
        reject=config.rule.rejects(q_std),
        **common,
    )
    report_mod = TestReport(
        kind="Q_mod",
        statistic=q_mod,
        p_value=pvalue(q_mod),
        reject=config.rule.rejects(q_mod),
        poly_order=poly_fit.order,
        poly_coefficients=poly_fit.coefficients,
        poly_rss=poly_fit.rss,
        poly_aic_scores=selection.scores,
        warnings=tuple(warnings),
        **common,
    )
    return report_std, report_mod


def _experiment_fields(result: McResult) -> dict:
    """One experiment as a row; every experiment and table report format reads it."""
    return dict(zip(_EXPERIMENT_FIELDS, _EXPERIMENT_GETTER(result)))


def _experiment_csv_cells(result: McResult):
    """One experiment's row with the shift as a float and failures as ``name:count;...``."""
    row = _experiment_fields(result)
    row["alpha"], row["kappa"] = float(row["alpha"]), float(row["kappa"])
    row["failures"] = ";".join(f"{failure}:{count}" for failure, count in row["failures"])
    return row.values()


def _csv_cell(value) -> str:
    if value is None:
        return ""
    return value if isinstance(value, str) else repr(value)


def _csv(columns, rows) -> str:
    """A header line of ``columns``, then one line of :func:`_csv_cell` cells per row."""
    lines = [",".join(columns)]
    lines.extend(",".join(_csv_cell(value) for value in row) for row in rows)
    return "\n".join(lines) + "\n"


def _table_rows(table: SimulationTable) -> tuple[str, list[tuple[str, list[float]]]]:
    """Header label and ``(label, rejection rates by n)`` rows of a size or power table."""
    if table.kind == "size":
        cells = [table.cell(n, 0.0) for n in table.ns]
        return "statistic", [
            ("Q_std", [cell.rejection_rate_std for cell in cells]),
            ("Q_mod", [cell.rejection_rate_mod for cell in cells]),
        ]
    return "alpha", [
        (f"{alpha:g}", [table.cell(n, alpha).rejection_rate_mod for n in table.ns])
        for alpha in table.alphas
    ]


def _table_csv(table: SimulationTable) -> str:
    label, rows = _table_rows(table)
    return _csv([label, *(f"n={n}" for n in table.ns)], ((name, *rates) for name, rates in rows))


def _table_dict(table: SimulationTable) -> dict:
    return {
        "table": table.table,
        "table_kind": table.kind,
        "dgp": table.dgp,
        "ns": list(table.ns),
        "alphas": list(table.alphas),
        "decision": {
            "critical_value": table.results[0].spec.decision.critical_value,
            "source": table.results[0].spec.decision.source,
        },
        "cells": [
            {
                name: value
                for name, value in _experiment_fields(r).items()
                if name not in _TABLE_LEVEL_FIELDS
            }
            for r in table.results
        ],
    }


def _table_human(table: SimulationTable) -> str:
    label, rows = _table_rows(table)
    lines = [
        f"table {table.table} ({table.kind}, {table.dgp}), "
        f"decision {table.results[0].spec.decision.label}",
        f"{label:<10}" + "".join(f"{'n=' + str(n):>12}" for n in table.ns),
    ]
    lines.extend(f"{name:<10}" + "".join(f"{rate:>12.1f}" for rate in rates) for name, rates in rows)
    return "\n".join(lines) + "\n"


def _json(kind: str, **fields) -> str:
    """A JSON document of ``kind`` with the schema version; keys sorted, numbers lossless."""
    payload = {"schema_version": REPORT_SCHEMA_VERSION, "kind": kind, **fields}
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def emit_report(reports, fmt: str = "human") -> str:
    """Serialize test reports, experiment results, or a whole grid.

    ``reports`` may be a :class:`SimulationTable`, a sequence of
    :class:`TestReport`, or a sequence of :class:`McResult` (an empty
    sequence is treated as experiment results).  Output is
    deterministic: the same inputs give byte-identical text, and JSON
    numbers round-trip losslessly.
    """
    if fmt not in FORMATS:
        raise ValueError(f"format must be one of {FORMATS}, got {fmt!r}")
    if isinstance(reports, SimulationTable):
        if fmt == "csv":
            return _table_csv(reports)
        if fmt == "json":
            return _json("simulation_table", **_table_dict(reports))
        return _table_human(reports)

    items = list(reports)
    if items and isinstance(items[0], TestReport):
        if fmt == "json":
            # a report's instance dict is its flat field map; json writes its tuples as arrays
            return _json("test_reports", reports=[vars(r) for r in items])
        if fmt == "csv":
            return _csv(_REPORT_FIELDS, map(_REPORT_GETTER, items))
        return "\n\n".join(r.summary() for r in items) + "\n"

    # experiment results (possibly empty)
    if fmt == "csv":
        return _csv(_EXPERIMENT_FIELDS, map(_experiment_csv_cells, items))
    if fmt == "json":
        return _json("experiments", experiments=[_experiment_fields(r) for r in items])
    lines = [
        "{dgp} n={n} alpha={alpha:g}: Q_std {rate_std:.1f}% (se {se_std:.2f}), Q_mod "
        "{rate_mod:.1f}% (se {se_mod:.2f}) [crit {critical_value:g}, N={replications}]".format(
            **_experiment_fields(r)
        )
        for r in items
    ]
    return "\n".join(lines) + "\n"
