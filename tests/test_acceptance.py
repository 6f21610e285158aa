"""Acceptance suite: one pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to watch the lines
appear; the whole module takes a couple of minutes.

One check encodes an external reference row that the procedures
implemented here do not reproduce (see README, section "Known
discrepancy"): the uncorrected statistic's rejection grid for the
autoregressive size design.  It is asserted at its stated tolerance
anyway, and fails.

The null quantile of the corrected statistic with the variance profile
fitted on the same sample (check 4b) is compared with its own limit law,
a profile-weighted generalized Brownian bridge simulated in
``oracles.py``, not with the Kolmogorov law (see README, section "Null
law of the corrected statistic").
"""

import datetime
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from varbreak import (
    DecisionRule,
    McExperimentSpec,
    PipelineConfig,
    ResidualSeries,
    SubsampleWindow,
    VariancePathSpec,
    emit_report,
    fit_variance_poly,
    kolmogorov_quantile,
    load_csv,
    run_table,
    run_test_pipeline,
    sample_innovations,
    statistic_corrected,
    statistic_it,
    statistic_sanso,
    statistic_subsample,
    stream,
)
from varbreak.mc import experiment_for_cell, run_experiment

from conftest import growing_variance_levels, month_starts, write_fred_csv
from oracles import (
    corrected_statistic_literal,
    generalized_bridge_quantile,
    it_statistic_literal,
    sanso_statistic_literal,
    subsample_statistic_literal,
)

GRID_SEED = 11
KQ95 = kolmogorov_quantile(0.95)

TABLE1_STD = (24.0, 57.4, 90.2)
TABLE1_MOD = (1.0, 2.9, 5.5)
TABLE2_STD = (45.2, 88.1, 99.6)
TABLE2_MOD = (0.9, 3.1, 4.9)
POWER_DGP1 = (7.1, 9.9, 13.6, 17.5, 19.7)
POWER_DGP2 = (7.2, 10.0, 14.0, 18.0, 19.4)
SIZE_NS = (50, 100, 200)
POWER_ALPHAS = (1.0, 2.0, 3.0, 4.0, 5.0)


def _criterion(name: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"{name}: {detail}"


def _within(observed, targets, tolerance) -> bool:
    return all(abs(o - t) <= tolerance for o, t in zip(observed, targets))


@pytest.fixture(scope="module")
def table1():
    return run_table(1, seed=GRID_SEED, replications=1000)


@pytest.fixture(scope="module")
def table2():
    return run_table(2, seed=GRID_SEED, replications=1000)


def _power_row(table: int):
    cells = [
        run_experiment(experiment_for_cell(table, 200, alpha, seed=GRID_SEED, replications=1000))
        for alpha in POWER_ALPHAS
    ]
    return [c.rejection_rate_mod for c in cells], [c.se_mod for c in cells]


def test_c01_table1_size_dgp1(table1):
    start = time.time()
    std = [table1.cell(n, 0.0).rejection_rate_std for n in SIZE_NS]
    mod = [table1.cell(n, 0.0).rejection_rate_mod for n in SIZE_NS]
    steps_exceed_10 = all(b - a > 10.0 for a, b in zip(std, std[1:]))
    ok = _within(std, TABLE1_STD, 4.0) and _within(mod, TABLE1_MOD, 2.5) and steps_exceed_10
    _criterion(
        "1 (size grid, direct errors)",
        ok,
        f"Q_std {std} vs {TABLE1_STD} +/-4pp; Q_mod {mod} vs {TABLE1_MOD} +/-2.5pp; "
        f"Q_std steps>10pp: {steps_exceed_10} [{time.time() - start:.0f}s]",
    )


def test_c02_table2_size_dgp2_qmod(table2):
    mod = [table2.cell(n, 0.0).rejection_rate_mod for n in SIZE_NS]
    _criterion(
        "2a (AR size grid, corrected test)",
        _within(mod, TABLE2_MOD, 2.5),
        f"Q_mod {mod} vs {TABLE2_MOD} +/-2.5pp",
    )


def test_c02_table2_size_dgp2_qstd(table2):
    # Known discrepancy: residual-based statistics for the AR design track
    # the direct-error design closely (the two grids differ only through
    # an O(n**-0.5) estimation effect), so this reference row is not
    # attainable by the procedure implemented here.  Neither the Sanso nor
    # the Inclan-Tiao statistic, on raw observations or on residuals, nor
    # an AR coefficient of 0.8 reproduces it (README, "Known discrepancy");
    # what the reference computed is not settled.  Kept strict.
    std = [table2.cell(n, 0.0).rejection_rate_std for n in SIZE_NS]
    _criterion(
        "2b (AR size grid, uncorrected test) [known discrepancy]",
        _within(std, TABLE2_STD, 4.0),
        f"Q_std {std} vs {TABLE2_STD} +/-4pp",
    )


@pytest.mark.parametrize(
    "table,targets,label",
    [(3, POWER_DGP1, "direct errors"), (4, POWER_DGP2, "AR observations")],
)
def test_c03_power_at_n200(table, targets, label):
    rates, ses = _power_row(table)
    monotone_to_2se = all(
        rates[i + 1] >= rates[i] - 2.0 * math.hypot(ses[i], ses[i + 1])
        for i in range(len(rates) - 1)
    )
    ok = _within(rates, targets, 3.0) and monotone_to_2se
    _criterion(
        f"3 (power grid at n=200, {label})",
        ok,
        f"Q_mod {rates} vs {targets} +/-3pp; monotone to 2 SE: {monotone_to_2se}",
    )


def test_c04a_null_quantile_constant_variance():
    start = time.time()
    stats = []
    for rep in range(2000):
        stats.append(statistic_sanso(ResidualSeries(sample_innovations(2000, stream(401, rep)))))
    q95 = float(np.quantile(stats, 0.95))
    _criterion(
        "4a (null quantile, constant variance)",
        abs(q95 - KQ95) <= 0.06,
        f"empirical q95 {q95:.4f} vs {KQ95:.4f} +/-0.06 [{time.time() - start:.0f}s]",
    )


def test_c04b_null_quantile_corrected():
    # With the profile fitted on the same sample the corrected statistic's
    # partial sums are orthogonalized against the polynomial class, so its
    # null law is a profile-weighted generalized Brownian bridge, not the
    # Kolmogorov law (MacNeill 1978).  The profile 1 + 2 r**2 lies inside
    # the fitted cubic class, so that limit is fixed; the reference comes
    # from simulating it in tests/oracles.py, independently of varbreak.
    def drift(r):
        return 1.0 + 2.0 * r**2

    start = time.time()
    n = 2000
    window = SubsampleWindow.full(n)
    scale = np.sqrt(drift(np.arange(1, n + 1) / n))
    stats = []
    for rep in range(2000):
        series = ResidualSeries(scale * sample_innovations(n, stream(402, rep)))
        fit = fit_variance_poly(series, window, 3)
        stats.append(statistic_corrected(series, fit, positivity="none"))
    q95 = float(np.quantile(stats, 0.95))
    limit_q95 = generalized_bridge_quantile(3, drift, 0.95, seed=4020)
    _criterion(
        "4b (null quantile, corrected statistic, same-sample cubic profile)",
        abs(q95 - limit_q95) <= 0.06,
        f"empirical q95 {q95:.4f} vs generalized-bridge limit q95 {limit_q95:.4f} +/-0.06 "
        f"[{time.time() - start:.0f}s]",
    )


def test_c05_uncorrected_statistic_diverges_at_sqrt_n():
    medians = {}
    for n in (200, 400, 800):
        spec = McExperimentSpec(
            dgp="dgp1",
            n=n,
            replications=500,
            path=VariancePathSpec(n=n),
            seed=403,
            decision=DecisionRule.fixed_boundary(),
            keep_statistics=True,
        )
        result = run_experiment(spec)
        medians[n] = float(np.median(result.statistics_std)) / math.sqrt(n)
    spread = max(medians.values()) / min(medians.values()) - 1.0
    ok = spread < 0.20 and min(medians.values()) > 0.1
    _criterion(
        "5 (sqrt-n divergence under smooth variance)",
        ok,
        f"medians/sqrt(n) {dict((k, round(v, 4)) for k, v in medians.items())}, "
        f"spread {spread:.1%} (<20%), min > 0.1",
    )


def test_c06_corrected_statistic_grows_under_a_break():
    medians = []
    for n in (100, 200, 400):
        spec = McExperimentSpec(
            dgp="dgp1",
            n=n,
            replications=500,
            path=VariancePathSpec(n=n, alpha=5.0),
            seed=404,
            decision=DecisionRule.fixed_boundary(),
            keep_statistics=True,
        )
        result = run_experiment(spec)
        medians.append(float(np.median(result.statistics_mod)))
    ok = medians[0] < medians[1] < medians[2]
    _criterion(
        "6 (corrected statistic grows with n under a break)",
        ok,
        f"medians {[round(m, 4) for m in medians]} strictly increasing: {ok}",
    )


def test_c07_profile_estimation_error_halves():
    truth = (2.0, 1.5, 3.0)
    medians = {}
    for q, seed in ((200, 405), (3200, 406)):
        window = SubsampleWindow.full(q)
        x = np.arange(1, q + 1) / q - window.center
        g2 = truth[0] + truth[1] * x + truth[2] * x * x
        errors = []
        for rep in range(100):
            eps = stream(seed, rep).standard_normal(q)
            fit = fit_variance_poly(ResidualSeries(np.sqrt(g2) * eps), window, 2)
            errors.append(float(np.max(np.abs(fit.profile() - g2))))
        medians[q] = float(np.median(errors))
    ratio = medians[3200] / medians[200]
    _criterion(
        "7 (profile sup-error halves from q=200 to q=3200)",
        ratio < 0.5,
        f"median sup-error {medians[200]:.4f} -> {medians[3200]:.4f}, ratio {ratio:.3f} (<0.5)",
    )


def test_c08_oracle_equivalence():
    rng = np.random.default_rng(408)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(5, 51))
        values = rng.uniform(0.5, 1.5, size=n)
        series = ResidualSeries(values)
        worst = max(worst, abs(statistic_it(series) - it_statistic_literal(values)))
        worst = max(worst, abs(statistic_sanso(series) - sanso_statistic_literal(values)))
        q = int(rng.integers(4, n + 1))
        offset = int(rng.integers(0, n - q + 1))
        window = SubsampleWindow(n=n, offset=offset, length=q)
        worst = max(
            worst,
            abs(statistic_subsample(series, window) - subsample_statistic_literal(values, offset, q)),
        )
        fit = fit_variance_poly(series, window, 1)
        literal = corrected_statistic_literal(values, offset, q, n, fit.coefficients, fit.center)
        worst = max(
            worst,
            abs(statistic_corrected(series, fit, positivity="none") - literal),
        )
    _criterion(
        "8 (oracle equivalence of all four statistics)",
        worst <= 1e-10,
        f"worst |fast - literal| = {worst:.2e} (<=1e-10) over 100 random inputs",
    )


def test_c09_scale_invariance():
    rng = np.random.default_rng(409)
    worst = 0.0
    window = None
    for scale in (1e-4, 0.5, 3.0, 1e4):
        values = rng.standard_normal(80) * np.linspace(1.0, 2.5, 80)
        series = ResidualSeries(values)
        scaled = ResidualSeries(scale * values)
        window = SubsampleWindow(n=80, offset=5, length=70)
        pairs = [
            (statistic_it(series), statistic_it(scaled)),
            (statistic_sanso(series), statistic_sanso(scaled)),
            (statistic_subsample(series, window), statistic_subsample(scaled, window)),
            (
                statistic_corrected(
                    series, fit_variance_poly(series, window, 2), positivity="none"
                ),
                statistic_corrected(
                    scaled, fit_variance_poly(scaled, window, 2), positivity="none"
                ),
            ),
        ]
        worst = max(worst, max(abs(a - b) / abs(a) for a, b in pairs))
    _criterion(
        "9 (scale invariance, including the refit-then-correct path)",
        worst <= 1e-8,
        f"worst relative change {worst:.2e} (<=1e-8)",
    )


def _candidate_data_files():
    """Real FRED exports if provided locally, else deterministic surrogates."""
    root = Path(os.environ.get("VARBREAK_DATA_DIR", Path(__file__).resolve().parent.parent / "data"))
    real = {
        "quarterly": root / "ROWFDIQ027S.csv",
        "monthly": root / "M2REAL.csv",
    }
    return {k: p for k, p in real.items() if p.exists()}


def test_c10_macro_pipeline_end_to_end(tmp_path):
    real = _candidate_data_files()
    files = {}
    if "quarterly" in real:
        files["quarterly"] = (real["quarterly"], "local FRED export")
    else:
        dates = month_starts(datetime.date(1946, 10, 1), 270, 3)
        files["quarterly"] = (
            write_fred_csv(tmp_path / "SURROGATE_Q.csv", "SURROGATE_Q", dates,
                           growing_variance_levels(270, seed=1001)),
            "surrogate",
        )
    if "monthly" in real:
        files["monthly"] = (real["monthly"], "local FRED export")
    else:
        dates = month_starts(datetime.date(1959, 1, 1), 661, 1)
        files["monthly"] = (
            write_fred_csv(tmp_path / "SURROGATE_M.csv", "SURROGATE_M", dates,
                           growing_variance_levels(661, seed=1002)),
            "surrogate",
        )

    config = PipelineConfig(rule=DecisionRule.fixed_boundary())
    details = []
    ok = True
    required_fields = (
        "kind", "statistic", "critical_value", "rule_source", "diff_order",
        "ar_order", "ar_coefficients", "window_offset", "window_length",
        "window_gamma", "n_effective", "p_value",
    )
    for label, (path, origin) in files.items():
        series = load_csv(path)
        report_std, report_mod = run_test_pipeline(series, config)
        payload = json.loads(emit_report([report_std, report_mod], "json"))
        exposed = all(f in payload["reports"][0] for f in required_fields)
        exposed = exposed and payload["reports"][1]["poly_order"] is not None
        rejected = report_std.statistic > 1.33
        ok = ok and exposed and rejected
        details.append(
            f"{label} ({origin}): n={series.n}, Q_std={report_std.statistic:.3f}"
            f"{'>' if rejected else '<='}1.33, AR({report_std.ar_order}), p={report_mod.poly_order}"
        )
    _criterion("10 (macro pipeline end to end)", ok, "; ".join(details))


def test_c11_cli_determinism_across_worker_counts():
    start = time.time()
    command = [sys.executable, "-m", "varbreak.cli", "simulate", "--table", "1", "--seed", "7"]
    env = dict(os.environ)
    first = subprocess.run(command + ["--workers", "1"], capture_output=True, env=env, check=True)
    second = subprocess.run(command + ["--workers", "2"], capture_output=True, env=env, check=True)
    ok = first.stdout == second.stdout and len(first.stdout) > 0
    _criterion(
        "11 (byte-identical CSV across worker counts)",
        ok,
        f"{len(first.stdout)} bytes, workers 1 vs 2 identical: {ok} [{time.time() - start:.0f}s]",
    )
