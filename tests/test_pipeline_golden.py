"""Exact output of real pipeline runs, pinned byte for byte.

Each case writes a surrogate FRED-style CSV, then runs ``load_csv`` ->
``run_test_pipeline`` -> ``emit_report(..., "csv")``.  Unlike
``test_emit_golden.py``, whose reports are built by hand, the text here
depends on every fit and statistic of the pipeline, so a change to any of
them that moves a printed digit shows as a diff.  The JSON digests cover
the fields the CSV leaves out: AR coefficients and intercept, polynomial
coefficients, RSS, AIC scores and the window.
"""

import datetime
import hashlib

import pytest

from conftest import growing_variance_levels, month_starts, write_fred_csv
from varbreak import NonpositiveVarianceError, PipelineConfig, emit_report, load_csv, run_test_pipeline

HEADER = "kind,statistic,critical_value,rule,p_value,reject,ar_order,poly_order\n"
MONTHLY = (661, datetime.date(1959, 1, 1), 1)
QUARTERLY = (270, datetime.date(1946, 10, 1), 3)


def surrogate(tmp_path, shape, seed):
    count, start, step_months = shape
    dates = month_starts(start, count, step_months)
    return load_csv(write_fred_csv(tmp_path / f"S{count}_{seed}.csv", "X", dates, growing_variance_levels(count, seed)))


@pytest.mark.parametrize(
    "shape,seed,text,warnings",
    [
        (
            MONTHLY,
            0,
            HEADER
            + "Q_std,4.754247925154545,1.3580986393227934,asymptotic,4.6604050863848227e-20,True,11,\n"
            + "Q_mod,0.5884892945562898,1.3580986393227934,asymptotic,0.8791472511667277,False,11,2\n",
            (),
        ),
        (
            QUARTERLY,
            0,
            HEADER
            + "Q_std,3.0656538317452156,1.3580986393227934,asymptotic,1.3734984421371805e-08,True,1,\n"
            + "Q_mod,2.659444717958414,1.3580986393227934,asymptotic,1.438161156301782e-06,True,1,5\n",
            ("variance profile floored at 0.0791529 (minimum -0.555679 at t=25)",),
        ),
    ],
    ids=["monthly", "quarterly-floored"],
)
def test_clamped_run_text(tmp_path, shape, seed, text, warnings):
    reports = run_test_pipeline(surrogate(tmp_path, shape, seed), PipelineConfig(clamp=True))
    assert emit_report(list(reports), "csv") == text
    assert reports[1].warnings == warnings


def test_strict_run_failure_text(tmp_path):
    series = surrogate(tmp_path, QUARTERLY, 0)
    message = (
        "statistic-mod: fitted variance dips to -0.555679 at t=25 (positivity floor 0.0791529); "
        "clamp explicitly or refit with a lower order"
    )
    with pytest.raises(NonpositiveVarianceError) as caught:
        run_test_pipeline(series, PipelineConfig())
    assert str(caught.value) == message


@pytest.mark.parametrize(
    "shape,seed,config,digest",
    [
        (MONTHLY, 0, {}, "a0d48e3a44bba634ac315ab4249c08407077e55307f2924760703c4c48012e99"),
        (QUARTERLY, 2, {}, "4dfb8eb287f576cb1522da7d35efaa951e8075ec31cdf5ca708d07e8178d7018"),
        (MONTHLY, 10, {"clamp": True}, "9a644ab835dca28d2bc6b9a3e90f8c64bb65310aa282437a2f38d190bb8f53b7"),
        (QUARTERLY, 0, {"clamp": True}, "0c965239dde3a40ad14bb15a93086d1baad909e78386a9f2302ad7ba4139ea7d"),
        (MONTHLY, 0, {"gamma": 0.8, "offset_fraction": 0.1}, "b62d3470fd554e87c3d48dcfa794f6d9a665f76e79f2d8fb7d0576b46fce0843"),
        (QUARTERLY, 0, {"gamma": 0.8, "offset_fraction": 0.1}, "3f6d65393fa9575e38164fb849040c650874d5331d087817a455948de2c56318"),
    ],
    ids=["monthly-strict", "quarterly-strict", "monthly-floored", "quarterly-floored", "monthly-window", "quarterly-window"],
)
def test_json_report_digest(tmp_path, shape, seed, config, digest):
    reports = run_test_pipeline(surrogate(tmp_path, shape, seed), PipelineConfig(**config))
    assert hashlib.sha256(emit_report(list(reports), "json").encode()).hexdigest() == digest
