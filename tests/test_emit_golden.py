"""Exact text of every report format, pinned byte for byte.

The inputs are built from constructor arguments alone, so the expected
text does not depend on any simulation; a change to how reports are
laid out shows here as a diff of the output.
"""

import math

import pytest

from varbreak import DecisionRule, McExperimentSpec, McResult, SimulationTable, TestReport, emit_report
from varbreak.mc import VariancePathSpec


def _result(dgp, n, alpha, rates, failures=(), replications=300, seed=7):
    rate_std, rate_mod = rates
    return McResult(
        spec=McExperimentSpec(
            dgp=dgp,
            n=n,
            replications=replications,
            path=VariancePathSpec(n=n, alpha=alpha, kappa=0.5),
            seed=seed,
            decision=DecisionRule.fixed_boundary(),
        ),
        rejection_rate_std=rate_std,
        rejection_rate_mod=rate_mod,
        se_std=0.1 * rate_std if math.isfinite(rate_std) else math.nan,
        se_mod=0.1 * rate_mod,
        n_valid_std=replications - sum(count for _, count in failures),
        n_valid_mod=replications,
        failures=failures,
    )


def size_table():
    results = tuple(
        _result("dgp1", n, 0.0, (rate, 100.0 / 3.0 + k))
        for k, (n, rate) in enumerate(((50, 12.0), (100, 5.5), (200, 4.666666666666667)))
    )
    return SimulationTable(
        table=1, kind="size", dgp="dgp1", ns=(50, 100, 200), alphas=(0.0,), results=results
    )


def power_table():
    alphas = (1.0, 2.5)
    ns = (50, 100)
    results = tuple(
        _result("dgp2", n, alpha, (10.0 * alpha, 0.1 + alpha * n / 7.0))
        for alpha in alphas
        for n in ns
    )
    return SimulationTable(table=4, kind="power", dgp="dgp2", ns=ns, alphas=alphas, results=results)


def experiments():
    return [
        _result("dgp1", 50, 0.0, (4.0, 6.333333333333333)),
        _result(
            "dgp2",
            200,
            1.5,
            (math.nan, 97.0),
            failures=(("NonFiniteStatistic", 1), ("NonpositiveVarianceError", 2)),
            replications=3,
        ),
    ]


def report_pair():
    common = dict(
        critical_value=1.3580986393225505,
        rule_source="asymptotic",
        level=0.05,
        source_id="SYN",
        n_input=120,
        diff_order=1,
        dropped_missing=2,
        ar_order=2,
        ar_coefficients=(0.31, -0.125),
        ar_intercept=0.0625,
        ar_demeaned=False,
        n_effective=117,
        window_offset=0,
        window_length=117,
        window_gamma=1.0,
        window_center=0.5,
    )
    return [
        TestReport(kind="Q_std", statistic=2.25, p_value=0.00010312345, reject=True, **common),
        TestReport(
            kind="Q_mod",
            statistic=0.6180339887498949,
            p_value=0.8394,
            reject=False,
            poly_order=2,
            poly_coefficients=(1.5, 0.25, -0.75),
            poly_rss=12.5,
            poly_aic_scores=((1, 30.5), (2, 28.25)),
            warnings=("variance profile floored at 0.015 (minimum -0.2 at t=3)",),
            **common,
        ),
    ]


SIZE_HUMAN = """\
table 1 (size, dgp1), decision boundary(crit=1.33)
statistic         n=50       n=100       n=200
Q_std             12.0         5.5         4.7
Q_mod             33.3        34.3        35.3
"""

SIZE_CSV = """\
statistic,n=50,n=100,n=200
Q_std,12.0,5.5,4.666666666666667
Q_mod,33.333333333333336,34.333333333333336,35.333333333333336
"""

SIZE_JSON_HEAD = """\
{
  "alphas": [
    0.0
  ],
  "cells": [
    {
      "alpha": 0.0,
      "failures": [],
      "n": 50,
      "n_valid_mod": 300,
      "n_valid_std": 300,
      "rate_mod": 33.333333333333336,
      "rate_std": 12.0,
      "replications": 300,
      "se_mod": 3.333333333333334,
      "se_std": 1.2000000000000002,
      "seed": 7
    },
"""

POWER_HUMAN = """\
table 4 (power, dgp2), decision boundary(crit=1.33)
alpha             n=50       n=100
1                  7.2        14.4
2.5               18.0        35.8
"""

POWER_CSV = """\
alpha,n=50,n=100
1,7.242857142857143,14.385714285714286
2.5,17.95714285714286,35.81428571428572
"""

EXPERIMENTS_HUMAN = """\
dgp1 n=50 alpha=0: Q_std 4.0% (se 0.40), Q_mod 6.3% (se 0.63) [crit 1.33, N=300]
dgp2 n=200 alpha=1.5: Q_std nan% (se nan), Q_mod 97.0% (se 9.70) [crit 1.33, N=3]
"""

EXPERIMENTS_CSV = """\
dgp,n,alpha,kappa,replications,seed,rate_std,se_std,rate_mod,se_mod,n_valid_std,n_valid_mod,critical_value,rule,failures
dgp1,50,0.0,0.5,300,7,4.0,0.4,6.333333333333333,0.6333333333333333,300,300,1.33,boundary,
dgp2,200,1.5,0.5,3,7,nan,nan,97.0,9.700000000000001,0,3,1.33,boundary,NonFiniteStatistic:1;NonpositiveVarianceError:2
"""

EXPERIMENTS_JSON = """\
{
  "experiments": [
    {
      "alpha": 0.0,
      "critical_value": 1.33,
      "dgp": "dgp1",
      "failures": [],
      "kappa": 0.5,
      "n": 50,
      "n_valid_mod": 300,
      "n_valid_std": 300,
      "rate_mod": 6.333333333333333,
      "rate_std": 4.0,
      "replications": 300,
      "rule": "boundary",
      "se_mod": 0.6333333333333333,
      "se_std": 0.4,
      "seed": 7
    },
    {
      "alpha": 1.5,
      "critical_value": 1.33,
      "dgp": "dgp2",
      "failures": [
        [
          "NonFiniteStatistic",
          1
        ],
        [
          "NonpositiveVarianceError",
          2
        ]
      ],
      "kappa": 0.5,
      "n": 200,
      "n_valid_mod": 3,
      "n_valid_std": 0,
      "rate_mod": 97.0,
      "rate_std": NaN,
      "replications": 3,
      "rule": "boundary",
      "se_mod": 9.700000000000001,
      "se_std": NaN,
      "seed": 7
    }
  ],
  "kind": "experiments",
  "schema_version": 1
}
"""

REPORTS_HUMAN = """\
Q_std on SYN (n=120, diff=1, AR(2), effective n=117)
  statistic      2.250000
  critical value 1.358099 [asymptotic]
  p-value        0.000103123
  decision       reject the no-break null

Q_mod on SYN (n=120, diff=1, AR(2), effective n=117)
  statistic      0.618034
  critical value 1.358099 [asymptotic]
  p-value        0.8394
  decision       do not reject the no-break null
  variance poly  order 2, rss 12.5
  warning        variance profile floored at 0.015 (minimum -0.2 at t=3)
"""

REPORTS_CSV = """\
kind,statistic,critical_value,rule,p_value,reject,ar_order,poly_order
Q_std,2.25,1.3580986393225505,asymptotic,0.00010312345,True,2,
Q_mod,0.6180339887498949,1.3580986393225505,asymptotic,0.8394,False,2,2
"""


CASES = [
    (size_table, "human", SIZE_HUMAN),
    (size_table, "csv", SIZE_CSV),
    (power_table, "human", POWER_HUMAN),
    (power_table, "csv", POWER_CSV),
    (experiments, "human", EXPERIMENTS_HUMAN),
    (experiments, "csv", EXPERIMENTS_CSV),
    (experiments, "json", EXPERIMENTS_JSON),
    (report_pair, "human", REPORTS_HUMAN),
    (report_pair, "csv", REPORTS_CSV),
]


@pytest.mark.parametrize(
    "build, fmt, expected", CASES, ids=[f"{build.__name__}-{fmt}" for build, fmt, _ in CASES]
)
def test_exact_output(build, fmt, expected):
    assert emit_report(build(), fmt) == expected


def test_table_json_states_the_decision_once_and_every_cell():
    text = emit_report(size_table(), "json")
    assert text.startswith(SIZE_JSON_HEAD)
    assert text.endswith('  "table": 1,\n  "table_kind": "size"\n}\n')
    assert text.count('"seed": 7') == 3
