"""Deterministic Monte Carlo engine for size and power studies.

Two data generating processes share the same heteroscedastic errors
``u_t = h(t) * eps_t`` with logistic innovations and the variance path

    h2(t) = -2.7 + 1.5*exp(1 + t/n) + 0.2*sin(5*pi*t/n) + alpha*1{t >= floor(n*kappa)},

a globally increasing level with a cyclical perturbation and an
optional level shift of size ``alpha`` at fraction ``kappa``:

* ``dgp1`` observes u_t directly;
* ``dgp2`` observes x_t = 0.4*x_{t-1} + u_t (x_0 = 0) and tests the
  residuals of an OLS AR(1) fit.

Each replication runs the uncorrected statistic (Q_std) and the
variance-profile-corrected statistic with AIC-selected order (Q_mod) on
the full sample, and counts rejections against a decision rule.  Every
replication draws from its own counter-based Philox stream keyed by
``(seed, replication)``, so results are bit-identical across runs,
worker counts, and execution orders.
"""

from __future__ import annotations

import math
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from varbreak.armodel import fit_ar_ols
from varbreak.cusum import statistic_corrected, statistic_subsample
from varbreak.errors import ExperimentIntegrityError, VarbreakError
from varbreak.nulldist import DecisionRule
from varbreak.series import ResidualSeries, SubsampleWindow
from varbreak.variance_poly import select_poly_order_aic

_MASK64 = (1 << 64) - 1
_SQRT3_OVER_PI = math.sqrt(3.0) / math.pi

DGPS = ("dgp1", "dgp2")
AR1_COEFF = 0.4

#: Experiment grids reproducible via :func:`run_table`: sizes (alpha = 0)
#: and powers (alpha = 1..5 at kappa = 0.5) for both processes.
TABLE_DGP = {1: "dgp1", 2: "dgp2", 3: "dgp1", 4: "dgp2"}
TABLE_KIND = {1: "size", 2: "size", 3: "power", 4: "power"}
TABLE_NS = (50, 100, 200)
TABLE_ALPHAS = (1.0, 2.0, 3.0, 4.0, 5.0)
TABLE_KAPPA = 0.5
# Grid calibration: a cubic selection cap and the 1.33 boundary keep the
# corrected test's size near nominal on these sample sizes.
TABLE_P_MAX = 3
# The corrected statistic uses the fitted profile as is, with no positivity
# floor: the rejection frequencies of run_table were calibrated that way.
GRID_POSITIVITY = "none"

#: Failure key of a replication whose statistic came out NaN or infinite.
NONFINITE_FAILURE = "NonFiniteStatistic"


def stream(seed: int, replication: int) -> np.random.Generator:
    """The counter-based random stream of one replication."""
    key = np.array([seed & _MASK64, replication & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sample_innovations(count: int, rng: np.random.Generator) -> np.ndarray:
    """I.i.d. logistic draws via the inverse CDF ``log(u / (1 - u))``.

    The standard logistic has variance pi**2/3; draws are multiplied by
    sqrt(3)/pi so the innovations have unit variance.  The tests are
    scale invariant, so the scaling cannot change any statistic.
    """
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    u = rng.random(count)
    u = np.where(u == 0.0, np.finfo(np.float64).tiny, u)
    return np.log(u / (1.0 - u)) * _SQRT3_OVER_PI


@dataclass(frozen=True)
class VariancePathSpec:
    """Parameters of the simulated variance path h2(1..n)."""

    n: int
    alpha: float = 0.0
    kappa: float = 0.5

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"n must be at least 2, got {self.n}")
        if self.alpha < 0:
            raise ValueError(f"alpha must be nonnegative, got {self.alpha}")
        if not 0.0 < self.kappa < 1.0:
            raise ValueError(f"kappa must be in (0, 1), got {self.kappa}")

    @property
    def break_index(self) -> int:
        """First t carrying the level shift, floor(n * kappa)."""
        return math.floor(self.n * self.kappa)


def variance_path(spec: VariancePathSpec) -> np.ndarray:
    """Pointwise h2(t), t = 1..n; positive for alpha >= 0, infimum -2.7 + 1.5e, about 1.377."""
    t = np.arange(1, spec.n + 1, dtype=np.float64)
    path = -2.7 + 1.5 * np.exp(1.0 + t / spec.n) + 0.2 * np.sin(5.0 * np.pi * t / spec.n)
    path[t >= spec.break_index] += spec.alpha
    return path


@dataclass(frozen=True)
class McExperimentSpec:
    """Configuration of one Monte Carlo experiment.

    Identical spec and seed give bit-identical results.  Both statistics
    run on the full (residual) sample; ``poly_p_max`` caps the AIC order
    search of the variance profile, and ``keep_statistics`` keeps every
    replication's statistics in the result.
    """

    dgp: str
    n: int
    replications: int
    path: VariancePathSpec
    seed: int
    decision: DecisionRule
    poly_p_max: int = TABLE_P_MAX
    keep_statistics: bool = False

    def __post_init__(self) -> None:
        if self.dgp not in DGPS:
            raise ValueError(f"dgp must be one of {DGPS}, got {self.dgp!r}")
        if self.replications < 1:
            raise ValueError(f"replications must be at least 1, got {self.replications}")
        if self.n != self.path.n:
            raise ValueError(f"spec n={self.n} disagrees with path n={self.path.n}")
        if self.poly_p_max < 1:
            raise ValueError(f"poly_p_max must be at least 1, got {self.poly_p_max}")


@dataclass(frozen=True, eq=False)
class McResult:
    """Rejection frequencies of one experiment, in percent."""

    spec: McExperimentSpec
    rejection_rate_std: float
    rejection_rate_mod: float
    se_std: float
    se_mod: float
    n_valid_std: int
    n_valid_mod: int
    failures: tuple[tuple[str, int], ...]
    statistics_std: np.ndarray | None = None
    statistics_mod: np.ndarray | None = None


def simulate_dgp1(spec: McExperimentSpec, replication: int, innovations=None) -> ResidualSeries:
    """Directly observed heteroscedastic errors u_t = h(t) * eps_t.

    ``innovations`` overrides the stream draws (testing hook).
    """
    eps = (
        np.asarray(innovations, dtype=np.float64)
        if innovations is not None
        else sample_innovations(spec.n, stream(spec.seed, replication))
    )
    return ResidualSeries(np.sqrt(variance_path(spec.path)) * eps)


def simulate_dgp2(spec: McExperimentSpec, replication: int, innovations=None) -> np.ndarray:
    """AR(1) observations x_t = 0.4*x_{t-1} + u_t with x_0 = 0, no burn-in."""
    u = simulate_dgp1(spec, replication, innovations).values
    x = np.empty(spec.n, dtype=np.float64)
    prev = 0.0
    for i in range(spec.n):
        prev = AR1_COEFF * prev + u[i]
        x[i] = prev
    return x


def _replicate(spec: McExperimentSpec, replication: int) -> tuple[float, float, str, str]:
    """One replication; returns (q_std, q_mod, error_std, error_mod), NaN on error."""
    if spec.dgp == "dgp2":
        x = simulate_dgp2(spec, replication)
        residuals = fit_ar_ols(x, 1).residuals
    else:
        residuals = simulate_dgp1(spec, replication)
    window = SubsampleWindow.full(residuals.n)
    q_std, err_std = math.nan, ""
    q_mod, err_mod = math.nan, ""
    try:
        q_std = statistic_subsample(residuals, window)
    except VarbreakError as exc:
        err_std = type(exc).__name__
    try:
        fit = select_poly_order_aic(residuals, window, spec.poly_p_max).fit
        q_mod = statistic_corrected(residuals, window, fit, positivity=GRID_POSITIVITY)
    except VarbreakError as exc:
        err_mod = type(exc).__name__
    return q_std, q_mod, err_std, err_mod


def _rate_and_se(values: np.ndarray, rule: DecisionRule) -> tuple[float, float, int]:
    valid = values[np.isfinite(values)]
    n_valid = int(valid.size)
    if n_valid == 0:
        return math.nan, math.nan, 0
    count = int(np.sum(valid > rule.critical_value))
    rate = (100.0 * count) / n_valid
    fraction = count / n_valid
    se = 100.0 * math.sqrt(fraction * (1.0 - fraction) / n_valid)
    return rate, se, n_valid


def run_experiment(spec: McExperimentSpec, workers: int = 1) -> McResult:
    """Run all replications and aggregate rejection frequencies.

    Replications are independent; with ``workers > 1`` they run in a
    process pool.  Per-replication streams and index-keyed reduction
    make the result identical to a serial run.

    Raises
    ------
    ExperimentIntegrityError
        If more than 1 percent of replications fail to produce both
        statistics, by a :class:`VarbreakError` or a non-finite value;
        partial failures are never silently dropped.
    """
    n_rep = spec.replications
    if workers > 1:
        chunksize = max(1, n_rep // (workers * 8))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_replicate, repeat(spec), range(n_rep), chunksize=chunksize))
    else:
        outcomes = [_replicate(spec, rep) for rep in range(n_rep)]

    stats_std = np.array([o[0] for o in outcomes])
    stats_mod = np.array([o[1] for o in outcomes])
    failure_counts: Counter[str] = Counter()
    n_failed_reps = 0
    for q_std, q_mod, err_std, err_mod in outcomes:
        errors = [
            err or NONFINITE_FAILURE
            for q, err in ((q_std, err_std), (q_mod, err_mod))
            if err or not math.isfinite(q)
        ]
        n_failed_reps += bool(errors)
        failure_counts.update(errors)
    if n_failed_reps > 0.01 * n_rep:
        raise ExperimentIntegrityError(
            f"{n_failed_reps} of {n_rep} replications failed ({sorted(failure_counts.items())}); "
            "the experiment is not trustworthy"
        )
    rate_std, se_std, n_valid_std = _rate_and_se(stats_std, spec.decision)
    rate_mod, se_mod, n_valid_mod = _rate_and_se(stats_mod, spec.decision)
    return McResult(
        spec=spec,
        rejection_rate_std=rate_std,
        rejection_rate_mod=rate_mod,
        se_std=se_std,
        se_mod=se_mod,
        n_valid_std=n_valid_std,
        n_valid_mod=n_valid_mod,
        failures=tuple(sorted(failure_counts.items())),
        statistics_std=stats_std if spec.keep_statistics else None,
        statistics_mod=stats_mod if spec.keep_statistics else None,
    )


@dataclass(frozen=True, eq=False)
class SimulationTable:
    """All cells of one preset experiment grid."""

    table: int
    kind: str
    dgp: str
    ns: tuple[int, ...]
    alphas: tuple[float, ...]
    results: tuple[McResult, ...]  # cells in (alpha-major, n-minor) order

    def cell(self, n: int, alpha: float) -> McResult:
        for result in self.results:
            if result.spec.n == n and result.spec.path.alpha == alpha:
                return result
        raise KeyError(f"no cell for n={n}, alpha={alpha}")


def cell_seed(seed: int, table: int, n: int, alpha: float) -> int:
    """Deterministic per-cell seed derived from the grid seed."""
    entropy = [seed & _MASK64, table, n, int(round(alpha * 1000))]
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


def experiment_for_cell(
    table: int,
    n: int,
    alpha: float,
    seed: int,
    replications: int = 1000,
    decision: DecisionRule | None = None,
    keep_statistics: bool = False,
) -> McExperimentSpec:
    """Spec for one cell of a preset grid."""
    if table not in TABLE_DGP:
        raise ValueError(f"table must be one of {sorted(TABLE_DGP)}, got {table}")
    return McExperimentSpec(
        dgp=TABLE_DGP[table],
        n=n,
        replications=replications,
        path=VariancePathSpec(n=n, alpha=alpha, kappa=TABLE_KAPPA),
        seed=cell_seed(seed, table, n, alpha),
        decision=decision if decision is not None else DecisionRule.fixed_boundary(),
        poly_p_max=TABLE_P_MAX,
        keep_statistics=keep_statistics,
    )


def run_table(
    table: int,
    seed: int,
    replications: int = 1000,
    workers: int = 1,
    decision: DecisionRule | None = None,
) -> SimulationTable:
    """Run a whole preset grid; see :data:`TABLE_DGP` and :data:`TABLE_KIND`."""
    if table not in TABLE_DGP:
        raise ValueError(f"table must be one of {sorted(TABLE_DGP)}, got {table}")
    alphas = (0.0,) if TABLE_KIND[table] == "size" else TABLE_ALPHAS
    results = []
    for alpha in alphas:
        for n in TABLE_NS:
            spec = experiment_for_cell(table, n, alpha, seed, replications, decision)
            results.append(run_experiment(spec, workers=workers))
    return SimulationTable(
        table=table,
        kind=TABLE_KIND[table],
        dgp=TABLE_DGP[table],
        ns=TABLE_NS,
        alphas=alphas,
        results=tuple(results),
    )
