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
the full sample, and counts rejections against a decision rule.

Streams: every replication draws from its own counter-based Philox
stream keyed by ``(seed, replication)``.

Blocks: replications run in blocks of ``max(1, BLOCK_ELEMENTS // n)``
rows through one batched kernel.  A block's draws form one (R, n) array
that becomes the innovations and the errors in place; its residuals are
squared once for both statistics, and its failures travel as sparse
``{replication: name}`` maps.

Byte identity: each row goes through the same arithmetic as a lone
replication (:func:`simulate_dgp1`, :func:`simulate_dgp2` and the public
statistics are one-row calls of the same code), so results are
byte-identical across runs, worker counts, block sizes and execution orders.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from varbreak.armodel import _fit_rows
from varbreak.cusum import _statistics
from varbreak.errors import ExperimentIntegrityError, SingularDesignError
from varbreak.nulldist import DecisionRule
from varbreak.series import ResidualSeries, SubsampleWindow, _unit_scale

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
#: Failure key of a replication whose statistic came out NaN or infinite.
NONFINITE_FAILURE = "NonFiniteStatistic"

#: Replications times n in one block of the kernel, which bounds its memory at any n.
BLOCK_ELEMENTS = 2**15
# Lanes of the AR(1) recursion per time step, and each lane's warm-up steps.
_LANES = 256
_WARM = 64


def stream(seed: int, replication: int) -> np.random.Generator:
    """The counter-based random stream of one replication."""
    key = np.array([seed & _MASK64, replication & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _logistic(u: np.ndarray) -> np.ndarray:
    """Unit-variance logistic draws from uniforms ``u`` by the inverse CDF, written over ``u``.

    A uniform is 0 or at least 2**-53, so flooring it at the smallest normal float changes only a 0.
    """
    np.maximum(u, np.finfo(np.float64).tiny, out=u)
    odds = np.subtract(1.0, u)
    np.divide(u, odds, out=u)
    np.log(u, out=u)
    u *= _SQRT3_OVER_PI
    return u


def sample_innovations(count: int, rng: np.random.Generator) -> np.ndarray:
    """I.i.d. logistic draws via the inverse CDF ``log(u / (1 - u))``, times sqrt(3)/pi for unit variance."""
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    return _logistic(rng.random(count))


def _uniforms(seed: int, replications: range, n: int) -> np.ndarray:
    """``stream(seed, rep).random(n)`` of each replication, as rows.

    One Philox is reset for every row to the state a new stream starts from.
    The state is one dict of Python ints and lists in which only the key
    changes; that skips the entropy a new generator draws only for the key
    to override, and the conversion of numpy arrays on every reset.
    """
    bit_generator = np.random.Philox(0)
    rng = np.random.Generator(bit_generator)
    state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": [0, 0]},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,  # empty: the next draw computes a new block
        "has_uint32": 0,
        "uinteger": 0,
    }
    draws = np.empty((len(replications), n))
    for row, rep in zip(draws, replications):
        state["state"]["key"] = [seed & _MASK64, rep & _MASK64]
        bit_generator.state = state
        rng.random(out=row)
    return draws


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


@functools.lru_cache(maxsize=64)
def variance_path(spec: VariancePathSpec) -> np.ndarray:
    """Read-only h2(t), t = 1..n, cached per spec; for alpha >= 0 its infimum is -2.7 + 1.5e ~ 1.377."""
    t = np.arange(1, spec.n + 1, dtype=np.float64)
    path = -2.7 + 1.5 * np.exp(1.0 + t / spec.n) + 0.2 * np.sin(5.0 * np.pi * t / spec.n)
    path[t >= spec.break_index] += spec.alpha
    path.flags.writeable = False
    return path


@dataclass(frozen=True)
class McExperimentSpec:
    """Configuration of one Monte Carlo experiment.

    The profile's AIC order search is capped at ``poly_p_max``, and
    ``keep_statistics`` keeps every replication's statistics in the result.
    """

    dgp: str
    n: int
    replications: int
    path: VariancePathSpec
    seed: int
    decision: DecisionRule
    keep_statistics: bool = False
    poly_p_max: ClassVar[int] = TABLE_P_MAX

    def __post_init__(self) -> None:
        if self.dgp not in DGPS:
            raise ValueError(f"dgp must be one of {DGPS}, got {self.dgp!r}")
        if self.replications < 1:
            raise ValueError(f"replications must be at least 1, got {self.replications}")
        if self.n != self.path.n:
            raise ValueError(f"spec n={self.n} disagrees with path n={self.path.n}")
        # the profile fit needs p_max + 2 residuals; the AR(1) fit of dgp2 uses one
        n_min = self.poly_p_max + 2 + (self.dgp == "dgp2")
        if self.n < n_min:
            raise ValueError(f"{self.dgp} with poly_p_max={self.poly_p_max} needs n >= {n_min}, got {self.n}")


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


def _simulate_u(spec: McExperimentSpec, replications: range, innovations=None) -> np.ndarray:
    """Rows u_t = h(t) * eps_t of the given replications; ``innovations``, copied, replaces the draws of one."""
    if innovations is None:
        u = _logistic(_uniforms(spec.seed, replications, spec.n))
    else:
        u = np.array(innovations, dtype=np.float64)[None]
        if u.shape != (1, spec.n):
            raise ValueError(f"innovations must have shape ({spec.n},), got {np.shape(innovations)}")
    u *= np.sqrt(variance_path(spec.path))
    return u


def _recursion(x: np.ndarray) -> np.ndarray:
    """Columns of time-major ``x`` replaced in place by x_t = 0.4*x_{t-1} + x_t from a zero state."""
    prev = np.zeros(x.shape[1])
    carry = np.empty_like(prev)
    for x_t in x:  # every step is one contiguous vector
        x_t += np.multiply(prev, AR1_COEFF, out=carry)
        prev = x_t
    return x


def _ar1(u: np.ndarray) -> np.ndarray:
    """Rows x_t = 0.4*x_{t-1} + u_t with x_0 = 0, in k verified time chunks per row.

    Each row is cut into k chunks of length L = ceil(n / max(1, _LANES // rows)),
    k = ceil(n / L), so every chunk starts inside the row.  The chunks run
    side by side as lanes of one time-major recursion of _WARM + L steps;
    lane j starts from zero _WARM steps before its chunk.  A row is kept
    only if every lane's state at the end of its warm-up has the bits of
    the previous lane's state at that time: lane 0 is exact, and the same
    bits give the same later values, so every lane is.  Other rows rerun
    in one plain pass of n steps, as does the whole block when that is no
    longer than _WARM + L: lanes serve a short block of a few rows as well
    as a long series.
    """
    rows, n = u.shape
    length = -(-n // max(1, _LANES // rows))
    k = -(-n // length)  # every lane starts inside the row
    if _WARM + length >= n:
        return np.ascontiguousarray(_recursion(u.T.copy()).T)
    padded = np.zeros((rows, _WARM + k * length))  # lane 0 warms up on zeros
    padded[:, _WARM : _WARM + n] = u
    # (rows, k, _WARM + length): lane j reads times j*length - _WARM .. (j+1)*length - 1
    lanes = np.lib.stride_tricks.sliding_window_view(padded, _WARM + length, axis=1)[:, ::length]
    x = _recursion(lanes.transpose(2, 0, 1).copy().reshape(-1, rows * k)).reshape(-1, rows, k)
    bits = x.view(np.int64)
    failed = (bits[_WARM - 1, :, 1:] != bits[-1, :, :-1]).any(axis=1)
    out = np.ascontiguousarray(x[_WARM:].transpose(1, 2, 0).reshape(rows, k * length)[:, :n])
    if failed.any():
        out[failed] = _recursion(u[failed].T.copy()).T
    return out


def simulate_dgp1(spec: McExperimentSpec, replication: int, innovations=None) -> ResidualSeries:
    """Directly observed heteroscedastic errors u_t = h(t) * eps_t; ``innovations`` overrides the draws."""
    return ResidualSeries(_simulate_u(spec, range(replication, replication + 1), innovations)[0])


def simulate_dgp2(spec: McExperimentSpec, replication: int, innovations=None) -> np.ndarray:
    """AR(1) observations x_t = 0.4*x_{t-1} + u_t with x_0 = 0, no burn-in."""
    return _ar1(_simulate_u(spec, range(replication, replication + 1), innovations))[0]


def _residual_squares(spec: McExperimentSpec, start: int, stop: int) -> tuple[np.ndarray, list[int]]:
    """Squared unit-scale residuals of replications ``start..stop-1``, and the rows whose AR(1) fit is singular."""
    values = _simulate_u(spec, range(start, stop))
    singular = []
    if spec.dgp == "dgp2":
        ar, _, values = _fit_rows(_unit_scale(_ar1(values))[0], 1, intercept=False)
        singular = np.flatnonzero(ar.singular).tolist()
    units = _unit_scale(values)[0]
    return np.multiply(units, units, out=units), singular


def _block(spec: McExperimentSpec, start: int, stop: int) -> tuple:
    """Q_std, Q_mod and their ``{replication: failure name}`` maps of replications ``start..stop-1``.

    A failure is a :class:`VarbreakError`, named by its class, or a value
    that is not finite; a statistic is NaN where it failed.  The profile is
    used with no positivity floor: :func:`run_table` was calibrated that way.
    """
    squares, singular = _residual_squares(spec, start, stop)
    q_std, q_mod, *failures = _statistics(squares, SubsampleWindow.full(squares.shape[1]), spec.poly_p_max)
    names = []
    for q, errors in zip((q_std, q_mod), failures):
        named = {row: type(error).__name__ for row, error in errors.items()}
        named.update(dict.fromkeys(singular, SingularDesignError.__name__))  # the AR(1) fit failed first
        for row in np.flatnonzero(~np.isfinite(q)).tolist():
            named.setdefault(row, NONFINITE_FAILURE)
        q[list(named)] = math.nan
        names.append({start + row: name for row, name in named.items()})
    return q_std, q_mod, *names


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


def _run_cells(specs: list[McExperimentSpec], workers: int) -> list[McResult]:
    """The result of each spec; with ``workers > 1`` all blocks of all cells share one process pool."""
    starts = [range(0, spec.replications, max(1, BLOCK_ELEMENTS // spec.n)) for spec in specs]  # block starts
    jobs = [(spec, start, min(start + r.step, spec.replications)) for spec, r in zip(specs, starts) for start in r]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # here, not at the top: a serial run never pays its import

        context = ProcessPoolExecutor(max_workers=workers)
    else:
        context = contextlib.nullcontext()
    with context as pool:
        done = pool.map(_block, *zip(*jobs)) if pool else itertools.starmap(_block, jobs)  # lazy, in job order
        return [_aggregate(spec, list(itertools.islice(done, len(r)))) for spec, r in zip(specs, starts)]


def _aggregate(spec: McExperimentSpec, blocks: list[tuple]) -> McResult:
    """One cell's result from its blocks, in replication order; see :func:`run_experiment`."""
    n_rep = spec.replications
    parts_std, parts_mod, *maps = zip(*blocks)
    stats_std, stats_mod = np.concatenate(parts_std), np.concatenate(parts_mod)
    named = [item for side in maps for errors in side for item in errors.items()]  # (replication, name)
    failure_counts = Counter(name for _, name in named)
    failed = {rep for rep, _ in named}
    if len(failed) > 0.01 * n_rep:
        raise ExperimentIntegrityError(
            f"{len(failed)} of {n_rep} replications failed ({sorted(failure_counts.items())}), "
            f"the first at replication {min(failed)} of seed {spec.seed}; "
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


def run_experiment(spec: McExperimentSpec, workers: int = 1) -> McResult:
    """Run all replications, in a process pool of ``workers`` if more than one, and aggregate rejection frequencies.

    Raises
    ------
    ExperimentIntegrityError
        If more than 1 percent of replications fail to produce both
        statistics, by a :class:`VarbreakError` or a non-finite value.
        The message names the first failing replication, which replays
        from ``(spec.seed, replication)``.
    """
    return _run_cells([spec], workers)[0]


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
        keep_statistics=keep_statistics,
    )


def run_table(
    table: int,
    seed: int,
    replications: int = 1000,
    workers: int = 1,
    decision: DecisionRule | None = None,
) -> SimulationTable:
    """Run a whole preset grid, in one process pool if ``workers > 1``; see :data:`TABLE_DGP` and :data:`TABLE_KIND`."""
    if table not in TABLE_DGP:
        raise ValueError(f"table must be one of {sorted(TABLE_DGP)}, got {table}")
    alphas = (0.0,) if TABLE_KIND[table] == "size" else TABLE_ALPHAS
    specs = [experiment_for_cell(table, n, alpha, seed, replications, decision) for alpha in alphas for n in TABLE_NS]
    return SimulationTable(
        table=table,
        kind=TABLE_KIND[table],
        dgp=TABLE_DGP[table],
        ns=TABLE_NS,
        alphas=alphas,
        results=tuple(_run_cells(specs, workers)),
    )
