"""The benchmark's workloads: ``grid``, ``large-n`` and ``series``.

A workload makes its inputs from the seed, runs its operations in
blocks (a closed loop: the next block starts when the previous one has
returned), names the command-line call a user of it would make, and
checks its own outputs.  Operations are Monte Carlo replications
(``grid``, ``large-n``) or in-process pipeline runs (``series``).
"""

from __future__ import annotations

import contextlib
import datetime
import io
from pathlib import Path

import numpy as np

import conftest  # tests/conftest.py: surrogate FRED-style series
import oracles  # tests/oracles.py: loop-based statistics
from varbreak import cli, dataio, mc, pipeline
from varbreak.armodel import fit_ar_ols
from varbreak.errors import VarbreakError
from varbreak.nulldist import DecisionRule
from varbreak.series import SubsampleWindow
from varbreak.variance_poly import fit_variance_poly, select_poly_order_aic

_MASK64 = (1 << 64) - 1
ORACLE_TOLERANCE = 1e-10
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def derive_seed(*words: int) -> int:
    """A 64-bit seed derived from the workload seed and a purpose or block index."""
    state = np.random.SeedSequence([w & _MASK64 for w in words]).generate_state(1, np.uint64)
    return int(state[0])


def _failed_replications(spec: mc.McExperimentSpec) -> tuple[int, mc.McResult | None]:
    """Run one cell; a replication fails on a VarbreakError or a non-finite statistic."""
    try:
        result = mc.run_experiment(spec)
    except VarbreakError:
        return spec.replications, None
    finite = np.isfinite(result.statistics_std) & np.isfinite(result.statistics_mod)
    return int(spec.replications - np.count_nonzero(finite)), result


def _oracle_check(spec: mc.McExperimentSpec, result: mc.McResult, rep: int) -> tuple[bool, str]:
    """Recompute replication ``rep`` of a cell with the loop-based statistics."""
    if spec.dgp == "dgp2":
        residuals = fit_ar_ols(mc.simulate_dgp2(spec, rep), 1).residuals
    else:
        residuals = mc.simulate_dgp1(spec, rep)
    n = residuals.n
    window = SubsampleWindow.full(n)
    order = select_poly_order_aic(residuals, window, spec.poly_p_max).chosen_p
    fit = fit_variance_poly(residuals, window, order)
    values = residuals.values.tolist()
    errors = (
        abs(result.statistics_std[rep] - oracles.subsample_statistic_literal(values, 0, n)),
        abs(
            result.statistics_mod[rep]
            - oracles.corrected_statistic_literal(values, 0, n, n, fit.coefficients, fit.center)
        ),
    )
    ok = all(error <= ORACLE_TOLERANCE for error in errors)
    return ok, f"{spec.dgp} n={n} rep {rep}: |fast - literal| = {max(errors):.2e}"


def _api_report(path: Path, config: pipeline.PipelineConfig) -> str | None:
    """The JSON report of ``load_csv`` -> ``run_test_pipeline``, or None if the run fails."""
    try:
        reports = pipeline.run_test_pipeline(dataio.load_csv(path), config)
    except (VarbreakError, ValueError):
        return None
    return pipeline.emit_report(list(reports), "json")


def _write_surrogate(path: Path, count: int, start: datetime.date, step_months: int, seed: int) -> Path:
    dates = conftest.month_starts(start, count, step_months)
    return conftest.write_fred_csv(path, path.stem, dates, conftest.growing_variance_levels(count, seed))


class Workload:
    """Common shape of a workload; subclasses define the operations."""

    name = ""
    is_mc = False

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir

    def prepare(self) -> None:
        """Make the inputs and the expected command-line output."""

    def run_block(self, k: int) -> tuple[int, int]:
        """Run block ``k``; returns (operations, failed operations)."""
        raise NotImplementedError

    def traced_pass(self, k: int) -> tuple[int, int]:
        """The fixed unit of work of the traced run."""
        return self.run_block(k)

    def cli_args(self, k: int) -> list[str]:
        """Arguments of the ``k``-th ``varbreak`` command-line call."""
        raise NotImplementedError

    def expected_cli(self, k: int) -> str:
        raise NotImplementedError

    def gates(self) -> list[tuple[str, bool, str]]:
        """Correctness checks: (name, passed, detail)."""
        return []


class Grid(Workload):
    """The four preset tables at n = 50, 100, 200 with the 1.33 boundary and p_max = 3.

    A block runs every table once at each n, ``REPS`` replications per
    cell; the power tables take their shift from ``TABLE_ALPHAS`` in
    turn, so five blocks cover all 36 cells of the four grids.
    """

    name = "grid"
    is_mc = True
    REPS = 25
    CLI_TABLE = 1
    CLI_REPS = 20
    REFERENCE_SEED = 20170721
    REFERENCE_REPS = 25
    REFERENCE_FILE = REFERENCE_DIR / "grid_tables.json"

    def _specs(self, k: int, reps: int) -> list[mc.McExperimentSpec]:
        seed = derive_seed(self.seed, k)
        alpha = mc.TABLE_ALPHAS[k % len(mc.TABLE_ALPHAS)]
        return [
            mc.experiment_for_cell(
                table,
                n,
                0.0 if mc.TABLE_KIND[table] == "size" else alpha,
                seed,
                reps,
                keep_statistics=True,
            )
            for table in sorted(mc.TABLE_DGP)
            for n in mc.TABLE_NS
        ]

    def run_block(self, k: int) -> tuple[int, int]:
        ops = failed = 0
        for spec in self._specs(k, self.REPS):
            failed += _failed_replications(spec)[0]
            ops += spec.replications
        return ops, failed

    def prepare(self) -> None:
        self.cli_seed = derive_seed(self.seed, 0xC11)
        table = mc.run_table(self.CLI_TABLE, self.cli_seed, replications=self.CLI_REPS)
        self.cli_expected = pipeline.emit_report(table, "json")

    def cli_args(self, k: int) -> list[str]:
        return [
            "simulate", "--table", str(self.CLI_TABLE), "--reps", str(self.CLI_REPS),
            "--seed", str(self.cli_seed), "--format", "json",
        ]

    def expected_cli(self, k: int) -> str:
        return self.cli_expected

    @classmethod
    def reference_text(cls) -> str:
        """Tables 1-4 as JSON at the fixed reference seed; compared byte for byte."""
        return "".join(
            pipeline.emit_report(mc.run_table(table, cls.REFERENCE_SEED, cls.REFERENCE_REPS), "json")
            for table in sorted(mc.TABLE_DGP)
        )

    def gates(self) -> list[tuple[str, bool, str]]:
        checks = []
        same = self.reference_text() == self.REFERENCE_FILE.read_text(encoding="utf-8")
        checks.append(("reference-grid", same, f"tables 1-4 at seed {self.REFERENCE_SEED}"))

        seed = derive_seed(self.seed, 0x2)
        serial = pipeline.emit_report(mc.run_table(2, seed, replications=20), "json")
        parallel = pipeline.emit_report(mc.run_table(2, seed, replications=20, workers=2), "json")
        checks.append(("workers-2-identical", serial == parallel, "table 2, 20 replications"))

        rng = np.random.default_rng(derive_seed(self.seed, 0x0AC1E))
        specs = self._specs(0, self.REPS)
        per_table = len(mc.TABLE_NS)
        for first in range(0, len(specs), per_table):
            spec = specs[first + int(rng.integers(per_table))]
            _, result = _failed_replications(spec)
            if result is None:
                checks.append(("oracle", False, f"{spec.dgp} n={spec.n}: cell failed"))
                continue
            ok, detail = _oracle_check(spec, result, int(rng.integers(spec.replications)))
            checks.append(("oracle", ok, detail))
        return checks


class LargeN(Workload):
    """One dgp1 and one dgp2 null cell at n = 2000, ``REPS`` replications each per block."""

    name = "large-n"
    is_mc = True
    N = 2000
    REPS = 80

    def _spec(self, dgp: str, seed: int, reps: int) -> mc.McExperimentSpec:
        return mc.McExperimentSpec(
            dgp=dgp,
            n=self.N,
            replications=reps,
            path=mc.VariancePathSpec(n=self.N),
            seed=seed,
            decision=DecisionRule.fixed_boundary(),
            keep_statistics=True,
        )

    def run_block(self, k: int) -> tuple[int, int]:
        seed = derive_seed(self.seed, k)
        ops = failed = 0
        for dgp in mc.DGPS:
            spec = self._spec(dgp, seed, self.REPS)
            failed += _failed_replications(spec)[0]
            ops += spec.replications
        return ops, failed

    def prepare(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.cli_file = _write_surrogate(
            self.workdir / "SURROGATE_LONG.csv", self.N, datetime.date(1850, 1, 1), 1,
            derive_seed(self.seed, self.N),
        )
        self.cli_expected = _api_report(self.cli_file, pipeline.PipelineConfig(clamp=True))

    def cli_args(self, k: int) -> list[str]:
        return ["test", str(self.cli_file), "--format", "json", "--clamp"]

    def expected_cli(self, k: int) -> str:
        return self.cli_expected

    def gates(self) -> list[tuple[str, bool, str]]:
        checks = []
        spec = self._spec("dgp2", derive_seed(self.seed, 0x2), 20)
        serial = mc.run_experiment(spec)
        parallel = mc.run_experiment(spec, workers=2)
        same = pipeline.emit_report([serial], "json") == pipeline.emit_report([parallel], "json")
        same = same and all(
            getattr(serial, name).tobytes() == getattr(parallel, name).tobytes()
            for name in ("statistics_std", "statistics_mod")
        )
        checks.append(("workers-2-identical", same, "dgp2 n=2000, 20 replications"))

        rng = np.random.default_rng(derive_seed(self.seed, 0x0AC1E))
        spec = self._spec(mc.DGPS[self.seed % 2], derive_seed(self.seed, 0), self.REPS)
        _, result = _failed_replications(spec)
        if result is None:
            checks.append(("oracle", False, f"{spec.dgp} n={spec.n}: cell failed"))
        else:
            checks.append(("oracle", *_oracle_check(spec, result, int(rng.integers(spec.replications)))))
        return checks


class Series(Workload):
    """The monthly (n = 661) and quarterly (n = 270) surrogate CSVs through the pipeline.

    Settings are the command line's defaults (asymptotic 5% rule, AR
    order by AIC with the frequency cap 12/8, p_max = 5) plus
    ``--clamp``, so that a fitted profile dipping below its positivity
    floor is floored instead of failing the run.  A block runs both
    files once: ``load_csv`` -> ``run_test_pipeline`` -> ``emit_report``.
    """

    name = "series"
    CLI_OPTIONS = ["--format", "json", "--clamp"]

    def prepare(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.files = [
            _write_surrogate(
                self.workdir / "SURROGATE_M.csv", 661, datetime.date(1959, 1, 1), 1,
                derive_seed(self.seed, 661),
            ),
            _write_surrogate(
                self.workdir / "SURROGATE_Q.csv", 270, datetime.date(1946, 10, 1), 3,
                derive_seed(self.seed, 270),
            ),
        ]
        self.config = pipeline.PipelineConfig(clamp=True)
        self.expected = [_api_report(path, self.config) for path in self.files]

    def run_block(self, k: int) -> tuple[int, int]:
        failed = 0
        for path, expected in zip(self.files, self.expected):
            text = _api_report(path, self.config)
            failed += text is None or text != expected
        return len(self.files), failed

    def _cli_matches_api(self) -> list[bool]:
        """Run both files through ``cli.main`` in process; True where it printed the API's JSON."""
        matches = []
        for path, expected in zip(self.files, self.expected):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                status = cli.main(["test", str(path), *self.CLI_OPTIONS])
            matches.append(status == 0 and out.getvalue() == expected)
        return matches

    def traced_pass(self, k: int) -> tuple[int, int]:
        """Both files through the API and through ``cli.main`` in process."""
        ops, failed = self.run_block(k)
        matches = self._cli_matches_api()
        return ops + len(matches), failed + matches.count(False)

    def cli_args(self, k: int) -> list[str]:
        return ["test", str(self.files[k % len(self.files)]), *self.CLI_OPTIONS]

    def expected_cli(self, k: int) -> str:
        return self.expected[k % len(self.files)]

    def gates(self) -> list[tuple[str, bool, str]]:
        return [
            ("cli-equals-api", ok, f"{path.name}: cli.main prints the API's JSON report")
            for path, ok in zip(self.files, self._cli_matches_api())
        ]


WORKLOADS = {cls.name: cls for cls in (Grid, LargeN, Series)}
