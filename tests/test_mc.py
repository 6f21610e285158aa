import concurrent.futures
import hashlib
import inspect
import math
import platform
import re
import sys

import numpy as np
import pytest

import varbreak.cusum
import varbreak.mc
from varbreak import (
    DecisionRule,
    ExperimentIntegrityError,
    McExperimentSpec,
    ResidualSeries,
    SubsampleWindow,
    VarbreakError,
    VariancePathSpec,
    ZeroDispersionError,
    emit_report,
    experiment_for_cell,
    fit_ar_ols,
    run_experiment,
    run_table,
    sample_innovations,
    select_poly_order_aic,
    simulate_dgp1,
    simulate_dgp2,
    statistic_corrected,
    statistic_subsample,
    stream,
    variance_path,
)

from oracles import ar1_literal


def make_spec(**overrides) -> McExperimentSpec:
    defaults = dict(
        dgp="dgp1",
        n=50,
        replications=20,
        path=VariancePathSpec(n=50),
        seed=9,
        decision=DecisionRule.fixed_boundary(),
    )
    defaults.update(overrides)
    if "n" in overrides and "path" not in overrides:
        defaults["path"] = VariancePathSpec(
            n=overrides["n"], alpha=defaults["path"].alpha, kappa=defaults["path"].kappa
        )
    return McExperimentSpec(**defaults)


def observed(spec, innovations):
    """The residuals that ``spec``'s process tests when one replication's innovations are ``innovations``."""
    u = innovations * np.sqrt(variance_path(spec.path))
    if spec.dgp == "dgp2":
        return fit_ar_ols(varbreak.mc._ar1(u[None])[0], 1).residuals
    return ResidualSeries(u)


def replication_statistics(spec, innovations):
    """Q_std and Q_mod of one replication of ``spec`` driven by ``innovations``."""
    residuals = observed(spec, innovations)
    window = SubsampleWindow.full(residuals.n)
    fit = select_poly_order_aic(residuals, window, spec.poly_p_max).fit
    return (
        statistic_subsample(residuals, window),
        statistic_corrected(residuals, fit, positivity="none"),
    )


def replication_outcomes(spec, innovations):
    """:func:`replication_statistics`, each statistic computed alone; one that fails is the name of its error."""

    def outcome(statistic):
        try:
            residuals = observed(spec, innovations)
            return statistic(residuals, SubsampleWindow.full(residuals.n))
        except VarbreakError as exc:
            return type(exc).__name__

    return (
        outcome(statistic_subsample),
        outcome(
            lambda residuals, window: statistic_corrected(
                residuals, select_poly_order_aic(residuals, window, spec.poly_p_max).fit, positivity="none"
            )
        ),
    )


class TestVariancePath:
    def test_endpoint_value(self):
        path = variance_path(VariancePathSpec(n=400))
        assert path[-1] == pytest.approx(-2.7 + 1.5 * math.e**2, abs=1e-12)

    def test_midpoint_value(self):
        path = variance_path(VariancePathSpec(n=400))
        expected = -2.7 + 1.5 * math.exp(1.5) + 0.2  # sin(2.5*pi) = 1
        assert path[199] == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(4.22253, abs=5e-6)

    def test_break_is_additive(self):
        base = variance_path(VariancePathSpec(n=400))
        shifted = variance_path(VariancePathSpec(n=400, alpha=2.0, kappa=0.5))
        assert shifted[199] == base[199] + 2.0
        assert shifted[198] == base[198]

    def test_path_is_positive(self):
        assert np.min(variance_path(VariancePathSpec(n=1000))) > 1.0

    def test_repeated_calls_return_equal_read_only_paths(self):
        first = variance_path(VariancePathSpec(n=300, alpha=1.5))
        second = variance_path(VariancePathSpec(n=300, alpha=1.5))
        np.testing.assert_array_equal(first, second)
        with pytest.raises(ValueError):
            first[0] = 0.0

    # the first shifted t is floor(n * kappa) in floating point: 100 * 0.29 is 28.999999999999996
    @pytest.mark.parametrize(
        "n, kappa, first",
        [(400, 0.5, 200), (50, 0.3, 15), (3, 0.5, 1), (7, 0.01, 1), (2000, 0.999, 1998), (100, 0.29, 28), (100, 0.57, 56)],
    )
    def test_the_shift_starts_at_floor_n_kappa(self, n, kappa, first):
        base = variance_path(VariancePathSpec(n=n))
        shifted = variance_path(VariancePathSpec(n=n, alpha=0.75, kappa=kappa))
        assert shifted[: first - 1].tobytes() == base[: first - 1].tobytes()
        assert shifted[first - 1 :].tobytes() == (base[first - 1 :] + 0.75).tobytes()

    @pytest.mark.parametrize(
        "kwargs",
        [dict(n=1), dict(n=50, alpha=-0.5), dict(n=50, kappa=0.0), dict(n=50, kappa=1.0)],
    )
    def test_spec_validation(self, kwargs):
        with pytest.raises(ValueError):
            VariancePathSpec(**kwargs)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf])
    def test_nonfinite_alpha_is_rejected_at_construction(self, alpha):
        with pytest.raises(ValueError, match=f"alpha must be finite and nonnegative, got {alpha}"):
            VariancePathSpec(n=50, alpha=alpha)


class TestInnovations:
    def test_law_of_large_numbers(self):
        draws = sample_innovations(10**6, stream(77, 0))
        assert -0.01 < draws.mean() < 0.01
        assert 0.99 < draws.var() < 1.01

    def test_streams_are_deterministic(self):
        first = sample_innovations(10, stream(123, 4))
        second = sample_innovations(10, stream(123, 4))
        np.testing.assert_array_equal(first, second)
        assert not np.array_equal(first, sample_innovations(10, stream(123, 5)))

    def test_count_validation(self):
        with pytest.raises(ValueError):
            sample_innovations(0, stream(1, 1))


class TestBlockStreams:
    # keys at and beyond 2**63 included: both words of the Philox key are unsigned 64-bit
    SEEDS = (0, 9, 12345, 2**63 - 1, 2**63, 2**64 - 1)
    FIRST_REPS = (0, 2**63 - 2, 2**64 - 5)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_block_draws_equal_the_streams(self, seed):
        for first in self.FIRST_REPS:
            reps = range(first, first + 5)  # 6 seeds x 15 replications = 90 (seed, rep) pairs
            draws = varbreak.mc._uniforms(seed, reps, 37)
            for row, rep in zip(draws, reps):
                assert row.tobytes() == stream(seed, rep).random(37).tobytes()

    def test_a_block_after_another_draws_only_its_own_streams(self):
        # the first block leaves the thread's generator mid-buffer (37 draws) on other keys
        varbreak.mc._uniforms(2**64 - 1, range(2**63, 2**63 + 3), 37)
        draws = varbreak.mc._uniforms(9, range(4, 8), 50)
        for row, rep in zip(draws, range(4, 8)):
            assert row.tobytes() == stream(9, rep).random(50).tobytes()

    def test_threads_at_once_draw_only_their_own_streams(self):
        def blocks(seed):
            mismatched = 0
            for first in range(0, 400, 4):
                draws = varbreak.mc._uniforms(seed, range(first, first + 4), 200)
                mismatched += sum(row.tobytes() != stream(seed, first + i).random(200).tobytes()
                                  for i, row in enumerate(draws))
            return mismatched

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
        try:
            with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
                futures = [pool.submit(blocks, seed) for seed in (11, 2**63 + 5)]
                assert [future.result(timeout=120) for future in futures] == [0, 0]
        finally:
            sys.setswitchinterval(interval)


class TestSimulateDgp1:
    def test_frozen_innovations_reproduce_the_path(self):
        # a replication's innovations are frozen by its stream key, so they and the path give its errors
        for n, seed, replication in [(64, 9, 0), (5, 0, 3), (2000, 2**64 - 1, 2**63)]:
            spec = make_spec(n=n, seed=seed)
            expected = np.sqrt(variance_path(spec.path)) * sample_innovations(n, stream(seed, replication))
            assert simulate_dgp1(spec, replication).values.tobytes() == expected.tobytes()

    def test_determinism(self):
        spec = make_spec()
        np.testing.assert_array_equal(
            simulate_dgp1(spec, 3).values, simulate_dgp1(spec, 3).values
        )

    def test_pointwise_variance_matches_the_path(self):
        spec = make_spec(n=20, replications=1)
        t_index = 9
        draws = np.array([simulate_dgp1(spec, rep).values[t_index] for rep in range(10_000)])
        expected = variance_path(spec.path)[t_index]
        assert draws.var() == pytest.approx(expected, rel=0.05)


@pytest.mark.parametrize("simulate", [simulate_dgp1, simulate_dgp2])
def test_a_replication_is_named_by_its_spec_and_index_alone(simulate):
    assert list(inspect.signature(simulate).parameters) == ["spec", "replication"]


class TestSimulateDgp2:
    def test_zero_innovations_give_zero_path(self):
        x = varbreak.mc._ar1(np.zeros((1, 30)))
        assert x.tobytes() == ar1_literal(np.zeros((1, 30))).tobytes() == np.zeros((1, 30)).tobytes()

    def test_unit_errors_build_a_geometric_series(self):
        x = varbreak.mc._ar1(np.ones((1, 60)))[0]
        assert x.tobytes() == ar1_literal(np.ones(60)).tobytes()
        assert x[0] == 1.0
        assert x[1] == pytest.approx(1.4, rel=1e-12)
        assert x[-1] == pytest.approx(5.0 / 3.0, abs=1e-9)

    @pytest.mark.parametrize("n", [6, 60, 2000])
    def test_observes_the_ar1_of_the_dgp1_errors(self, n):
        spec = make_spec(dgp="dgp2", n=n, seed=2**63 + n)
        for replication in (0, 5):
            u = simulate_dgp1(spec, replication).values
            assert simulate_dgp2(spec, replication).tobytes() == ar1_literal(u).tobytes()

    def test_ar1_ols_recovers_the_coefficient(self):
        spec = make_spec(n=200, replications=1000, seed=301)
        estimates = np.array(
            [fit_ar_ols(simulate_dgp2(spec, rep), 1).coefficients[0] for rep in range(1000)]
        )
        assert 0.35 < estimates.mean() < 0.42
        assert abs(estimates.mean() - 0.4) < 0.05


class TestAr1Recursion:
    """``mc._ar1`` against the literal float loop, byte for byte."""

    @staticmethod
    def draws(rows, n, seed=0):
        return np.random.default_rng(seed).standard_normal((rows, n))

    @staticmethod
    def assert_literal(u):
        assert varbreak.mc._ar1(u).tobytes() == ar1_literal(u).tobytes()

    @pytest.mark.parametrize("n", [6, 50, 255, 256, 2000, 5000])
    @pytest.mark.parametrize("rows", [1, 16, 300])
    def test_equals_the_literal_loop(self, rows, n):
        self.assert_literal(self.draws(rows, n, seed=rows * n))

    @pytest.mark.parametrize("scale", [2.0**-1000, 2.0**1000])
    @pytest.mark.parametrize("rows", [1, 16])
    def test_extreme_scales(self, rows, scale):
        self.assert_literal(self.draws(rows, 2000) * scale)

    @pytest.mark.parametrize("rows", [1, 16, 300])
    def test_zero_nan_and_inf_rows(self, rows):
        u = self.draws(rows, 2000)
        u[0] = 0.0
        u[-1, 1500] = math.nan  # in the last time chunk
        if rows > 1:
            u[1, 140] = math.inf  # near the start of the second chunk
            u[1, 900] = -math.inf
            u[2, 700:] = -math.inf
            u[3, 10] = -0.0
        with np.errstate(invalid="ignore"):  # inf and -inf meet in row 1: NaN from there on
            self.assert_literal(u)

    # (rows, n) -> (steps, width) of the one recursion: the kernel's block rows max(1, 2**15 // n) at the
    # table sizes and n = 2000, a 25-replication cell, and the one-row simulate_dgp2; lanes serve every
    # shape where _WARM + L steps are fewer than n, and each lane starts inside the row
    KERNEL_SHAPES = {
        (655, 50): (50, 655),
        (327, 100): (100, 327),
        (163, 200): (200, 163),
        (16, 2000): (64 + 125, 16 * 16),
        (25, 50): (50, 25),  # 10 lanes of 5 would take 69 steps
        (25, 100): (64 + 10, 25 * 10),
        (25, 200): (64 + 20, 25 * 10),
        (1, 100): (64 + 1, 100),
        (1, 2000): (64 + 8, 250),
    }

    @pytest.mark.parametrize("rows, n", KERNEL_SHAPES)
    def test_kernel_block_shapes_need_no_rerun(self, monkeypatch, rows, n):
        u = varbreak.mc._simulate_u(make_spec(dgp="dgp2", n=n, replications=rows), range(rows))
        shapes = []
        recursion = varbreak.mc._recursion
        monkeypatch.setattr(varbreak.mc, "_recursion", lambda x: shapes.append(x.shape) or recursion(x))
        self.assert_literal(u)
        assert shapes == [self.KERNEL_SHAPES[rows, n]]  # one pass: no row fell back

    @pytest.mark.parametrize("rows", [1, 16])
    def test_warm_up_too_short_to_verify(self, monkeypatch, rows):
        # one warm-up step cannot absorb the zero a chunk starts from, so every row is redone
        monkeypatch.setattr(varbreak.mc, "_WARM", 1)
        widths = []
        recursion = varbreak.mc._recursion
        monkeypatch.setattr(varbreak.mc, "_recursion", lambda x: widths.append(x.shape[1]) or recursion(x))
        self.assert_literal(self.draws(rows, 2000, seed=7))
        assert widths[1:] == [rows]


class TestRunExperiment:
    def test_results_are_deterministic(self):
        spec = make_spec(replications=40, keep_statistics=True)
        first = run_experiment(spec)
        second = run_experiment(spec)
        assert first.rejection_rate_std == second.rejection_rate_std
        np.testing.assert_array_equal(first.statistics_mod, second.statistics_mod)

    def test_worker_count_does_not_change_results(self):
        # three blocks, so workers=2 starts a real two-process pool and its arrays are compared
        spec = make_spec(n=2000, replications=40, keep_statistics=True)
        assert spec.replications > 2 * (varbreak.mc.BLOCK_ELEMENTS // spec.n)
        serial = run_experiment(spec, workers=1)
        parallel = run_experiment(spec, workers=2)
        np.testing.assert_array_equal(serial.statistics_std, parallel.statistics_std)
        np.testing.assert_array_equal(serial.statistics_mod, parallel.statistics_mod)
        assert serial.rejection_rate_mod == parallel.rejection_rate_mod
        # the experiment JSON, as the bench workers-2-identical gate compares it
        assert emit_report([serial], "json") == emit_report([parallel], "json")

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_are_rejected(self, workers):
        with pytest.raises(ValueError, match=f"workers must be at least 1, got {workers}"):
            run_experiment(make_spec(replications=10), workers=workers)

    def test_innovation_scaling_cannot_move_any_statistic(self):
        # the raw standard logistic draws, variance pi**2/3, against the unit-variance ones
        for dgp in ("dgp1", "dgp2"):
            spec = make_spec(dgp=dgp, replications=30, keep_statistics=True)
            result = run_experiment(spec)
            for rep in range(spec.replications):
                unit = sample_innovations(spec.n, stream(spec.seed, rep))
                q_std, q_mod = replication_statistics(spec, unit)
                assert (q_std, q_mod) == (result.statistics_std[rep], result.statistics_mod[rep])
                raw_std, raw_mod = replication_statistics(spec, unit * (math.pi / math.sqrt(3.0)))
                assert raw_std == pytest.approx(q_std, rel=1e-8)
                assert raw_mod == pytest.approx(q_mod, rel=1e-8)

    def test_dgp2_runs_on_ar_residuals(self):
        result = run_experiment(make_spec(dgp="dgp2", n=60, replications=25))
        assert 0.0 <= result.rejection_rate_std <= 100.0
        assert result.n_valid_std == 25

    def test_hard_positivity_failures_abort_the_experiment(self, monkeypatch):
        # a fitted profile of exactly zero makes every rescaled square infinite
        def zero_profiles(coefficients, window):
            return np.zeros((len(coefficients), window.length))

        monkeypatch.setattr(varbreak.cusum, "_profiles", zero_profiles)
        with pytest.raises(ExperimentIntegrityError, match="NonpositiveVarianceError"):
            run_experiment(make_spec(replications=20))

    def test_nonfinite_statistics_count_as_failures(self, monkeypatch):
        def nan_statistics(squares, failures):
            return np.full(len(squares), math.nan)

        monkeypatch.setattr(varbreak.cusum, "_sanso", nan_statistics)
        with pytest.raises(ExperimentIntegrityError, match="NonFiniteStatistic"):
            run_experiment(make_spec(replications=20))

    def test_integrity_error_names_the_first_failing_replication(self, monkeypatch):
        # uniforms of 1/2 give zero innovations, so replications 7 and 12 have no dispersion
        uniforms = varbreak.mc._uniforms

        def zero_innovations_at_7_and_12(seed, replications, n):
            draws = uniforms(seed, replications, n)
            for row, rep in enumerate(replications):
                if rep in (7, 12):
                    draws[row] = 0.5
            return draws

        monkeypatch.setattr(varbreak.mc, "_uniforms", zero_innovations_at_7_and_12)
        spec = make_spec(replications=20)
        with pytest.raises(ExperimentIntegrityError, match=f"the first at replication 7 of seed {spec.seed};"):
            run_experiment(spec)
        with pytest.raises(ZeroDispersionError):  # the named replication replays alone
            statistic_subsample(simulate_dgp1(spec, 7), SubsampleWindow.full(spec.n))
        assert run_experiment(make_spec(replications=7)).n_valid_std == 7

    def test_binomial_standard_error(self):
        result = run_experiment(make_spec(replications=100, seed=8))
        rate = result.rejection_rate_std / 100.0
        assert result.se_std == pytest.approx(100.0 * math.sqrt(rate * (1 - rate) / 100.0))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            make_spec(dgp="dgp3")
        with pytest.raises(ValueError):
            make_spec(replications=0)
        with pytest.raises(ValueError):
            McExperimentSpec(
                dgp="dgp1",
                n=60,
                replications=5,
                path=VariancePathSpec(n=50),
                seed=1,
                decision=DecisionRule.fixed_boundary(),
            )

    @pytest.mark.parametrize("dgp,n,n_min", [("dgp1", 4, 5), ("dgp2", 5, 6), ("dgp2", 2, 6)])
    def test_spec_rejects_n_below_the_fit_minimum(self, dgp, n, n_min):
        with pytest.raises(ValueError, match=f"needs n >= {n_min}, got {n}"):
            make_spec(dgp=dgp, n=n)

    @pytest.mark.parametrize("dgp,n", [("dgp1", 5), ("dgp2", 6)])
    def test_smallest_accepted_n_runs(self, dgp, n):
        result = run_experiment(make_spec(dgp=dgp, n=n))
        assert result.n_valid_std == result.n_valid_mod == 20


class TestBlockKernel:
    CASES = [(dgp, n) for dgp, n_min in (("dgp1", 5), ("dgp2", 6)) for n in (n_min, 50, 200, 2000)]

    @pytest.mark.parametrize("dgp,n", CASES)
    def test_blocks_equal_the_scalar_path_at_every_split(self, monkeypatch, dgp, n):
        reps = 30 if n < 2000 else 18
        spec = make_spec(dgp=dgp, n=n, replications=reps, seed=2**63 + n, keep_statistics=True)
        expected = np.array(
            [replication_statistics(spec, sample_innovations(n, stream(spec.seed, rep))) for rep in range(reps)]
        )
        for rows in (1, 7, reps):
            monkeypatch.setattr(varbreak.mc, "BLOCK_ELEMENTS", rows * n)
            result = run_experiment(spec)
            assert result.statistics_std.tobytes() == expected[:, 0].tobytes()
            assert result.statistics_mod.tobytes() == expected[:, 1].tobytes()

    @staticmethod
    def plant_zero_innovations(monkeypatch, planted):
        """Uniforms of 1/2, so zero innovations, at the ``planted`` replications."""
        uniforms = varbreak.mc._uniforms

        def zero_innovations_at_planted(seed, replications, n):
            draws = uniforms(seed, replications, n)
            for row, rep in enumerate(replications):
                if rep in planted:
                    draws[row] = 0.5
            return draws

        monkeypatch.setattr(varbreak.mc, "_uniforms", zero_innovations_at_planted)

    @pytest.mark.parametrize("dgp", ["dgp1", "dgp2"])
    def test_failed_rows_name_what_the_scalar_path_raises(self, monkeypatch, dgp):
        # zero innovations leave constant (zero) squares and a zero profile; dgp2's AR(1) design is then singular
        spec = make_spec(dgp=dgp, replications=12)
        planted = (3, 4, 10)
        self.plant_zero_innovations(monkeypatch, planted)
        q_std, q_mod, *names = varbreak.mc._block(spec, 0, spec.replications)
        for rep in range(spec.replications):
            innovations = np.zeros(spec.n) if rep in planted else sample_innovations(spec.n, stream(spec.seed, rep))
            expected = replication_outcomes(spec, innovations)
            assert (names[0].get(rep, q_std[rep]), names[1].get(rep, q_mod[rep])) == expected
            assert all(isinstance(outcome, str) for outcome in expected) == (rep in planted)

    @pytest.mark.parametrize("dgp", ["dgp1", "dgp2"])
    def test_failures_add_up_across_blocks(self, monkeypatch, dgp):
        # blocks of 7 rows put the planted replications in different blocks, the last one in a short block
        self.plant_zero_innovations(monkeypatch, (3, 10, 11, 130, 499))
        passing = make_spec(dgp=dgp, replications=500, keep_statistics=True)  # 5 of 500 failed: within 1%
        failing = make_spec(dgp=dgp, replications=120)  # 3 of 120 failed
        outcomes = []
        for rows in (500, 7):
            monkeypatch.setattr(varbreak.mc, "BLOCK_ELEMENTS", rows * passing.n)
            result = run_experiment(passing)
            with pytest.raises(ExperimentIntegrityError) as raised:
                run_experiment(failing)
            statistics = result.statistics_std.tobytes(), result.statistics_mod.tobytes()
            outcomes.append((result.failures, result.n_valid_std, result.n_valid_mod, statistics, str(raised.value)))
        assert outcomes[0] == outcomes[1]
        failures, n_valid_std, n_valid_mod, _, message = outcomes[0]
        assert sum(count for _, count in failures) == 10 and n_valid_std == n_valid_mod == 495
        assert re.match(r"3 of 120 replications failed \(\[.+\]\), the first at replication 3 of seed", message)


class TestManyCells:
    """One run of many cells, its blocks in turn in one process: what each cell gives alone or in a pool."""

    def test_a_serial_run_of_many_cells_gives_the_bits_of_lone_and_pooled_cells(self, monkeypatch):
        # blocks of 60, 30 and 15 rows at n = 50, 100 and 200, each cell ending in a short block of 40 or 10
        monkeypatch.setattr(varbreak.mc, "BLOCK_ELEMENTS", 3000)
        table = run_table(4, seed=31, replications=400)
        specs = [
            experiment_for_cell(4, cell.spec.n, cell.spec.path.alpha, 31, 400, keep_statistics=True)
            for cell in table.results
        ]
        together = varbreak.mc._run_cells(specs, workers=1)  # all 15 cells in one process, as in run_table
        parallel = varbreak.mc._run_cells(specs, workers=2)  # a task is one block
        for spec, cell, kept, pooled in zip(specs, table.results, together, parallel):
            assert cell.rejection_rate_std == kept.rejection_rate_std
            assert cell.rejection_rate_mod == kept.rejection_rate_mod
            for other in (run_experiment(spec), pooled):
                assert other.statistics_std.tobytes() == kept.statistics_std.tobytes()
                assert other.statistics_mod.tobytes() == kept.statistics_mod.tobytes()

    @pytest.mark.parametrize("dgp", ["dgp1", "dgp2"])
    def test_statistics_survive_later_cells_and_blocks(self, monkeypatch, dgp):
        monkeypatch.setattr(varbreak.mc, "BLOCK_ELEMENTS", 8 * 60)
        first = run_experiment(make_spec(dgp=dgp, n=60, replications=40, keep_statistics=True))
        kept = first.statistics_std.tobytes(), first.statistics_mod.tobytes()
        run_experiment(make_spec(dgp=dgp, n=60, replications=40, seed=10, keep_statistics=True))
        assert (first.statistics_std.tobytes(), first.statistics_mod.tobytes()) == kept
        # within a run: a block's statistics survive the blocks after it, whose memory the allocator reuses
        spec = make_spec(dgp=dgp, n=60, replications=40)
        q_std, q_mod, *_ = varbreak.mc._block(spec, 0, 8)
        kept = q_std.tobytes(), q_mod.tobytes()
        later = [varbreak.mc._block(spec, start, start + 8)[:2] for start in range(8, 40, 8)]
        assert (q_std.tobytes(), q_mod.tobytes()) == kept
        assert not any(np.shares_memory(q, other) for q in (q_std, q_mod) for pair in later for other in pair)

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the import of varbreak.mc tunes glibc's malloc")
    def test_a_cell_after_the_first_faults_in_no_block_arrays(self):
        # five blocks of 16 rows, each allocating and freeing about twenty 256 KB arrays: about 2,600 minor
        # faults a cell if the freed arrays go back to the operating system
        import resource

        spec = make_spec(dgp="dgp2", n=2000, replications=80)
        run_experiment(spec)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        run_experiment(spec)
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 50


class TestKernelBits:
    """SHA-256 of the ``keep_statistics`` bytes of four cells: a drift in any bit fails here, not within 1e-10."""

    DIGESTS = {
        (1, 50): (
            "159e4953f579ccb21bea94c2f0b344be5d1dfb9692ddded2a62ed3dc84204338",
            "fdcb602c43a9e3509c24ad967399a23c9e9f961682e3abd3efa45bd015144e36",
        ),
        (1, 2000): (
            "7e8c04c68da96c8c5025a85f41974f4eba741d8d91383814407e31e2b30237a8",
            "d83e19160a93f6b5f7090b690235c463374ab26acba9e5739f43cef53bc5eb37",
        ),
        (2, 50): (
            "fbf6bdbfc020ffcce12906187019b151128cf83289f76e3820d6fa329afa6816",
            "018484e24d39b3507038b4c46243a6b7d2a0aed63172f692b9b7dcd6c48ab35c",
        ),
        (2, 2000): (
            "36942a14246bb44b47018a628019f6c6881dd5898fe19439c8f2a3e4304cfd5e",
            "c16635b11d82c1c1b54fabebd4618ed3690062e48a223259bb6098b54d2c12da",
        ),
    }

    @pytest.mark.parametrize("table,n", sorted(DIGESTS))
    def test_statistics_bytes_are_pinned(self, table, n):
        # n = 2000 runs three blocks of 16, 16 and 8 rows; n = 50 one block
        reps = 200 if n == 50 else 40
        spec = experiment_for_cell(table, n, 0.0, seed=20170721, replications=reps, keep_statistics=True)
        result = run_experiment(spec)
        digests = tuple(hashlib.sha256(s.tobytes()).hexdigest() for s in (result.statistics_std, result.statistics_mod))
        assert digests == self.DIGESTS[table, n]


class TestTables:
    def test_size_table_shape(self):
        table = run_table(1, seed=13, replications=25)
        assert table.kind == "size" and table.dgp == "dgp1"
        assert len(table.results) == 3
        cell = table.cell(100, 0.0)
        assert cell.spec.n == 100
        assert 0.0 <= cell.rejection_rate_mod <= 100.0

    def test_missing_cell_is_a_key_error(self):
        table = run_table(1, seed=13, replications=25)
        with pytest.raises(KeyError, match="no cell for n=100, alpha=1.0"):
            table.cell(100, 1.0)

    def test_power_table_shape(self):
        table = run_table(4, seed=13, replications=10)
        assert table.kind == "power" and table.dgp == "dgp2"
        assert len(table.results) == 15

    def test_cells_use_distinct_derived_seeds(self):
        a = experiment_for_cell(1, 50, 0.0, seed=7)
        b = experiment_for_cell(1, 100, 0.0, seed=7)
        c = experiment_for_cell(1, 50, 0.0, seed=7)
        assert a.seed != b.seed
        assert a.seed == c.seed

    def test_unknown_table(self):
        with pytest.raises(ValueError, match=r"^table must be one of \[1, 2, 3, 4\], got 5$"):
            run_table(5, seed=1)

    @pytest.mark.parametrize("workers,sizes", [(5000, [3]), (3, [3]), (2, [2]), (1, [])])
    def test_pool_is_sized_to_the_blocks(self, monkeypatch, workers, sizes):
        # table 1 at 20 replications is 3 cells of one block each; a stand-in pool records
        # its size and runs the blocks in this process, so no large pool is ever started
        started = []

        class RecordingPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        pooled = run_table(1, seed=5, replications=20, workers=workers)
        assert started == sizes
        run_experiment(pooled.results[0].spec, workers=workers)  # one block runs serially
        assert started == sizes
        serial = run_table(1, seed=5, replications=20)
        assert [(r.rejection_rate_std, r.rejection_rate_mod) for r in pooled.results] == [
            (r.rejection_rate_std, r.rejection_rate_mod) for r in serial.results
        ]

    def test_one_process_pool_serves_every_cell(self, monkeypatch):
        # 15 cells of 2, 3 and 5 blocks at n = 50, 100 and 200: one pool, not one per cell
        pools = []

        class CountingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                pools.append(self)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
        parallel = run_table(3, seed=13, replications=700, workers=2)
        assert len(pools) == 1
        serial = run_table(3, seed=13, replications=700)
        assert [(r.rejection_rate_std, r.rejection_rate_mod, r.se_mod, r.failures) for r in parallel.results] == [
            (r.rejection_rate_std, r.rejection_rate_mod, r.se_mod, r.failures) for r in serial.results
        ]
