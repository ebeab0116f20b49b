"""Parallel-measurement integration: determinism, serial/parallel parity,
virtual-clock batch accounting, resume cache hits, fault-tolerant searches,
and wall-clock speedup."""

from __future__ import annotations

import os
import time

import pytest

from repro.common.timing import VirtualClock
from repro.configspace import ConfigurationSpace, OrdinalHyperparameter
from repro.kernels.registry import get_benchmark
from repro.experiments.runner import ALL_TUNERS, run_tuner
from repro.runtime import BuildCache, ParallelEvaluator, evaluate_batch
from repro.runtime.measure import FAILED_COST
from repro.swing import SwingEvaluator
from repro.ytopt.problem import TuningProblem
from repro.ytopt.search import AMBS

from tests.runtime.parallel_targets import faulty_20pct_builder, good_builder, slow_builder


def _p0_space(values, seed=0):
    space = ConfigurationSpace(name="p0", seed=seed)
    space.add_hyperparameters([OrdinalHyperparameter("P0", list(values))])
    return space


class TestDeterminism:
    """Same seed + same jobs count => identical best_config, per tuner."""

    @pytest.mark.parametrize("tuner", ALL_TUNERS)
    def test_repeat_run_identical(self, tuner):
        bench = get_benchmark("lu", "mini")
        a = run_tuner(bench, tuner, max_evals=12, seed=3, jobs=4)
        b = run_tuner(bench, tuner, max_evals=12, seed=3, jobs=4)
        assert a.best_config == b.best_config
        assert a.best_runtime == pytest.approx(b.best_runtime)
        assert a.total_time == pytest.approx(b.total_time)

    @pytest.mark.parametrize("tuner", ALL_TUNERS)
    def test_parallel_matches_serial_best(self, tuner):
        """jobs=4 must find the same best config as jobs=1 on a small space —
        parallel measurement changes process time, never the search outcome."""
        bench = get_benchmark("lu", "mini")
        serial = run_tuner(bench, tuner, max_evals=12, seed=0, jobs=1)
        parallel = run_tuner(bench, tuner, max_evals=12, seed=0, jobs=4)
        assert parallel.best_config == serial.best_config
        assert parallel.best_runtime == pytest.approx(serial.best_runtime)
        assert parallel.n_evals == serial.n_evals

    @pytest.mark.parametrize("tuner", ALL_TUNERS)
    def test_parallel_process_time_is_smaller(self, tuner):
        bench = get_benchmark("lu", "mini")
        serial = run_tuner(bench, tuner, max_evals=12, seed=0, jobs=1)
        parallel = run_tuner(bench, tuner, max_evals=12, seed=0, jobs=4)
        assert parallel.total_time < serial.total_time


class TestVirtualClockBatchAccounting:
    """Simulated parallel measurement charges max-of-wave, not sum."""

    def _evaluator(self):
        bench = get_benchmark("lu", "mini")
        return SwingEvaluator(bench.profile, clock=VirtualClock()), bench

    def _configs(self, bench, n):
        space = bench.config_space(seed=0)
        return [dict(space.sample_configuration()) for _ in range(n)]

    def test_batch_advances_by_max_not_sum(self):
        ev_ref, bench = self._evaluator()
        configs = self._configs(bench, 4)
        durations = []
        for cfg in configs:
            before = ev_ref.clock.now
            ev_ref.evaluate(cfg)
            durations.append(ev_ref.clock.now - before)
        assert sum(durations) > max(durations)  # the distinction is real

        ev, _ = self._evaluator()
        results = evaluate_batch(ev, configs, jobs=4)
        assert ev.clock.now == pytest.approx(max(durations))
        assert ev.clock.now < sum(durations)
        for r in results:
            assert r.timestamp == pytest.approx(ev.clock.now)
            assert r.extra["wave_jobs"] == 4.0

    def test_waves_accumulate(self):
        """6 configs at jobs=4 = two waves: max(first 4) + max(last 2)."""
        ev_ref, bench = self._evaluator()
        configs = self._configs(bench, 6)
        durations = []
        for cfg in configs:
            before = ev_ref.clock.now
            ev_ref.evaluate(cfg)
            durations.append(ev_ref.clock.now - before)

        ev, _ = self._evaluator()
        evaluate_batch(ev, configs, jobs=4)
        expected = max(durations[:4]) + max(durations[4:])
        assert ev.clock.now == pytest.approx(expected)

    def test_jobs_one_keeps_sequential_sum(self):
        ev_ref, bench = self._evaluator()
        configs = self._configs(bench, 3)
        for cfg in configs:
            ev_ref.evaluate(cfg)

        ev, _ = self._evaluator()
        evaluate_batch(ev, configs, jobs=1)
        assert ev.clock.now == pytest.approx(ev_ref.clock.now)

    def test_results_match_serial_costs(self):
        ev_ref, bench = self._evaluator()
        configs = self._configs(bench, 4)
        serial = [ev_ref.evaluate(cfg) for cfg in configs]

        ev, _ = self._evaluator()
        parallel = evaluate_batch(ev, configs, jobs=4)
        for s, p in zip(serial, parallel):
            assert p.costs == pytest.approx(s.costs)
            assert p.config == s.config


class TestResumeCacheHits:
    def test_resumed_search_skips_recompilation(self):
        """Acceptance: resume-from-database demonstrates hit rate > 0.

        The first search exhausts a 4-config space; the resumed search must
        re-sample already-seen configurations, whose schedules are already in
        the shared build cache — recompilation is skipped."""
        cache = BuildCache()
        with ParallelEvaluator(good_builder, jobs=2, cache=cache) as ev:
            problem = TuningProblem(_p0_space([1, 2, 3, 4]), ev, name="resume")
            first = AMBS(problem, max_evals=4, seed=0, batch_size=2).run()
            assert first.n_evals == 4
            assert cache.misses >= 1  # the first run actually compiled things

            resumed = AMBS(
                problem,
                max_evals=len(first.database) + 2,
                seed=1,
                batch_size=2,
                warm_start=first.database,
            ).run()
        assert resumed.n_evals == 6  # 4 carried over + 2 new measurements
        assert cache.hits > 0
        assert cache.hit_rate > 0
        measured = resumed.database.records()[4:]
        assert any(r.ok for r in measured)

    def test_duplicate_in_batch_hits_cache(self):
        with ParallelEvaluator(good_builder, jobs=1) as ev:
            results = ev.evaluate_batch([{"P0": 2}, {"P0": 2}])
        assert results[0].extra["cache_hit"] == 0.0
        assert results[1].extra["cache_hit"] == 1.0


class TestFaultTolerantSearch:
    @pytest.mark.slow
    def test_40_eval_search_with_20pct_faults(self):
        """Acceptance: a 40-eval parallel search over a space where ~20% of
        builds crash the worker or hang completes with zero unhandled
        exceptions, every trial recorded, failures carrying FAILED_COST."""
        space = _p0_space(list(range(1, 21)))  # P0 in 1..20: 4,14 crash; 9,19 hang
        with ParallelEvaluator(
            faulty_20pct_builder,
            jobs=4,
            timeout=0.75,
            parent_grace=2.0,
            max_retries=1,
            retry_backoff=0.0,
        ) as ev:
            problem = TuningProblem(space, ev, name="faulty")
            search = AMBS(problem, max_evals=40, seed=0, batch_size=4)
            result = search.run()  # must not raise
        assert result.n_evals == 40
        records = result.database.records()
        failed = [r for r in records if not r.ok]
        succeeded = [r for r in records if r.ok]
        assert succeeded, "healthy configs must still measure"
        assert failed, "the fault injector must actually have fired"
        assert all(r.runtime == FAILED_COST for r in failed)
        assert result.best_runtime < FAILED_COST


class TestWallClockSpeedup:
    @pytest.mark.slow
    @pytest.mark.skipif(
        (os.cpu_count() or 1) < 2, reason="speedup needs at least 2 cores"
    )
    def test_parallel_search_beats_serial(self):
        """Acceptance: a 40-eval search at jobs=4 takes < 0.6x the serial
        wall-clock. The builder carries a fixed per-build cost, so the ratio
        measures measurement overlap, not BO internals."""
        space_vals = [1, 2, 3, 4, 6, 12]

        def run(jobs: int) -> float:
            with ParallelEvaluator(slow_builder, jobs=jobs, use_cache=False) as ev:
                problem = TuningProblem(_p0_space(space_vals), ev, name="speed")
                search = AMBS(
                    problem,
                    max_evals=40,
                    seed=0,
                    batch_size=jobs,
                    optimizer_overhead=0.0,
                )
                t0 = time.perf_counter()
                result = search.run()
                elapsed = time.perf_counter() - t0
            assert result.n_evals == 40
            return elapsed

        serial = run(1)
        parallel = run(4)
        assert parallel < 0.6 * serial, (
            f"jobs=4 took {parallel:.2f}s vs jobs=1 {serial:.2f}s "
            f"(ratio {parallel / serial:.2f}, need < 0.6)"
        )
