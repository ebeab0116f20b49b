"""Tests for the AMBS search loop."""

import threading
import time

import pytest

from repro.common.errors import TuningError
from repro.common.timing import VirtualClock
from repro.configspace import ConfigurationSpace, OrdinalHyperparameter
from repro.kernels import get_benchmark
from repro.pipeline import PipelineConfig
from repro.runtime.measure import MeasureResult
from repro.swing import SwingEvaluator
from repro.telemetry import RecordingSink, Telemetry, telemetry_session
from repro.telemetry.events import PipelineStats, SpanClosed
from repro.ytopt import AMBS, TuningProblem
from repro.ytopt.search import refit_settings


def _problem(seed=0, **ev_kwargs):
    bench = get_benchmark("lu", "large")
    evaluator = SwingEvaluator(bench.profile, clock=VirtualClock(), **ev_kwargs)
    return TuningProblem(bench.config_space(seed=seed), evaluator, name="lu-large")


class TestAMBS:
    def test_runs_max_evals(self):
        search = AMBS(_problem(), max_evals=12, seed=0)
        result = search.run()
        assert result.n_evals == 12
        assert result.best_runtime > 0
        assert result.best_config  # non-empty

    def test_database_populated(self):
        search = AMBS(_problem(), max_evals=8, seed=0)
        result = search.run()
        assert len(result.database) == 8
        assert result.database.best().runtime == result.best_runtime

    def test_process_time_accumulates(self):
        search = AMBS(_problem(), max_evals=5, seed=0)
        result = search.run()
        traj = result.database.trajectory()
        times = [t for t, _ in traj]
        assert times == sorted(times)
        assert result.total_elapsed == times[-1]

    def test_max_time_stops_early(self):
        # Virtual seconds: LU-large evals take ~2s+ each, so a tight budget
        # must cut the run short.
        search = AMBS(_problem(), max_evals=100, max_time=30.0, seed=0)
        result = search.run()
        assert result.n_evals < 100

    def test_optimizer_overhead_charged(self):
        p1 = _problem(seed=0)
        r1 = AMBS(p1, max_evals=5, seed=0, optimizer_overhead=0.0).run()
        p2 = _problem(seed=0)
        r2 = AMBS(p2, max_evals=5, seed=0, optimizer_overhead=10.0).run()
        assert r2.total_elapsed > r1.total_elapsed + 40.0

    def test_validation(self):
        with pytest.raises(TuningError):
            AMBS(_problem(), max_evals=0)
        with pytest.raises(TuningError):
            AMBS(_problem(), max_time=-1.0)

    def test_seeded_determinism(self):
        r1 = AMBS(_problem(seed=3), max_evals=10, seed=3).run()
        r2 = AMBS(_problem(seed=3), max_evals=10, seed=3).run()
        assert r1.best_config == r2.best_config
        assert r1.best_runtime == r2.best_runtime


class PrecompilingStub:
    """Real-clock evaluator with a ``precompile`` a pipelined run would use."""

    def __init__(self):
        self._start = time.perf_counter()
        self.precompiled = []

    def elapsed(self):
        return time.perf_counter() - self._start

    def precompile(self, params):
        self.precompiled.append(dict(params))
        return True

    def evaluate(self, params):
        cfg = {k: int(v) for k, v in params.items()}
        return MeasureResult(
            config=cfg,
            costs=(1.0 + (cfg["P0"] - 12) ** 2 + (cfg["P1"] - 8) ** 2,),
            compile_time=0.0,
            timestamp=self.elapsed(),
        )


def _stub_run(pipeline, batch_size=1):
    space = ConfigurationSpace(seed=0)
    for name in ("P0", "P1"):
        space.add_hyperparameter(OrdinalHyperparameter(name, tuple(range(2, 26, 2))))
    evaluator = PrecompilingStub()
    sink = RecordingSink()
    threads_before = threading.active_count()
    with telemetry_session(Telemetry(sinks=[sink])):
        result = AMBS(
            TuningProblem(space, evaluator, name="stub"),
            max_evals=16,
            seed=0,
            batch_size=batch_size,
            pipeline=pipeline,
        ).run()
    return result, evaluator, sink, threads_before


class TestSerialRunHasNoPipeline:
    @pytest.mark.parametrize("batch_size", [1, 3])
    def test_serial_run_leaves_no_pipeline_trace(self, batch_size):
        result, evaluator, sink, threads_before = _stub_run(None, batch_size)
        assert result.n_evals == 16
        assert evaluator.precompiled == []
        assert not any(isinstance(e, PipelineStats) for e in sink.events)
        spans = {e.name for e in sink.events if isinstance(e, SpanClosed)}
        assert "pipeline_wait" not in spans
        assert {"acquisition", "measure"} <= spans
        assert set(result.overhead) == {
            "mode", "search_seconds", "compile_seconds", "measure_seconds",
            "wall_seconds",
        }
        assert result.overhead["mode"] == "serial"
        assert threading.active_count() == threads_before

    def test_pipelined_twin_does_use_the_pipeline(self):
        """The stub does expose the pipeline: the same run pipelined
        precompiles, waits on the pool and reports its counters."""
        result, evaluator, sink, _ = _stub_run(PipelineConfig(compile_jobs=2))
        assert evaluator.precompiled
        assert sum(isinstance(e, PipelineStats) for e in sink.events) == 1
        spans = {e.name for e in sink.events if isinstance(e, SpanClosed)}
        assert "pipeline_wait" in spans
        assert result.overhead["mode"] == "pipelined"
        assert {"spec_hit_rate", "pool_busy_seconds"} <= set(result.overhead)
        assert result.overhead["compile_jobs"] == 2.0


class TestPipelinedRunWithoutPrecompile:
    def test_pool_width_reads_zero(self):
        """Swing has no ``precompile``, so a pipelined run starts no build
        thread; the event and the overhead report a width of 0."""
        from repro.experiments import run_tuner

        sink = RecordingSink()
        with telemetry_session(Telemetry(sinks=[sink])):
            run = run_tuner(get_benchmark("lu", "mini"), "ytopt", 12, pipeline=True)
        stats = [e for e in sink.events if isinstance(e, PipelineStats)]
        assert [e.jobs for e in stats] == [0]
        assert run.overhead["compile_jobs"] == 0.0
        assert run.overhead["pool_busy_seconds"] == 0.0


class TestRefitSettings:
    def test_default_policy_depends_on_mode(self):
        assert refit_settings(None, None) == (1, None)
        interval, schedule = refit_settings(None, PipelineConfig(dense_until=8, growth=2.0))
        assert interval == 1
        assert (schedule.dense_until, schedule.growth) == (8, 2.0)

    def test_explicit_policy(self):
        assert refit_settings(1, PipelineConfig()) == (1, None)
        assert refit_settings(3, None) == (3, None)
        interval, schedule = refit_settings(0, None)
        assert interval == 1
        assert (schedule.dense_until, schedule.growth) == (32, 1.5)

    def test_negative_rejected(self):
        with pytest.raises(TuningError):
            refit_settings(-1, None)
        with pytest.raises(TuningError):
            AMBS(_problem(), refit_every=-1)
