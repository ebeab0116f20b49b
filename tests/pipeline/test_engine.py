"""A pipelined ``AMBS.run`` end to end on a real-clock evaluator.

Uses a fake native-style evaluator (deterministic costs, a recording
``precompile``) so the full pipelined path runs — build pool, side-thread
speculation, confirm fast path, ordered commits — without a C toolchain.
"""

import threading
import time

from repro.configspace import ConfigurationSpace, OrdinalHyperparameter
from repro.pipeline import PipelineConfig
from repro.ytopt.problem import TuningProblem
from repro.ytopt.search import AMBS


def _space(seed):
    space = ConfigurationSpace(seed=seed)
    for name in ("P0", "P1"):
        space.add_hyperparameter(OrdinalHyperparameter(name, tuple(range(2, 26, 2))))
    return space


class FakeNativeEvaluator:
    """Real-clock evaluator: deterministic cost, recording precompile."""

    def __init__(self):
        self._start = time.perf_counter()
        self._lock = threading.Lock()
        self.precompiled = []

    def elapsed(self):
        return time.perf_counter() - self._start

    def _cost(self, cfg):
        return 1.0 + (cfg["P0"] - 12) ** 2 + 2 * (cfg["P1"] - 8) ** 2

    def precompile(self, params):
        with self._lock:
            self.precompiled.append(tuple(sorted(
                (k, int(v)) for k, v in params.items()
            )))
        return True

    def evaluate(self, params):
        from repro.runtime.measure import MeasureResult

        cfg = {k: int(v) for k, v in params.items()}
        return MeasureResult(
            config=cfg,
            costs=(self._cost(cfg),),
            compile_time=0.0,
            timestamp=self.elapsed(),
        )


def _run(evals, pipeline, seed=0, refit_every=None):
    evaluator = FakeNativeEvaluator()
    problem = TuningProblem(_space(seed), evaluator, name="fake")
    search = AMBS(
        problem,
        max_evals=evals,
        seed=seed,
        pipeline=pipeline,
        refit_every=refit_every,
    )
    result = search.run()
    return result, evaluator


class TestPipelinedEngine:
    def test_speculation_hits_and_each_config_built_once(self):
        result, evaluator = _run(
            40, PipelineConfig(compile_jobs=2, dense_until=8)
        )
        assert result.n_evals == 40
        # Compile-ahead fired and the real waves picked the builds up.
        assert result.overhead["spec_hit_rate"] > 0.0
        # Dedup: no configuration was ever built twice (spec-hit reuse).
        assert len(evaluator.precompiled) == len(set(evaluator.precompiled))

    def test_matches_serial_twin_on_deterministic_costs(self):
        """Same refit schedule, same seed, deterministic costs: the pipelined
        engine (speculation, side thread, build pool and all) commits the
        same configurations and runtimes as the serial loop."""
        pipelined, _ = _run(38, PipelineConfig(compile_jobs=2), refit_every=0)
        serial, _ = _run(38, None, refit_every=0)
        pip_records = [
            (r.config, r.runtime) for r in pipelined.database.records()
        ]
        ser_records = [
            (r.config, r.runtime) for r in serial.database.records()
        ]
        assert pip_records == ser_records

    def test_speculative_misses_never_told(self):
        result, _ = _run(30, PipelineConfig(compile_jobs=2, dense_until=8))
        assert len(result.database.records()) == 30

    def test_refit_schedule_reduces_fits(self):
        pipelined, _ = _run(40, PipelineConfig(dense_until=8))
        # The legacy loop refits on every model-phase ask (evals - initial
        # design); the geometric schedule must do strictly fewer, and every
        # skip is accounted for.
        legacy_fits = 40 - 10
        assert pipelined.overhead["refits"] < legacy_fits
        assert pipelined.overhead["refits_skipped"] > 0
        assert (
            pipelined.overhead["refits"] + pipelined.overhead["refits_skipped"]
            == legacy_fits
        )
