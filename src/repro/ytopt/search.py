"""AMBS: the search loop of the proposed autotuning framework (Fig. 3).

Asynchronous Model-Based Search is ytopt's driver. Each iteration runs the
paper's Steps 1–5: the Bayesian optimizer selects a configuration (Step 1), the
code mold / schedule builder instantiates it (Step 2), the kernel is compiled
(Step 3) and executed (Step 4), and the runtime lands in the performance
database and back in the optimizer (Step 5) — until ``max_evals`` or the
wall-clock budget is exhausted.

:meth:`AMBS.run` is the one loop. A pipelined run (``pipeline=``, see
:mod:`repro.pipeline`) overlaps Steps 1–3 on top of it: a build pool compiles
each wave's configurations ahead of measurement, and the next wave is
previewed and compiled ahead while the current one measures. A serial run is
the same loop with that pool disabled.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from repro.common.errors import TuningError
from repro.pipeline.build_pool import BuildPool
from repro.pipeline.config import PipelineConfig
from repro.runtime.measure import FAILED_COST, MeasureResult
from repro.telemetry.context import NULL_TELEMETRY, get_telemetry, scoped_telemetry
from repro.telemetry.events import PipelineStats, TrialMeasured, TrialPruned
from repro.ytopt.database import PerformanceDatabase
from repro.ytopt.optimizer import Optimizer, RefitSchedule
from repro.ytopt.problem import TuningProblem


@dataclass
class SearchResult:
    """Outcome of a search run.

    ``overhead`` breaks the run's wall time into stages (the
    ``overhead_breakdown`` report column): ``mode`` ("serial" or
    "pipelined"); ``search_seconds`` — ask/refit/acquisition;
    ``compile_seconds`` — per-trial build cost on the critical path (plus,
    pipelined, the seconds stalled on the build pool); ``measure_seconds`` —
    kernel execution; ``wall_seconds``. A pipelined run adds the build-pool
    counters (speculation hit rate, busy/wait seconds, occupancy) and the
    surrogate refit counts; a serial run has exactly those five keys.
    """

    best_config: dict[str, int]
    best_runtime: float
    n_evals: int
    total_elapsed: float
    database: PerformanceDatabase
    overhead: "dict[str, float] | None" = None

    def __repr__(self) -> str:
        return (
            f"SearchResult(best={self.best_runtime:.4g}s @ {self.best_config}, "
            f"{self.n_evals} evals, {self.total_elapsed:.4g}s process time)"
        )


def refit_settings(
    refit_every: int | None, pipeline: PipelineConfig | None
) -> tuple[int, RefitSchedule | None]:
    """``(refit_interval, refit_schedule)`` for the default Optimizer.

    ``refit_every=None`` refits every observation in a serial run and uses
    the geometric schedule in a pipelined one; ``0`` forces the geometric
    schedule (``dense_until``/``growth`` from ``pipeline``, or
    :class:`~repro.ytopt.optimizer.RefitSchedule`'s defaults); ``1`` refits
    every observation; ``k > 1`` every ``k`` observations.
    """
    if refit_every is None:
        refit_every = 1 if pipeline is None else 0
    if refit_every < 0:
        raise TuningError(f"refit_every must be >= 0, got {refit_every}")
    if refit_every > 0:
        return refit_every, None
    if pipeline is None:
        return 1, RefitSchedule()
    return 1, RefitSchedule(pipeline.dense_until, pipeline.growth)


class AMBS:
    """Model-based search: one evaluation per iteration, lowest cost wins."""

    def __init__(
        self,
        problem: TuningProblem,
        optimizer: Optimizer | None = None,
        max_evals: int = 100,
        max_time: float | None = None,
        seed: int | None = None,
        tuner_name: str = "ytopt",
        #: Modeled/real per-iteration cost of the optimizer itself (surrogate
        #: refit + acquisition over the candidate pool). Charged to the
        #: evaluator's clock under simulation so process time is honest.
        optimizer_overhead: float = 0.2,
        #: >1 enables ytopt's async mode: configurations are proposed in
        #: constant-liar batches (parallel evaluation on a multi-GPU node).
        batch_size: int = 1,
        #: Measurement parallelism for each batch. None (default) measures a
        #: batch ``batch_size`` wide — the constant-liar batch maps 1:1 onto
        #: the measurement fleet. Set explicitly to decouple proposal batching
        #: from worker count.
        jobs: int | None = None,
        #: Surrogate-guided pruning: once the surrogate is trained, skip
        #: compilation entirely for candidates whose predicted lower confidence
        #: bound exceeds ``prune_threshold`` × the incumbent runtime. Pruned
        #: trials are charged ``prune_overhead`` seconds of process time,
        #: recorded with the surrogate estimate (fidelity "pruned"), and count
        #: against ``max_evals``.
        prune: bool = False,
        prune_threshold: float = 1.25,
        prune_overhead: float = 0.02,
        prune_z: float = 0.5,
        #: Warm start or resume from prior records (a previous run's
        #: database, or :class:`repro.ytopt.WarmStart`'s ``database``): they
        #: pre-train the surrogate, land in the database and count toward
        #: ``max_evals``, so a matching budget replays the stored result
        #: without re-measuring anything, and resuming a run for ``n`` more
        #: evaluations takes ``max_evals=len(prior) + n``.
        warm_start: PerformanceDatabase | None = None,
        #: Pipelined execution (see :mod:`repro.pipeline`): a
        #: :class:`~repro.pipeline.PipelineConfig`, True for the defaults, or
        #: None/False for a serial run. Pipelined, the loop overlaps the
        #: surrogate ask, a parallel native build pool with compile-ahead
        #: speculation, and measurement, still telling in ask order.
        pipeline=None,
        #: Surrogate refit policy for the *default* optimizer (see
        #: :func:`refit_settings`): None refits every observation serially
        #: and follows the geometric schedule when pipelined. Ignored when an
        #: explicit ``optimizer`` is passed — configure that optimizer
        #: directly.
        refit_every: int | None = None,
    ) -> None:
        if max_evals < 1:
            raise TuningError(f"max_evals must be >= 1, got {max_evals}")
        if max_time is not None and max_time <= 0:
            raise TuningError(f"max_time must be positive, got {max_time}")
        if batch_size < 1:
            raise TuningError(f"batch_size must be >= 1, got {batch_size}")
        if jobs is not None and jobs < 1:
            raise TuningError(f"jobs must be >= 1, got {jobs}")
        if prune_threshold < 1.0:
            raise TuningError(
                f"prune_threshold must be >= 1.0 (a multiple of the incumbent), "
                f"got {prune_threshold}"
            )
        if prune_overhead < 0:
            raise TuningError(f"prune_overhead must be >= 0, got {prune_overhead}")
        self.problem = problem
        if pipeline is True:
            pipeline = PipelineConfig()
        elif pipeline is False:
            pipeline = None
        self.pipeline = pipeline
        refit_interval, refit_schedule = refit_settings(refit_every, pipeline)
        self.optimizer = (
            optimizer
            if optimizer is not None
            else Optimizer(
                problem.space,
                seed=seed,
                refit_interval=refit_interval,
                refit_schedule=refit_schedule,
            )
        )
        self.max_evals = max_evals
        self.max_time = max_time
        self.tuner_name = tuner_name
        self.optimizer_overhead = optimizer_overhead
        self.batch_size = batch_size
        self.jobs = jobs
        self.prune = prune
        self.prune_threshold = prune_threshold
        self.prune_overhead = prune_overhead
        self.prune_z = prune_z
        self.n_pruned = 0
        # Stage-seconds accumulators behind SearchResult.overhead.
        self._search_wall = 0.0
        self._measure_wall = 0.0
        self._compile_sum = 0.0
        self._incumbent = math.inf  # best *measured* runtime (never an estimate)
        self._preloaded = 0
        self.database = PerformanceDatabase(name=f"{problem.name}:{tuner_name}")
        if warm_start is not None:
            for rec in warm_start:
                self.optimizer.tell(rec.config, rec.runtime)
                if rec.ok and not rec.low_fidelity:
                    self._incumbent = min(self._incumbent, rec.runtime)
            self.database.extend(warm_start)
            self._preloaded = len(warm_start)

    def _try_prune(self, config, evaluator, clock) -> MeasureResult | None:
        """Surrogate-prune ``config`` if its predicted lower bound is hopeless.

        Returns the synthetic "pruned" MeasureResult, or None when the trial
        must be measured for real (pruning off, surrogate not yet trained, no
        incumbent, or the candidate looks competitive). The prune decision
        costs ``prune_overhead`` seconds of process time — charged to the
        clock so the total-time tables stay honest.
        """
        if not self.prune or not math.isfinite(self._incumbent):
            return None
        pred = self.optimizer.predict_cost(config, z=self.prune_z)
        if pred is None:  # still in the initial random design
            return None
        est, lower = pred
        limit = self.prune_threshold * self._incumbent
        if lower <= limit:
            return None
        if clock is not None:
            clock.advance(self.prune_overhead)
        # The recorded estimate is >= the lower bound > incumbent, so a pruned
        # record can never displace a measured best().
        estimate = max(est, lower)
        result = MeasureResult(
            config=dict(config),
            costs=(estimate,),
            compile_time=0.0,
            timestamp=evaluator.elapsed(),
            extra={"pruned": 1.0, "prune_bound": lower},
            fidelity="pruned",
        )
        self.n_pruned += 1
        tel = get_telemetry()
        if tel.enabled:
            tel.emit(
                TrialPruned(
                    config=dict(result.config),
                    estimate=estimate,
                    bound=lower,
                    incumbent=self._incumbent,
                    limit=limit,
                    elapsed=result.timestamp,
                    source="surrogate",
                    reason=f"lcb {lower:.4g} > {self.prune_threshold:g}x "
                    f"incumbent {self._incumbent:.4g}",
                )
            )
        return result

    def _commit(self, config, result: MeasureResult, tel) -> None:
        """Step 5 for one observation: database, tell, incumbent, event.

        :meth:`run` calls it in ask order in either mode, so a pipelined and
        a serial run record the same trajectory from identical measurements
        and an identical refit policy."""
        self.database.add(result, tuner=self.tuner_name)
        cost = result.mean_cost if result.ok else FAILED_COST
        self.optimizer.tell(config, cost)
        if result.ok and not result.low_fidelity:
            self._incumbent = min(self._incumbent, result.mean_cost)
        self._compile_sum += result.compile_time
        if tel.enabled:
            tel.emit(
                TrialMeasured(
                    config=dict(result.config),
                    runtime=result.mean_cost,
                    compile_time=result.compile_time,
                    elapsed=result.timestamp,
                    error=result.error,
                    cache_hit=bool(result.extra.get("cache_hit")),
                    fidelity=result.fidelity,
                    backend=result.backend,
                )
            )

    def measure(self, to_measure: list) -> list[MeasureResult]:
        """Steps 2–4 for one wave."""
        if len(to_measure) == 1:
            return [self.problem.objective(to_measure[0])]
        if to_measure:
            jobs = self.jobs if self.jobs is not None else len(to_measure)
            return self.problem.objective_batch(to_measure, jobs=jobs)
        return []

    @staticmethod
    def _stamp(clock) -> float:
        """Stage-accounting timestamp: virtual seconds under simulation (so
        the breakdown's units match the stored compile/run costs), wall
        seconds for real measurement."""
        return clock.now if clock is not None else time.perf_counter()

    def _overhead_breakdown(self, wall_total: float, **extra: float) -> dict:
        """The per-run stage split behind the report's ``overhead_breakdown``
        column. ``compile_seconds`` is critical-path build cost (what the
        trials paid, plus any pipeline build-pool stall passed via
        ``extra``); ``measure_seconds`` the measurement wall time net of
        those builds; ``search_seconds`` ask + refit + acquisition."""
        measure_net = max(0.0, self._measure_wall - self._compile_sum)
        out = {
            "mode": "pipelined" if self.pipeline is not None else "serial",
            "search_seconds": round(self._search_wall, 6),
            "compile_seconds": round(self._compile_sum + extra.pop("compile_stall", 0.0), 6),
            "measure_seconds": round(measure_net, 6),
            "wall_seconds": round(wall_total, 6),
        }
        out.update({k: (round(v, 6) if isinstance(v, float) else v) for k, v in extra.items()})
        return out

    def _finish(self, wall_total: float, **extra: float) -> SearchResult:
        best = self.database.best()
        return SearchResult(
            best_config=best.config,
            best_runtime=best.runtime,
            n_evals=len(self.database),
            total_elapsed=self.database.total_elapsed(),
            database=self.database,
            overhead=self._overhead_breakdown(wall_total, **extra),
        )

    def _build_pool(self, evaluator) -> BuildPool:
        """The run's ahead-of-time build pool. A serial run gets a disabled
        pool (every method a no-op); a pipelined one gets a live pool when
        the evaluator can ``precompile``."""
        if self.pipeline is None:
            return BuildPool(None, 1)
        precompile = getattr(evaluator, "precompile", None)
        return BuildPool(
            precompile if callable(precompile) else None,
            self.pipeline.resolved_jobs(),
            forget=getattr(evaluator, "discard_precompiled", None),
        )

    def run(self) -> SearchResult:
        """Execute the search; returns the best configuration found.

        A pipelined run adds two overlaps to each wave, both of which
        degenerate to nothing in a serial run's disabled build pool:

        1. **Parallel wave builds.** Every configuration headed for
           measurement is submitted to the pool before the loop blocks on it
           (a ``pipeline_wait`` span), so a constant-liar wave compiles
           ``compile_jobs`` wide.
        2. **Compile-ahead speculation.** While wave *k* builds and measures,
           the optimizer's side-effect-free ``speculate`` previews wave *k+1*
           (on a side thread under a real clock, inline under a virtual one)
           and its builds start in the background. When the landed wave
           provably cannot have changed the proposal, ``confirm_speculation``
           adopts the preview as the real ask. A miss is discarded without a
           ``tell``.

        Observations commit strictly in ask order in both modes, so at
        ``refit_every=1`` a pipelined run's store is byte-identical to the
        serial run's. A pipelined run ends with one
        :class:`~repro.telemetry.events.PipelineStats` event.
        """
        self._search_wall = 0.0
        self._measure_wall = 0.0
        self._compile_sum = 0.0
        tel = get_telemetry()
        evaluator = self.problem.evaluator
        clock = getattr(evaluator, "clock", None)
        pool = self._build_pool(evaluator)
        # Optimizers without a speculation protocol (e.g. TPE) still pipeline
        # their wave builds; they just never compile ahead.
        can_speculate = (
            pool.enabled
            and self.pipeline.speculate
            and callable(getattr(self.optimizer, "speculate", None))
        )
        # Simulated time cannot overlap, so under a virtual clock the
        # speculation runs inline instead of on the side thread.
        spec_thread = (
            ThreadPoolExecutor(max_workers=1, thread_name_prefix="repro-spec")
            if clock is None and can_speculate
            else None
        )
        speculated = None
        remaining = max(0, self.max_evals - self._preloaded)
        t_start = time.perf_counter()
        try:
            while remaining > 0:
                if self.max_time is not None and evaluator.elapsed() >= self.max_time:
                    break
                n = min(self.batch_size, remaining)
                t0 = self._stamp(clock)
                with tel.span("acquisition", clock=clock):
                    configs = None
                    if speculated is not None:
                        confirm = getattr(self.optimizer, "confirm_speculation", None)
                        if callable(confirm):
                            configs = confirm(n)
                    if configs is None:
                        configs = (
                            [self.optimizer.ask()] if n == 1 else self.optimizer.ask_batch(n)
                        )  # Step 1
                    if clock is not None:
                        clock.advance(self.optimizer_overhead)
                if speculated is not None:
                    pool.score_speculation(speculated, configs)
                    speculated = None
                self._search_wall += self._stamp(clock) - t0
                results: list[MeasureResult | None] = [
                    self._try_prune(c, evaluator, clock) for c in configs
                ]
                to_measure = [c for c, r in zip(configs, results) if r is None]
                for config in to_measure:
                    pool.submit(config)
                pool.discard(c for c, r in zip(configs, results) if r is not None)
                spec_job = None
                next_n = min(self.batch_size, remaining - len(configs))
                if can_speculate and next_n > 0:

                    def _speculate(width=next_n, wave=tuple(configs)):
                        # The side thread must not reach the process-global
                        # telemetry bus (its sinks are not thread-safe).
                        with scoped_telemetry(NULL_TELEMETRY):
                            picks = self.optimizer.speculate(
                                width, will_tell=len(wave), exclude=wave
                            )
                        for config in picks or ():
                            pool.submit(config, speculative=True)
                        return picks

                    if spec_thread is not None:
                        spec_job = spec_thread.submit(_speculate)
                    else:
                        speculated = _speculate() or None
                if to_measure and pool.enabled:
                    with tel.span("pipeline_wait"):
                        pool.wait(to_measure)
                t0 = self._stamp(clock)
                with tel.span("measure", clock=clock):
                    measured = self.measure(to_measure)  # Steps 2-4
                self._measure_wall += self._stamp(clock) - t0
                if spec_job is not None:
                    # Join before any tell: the optimizer is single-threaded
                    # and the speculation must restore its snapshots before
                    # real state advances.
                    speculated = spec_job.result() or None
                it = iter(measured)
                results = [r if r is not None else next(it) for r in results]
                for config, result in zip(configs, results):
                    self._commit(config, result, tel)  # Step 5
                remaining -= len(configs)
        finally:
            if spec_thread is not None:
                spec_thread.shutdown(wait=True)
            pool.close()
        if self.pipeline is None:
            return self._finish(time.perf_counter() - t_start)
        stats = pool.stats()
        refits = getattr(self.optimizer, "n_refits", 0)
        refits_skipped = getattr(self.optimizer, "n_refits_skipped", 0)
        if tel.enabled:
            tel.emit(PipelineStats(**stats, refits=refits, refits_skipped=refits_skipped))
        return self._finish(
            time.perf_counter() - t_start,
            compile_stall=stats["wait_seconds"],
            compile_jobs=float(stats["jobs"]),
            spec_hit_rate=stats["hit_rate"],
            pool_busy_seconds=stats["busy_seconds"],
            pool_occupancy_peak=float(stats["occupancy_peak"]),
            refits=float(refits),
            refits_skipped=float(refits_skipped),
        )
