"""The pipelined AMBS engine: overlap ask, parallel builds, and measurement.

``run_pipelined(search, cfg)`` mirrors the serial ``AMBS.run`` loop step for
step — same spans, same clock charges, same prune/tell/event order — and
adds three overlaps on top:

1. **Parallel wave builds.** Every configuration headed for measurement is
   submitted to the :class:`~repro.pipeline.BuildPool` before the engine
   blocks on it, so a constant-liar wave compiles ``compile_jobs`` wide
   instead of one subprocess at a time.
2. **Compile-ahead speculation.** While wave *k* builds and measures, the
   optimizer's side-effect-free :meth:`~repro.ytopt.Optimizer.speculate`
   previews wave *k+1* on a side thread and its builds start in the
   background. A spec-hit means wave *k+1*'s build wait is (near) zero —
   and when the landed wave provably cannot have changed the proposal,
   :meth:`~repro.ytopt.Optimizer.confirm_speculation` adopts the preview as
   the real ask, taking the surrogate ask itself off the critical path. A
   spec-miss is discarded without a ``tell`` and only wasted otherwise-idle
   pool time.
3. **Ordered completion.** Observations flow through an
   :class:`~repro.pipeline.OrderedTellQueue` and commit (database, tell,
   incumbent, event) strictly in ask order, so pipelining cannot perturb
   the trajectory: at ``refit_every=1`` a pipelined run's store is
   byte-identical to the serial run's.

The engine emits ``pipeline_wait`` spans for the critical-path build stalls
and one :class:`~repro.telemetry.PipelineStats` event at the end (pool
occupancy, speculation hit rate, busy/wait seconds, refit counts).
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor

from repro.pipeline.build_pool import BuildPool
from repro.pipeline.config import PipelineConfig
from repro.runtime.measure import MeasureResult
from repro.telemetry.context import NULL_TELEMETRY, get_telemetry, scoped_telemetry
from repro.telemetry.events import PipelineStats


def run_pipelined(search, cfg: PipelineConfig):
    """Execute ``search`` (an :class:`~repro.ytopt.AMBS`) with pipelining."""
    from repro.pipeline.queue import OrderedTellQueue

    tel = get_telemetry()
    evaluator = search.problem.evaluator
    clock = getattr(evaluator, "clock", None)
    precompiler = getattr(evaluator, "precompile", None)
    pool = BuildPool(
        precompiler if callable(precompiler) else None,
        cfg.resolved_jobs(),
        forget=getattr(evaluator, "discard_precompiled", None),
    )
    queue = OrderedTellQueue()
    # Optimizers without a speculation protocol (e.g. TPE) still pipeline
    # their wave builds; they just never compile ahead.
    can_speculate = (
        cfg.speculate
        and pool.enabled
        and callable(getattr(search.optimizer, "speculate", None))
    )
    # Under a real clock the speculative ask runs on a side thread so it (and
    # the builds it seeds) overlaps the wave's build-wait and measurement;
    # under a virtual clock it runs inline — simulated time cannot overlap.
    spec_pool = (
        ThreadPoolExecutor(max_workers=1, thread_name_prefix="repro-spec")
        if clock is None and can_speculate
        else None
    )
    speculated = None
    seq = 0
    remaining = max(0, search.max_evals - search._preloaded)
    t_start = time.perf_counter()
    try:
        while remaining > 0:
            if search.max_time is not None and evaluator.elapsed() >= search.max_time:
                break
            n = min(search.batch_size, remaining)
            t0 = search._stamp(clock)
            with tel.span("acquisition", clock=clock):
                configs = None
                if speculated is not None:
                    # Spec-confirm fast path: when the landed wave provably
                    # cannot have changed the proposal, the speculative ask
                    # *is* the real ask — no recomputation.
                    confirm = getattr(
                        search.optimizer, "confirm_speculation", None
                    )
                    if callable(confirm):
                        configs = confirm(n)
                if configs is None:
                    configs = (
                        [search.optimizer.ask()]
                        if n == 1
                        else search.optimizer.ask_batch(n)
                    )  # Step 1
                if clock is not None:
                    clock.advance(search.optimizer_overhead)
            if speculated is not None:
                pool.score_speculation(speculated, configs)
                speculated = None
            search._search_wall += search._stamp(clock) - t0
            results: list[MeasureResult | None] = [
                search._try_prune(c, evaluator, clock) for c in configs
            ]
            to_measure = [c for c, r in zip(configs, results) if r is None]
            # Fan this wave's builds out before anything blocks on them.
            for config in to_measure:
                pool.submit(config)
            pool.discard(c for c, r in zip(configs, results) if r is not None)
            # Compile-ahead: preview wave k+1 while wave k builds/measures.
            spec_job = None
            next_n = min(search.batch_size, remaining - len(configs))
            if can_speculate and next_n > 0:

                def _speculate(width=next_n, wave=tuple(configs)):
                    # The side thread must not reach the process-global
                    # telemetry bus (its sinks are not thread-safe).
                    with scoped_telemetry(NULL_TELEMETRY):
                        picks = search.optimizer.speculate(
                            width, will_tell=len(wave), exclude=wave
                        )
                    if picks:
                        for config in picks:
                            pool.submit(config, speculative=True)
                    return picks

                if spec_pool is not None:
                    spec_job = spec_pool.submit(_speculate)
                else:
                    t0 = time.perf_counter()
                    speculated = _speculate() or None
                    if clock is None:
                        search._search_wall += time.perf_counter() - t0
            if to_measure and pool.enabled:
                with tel.span("pipeline_wait"):
                    pool.wait(to_measure)
            t0 = search._stamp(clock)
            with tel.span("measure", clock=clock):
                measured = search.measure(to_measure)  # Steps 2-4
            search._measure_wall += search._stamp(clock) - t0
            if spec_job is not None:
                # Join before any tell: the optimizer is single-threaded and
                # the speculation must finish (and restore its snapshots)
                # before real state advances.
                speculated = spec_job.result() or None
            it = iter(measured)
            results = [r if r is not None else next(it) for r in results]
            # Step 5, strictly in ask order whatever finished first.
            for config, result in zip(configs, results):
                for done_config, done_result in queue.put(seq, (config, result)):
                    search._commit(done_config, done_result, tel)
                seq += 1
            remaining -= len(configs)
    finally:
        if spec_pool is not None:
            spec_pool.shutdown(wait=True)
        pool.close()
    stats = pool.stats()
    if tel.enabled:
        tel.emit(
            PipelineStats(
                jobs=pool.jobs,
                submitted=pool.submitted,
                completed=pool.completed,
                failures=pool.failures,
                speculative=pool.speculative,
                spec_hits=pool.spec_hits,
                spec_misses=pool.spec_misses,
                hit_rate=pool.hit_rate,
                busy_seconds=pool.busy_seconds,
                wait_seconds=pool.wait_seconds,
                occupancy_peak=pool.occupancy_peak,
                refits=getattr(search.optimizer, "n_refits", 0),
                refits_skipped=getattr(search.optimizer, "n_refits_skipped", 0),
            )
        )
    return search._finish(
        time.perf_counter() - t_start,
        compile_stall=stats["wait_seconds"],
        compile_jobs=stats["jobs"],
        spec_hit_rate=stats["hit_rate"],
        pool_busy_seconds=stats["busy_seconds"],
        pool_occupancy_peak=stats["occupancy_peak"],
        refits=float(getattr(search.optimizer, "n_refits", 0)),
        refits_skipped=float(getattr(search.optimizer, "n_refits_skipped", 0)),
    )
