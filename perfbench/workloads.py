"""The benchmark's two workloads.

Each workload is one tuning client in one process (a closed loop: the next
trial starts when the previous one is told). A workload has three steps:

* ``ready(seed)`` builds the objects a run needs before its first trial.
  Set-up times it in a fresh interpreter, so imports are part of set-up.
* ``setup(ctx)`` does the same in this process, plus the workload's own
  set-up work (a fresh artifact store), and returns the run state.
* ``unit(ctx, state, index, out)`` runs one timed unit (a tuning session)
  and adds what it measured to ``out``.

``finish(ctx, state, out)`` runs after the last unit. Correctness checks
run with tracing paused and outside the timed seconds.
"""

from __future__ import annotations

import contextlib
import math
import os
import tempfile
import time
from dataclasses import dataclass, field

import oracle

#: Evaluations per tuning session (the paper's budget).
TUNE_EVALS = 100
#: Evaluation times are averaged over this many consecutive evaluations of a
#: unit before their percentiles are taken. The pipelined engine completes
#: evaluations in waves, so one gap alone is either a wait on ``cc`` or the
#: next result of the same wave, and its median jumps between the two.
EVAL_WINDOW = 4


def unit_seed(seed: int, index: int) -> int:
    """Seed of the ``index``-th session of a run (the first is ``seed``)."""
    return seed + 1_000_003 * index


@dataclass
class Outcome:
    """What the timed units of one pass measured."""

    units: int = 0
    wall: float = 0.0  # seconds inside timed regions
    attempted: int = 0
    failed: int = 0
    eval_s: list = field(default_factory=list)  # windowed seconds per evaluation
    evals_timed: int = 0  # evaluations behind ``eval_s``
    runtimes: list = field(default_factory=list)  # kernel seconds, geomean input
    bests: list = field(default_factory=list)  # best kernel seconds per unit
    problems: list = field(default_factory=list)  # oracle findings
    layers: dict = field(default_factory=dict)  # per-layer values not from spans

    def add_evals(self, times) -> None:
        """Add one unit's wall seconds per evaluation, as the means of every
        ``EVAL_WINDOW`` consecutive evaluations."""
        times = list(times)
        w = min(EVAL_WINDOW, len(times))
        self.eval_s.extend(sum(times[i : i + w]) / w for i in range(len(times) - w + 1))
        self.evals_timed += len(times)

    def add_layer(self, name: str, value: float) -> None:
        self.layers[name] = self.layers.get(name, 0.0) + value


class Context:
    """Per-pass settings: the seed, a scratch directory, the host-speed
    probe and the tracer."""

    def __init__(self, seed: int, workdir: str, probe, tracer=None) -> None:
        self.seed = seed
        self.workdir = workdir
        self.probe = probe
        self.tracer = tracer

    def fresh_native_dir(self) -> None:
        """Point the native tier at a new, empty artifact directory and drop
        every in-process native cache, so nothing earlier warms what follows."""
        from repro.tir.codegen_c import reset_native_runtime

        path = tempfile.mkdtemp(prefix="native-", dir=self.workdir)
        os.environ["REPRO_NATIVE_DIR"] = path
        reset_native_runtime()

    def builder(self, fn):
        """The schedule builder, recorded as ``te.builder`` when tracing."""
        return self.tracer.wrap(fn, "te.builder") if self.tracer else fn

    def untraced(self):
        return self.tracer.paused() if self.tracer else contextlib.nullcontext()


def _cache_counts() -> tuple[int, int]:
    from repro.tir.codegen_c import native_cache

    snap = native_cache().stats_snapshot()
    return snap["hits"], snap["misses"]


class TuneNativeCold:
    """ytopt (pipelined AMBS) tunes 3mm/small through the native tier,
    starting every session from an empty artifact store."""

    name = "tune-native-cold"
    min_units = 3
    #: Build threads run all through a session, so the probe cannot sample
    #: inside one without sharing the cores with them. Samples taken only
    #: between sessions missed the host's phases inside them and widened the
    #: ten-seed spread about twofold, so this workload reports wall seconds
    #: as measured.
    scaled = False

    def ready(self, seed: int, builder=None):
        from repro.kernels.registry import get_benchmark
        from repro.runtime.measure import LocalEvaluator
        from repro.tir.codegen_c import find_toolchain
        from repro.ytopt.problem import TuningProblem
        from repro.ytopt.search import AMBS

        find_toolchain()
        bench = get_benchmark("3mm", "small")
        evaluator = LocalEvaluator(
            builder(bench.schedule_builder) if builder else bench.schedule_builder,
            backend="native",
            seed=seed,
        )
        problem = TuningProblem(bench.config_space(seed=seed), evaluator, name=bench.name)
        return bench, AMBS(problem, max_evals=TUNE_EVALS, seed=seed, pipeline=True)

    def setup(self, ctx: Context, index: int = 0):
        ctx.fresh_native_dir()
        return self.ready(unit_seed(ctx.seed, index), ctx.builder)

    def unit(self, ctx: Context, state, index: int, out: Outcome):
        if index > 0:
            state = self.setup(ctx, index)
        bench, search = state
        evaluator = search.problem.evaluator
        offset = evaluator.elapsed()
        t0 = time.perf_counter()
        result = search.run()
        out.wall += time.perf_counter() - t0
        records = result.database.records()
        stamps = [offset] + [r.elapsed for r in records]
        out.add_evals(b - a for a, b in zip(stamps, stamps[1:]))
        out.attempted += len(records)
        out.failed += sum(1 for r in records if not r.ok)
        ok = [r.runtime for r in records if r.ok]
        out.runtimes.extend(ok)
        if ok:
            out.bests.append(min(ok))
        overhead = result.overhead or {}
        out.add_layer("pipeline.spec_hit_rate.sum", overhead.get("spec_hit_rate", 0.0))
        out.add_layer("pipeline.pool_busy.s", overhead.get("pool_busy_seconds", 0.0))
        hits, misses = _cache_counts()
        out.add_layer("native_cache.hits", hits)
        out.add_layer("native_cache.misses", misses)
        configs = {tuple(sorted(r.config.items())): r.config for r in records}
        with ctx.untraced():
            problems = oracle.check_threemm(
                bench, list(configs.values()), unit_seed(ctx.seed, index)
            )
        out.problems.extend(problems)
        out.failed += len(problems)
        return state

    def finish(self, ctx: Context, state, out: Outcome) -> None:
        out.layers["pipeline.spec_hit_rate"] = (
            out.layers.pop("pipeline.spec_hit_rate.sum", 0.0) / max(1, out.units)
        )


@contextlib.contextmanager
def stamp_returns(owner, attr: str, times: list, probe):
    """Append the time at which each call of ``owner.attr`` returns, and let
    ``probe`` sample the host after the call. The clock of the stamps stops
    while the probe runs; the ``with`` target is a one-item list holding the
    seconds it was stopped."""
    original = getattr(owner, attr)
    stopped = [0.0]

    def stamped(*args, **kwargs):
        try:
            return original(*args, **kwargs)
        finally:
            now = time.perf_counter()
            times.append(now - stopped[0])
            probe.sample()
            stopped[0] += time.perf_counter() - now

    setattr(owner, attr, stamped)
    try:
        yield stopped
    finally:
        setattr(owner, attr, original)


class TuneSwingPaper:
    """The paper protocol: ``run_tuner(lu/large, "ytopt", 100 evals, seed)``,
    the serial loop measured by the Swing performance model."""

    name = "tune-swing-paper"
    min_units = 3
    #: The probe samples between evaluations, about once a second.
    scaled = True

    def ready(self, seed: int, builder=None):
        import repro.experiments.runner  # noqa: F401 - the entry point's imports
        from repro.kernels.registry import get_benchmark

        return get_benchmark("lu", "large")

    def setup(self, ctx: Context):
        return self.ready(ctx.seed)

    def unit(self, ctx: Context, bench, index: int, out: Outcome):
        from repro.experiments.runner import run_tuner
        from repro.kernels.registry import PAPER_BEST_RUNTIMES
        from repro.runtime.measure import FAILED_COST
        from repro.swing.evaluator import SwingEvaluator

        # A session is several seconds of serial work, so the host probe
        # samples between its evaluations, off the clock.
        stamps: list[float] = []
        with stamp_returns(SwingEvaluator, "evaluate", stamps, ctx.probe) as stopped:
            t0 = time.perf_counter()
            run = run_tuner(bench, "ytopt", max_evals=TUNE_EVALS, seed=unit_seed(ctx.seed, index))
            out.wall += time.perf_counter() - t0 - stopped[0]
        marks = [t0] + stamps
        out.add_evals(b - a for a, b in zip(marks, marks[1:]))
        runtimes = [rt for _, rt in run.trajectory]
        failed = sum(1 for rt in runtimes if rt >= FAILED_COST)
        out.attempted += run.n_evals
        out.failed += failed
        # The modelled numbers come from the sessions every run makes, so
        # they repeat exactly for a given seed however many sessions ran;
        # the paper's best and process time are the first session's.
        if index < self.min_units:
            out.runtimes.extend(rt for rt in runtimes if rt < FAILED_COST)
        if index == 0:
            out.bests.append(run.best_runtime)
            out.layers["swing.process_s"] = run.total_time
        paper = PAPER_BEST_RUNTIMES[("lu", "large")]
        if run.n_evals != TUNE_EVALS or len(runtimes) != TUNE_EVALS:
            out.problems.append(f"session {index}: {run.n_evals} evaluations, not {TUNE_EVALS}")
        if not math.isclose(run.best_runtime, min(runtimes)):
            out.problems.append(f"session {index}: best {run.best_runtime} is not the trajectory minimum")
        if abs(run.best_runtime / paper - 1.0) > 0.10:
            out.problems.append(
                f"session {index}: best {run.best_runtime:.4f}s is not within 10% of "
                f"the paper's {paper}s"
            )
        return bench

    def finish(self, ctx: Context, state, out: Outcome) -> None:
        out.failed += len(out.problems)


WORKLOADS = {w.name: w for w in (TuneNativeCold(), TuneSwingPaper())}
