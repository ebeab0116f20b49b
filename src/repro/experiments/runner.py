"""Run the paper's tuning experiments: 5 tuners × (kernel, problem size).

Protocol (paper §5): 100 evaluations per tuner; compare (a) the best kernel
runtime each tuner finds and (b) the total autotuning process time. Each tuner
gets a fresh virtual clock and an independently seeded search. Measurement
semantics follow each system's defaults:

* ytopt evaluates each selected configuration **once** (number=1, sequential
  builds);
* AutoTVM tuners measure in batches of 8 with a parallel builder and
  ``number=3`` averaged runs per configuration (plus per-batch overhead);
* AutoTVM-XGB is capped at :data:`PAPER_XGB_TRIAL_CAP` (56) evaluations,
  reproducing the stall the paper reports.

The per-run machinery — evaluator construction, tuner dispatch, telemetry
bracketing — lives in :class:`repro.service.session.TuningSession`; this
module is the thin experiment driver over it. ``TunerRun`` and
``ALL_TUNERS`` are re-exported here for backward compatibility.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any

from repro.autotvm import PAPER_XGB_TRIAL_CAP
from repro.kernels.registry import KernelBenchmark, get_benchmark
from repro.service.jobs import JobSpec
from repro.service.session import (  # noqa: F401 - re-exported names
    ALL_TUNERS,
    TunerRun,
    TuningSession,
)
from repro.swing import SwingPerformanceModel


@dataclass
class ExperimentResult:
    """All tuner runs for one (kernel, problem size)."""

    kernel: str
    size_name: str
    max_evals: int
    runs: dict[str, TunerRun]

    def winner(self) -> TunerRun:
        """The run with the smallest best runtime (ties: fastest process time)."""
        return min(self.runs.values(), key=lambda r: (r.best_runtime, r.total_time))

    def fastest_process(self) -> TunerRun:
        return min(self.runs.values(), key=lambda r: r.total_time)


def run_tuner(
    benchmark: KernelBenchmark,
    tuner: str,
    max_evals: int = 100,
    seed: int = 0,
    model: SwingPerformanceModel | None = None,
    xgb_trial_cap: int | None = PAPER_XGB_TRIAL_CAP,
    **options: Any,
) -> TunerRun:
    """Run one tuner on one benchmark under the simulated Swing backend.

    ``options`` are the remaining :class:`~repro.service.jobs.JobSpec`
    fields, passed through by name (an unknown name raises ``TypeError``):

    * ``jobs`` > 1 measures in parallel waves: ytopt proposes constant-liar
      batches of ``jobs`` configurations, AutoTVM runs each 8-config batch on
      a ``jobs``-wide fleet; the virtual clock advances by the max of each
      wave, not the sum. ``timeout`` is the per-trial kernel budget (a
      timed-out configuration is recorded as failed and charged the budget).
    * ``repeats`` sets the full per-config repeat budget; ``probe_repeats``
      (when smaller) turns on multi-fidelity measurement — probe first,
      promote to the full budget only if the candidate looks competitive
      within ``promote_margin`` of the incumbent. ``prune`` (with
      ``prune_threshold``) enables ytopt's surrogate-guided pruning, and
      ``warm_start_db`` points at a run store whose matching prior trials
      pre-train the ytopt surrogate.
    * ``transfer_from`` points at a run store (file or service shard root)
      whose *cross-task* corpus fits a meta-surrogate that seeds ytopt's
      initial design and biases early acquisition by ``transfer_bias`` (see
      :mod:`repro.transfer`); the benchmark's own (kernel, size) is excluded
      from the fit. ``label`` overrides the identity the run is stored
      under, so A/B variants of one tuner coexist in a single store.
    * ``pipeline`` runs the search loop pipelined (:mod:`repro.pipeline`).
      Under Swing simulation no kernel is built, so the build pool never
      starts, but the default surrogate refit policy still differs between
      the modes: every observation serially, the geometric schedule when
      pipelined. The two trajectories are therefore identical only at
      ``refit_every=1``; at the default, lu/large with seed 0 and 60
      evaluations proposes a different configuration at 26 of 60 positions.
      ``refit_every`` selects the policy (None = the mode's default, 0 =
      geometric, 1 = every observation, k = every k observations).

    This is the single-run front door for in-process callers; it builds a
    one-shot :class:`~repro.service.session.TuningSession` reporting to the
    ambient telemetry. Long-running multi-session use goes through
    :class:`repro.service.server.TuningServer` instead.
    """
    spec = JobSpec(
        kernel=benchmark.kernel,
        size=benchmark.size_name,
        tuner=tuner,
        max_evals=max_evals,
        seed=seed,
        **options,
    )
    return TuningSession(
        spec, benchmark=benchmark, model=model, xgb_trial_cap=xgb_trial_cap
    ).run()


def run_experiment(
    kernel: str,
    size_name: str,
    tuners: Sequence[str] = ALL_TUNERS,
    max_evals: int = 100,
    seed: int = 0,
    xgb_trial_cap: int | None = PAPER_XGB_TRIAL_CAP,
    **options: Any,
) -> ExperimentResult:
    """Run all requested tuners on one (kernel, size) experiment.

    ``options`` are :class:`~repro.service.jobs.JobSpec` fields passed to
    every :func:`run_tuner` call. ``transfer_from`` applies to the ytopt
    tuner only (AutoTVM tuners have no surrogate initial design to seed); it
    is silently skipped for the rest.
    """
    benchmark = get_benchmark(kernel, size_name)
    transfer_from = options.pop("transfer_from", None)
    runs = {
        t: run_tuner(
            benchmark,
            t,
            max_evals=max_evals,
            seed=seed,
            xgb_trial_cap=xgb_trial_cap,
            transfer_from=transfer_from if t == "ytopt" else None,
            **options,
        )
        for t in tuners
    }
    return ExperimentResult(kernel=kernel, size_name=size_name, max_evals=max_evals, runs=runs)
