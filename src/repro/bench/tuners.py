"""Built-in tuner adapters: the paper's five plus the GP and TPE families.

Each :class:`~repro.bench.protocols.TunerSpec` factory binds a search
strategy to a :class:`~repro.bench.protocols.TunerContext` and returns a
bound tuner whose single ``run()`` yields a neutral
:class:`~repro.bench.protocols.TuneOutcome`. Construction mirrors what
:class:`repro.service.session.TuningSession` has always done argument-for-
argument, so routing the paper tuners through the registry leaves their
seeded trajectories byte-identical.
"""

from __future__ import annotations

from repro.autotvm import (
    GATuner,
    GridSearchTuner,
    Measurer,
    RandomTuner,
    XGBTuner,
    measure_option,
    task_from_benchmark,
)
from repro.bench.protocols import TuneOutcome, TunerContext, TunerSpec
from repro.bench.registry import register_tuner
from repro.core.framework import AutotuneConfig, BayesianAutotuner
from repro.ytopt.surrogate import GaussianProcessSurrogate
from repro.ytopt.tpe import TPEOptimizer

#: Paper legend order first, then the two new surrogate families.
BUILTIN_ORDER = (
    "ytopt",
    "AutoTVM-Random",
    "AutoTVM-GridSearch",
    "AutoTVM-GA",
    "AutoTVM-XGB",
    "ytopt-gp",
    "ytopt-tpe",
)

_AUTOTVM_CLASSES = {
    "AutoTVM-Random": RandomTuner,
    "AutoTVM-GridSearch": GridSearchTuner,
    "AutoTVM-GA": GATuner,
    "AutoTVM-XGB": XGBTuner,
}


class BoundBO:
    """A BayesianAutotuner-driven tuner bound to one benchmark."""

    def __init__(self, autotuner: BayesianAutotuner) -> None:
        self.autotuner = autotuner
        self.optimizer = autotuner.optimizer
        self.autotvm_tuner = None
        self.measurer = None

    def run(self) -> TuneOutcome:
        result = self.autotuner.run()
        return TuneOutcome(
            best_config=result.best_config,
            best_runtime=result.best_runtime,
            n_evals=result.n_evals,
            total_time=result.total_elapsed,
            trajectory=result.database.trajectory(),
            overhead=result.overhead,
        )


class BoundAutoTVM:
    """An AutoTVM tuner + batch measurer bound to one benchmark."""

    def __init__(self, tuner, measurer: Measurer, max_evals: int) -> None:
        self.autotuner = None
        self.optimizer = None
        self.autotvm_tuner = tuner
        self.measurer = measurer
        self.max_evals = max_evals

    def run(self) -> TuneOutcome:
        records = self.autotvm_tuner.tune(
            n_trial=self.max_evals, measurer=self.measurer
        )
        best_config, best_runtime = self.autotvm_tuner.best()
        return TuneOutcome(
            best_config={k: int(v) for k, v in best_config.items()},
            best_runtime=best_runtime,
            n_evals=len(records),
            total_time=records[-1].timestamp if records else 0.0,
            trajectory=[
                (r.timestamp, r.mean_cost if r.ok else float("inf"))
                for r in records
            ],
        )


def _bo_config(ctx: TunerContext) -> AutotuneConfig:
    spec = ctx.spec
    return AutotuneConfig(
        max_evals=spec.max_evals,
        seed=spec.seed,
        batch_size=spec.jobs,
        jobs=spec.jobs,
        prune=spec.prune,
        prune_threshold=spec.prune_threshold,
        pipeline=spec.pipeline,
        refit_every=spec.refit_every,
    )


def _make_ytopt(ctx: TunerContext) -> BoundBO:
    return BoundBO(
        BayesianAutotuner(
            ctx.benchmark.config_space(seed=ctx.spec.seed),
            ctx.evaluator,
            config=_bo_config(ctx),
            name=ctx.benchmark.name,
            warm_start=ctx.warm_start,
            transfer_seed=ctx.transfer_seed,
            transfer_bias=ctx.spec.transfer_bias,
        )
    )


def _make_ytopt_gp(ctx: TunerContext) -> BoundBO:
    return BoundBO(
        BayesianAutotuner(
            ctx.benchmark.config_space(seed=ctx.spec.seed),
            ctx.evaluator,
            config=_bo_config(ctx),
            surrogate=GaussianProcessSurrogate(seed=ctx.spec.seed),
            name=ctx.benchmark.name,
            warm_start=ctx.warm_start,
        )
    )


def _make_ytopt_tpe(ctx: TunerContext) -> BoundBO:
    space = ctx.benchmark.config_space(seed=ctx.spec.seed)
    cfg = _bo_config(ctx)
    return BoundBO(
        BayesianAutotuner(
            space,
            ctx.evaluator,
            config=cfg,
            name=ctx.benchmark.name,
            warm_start=ctx.warm_start,
            optimizer=TPEOptimizer(
                space, n_initial_points=cfg.n_initial_points, seed=cfg.seed
            ),
        )
    )


def _make_autotvm(name: str):
    cls = _AUTOTVM_CLASSES[name]

    def factory(ctx: TunerContext) -> BoundAutoTVM:
        spec = ctx.spec
        task = task_from_benchmark(ctx.benchmark, ctx.evaluator)
        if cls is XGBTuner:
            tuner = XGBTuner(task, trial_cap=ctx.xgb_trial_cap, seed=spec.seed)
        else:
            tuner = cls(task, seed=spec.seed)
        measurer = Measurer(
            ctx.evaluator, measure_option(jobs=spec.jobs, repeat=spec.repeats)
        )
        return BoundAutoTVM(tuner, measurer, spec.max_evals)

    return factory


_DESCRIPTIONS = {
    "ytopt": "Bayesian optimization, RF surrogate + LCB (the paper's tuner)",
    "AutoTVM-Random": "uniform random search over the tiling space",
    "AutoTVM-GridSearch": "exhaustive sweep in declaration order",
    "AutoTVM-GA": "genetic algorithm over candidate-index genomes",
    "AutoTVM-XGB": "boosted-tree cost model with batch selection",
    "ytopt-gp": "Bayesian optimization, Gaussian-process surrogate + LCB",
    "ytopt-tpe": "tree-structured Parzen estimator (density-ratio search)",
}


def register_builtin_tuners() -> None:
    register_tuner(
        TunerSpec(
            name="ytopt",
            family="bo",
            description=_DESCRIPTIONS["ytopt"],
            factory=_make_ytopt,
            supports_transfer=True,
        ),
        replace=True,
    )
    for name in _AUTOTVM_CLASSES:
        register_tuner(
            TunerSpec(
                name=name,
                family="autotvm",
                description=_DESCRIPTIONS[name],
                factory=_make_autotvm(name),
            ),
            replace=True,
        )
    register_tuner(
        TunerSpec(
            name="ytopt-gp",
            family="bo",
            description=_DESCRIPTIONS["ytopt-gp"],
            factory=_make_ytopt_gp,
        ),
        replace=True,
    )
    register_tuner(
        TunerSpec(
            name="ytopt-tpe",
            family="bo",
            description=_DESCRIPTIONS["ytopt-tpe"],
            factory=_make_ytopt_tpe,
        ),
        replace=True,
    )
