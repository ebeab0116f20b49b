"""Tests for search resumption (checkpoint/restart via the performance DB).

A run resumes through ``AMBS(warm_start=prior)``: prior records count toward
the budget, so ``n`` more evaluations take ``max_evals=len(prior) + n``.
"""

import pytest

from repro.common.timing import VirtualClock
from repro.kernels import get_benchmark
from repro.swing import SwingEvaluator
from repro.ytopt import AMBS, TuningProblem


def _problem(seed=0):
    bench = get_benchmark("cholesky", "large")
    evaluator = SwingEvaluator(bench.profile, clock=VirtualClock())
    return TuningProblem(bench.config_space(seed=seed), evaluator, name="chol")


def _resume(prior, n, seed):
    """Resume ``prior`` for ``n`` more evaluations on a fresh problem."""
    return AMBS(
        _problem(seed=seed), max_evals=len(prior) + n, seed=seed, warm_start=prior
    ).run()


class TestResume:
    def test_resume_carries_records(self):
        first = AMBS(_problem(seed=0), max_evals=10, seed=0).run()
        resumed = _resume(first.database, 5, seed=1)
        assert resumed.n_evals == 15  # 10 old + 5 new

    def test_resume_never_remeasures(self):
        first = AMBS(_problem(seed=0), max_evals=12, seed=0).run()
        old = {tuple(sorted(r.config.items())) for r in first.database}
        resumed = _resume(first.database, 8, seed=2)
        new = [
            tuple(sorted(r.config.items()))
            for r in resumed.database.records()[len(first.database):]
        ]
        assert not (set(new) & old)

    def test_resume_best_never_regresses(self):
        first = AMBS(_problem(seed=0), max_evals=15, seed=0).run()
        resumed = _resume(first.database, 5, seed=3)
        assert resumed.best_runtime <= first.best_runtime

    def test_resume_via_csv_roundtrip(self, tmp_path):
        from repro.ytopt import PerformanceDatabase

        first = AMBS(_problem(seed=0), max_evals=8, seed=0).run()
        path = tmp_path / "ckpt.csv"
        first.database.to_csv(path)
        loaded = PerformanceDatabase.from_csv(path)
        resumed = _resume(loaded, 4, seed=4)
        assert resumed.n_evals == 12
