"""Tests for the shared measurement abstractions and LocalEvaluator."""

import numpy as np
import pytest

from repro.common.errors import ReproError
from repro.kernels.extra import gemm_tuned
from repro.runtime.measure import FAILED_COST, LocalEvaluator, MeasureResult


def _builder(params):
    return gemm_tuned(8, 8, 8, params)


class TestMeasureResult:
    def test_ok_mean(self):
        r = MeasureResult({}, costs=(1.0, 3.0), compile_time=0.1, timestamp=1.0)
        assert r.ok
        assert r.mean_cost == 2.0
        assert r.min_cost == 1.0

    def test_error_gives_failed_cost(self):
        r = MeasureResult({}, costs=(), compile_time=0.1, timestamp=1.0, error="boom")
        assert not r.ok
        assert r.mean_cost == FAILED_COST


class TestLocalEvaluator:
    def test_successful_evaluation(self):
        ev = LocalEvaluator(_builder, seed=0)
        res = ev.evaluate({"P0": 4, "P1": 4})
        assert res.ok
        assert res.mean_cost > 0
        assert res.compile_time > 0
        assert res.timestamp > 0

    def test_costs_length_matches_repeat(self):
        ev = LocalEvaluator(_builder, repeat=3, seed=0)
        res = ev.evaluate({"P0": 2, "P1": 2})
        assert len(res.costs) == 3

    def test_compile_error_captured(self):
        def bad_builder(params):
            raise ReproError("bad tile")

        ev = LocalEvaluator(bad_builder)
        res = ev.evaluate({"P0": 1})
        assert not res.ok
        assert "compile error" in res.error

    def test_validate_hook(self):
        ev = LocalEvaluator(_builder, validate=lambda bufs: "validation failed")
        res = ev.evaluate({"P0": 2, "P1": 2})
        assert res.error == "validation failed"

    def test_elapsed_monotone(self):
        ev = LocalEvaluator(_builder)
        a = ev.elapsed()
        ev.evaluate({"P0": 2, "P1": 2})
        assert ev.elapsed() > a

    def test_invalid_counts_rejected(self):
        with pytest.raises(ReproError):
            LocalEvaluator(_builder, number=0)

    def test_config_coerced_to_int(self):
        ev = LocalEvaluator(_builder, seed=0)
        res = ev.evaluate({"P0": np.int64(4), "P1": np.int64(2)})
        assert res.ok
        assert isinstance(res.config["P0"], int)

    def test_backend_pin_recorded_in_result(self):
        ev = LocalEvaluator(_builder, seed=0, backend="interp")
        res = ev.evaluate({"P0": 2, "P1": 2})
        assert res.ok
        assert res.backend == "interp"

    def test_default_backend_is_tensor_tier(self):
        res = LocalEvaluator(_builder, seed=0).evaluate({"P0": 2, "P1": 2})
        assert res.backend == "tensor"

    def test_native_pin_measures_native_when_toolchain_exists(self):
        from repro.tir.codegen_c import NativeToolchainError, find_toolchain

        try:
            find_toolchain()
        except NativeToolchainError:
            pytest.skip("no C toolchain")
        res = LocalEvaluator(_builder, seed=0, backend="native").evaluate(
            {"P0": 2, "P1": 2}
        )
        assert res.ok
        assert res.backend == "native"


class TestPrecompileHandoff:
    """A module precompile built is reused by the next evaluate of it."""

    @staticmethod
    def _count_emits(monkeypatch):
        import importlib

        codegen = importlib.import_module("repro.tir.codegen_c")
        calls = []
        emit = codegen.codegen_c

        def counted(*args, **kwargs):
            calls.append(1)
            return emit(*args, **kwargs)

        monkeypatch.setattr(codegen, "codegen_c", counted)
        return calls

    def test_evaluate_after_precompile_emits_no_c(self, monkeypatch):
        from repro.tir.codegen_c import NativeToolchainError, find_toolchain

        try:
            find_toolchain()
        except NativeToolchainError:
            pytest.skip("no C toolchain")
        calls = self._count_emits(monkeypatch)
        ev = LocalEvaluator(_builder, seed=0, backend="native")
        config = {"P0": 4, "P1": 2}
        assert ev.precompile(config)
        emitted = len(calls)
        res = ev.evaluate(config)
        assert res.ok and res.backend == "native"
        assert len(calls) == emitted  # no lowering or C emission again
        assert ev._precompiled == {}  # the handoff is consumed
        ev.evaluate(config)  # without a handoff the build runs again
        assert len(calls) > emitted

    def test_failed_precompile_gives_the_same_compile_error(self):
        def flaky_builder(params):
            if params["P0"] == 3:
                raise ReproError("bad tile")
            return _builder(params)

        ev = LocalEvaluator(flaky_builder, seed=0)
        assert not ev.precompile({"P0": 3, "P1": 2})
        res = ev.evaluate({"P0": 3, "P1": 2})
        plain = LocalEvaluator(flaky_builder, seed=0).evaluate({"P0": 3, "P1": 2})
        assert res.error == plain.error == "compile error: bad tile"

    def test_handoff_matches_a_plain_evaluate(self):
        ev = LocalEvaluator(_builder, seed=0, validate=lambda bufs: None)
        ev.precompile({"P1": 2, "P0": 4})  # key order does not matter
        res = ev.evaluate({"P0": 4, "P1": 2})
        plain = LocalEvaluator(_builder, seed=0).evaluate({"P0": 4, "P1": 2})
        assert res.ok and plain.ok
        assert (res.config, res.backend) == (plain.config, plain.backend)

    def test_handoff_is_bounded(self):
        ev = LocalEvaluator(_builder, seed=0)
        ev.PRECOMPILED_CAP = 2
        for p0 in (1, 2, 4, 8):
            assert ev.precompile({"P0": p0, "P1": 2})
        assert len(ev._precompiled) == 2

    def test_discard_drops_the_module(self):
        ev = LocalEvaluator(_builder, seed=0)
        ev.precompile({"P0": 2, "P1": 2})
        ev.discard_precompiled({"P0": 2, "P1": 2})
        assert ev._precompiled == {}
        assert ev.evaluate({"P0": 2, "P1": 2}).ok
