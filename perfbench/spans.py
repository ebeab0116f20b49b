"""In-memory span tracing around the program's public entry points.

A :class:`Tracer` records one span per call of every wrapped entry point:
name, start, end, the id of the enclosing span on the same thread (its
parent) and the thread. Spans stay in memory until :meth:`Tracer.dump`
writes them out at the end of the run. Self time is a span's duration minus
the part of its interval that its child spans cover.

:func:`instrument` installs the wrappers by rebinding module and class
attributes from outside the package (nothing under ``src/`` is edited) and
restores the originals when its ``with`` block exits.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import threading
import time
from collections import defaultdict


class Tracer:
    """Collects spans from every thread; parents come from a per-thread stack."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 1
        self.enabled = True
        #: Counts recorded at the same boundaries as the spans.
        self.counters: dict[str, float] = defaultdict(float)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, value: float = 1.0) -> None:
        if self.enabled:
            with self._lock:
                self.counters[name] += value

    @contextlib.contextmanager
    def paused(self):
        """Record nothing for the ``with`` body (checks that are not part of
        the measured work)."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    @contextlib.contextmanager
    def span(self, name: str):
        """Record the ``with`` body as one span called ``name``."""
        if not self.enabled:
            yield
            return
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        stack = self._stack()
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(
                    (span_id, name, start, end, parent, threading.get_ident())
                )

    def wrap(self, fn, name: str):
        """``fn`` with every call recorded as a span called ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    # -- analysis -------------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the union of its children's intervals."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for _, _, start, end, parent, _ in self.spans:
            if parent:
                children[parent].append((start, end))
        out = {}
        for span_id, _, start, end, _, _ in self.spans:
            covered = 0.0
            cursor = start
            for c_start, c_end in sorted(children.get(span_id, ())):
                c_start, c_end = max(c_start, cursor), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    cursor = c_end
            out[span_id] = (end - start) - covered
        return out

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total seconds and total self seconds."""
        self_s = self.self_times()
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0}
        )
        for span_id, name, start, end, _, _ in self.spans:
            row = out[name]
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += self_s[span_id]
        return dict(out)

    def dump(self, path: str) -> None:
        """Write every span as one JSON document (start/end relative to the
        first span)."""
        t0 = min((s[2] for s in self.spans), default=0.0)
        rows = [
            {
                "id": span_id,
                "name": name,
                "start": start - t0,
                "end": end - t0,
                "parent": parent,
                "thread": thread,
            }
            for span_id, name, start, end, parent, thread in self.spans
        ]
        with open(path, "w") as fh:
            json.dump(
                {"spans": rows, "totals": self.totals(), "counters": self.counters},
                fh,
            )
            fh.write("\n")


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap the program's layer entry points in spans for the ``with`` body."""
    import repro.pipeline.build_pool as build_pool
    import repro.runtime.measure as measure
    import repro.runtime.module as module
    import repro.service.session as session
    import repro.swing.evaluator as swing_evaluator
    import repro.ytopt.optimizer as optimizer
    import repro.ytopt.search as search
    import repro.ytopt.surrogate as surrogate

    # ``repro.tir`` re-exports a function named ``codegen_c`` over the
    # submodule's attribute, so fetch the module itself.
    codegen_c = importlib.import_module("repro.tir.codegen_c")

    saved = []

    def patch(owner, attr, replacement):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def simple(owner, attr, name):
        patch(owner, attr, tracer.wrap(getattr(owner, attr), name))

    compile_source = codegen_c.compile_source

    @functools.wraps(compile_source)
    def traced_compile_source(source, toolchain):
        # A call that finds its content-addressed .so already on disk is a
        # disk hit; every other call runs the C compiler.
        artifact = os.path.join(
            os.environ.get("REPRO_NATIVE_DIR", ""),
            f"{codegen_c.native_key(source, toolchain)}.so",
        )
        hit = os.path.exists(artifact)
        with tracer.span("tir.cc.disk_hit" if hit else "tir.cc"):
            return compile_source(source, toolchain)

    emit_c = codegen_c.codegen_c

    @functools.wraps(emit_c)
    def traced_codegen_c(func, *args, **kwargs):
        with tracer.span("tir.codegen_c"):
            text = emit_c(func, *args, **kwargs)
        tracer.count("tir.codegen_c.bytes", len(text.encode("utf-8")))
        return text

    patch(codegen_c, "compile_source", traced_compile_source)
    patch(codegen_c, "codegen_c", traced_codegen_c)
    traced_build = tracer.wrap(module.build, "runtime.build")
    patch(module, "build", traced_build)
    patch(measure, "build", traced_build)
    simple(module, "lower", "tir.lower")
    simple(module, "simplify_func", "tir.simplify")
    simple(module, "build_callable_native", "runtime.native_build")
    simple(module.Module, "__call__", "runtime.kernel")
    simple(measure.LocalEvaluator, "evaluate", "runtime.evaluate")
    simple(measure.LocalEvaluator, "precompile", "runtime.precompile")
    simple(build_pool.BuildPool, "wait", "pipeline.wait")
    simple(optimizer.Optimizer, "ask", "ytopt.ask")
    simple(optimizer.Optimizer, "tell", "ytopt.tell")
    simple(surrogate.RandomForestSurrogate, "fit", "ytopt.surrogate.fit")
    simple(swing_evaluator.SwingEvaluator, "evaluate", "swing.evaluate")
    simple(search.AMBS, "run", "ytopt.ambs.run")
    simple(session.TuningSession, "run", "service.session")
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
