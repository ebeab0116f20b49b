"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload tune-native-cold --seed 0 \\
        --seconds 45 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` they are its per-layer metrics, taken from a second, traced
pass that repeats the work of an untraced first pass. The line before it
holds the host context and every detail of the run, and the same document
(plus the spans, when tracing) is written under ``.perfbench-out/``.

The exit code is 0 only when every output matched its reference.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 5
#: The benchmark is one client in one process: BLAS stays single-threaded so
#: the only extra threads are the tuner's own build pool.
SINGLE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {
    "setup_s": "s",
    "evals_per_s": "1/s",
    "eval_s_p50": "s",
    "eval_s_p90": "s",
    "kernel_s_geomean": "s",
    "best_runtime_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "tir.cc.calls": "count",
    "tir.cc.s": "s",
    "tir.cc.disk_hits": "count",
    "pipeline.wait.s": "s",
    "pipeline.spec_hit_rate": "ratio",
    "pipeline.pool_busy.s": "s",
    "te.builder.s": "s",
    "tir.lower.s": "s",
    "tir.simplify.s": "s",
    "tir.codegen_c.calls": "count",
    "tir.codegen_c.s": "s",
    "tir.codegen_c.bytes": "bytes",
    "runtime.build.calls": "count",
    "runtime.build.s": "s",
    "runtime.native_cache.hit_rate": "ratio",
    "runtime.kernel.calls": "count",
    "runtime.kernel.s": "s",
    "runtime.evaluate.self_s": "s",
    "ytopt.ask.calls": "count",
    "ytopt.ask.s": "s",
    "ytopt.tell.s": "s",
    "ytopt.surrogate.fit.calls": "count",
    "ytopt.surrogate.fit.s": "s",
    "swing.evaluate.s": "s",
    "swing.process_s": "s",
    "service.session.s": "s",
    "trace.overhead_frac": "ratio",
}


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


# -- host context -------------------------------------------------------------


def host_context() -> dict:
    from repro.tir.codegen_c import find_toolchain

    toolchain = find_toolchain()
    return {
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "cc": toolchain.path,
        "cc_version": toolchain.version,
        "python": sys.version.split()[0],
    }


# -- one pass -----------------------------------------------------------------


def timed_setup(workload, ctx):
    """One set-up: a fresh interpreter that imports the program and builds
    the workload's objects, then this process's own set-up. Returns
    (seconds, state)."""
    env = dict(os.environ, **SINGLE_THREAD_ENV)
    t0 = time.perf_counter()
    # No timeout: with one, the wait polls in 50 ms sleeps and the set-up
    # time would be rounded up to that grain.
    subprocess.run(
        [sys.executable, str(HERE / "ready.py"), workload.name, str(ctx.seed)],
        cwd=ROOT,
        env=env,
        check=True,
    )
    state = workload.setup(ctx)
    return time.perf_counter() - t0, state


def run_pass(workload, ctx, seconds: float, setups: int, units: int | None = None):
    """Set up ``setups`` times, then run timed units until ``seconds`` have
    passed (or exactly ``units`` units). The context's probe samples the
    host's speed before each set-up and unit and after the last unit.
    Returns (setup seconds, outcome)."""
    from workloads import Outcome

    probe = ctx.probe
    setup_times = []
    state = None
    for _ in range(setups):
        probe.sample()
        dt, state = timed_setup(workload, ctx)
        setup_times.append(dt)
    out = Outcome()
    unit_walls = []
    start = time.perf_counter()
    while True:
        probe.sample()
        t0 = time.perf_counter()
        state = workload.unit(ctx, state, out.units, out)
        unit_walls.append(time.perf_counter() - t0)
        out.units += 1
        if units is not None:
            if out.units >= units:
                break
        elif out.units >= workload.min_units and (
            time.perf_counter() - start + statistics.median(unit_walls) > seconds
        ):
            break
    probe.sample(force=True)
    workload.finish(ctx, state, out)
    return setup_times, out


# -- metrics ------------------------------------------------------------------


def geomean(values) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q))


def end_to_end(setup_times, out, scale: float) -> tuple[dict, dict]:
    """(scaled metrics, unscaled metrics). The evaluation rate and times are
    wall-clock seconds of the timed phase, so they are scaled by ``scale``
    (rates divided by it). Set-up runs before most of the probe's windows,
    and kernel runtimes are either modelled or not scaled on their
    workload, so the rest stay as they are."""
    raw = {
        "setup_s": statistics.median(setup_times),
        "evals_per_s": out.attempted / out.wall,
        "eval_s_p50": percentile(out.eval_s, 50),
        "eval_s_p90": percentile(out.eval_s, 90),
        "kernel_s_geomean": geomean(out.runtimes),
        "best_runtime_s": statistics.median(out.bests),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    factors = {"evals_per_s": 1.0 / scale, "eval_s_p50": scale, "eval_s_p90": scale}
    return {name: value * factors.get(name, 1.0) for name, value in raw.items()}, raw


def per_layer(tracer, traced) -> dict:
    totals = tracer.totals()

    def get(name: str, key: str) -> float:
        return float(totals.get(name, {}).get(key, 0.0))

    hits = traced.layers.get("native_cache.hits", 0.0)
    lookups = hits + traced.layers.get("native_cache.misses", 0.0)
    session_s = get("service.session", "s")
    return {
        "tir.cc.calls": get("tir.cc", "calls"),
        "tir.cc.s": get("tir.cc", "s"),
        "tir.cc.disk_hits": get("tir.cc.disk_hit", "calls"),
        "pipeline.wait.s": get("pipeline.wait", "s"),
        "pipeline.spec_hit_rate": traced.layers.get("pipeline.spec_hit_rate", 0.0),
        "pipeline.pool_busy.s": traced.layers.get("pipeline.pool_busy.s", 0.0),
        "te.builder.s": get("te.builder", "s"),
        "tir.lower.s": get("tir.lower", "s"),
        "tir.simplify.s": get("tir.simplify", "s"),
        "tir.codegen_c.calls": get("tir.codegen_c", "calls"),
        "tir.codegen_c.s": get("tir.codegen_c", "s"),
        "tir.codegen_c.bytes": float(tracer.counters.get("tir.codegen_c.bytes", 0.0)),
        "runtime.build.calls": get("runtime.build", "calls"),
        "runtime.build.s": get("runtime.build", "s"),
        "runtime.native_cache.hit_rate": hits / lookups if lookups else 0.0,
        "runtime.kernel.calls": get("runtime.kernel", "calls"),
        "runtime.kernel.s": get("runtime.kernel", "s"),
        "runtime.evaluate.self_s": get("runtime.evaluate", "self_s"),
        "ytopt.ask.calls": get("ytopt.ask", "calls"),
        "ytopt.ask.s": get("ytopt.ask", "s"),
        "ytopt.tell.s": get("ytopt.tell", "s"),
        "ytopt.surrogate.fit.calls": get("ytopt.surrogate.fit", "calls"),
        "ytopt.surrogate.fit.s": get("ytopt.surrogate.fit", "s"),
        "swing.evaluate.s": get("swing.evaluate", "s"),
        "swing.process_s": traced.layers.get("swing.process_s", 0.0),
        "service.session.s": session_s - get("ytopt.ambs.run", "s") if session_s else 0.0,
    }


def describe(out) -> dict:
    return {
        "units": out.units,
        "timed_s": out.wall,
        "attempted": out.attempted,
        "failed": out.failed,
        "evals_timed": out.evals_timed,
        "eval_windows": len(out.eval_s),
        "kernel_samples": len(out.runtimes),
        "bests": out.bests,
        "layers": out.layers,
        "problems": out.problems[:20],
    }


# -- entry point --------------------------------------------------------------


def main(argv=None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    os.environ.update(SINGLE_THREAD_ENV)
    sys.path.insert(0, str(SRC))
    args = parse_args(argv)

    import oracle
    from hostspeed import HostProbe
    from spans import Tracer, instrument
    from workloads import WORKLOADS, Context

    workload = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT_DIR)
    stem = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    try:
        context = host_context()
        problems = []
        failure = oracle.self_check()
        if failure is not None:
            problems.append(f"oracle self-check: {failure}")
        if args.trace:
            probes = [HostProbe(), HostProbe()]
            _, untraced = run_pass(
                workload, Context(args.seed, workdir, probes[0]), args.seconds, setups=1
            )
            tracer = Tracer()
            with instrument(tracer):
                _, traced = run_pass(
                    workload,
                    Context(args.seed, workdir, probes[1], tracer),
                    args.seconds,
                    setups=1,
                    units=untraced.units,
                )
            passes = [untraced, traced]
            setup_times = []
            metrics = per_layer(tracer, traced)
            # Where the workload is scaled, both passes' walls are taken in
            # reference seconds, so a host phase change between them does not
            # read as tracing overhead.
            scales = [p.scale() if workload.scaled else 1.0 for p in probes]
            metrics["trace.overhead_frac"] = (
                traced.wall * scales[1] / (untraced.wall * scales[0]) - 1.0
            )
            raw = {}
            units = PER_LAYER_UNITS
            tracer.dump(f"{stem}.spans.json")
        else:
            probes = [HostProbe()]
            setup_times, out = run_pass(
                workload, Context(args.seed, workdir, probes[0]), args.seconds, setups=SETUP_REPEATS
            )
            passes = [out]
            scale = probes[0].scale() if workload.scaled else 1.0
            metrics, raw = end_to_end(setup_times, out, scale)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        os.environ.pop("REPRO_NATIVE_DIR", None)

    for out in passes:
        problems.extend(out.problems)
    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": context,
        "host.calib_s": [probe.seconds() for probe in probes],
        "host.calib_windows_s": [probe.windows for probe in probes],
        "setup_reps_s": setup_times,
        "passes": [describe(out) for out in passes],
        "all_metrics": metrics,
        "unscaled_metrics": raw,
    }
    result = {
        "correct": not problems,
        "attempted": sum(out.attempted for out in passes),
        "failed": sum(out.failed for out in passes) + (failure is not None),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    with open(f"{stem}.json", "w") as fh:
        json.dump({"detail": detail, "result": result}, fh, indent=1)
        fh.write("\n")
    for problem in problems[:20]:
        print(f"perfbench: MISMATCH {problem}", file=sys.stderr)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
