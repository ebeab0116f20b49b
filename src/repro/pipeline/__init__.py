"""Pipelined tuning: overlap ask, native builds, and measurement.

A serial AMBS wave pays three costs end to end: the surrogate ask (refit +
acquisition), the kernel build (a subprocess C compile on the native tier),
and the measurement itself. ``AMBS(pipeline=PipelineConfig(...))`` runs the
same loop, :meth:`repro.ytopt.AMBS.run`, with these overlaps:

* :class:`BuildPool` — a bounded thread pool of ahead-of-time kernel builds
  (``evaluator.precompile``), so a wave's compiles run ``compile_jobs`` wide
  instead of serially, and compile-ahead speculation pre-builds wave *k+1*
  while wave *k* is still measuring. A serial run holds a disabled pool.
* :meth:`repro.ytopt.Optimizer.speculate` — a side-effect-free preview of
  the next ask used to pick those speculative builds; misses are discarded
  without a ``tell``.

Observations still commit in ask order, so at ``refit_every=1`` a pipelined
trajectory is byte-identical to the serial one.
"""

from repro.pipeline.build_pool import BuildPool, config_key
from repro.pipeline.config import PipelineConfig, default_compile_jobs

__all__ = [
    "BuildPool",
    "PipelineConfig",
    "config_key",
    "default_compile_jobs",
]
