"""Knobs of a pipelined tuning run (see :mod:`repro.pipeline`)."""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.common.errors import TuningError


def default_compile_jobs() -> int:
    """Build-pool width for this machine (cores, capped at 8)."""
    return max(1, min(os.cpu_count() or 1, 8))


@dataclass(frozen=True)
class PipelineConfig:
    """Configuration of a pipelined :meth:`repro.ytopt.AMBS.run`.

    ``dense_until`` and ``growth`` shape the geometric surrogate refit
    schedule a pipelined run follows by default: refit densely until
    ``dense_until`` observations, then only on ``growth``× corpus growth.
    ``AMBS(refit_every=1)`` refits every observation instead, which keeps a
    pipelined trajectory byte-identical to the serial one.
    """

    #: Build-pool width; None picks :func:`default_compile_jobs`.
    compile_jobs: int | None = None
    #: Compile-ahead: speculatively ask for and pre-build wave k+1 while
    #: wave k measures. Spec-misses are discarded without a ``tell``.
    speculate: bool = True
    dense_until: int = 32
    growth: float = 1.5

    def __post_init__(self) -> None:
        if self.compile_jobs is not None and self.compile_jobs < 1:
            raise TuningError(
                f"compile_jobs must be >= 1, got {self.compile_jobs}"
            )

    def resolved_jobs(self) -> int:
        return (
            self.compile_jobs
            if self.compile_jobs is not None
            else default_compile_jobs()
        )
