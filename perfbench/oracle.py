"""Correctness oracle for the native workloads.

Every configuration a run evaluated is rebuilt on the native tier and run on
inputs drawn from the run's seed; its output must match
``repro.kernels.reference.threemm_reference`` (plain NumPy matrix products),
never the output of another backend tier.
"""

from __future__ import annotations

import numpy as np

#: Largest accepted |output - reference|, relative to max(1, max |reference|).
#: Float64 products in a different summation order agree to ~1e-14.
TOLERANCE = 1e-9


def threemm_inputs(size_name: str, seed: int) -> list[np.ndarray]:
    """The seeded float64 A, B, C, D operands of 3mm at ``size_name``."""
    from repro.kernels.problem_sizes import problem_size

    s = problem_size("3mm", size_name)
    rng = np.random.default_rng(seed)
    return [
        rng.standard_normal(shape)
        for shape in ((s.n, s.l), (s.l, s.m), (s.m, s.o), (s.o, s.p))
    ]


def compare(out: np.ndarray, ref: np.ndarray) -> str | None:
    """None when ``out`` matches ``ref``, else a one-line reason."""
    if out.shape != ref.shape:
        return f"shape {out.shape} != reference {ref.shape}"
    if not np.all(np.isfinite(out)):
        return "output holds non-finite values"
    err = float(np.max(np.abs(out - ref)))
    scale = max(1.0, float(np.max(np.abs(ref))))
    if err > TOLERANCE * scale:
        return f"max abs error {err:.3g} exceeds {TOLERANCE:g} x {scale:.3g}"
    return None


def self_check() -> str | None:
    """Feed :func:`compare` corrupted outputs; None when it flags every one."""
    rng = np.random.default_rng(0)
    ref = rng.standard_normal((6, 5))
    nudged = ref.copy()
    nudged[2, 3] += 1e-6
    poisoned = ref.copy()
    poisoned[0, 0] = np.nan
    for label, bad in (("nudged", nudged), ("nan", poisoned), ("shape", ref[:, :4])):
        if compare(bad, ref) is None:
            return f"oracle accepted a corrupted ({label}) output"
    if compare(ref.copy(), ref) is not None:
        return "oracle rejected an exact output"
    return None


def check_threemm(bench, configs, seed: int) -> list[str]:
    """Rebuild each configuration natively and compare it with the reference.

    Returns one message per configuration that failed to build natively or
    produced a wrong output.
    """
    from repro.kernels.reference import threemm_reference
    from repro.runtime.module import build

    inputs = threemm_inputs(bench.size_name, seed)
    ref = threemm_reference(*inputs)
    problems = []
    for config in configs:
        sched, args = bench.schedule_builder(config)
        mod = build(sched, args, backend="native")
        if mod.backend != "native":
            problems.append(f"{config}: built on the {mod.backend} tier, not native")
            continue
        out = np.zeros(ref.shape, dtype=args[-1].dtype)
        mod(*inputs, out)
        reason = compare(out, ref)
        if reason is not None:
            problems.append(f"{config}: {reason}")
    return problems
