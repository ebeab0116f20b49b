#!/usr/bin/env python
"""Transfer-learning evaluation: cold vs. warm-start vs. transfer-seeded.

Protocol (fixed seeds throughout, simulated Swing backend):

1. **Corpus phase** — tune each kernel at the *corpus* size(s) and seeds,
   archiving every run into one run store. This is the prior evidence a new
   task can draw on.
2. **Evaluation phase** — for each kernel at the *target* size, run three
   ytopt variants with the same evaluation budget and seed into a separate
   comparison store, labelled side by side:

   * ``ytopt-cold`` — plain BO, random initial design (the baseline);
   * ``ytopt-warm`` — strict same-space :class:`~repro.ytopt.WarmStart` from
     the corpus store (only fires when the corpus includes the target task at
     identical space hash — included here as the upper-bound reference);
   * ``ytopt-transfer`` — :class:`~repro.transfer.TransferSeed` from a
     meta-surrogate fit on the corpus store *excluding the target task*
     (leave-task-out, enforced by the subsystem).

3. **Report** — the sample-efficiency table (``evals to within 5% of the
   best runtime any variant found``, via
   :func:`repro.telemetry.report.evals_to_best_table`) per kernel, written to
   ``results/transfer/comparison.txt`` together with a JSON summary.

Exit status: 0 when the transfer variant reaches the 5% band in strictly
fewer evaluations than cold start on at least ``--min-wins`` of the kernels
(the acceptance criterion), 1 otherwise.

Run:  python scripts/run_transfer_experiment.py [--evals N] [--quick]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.experiments.runner import run_tuner  # noqa: E402
from repro.kernels.registry import get_benchmark  # noqa: E402
from repro.telemetry import RunStore, StoreSink, Telemetry  # noqa: E402
from repro.telemetry.context import scoped_telemetry  # noqa: E402
from repro.telemetry.report import evals_to_best_table, evals_to_within  # noqa: E402

KERNELS = ("3mm", "lu", "cholesky")


def build_corpus(
    store_path: Path, sizes: tuple[str, ...], seeds: tuple[int, ...], evals: int
) -> None:
    """Phase 1: archive corpus runs (skipped when the store already exists)."""
    store = RunStore(store_path)
    tel = Telemetry(sinks=[StoreSink(store)])
    with scoped_telemetry(tel):
        for kernel in KERNELS:
            for size in sizes:
                for seed in seeds:
                    run = run_tuner(
                        get_benchmark(kernel, size), "ytopt",
                        max_evals=evals, seed=seed,
                    )
                    print(
                        f"  corpus: {kernel}/{size} seed {seed} -> "
                        f"best {run.best_runtime:.4g}s"
                    )
    tel.close()


def evaluate(
    corpus_db: Path,
    compare_db: Path,
    target_size: str,
    evals: int,
    seed: int,
    transfer_bias: float,
    allow_ties: bool = False,
) -> dict:
    """Phase 2+3: run the three variants per kernel and score the comparison."""
    store = RunStore(compare_db)
    tel = Telemetry(sinks=[StoreSink(store)])
    summary: dict = {"kernels": {}, "wins": 0}
    with scoped_telemetry(tel):
        for kernel in KERNELS:
            bench = get_benchmark(kernel, target_size)
            variants = {
                "ytopt-cold": dict(),
                "ytopt-warm": dict(warm_start_db=str(corpus_db)),
                "ytopt-transfer": dict(
                    transfer_from=str(corpus_db), transfer_bias=transfer_bias
                ),
            }
            for label, extra in variants.items():
                run = run_tuner(
                    bench, "ytopt", max_evals=evals, seed=seed,
                    label=label, **extra,
                )
                print(
                    f"  {kernel}/{target_size} {label}: "
                    f"best {run.best_runtime:.4g}s in {run.n_evals} evals"
                )
    tel.close()

    with RunStore(compare_db) as store:
        tables = []
        for kernel in KERNELS:
            runs = {
                r.tuner: r for r in store.runs(kernel=kernel, size_name=target_size)
            }
            target = min(r.best_runtime for r in runs.values())
            to_band = {
                name: evals_to_within(
                    [(e.elapsed, e.runtime) for e in store.evaluations(r.run_id)],
                    target,
                )
                for name, r in runs.items()
            }
            cold = to_band.get("ytopt-cold")
            transfer = to_band.get("ytopt-transfer")
            win = transfer is not None and (
                cold is None
                or (transfer <= cold if allow_ties else transfer < cold)
            )
            summary["kernels"][kernel] = {
                "best": {n: r.best_runtime for n, r in runs.items()},
                "evals_to_within_5pct": to_band,
                "transfer_beats_cold": win,
            }
            summary["wins"] += int(win)
            tables.append(evals_to_best_table(store, kernel, target_size))
    summary["table"] = "\n\n".join(tables)
    return summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--evals", type=int, default=100,
                    help="evaluation budget per variant (default 100)")
    ap.add_argument("--corpus-evals", type=int, default=100,
                    help="evaluation budget per corpus run (default 100)")
    ap.add_argument("--corpus-sizes", default="extralarge,large",
                    help="comma-separated corpus problem sizes")
    ap.add_argument("--corpus-seeds", default="1,2",
                    help="comma-separated corpus seeds")
    ap.add_argument("--target-size", default="large")
    ap.add_argument("--seed", type=int, default=0,
                    help="evaluation-phase seed (default 0)")
    ap.add_argument("--transfer-bias", type=float, default=0.5)
    ap.add_argument("--min-wins", type=int, default=2,
                    help="kernels transfer must beat cold on (default 2 of 3)")
    ap.add_argument("--allow-ties", action="store_true",
                    help="count matching-evals as a win (CI smoke criterion: "
                    "transfer must be no worse than cold)")
    ap.add_argument("--out", default=str(REPO_ROOT / "results" / "transfer"),
                    help="output directory (stores, table, summary)")
    ap.add_argument("--quick", action="store_true",
                    help="CI smoke preset: tiny budgets, one corpus size/seed")
    args = ap.parse_args(argv)

    if args.quick:
        args.evals = min(args.evals, 30)
        args.corpus_evals = min(args.corpus_evals, 30)
        args.corpus_sizes = args.corpus_sizes.split(",")[0]
        args.corpus_seeds = args.corpus_seeds.split(",")[0]

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    corpus_db = out / "corpus.sqlite"
    compare_db = out / "compare.sqlite"
    sizes = tuple(s for s in args.corpus_sizes.split(",") if s)
    seeds = tuple(int(s) for s in args.corpus_seeds.split(",") if s)

    if corpus_db.exists():
        print(f"corpus store {corpus_db} exists; reusing")
    else:
        print(f"phase 1: corpus runs -> {corpus_db}")
        build_corpus(corpus_db, sizes, seeds, args.corpus_evals)

    if compare_db.exists():
        compare_db.unlink()
    print(f"phase 2: evaluation at {args.target_size}, seed {args.seed}")
    summary = evaluate(
        corpus_db, compare_db, args.target_size, args.evals, args.seed,
        args.transfer_bias, allow_ties=args.allow_ties,
    )

    table_path = out / "comparison.txt"
    table_path.write_text(summary.pop("table") + "\n")
    summary_path = out / "summary.json"
    summary_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(f"\n{table_path.read_text()}")
    print(f"summary -> {summary_path}")
    ok = summary["wins"] >= args.min_wins
    print(
        f"transfer beat cold on {summary['wins']}/{len(KERNELS)} kernels "
        f"(need {args.min_wins}): {'PASS' if ok else 'FAIL'}"
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
