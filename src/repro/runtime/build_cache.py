"""Content-keyed build cache: schedule-hash -> compiled (lowered) function.

Autotuning searches re-visit configurations — constant-liar batches can propose
duplicates, resumed searches re-sample already-measured points, and AutoTVM
transfer tuning replays known-good configs. Compilation is the expensive half
of a measurement at LARGE problem sizes (the paper's Fig. 5/7 compile columns),
so the measurement engine keys every build by the *content* of the request —
builder identity, canonicalized configuration, and target — and reuses the
lowered :class:`~repro.tir.stmt.PrimFunc` on a hit.

The cached artifact is the lowered PrimFunc rather than the executable
:class:`~repro.runtime.module.Module`: PrimFuncs are plain picklable dataclass
trees, so they can cross process boundaries to the worker pool, while the
generated-code entry point of a Module cannot. Rehydrating a Module from a
cached PrimFunc (:func:`repro.runtime.module.build_from_primfunc`) skips the
lower/simplify pipeline. That pipeline dominates compile time on the Python
tiers; on the native tier the C compiler subprocess does, and its output is
cached separately, on disk, by source hash.
"""

from __future__ import annotations

import functools
import hashlib
import json
import threading
from collections import OrderedDict
from collections.abc import Mapping
from typing import Any

from repro.common.errors import ReproError
from repro.telemetry.context import get_telemetry
from repro.telemetry.events import CacheHit, CacheMiss


def builder_fingerprint(builder: Any) -> str:
    """A stable textual identity for a schedule-builder callable.

    Uses module + qualified name (stable across processes and runs, unlike
    ``id()`` or the default ``repr`` with its memory address). ``functools.partial``
    unwraps to the underlying function plus its bound arguments, so partials of
    the same function with different problem sizes key differently.
    """
    if isinstance(builder, functools.partial):
        inner = builder_fingerprint(builder.func)
        args = ",".join(repr(a) for a in builder.args)
        kwargs = ",".join(f"{k}={v!r}" for k, v in sorted(builder.keywords.items()))
        return f"partial({inner};{args};{kwargs})"
    module = getattr(builder, "__module__", "")
    qualname = getattr(builder, "__qualname__", "")
    if qualname:
        return f"{module}.{qualname}"
    # Callable instances: class identity (their __call__ defines behaviour).
    cls = type(builder)
    return f"{cls.__module__}.{cls.__qualname__}()"


def schedule_key(
    config: Mapping[str, int],
    builder: Any = None,
    target: str = "llvm",
    extra: Mapping[str, Any] | None = None,
) -> str:
    """Content hash of one build request.

    Canonicalizes the configuration by sorting keys, so two dicts with the same
    items in different insertion order produce the same key (searches and
    resumed databases do not preserve parameter order).
    """
    payload = {
        "builder": builder_fingerprint(builder) if builder is not None else "",
        "config": {str(k): int(v) for k, v in config.items()},
        "target": str(target),
        "extra": dict(extra) if extra else {},
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class BuildCache:
    """Thread-safe LRU cache of compiled artifacts with hit/miss counters."""

    def __init__(self, max_entries: int = 256) -> None:
        if max_entries < 1:
            raise ReproError(f"BuildCache max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._entries: OrderedDict[str, Any] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def get(self, key: str) -> Any | None:
        """The cached artifact, or None; counts a hit or a miss."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.hits += 1
                artifact = self._entries[key]
            else:
                self.misses += 1
                artifact = None
        tel = get_telemetry()
        if tel.enabled:
            tel.emit(CacheHit(key=key) if artifact is not None else CacheMiss(key=key))
        return artifact

    def peek(self, key: str) -> Any | None:
        """Like :meth:`get` but without touching the counters or LRU order."""
        with self._lock:
            return self._entries.get(key)

    def put(self, key: str, artifact: Any) -> None:
        with self._lock:
            self._entries[key] = artifact
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict[str, float]:
        with self._lock:
            return {
                "cache_hits": float(self.hits),
                "cache_misses": float(self.misses),
                "cache_entries": float(len(self._entries)),
            }

    def stats_snapshot(self) -> dict[str, int]:
        """Point-in-time counters, for computing per-run deltas.

        A shared cache accumulates hits/misses across its whole lifetime;
        consumers that report *per-run* numbers snapshot at run start and
        subtract (see :meth:`ParallelEvaluator._cache_extra
        <repro.runtime.parallel.ParallelEvaluator>`)."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "entries": len(self._entries),
            }

    def reset_stats(self) -> None:
        """Zero the hit/miss counters (entries are kept)."""
        with self._lock:
            self.hits = 0
            self.misses = 0

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __repr__(self) -> str:
        return (
            f"BuildCache({len(self)}/{self.max_entries} entries, "
            f"{self.hits} hits, {self.misses} misses)"
        )
