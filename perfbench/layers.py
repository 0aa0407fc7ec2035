"""Per-layer tracing for the traced run.

:class:`Probe` wraps the public entry point of each layer — from the
benchmark's files, the program's sources stay untouched — and records
a span per call (name, start, end, parent, request id) in memory, plus
call counts and work units.  The cache layer gets per-call timings
instead of spans: a warm request makes hundreds of ``get`` calls, and
the per-call number is the one a regression in the hit path moves.

Wrappers exist only between :meth:`Probe.install` and
:meth:`Probe.uninstall`, so the untraced runs measure the program
unwrapped.  Spans opened on the micro-batcher's executor threads have
no benchmark span above them; they become roots of their own request id.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import repro.serve.service as serve_service
from repro.chain.store import ChainStore
from repro.serve.cache import SliceGraphCache
from repro.serve.cluster import ClusterScoringService
from repro.serve.router import ShardRouter


class SpanRecord(NamedTuple):
    name: str
    start_ns: int
    end_ns: int
    parent: Optional[int]
    request: str
    span_id: int


#: Wrapped entry points: span name -> what it times.  The counts and
#: self times of these spans are the per-layer results.
SPAN_NAMES = (
    "bench.request",
    "router.partition",
    "gnn.embed",
    "seq.head",
    "serve.on_block",
    "chain.on_block",
    "store.append_block",
    "store.remap",
    "store.sync_from_index",
)


class Probe:
    """Spans, counts and cache timings for one traced window."""

    def __init__(self) -> None:
        self.spans: List[SpanRecord] = []
        self.units: Counter = Counter()
        self.cache_ns: Dict[str, List[int]] = defaultdict(list)
        #: Registered embedding caches, held so their ids stay unique.
        self._embedding_caches: Dict[int, object] = {}
        self._active: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        self._ids = itertools.count(1)
        self._undo: List[Callable[[], None]] = []
        #: Wrappers record only while this is set (inside timed windows).
        self.recording = False

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #

    @contextmanager
    def span(self, name: str):
        parent = self._active.get()
        span_id = next(self._ids)
        request = parent[1] if parent is not None else f"r{span_id}"
        token = self._active.set((span_id, request))
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._active.reset(token)
            self.spans.append(
                SpanRecord(
                    name, start, end,
                    parent[0] if parent is not None else None,
                    request, span_id,
                )
            )

    def register(self, cluster: ClusterScoringService) -> None:
        """Tell the cache wrapper which caches hold embeddings."""
        for shard in cluster.shards:
            if shard.embeddings is not None:
                self._embedding_caches[id(shard.embeddings)] = shard.embeddings

    # ------------------------------------------------------------------ #
    # Wrappers
    # ------------------------------------------------------------------ #

    def _traced(self, name: str, func, units=None, always=False):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not (self.recording or always):
                return func(*args, **kwargs)
            with self.span(name):
                result = func(*args, **kwargs)
            if units is not None:
                self.units[name] += units(args)
            return result

        return wrapper

    def _patch(self, owner, attribute: str, replacement) -> None:
        original = owner.__dict__[attribute]
        setattr(owner, attribute, replacement)
        self._undo.append(lambda: setattr(owner, attribute, original))

    def install(self, fixture) -> None:
        """Wrap every layer's entry point.

        Call before any cluster is built or connected: cluster methods
        are wrapped on the class, and the parent index's block listener
        is re-registered in place of the original.
        """
        if self._undo:
            raise RuntimeError("probe already installed")
        self._patch(
            ShardRouter, "partition",
            self._traced("router.partition", ShardRouter.partition),
        )
        self._patch(
            ClusterScoringService, "on_block",
            self._traced("serve.on_block", ClusterScoringService.on_block),
        )
        for method in ("append_block", "remap", "sync_from_index"):
            self._patch(
                ChainStore, method,
                self._traced(
                    f"store.{method}", getattr(ChainStore, method),
                    # Store sync is set-up work: recorded outside windows.
                    always=method == "sync_from_index",
                ),
            )
        self._patch(
            serve_service, "predict_proba_sequences",
            self._traced(
                "seq.head", serve_service.predict_proba_sequences,
                units=lambda args: len(args[1]),
            ),
        )
        encoder = fixture.classifier.encoder
        encoder.embed_graphs = self._traced(
            "gnn.embed", encoder.embed_graphs,
            units=lambda args: len(args[0]),
        )
        self._undo.append(lambda: delattr(encoder, "embed_graphs"))
        self._patch(SliceGraphCache, "get", self._timed_get())
        self._patch(SliceGraphCache, "put", self._timed_put())

        chain, listener = fixture.chain, fixture.index.on_block
        wrapped = self._traced("chain.on_block", listener)
        chain.remove_listener(listener)
        chain.add_listener(wrapped)

        def restore_listener() -> None:
            chain.remove_listener(wrapped)
            chain.add_listener(listener)

        self._undo.append(restore_listener)

    def uninstall(self) -> None:
        """Restore every wrapped attribute (all clusters closed first)."""
        while self._undo:
            self._undo.pop()()
        self._embedding_caches.clear()

    def _tier(self, cache) -> str:
        return "embed" if id(cache) in self._embedding_caches else "slice"

    def _timed_get(self):
        original = SliceGraphCache.get

        @functools.wraps(original)
        def get(cache, key):
            if not self.recording:
                return original(cache, key)
            start = time.perf_counter_ns()
            value = original(cache, key)
            elapsed = time.perf_counter_ns() - start
            outcome = "miss" if value is None else "hit"
            self.cache_ns[f"{self._tier(cache)}.get.{outcome}"].append(elapsed)
            return value

        return get

    def _timed_put(self):
        original = SliceGraphCache.put

        @functools.wraps(original)
        def put(cache, key, payload):
            if not self.recording:
                return original(cache, key, payload)
            start = time.perf_counter_ns()
            original(cache, key, payload)
            elapsed = time.perf_counter_ns() - start
            self.cache_ns[f"{self._tier(cache)}.put"].append(elapsed)

        return put

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #

    def span_totals(self) -> Dict[str, Tuple[int, float, float]]:
        """``{name: (calls, total_s, self_s)}`` over the recorded spans.

        Self time is a span's duration minus the part of its interval
        covered by its child spans.
        """
        children: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append((span.start_ns, span.end_ns))
        totals: Dict[str, List[float]] = {
            name: [0, 0.0, 0.0] for name in SPAN_NAMES
        }
        for span in self.spans:
            duration = span.end_ns - span.start_ns
            covered = _covered(
                children.get(span.span_id, ()), span.start_ns, span.end_ns
            )
            row = totals.setdefault(span.name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += duration / 1e9
            row[2] += (duration - covered) / 1e9
        return {name: tuple(row) for name, row in totals.items()}

    def write_spans(self, path) -> int:
        """Write the spans as JSON lines; returns how many."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span._asdict()) + "\n")
        return len(self.spans)


def _covered(intervals, start: int, end: int) -> int:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total
