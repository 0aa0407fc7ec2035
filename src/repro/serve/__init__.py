"""The serving layer: cached, batched, sharded address scoring.

:class:`~repro.serve.cluster.ClusterScoringService` wraps a chain
index, the graph-construction pipeline, and a trained classifier behind
one ``score(addresses)`` API with slice-graph caching, incremental
invalidation on block append, and block-diagonal batched inference.
One inline shard (``ClusterConfig(num_shards=1, num_workers=0)``) is
the plain single-process scorer; more shards add deterministic
address-prefix sharding (:class:`~repro.serve.router.ShardRouter`),
live multi-process miss construction with streamed block-append
ingestion, per-shard locking so disjoint queries overlap, an asyncio
front end that micro-batches concurrent requests, and warm-cache
persistence keyed by pipeline fingerprint and encoder version
(:class:`~repro.serve.store.CacheStore`).
"""

from repro.serve.cache import CacheKey, CacheStats, SliceGraphCache
from repro.serve.cluster import ClusterConfig, ClusterScoringService
from repro.serve.router import ShardRouter
from repro.serve.service import AddressScore
from repro.serve.store import CacheStore, WarmState, encoder_version

__all__ = [
    "AddressScore",
    "CacheKey",
    "CacheStats",
    "CacheStore",
    "ClusterConfig",
    "ClusterScoringService",
    "ShardRouter",
    "SliceGraphCache",
    "WarmState",
    "encoder_version",
]
