"""The shard-independent scoring core of the serving cluster.

The offline pipeline rebuilds every address graph from scratch on each
query and runs one GNN forward per graph.  The serving path instead
keeps, per shard, an LRU :class:`~repro.serve.cache.SliceGraphCache` of
encoded slice graphs keyed by ``(address, slice_index, pipeline
fingerprint)`` plus a second cache of per-slice encoder embeddings
keyed by ``(address, slice_index, pipeline fingerprint : model
version)`` (:func:`~repro.serve.store.encoder_version`).  This module
holds the pieces of that path that do not depend on sharding, for
:class:`~repro.serve.cluster.ClusterScoringService`:

- the **freshness protocol** — :func:`_plan_slices` splits an
  address's slices into cache-served and to-build, and
  :func:`_invalidate_address` drops exactly the trailing slices a block
  append dirties (completed slices of an append-only history never
  change);
- the **inference tail** — :func:`_score_sequences` embeds every slice
  of a request in block-diagonal batches (embedding-cache first) and
  runs the sequence head over padded sequence batches, so fully warm
  queries skip even the GNN forward;
- the **warm-state codec** — :func:`_export_warm_state` /
  :func:`_import_warm_state` move one shard's caches and coverage
  through a :class:`~repro.serve.store.CacheStore`.

A one-shard cluster with inline builds
(``ClusterConfig(num_shards=1, num_workers=0)``) is the plain
single-process scorer.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Mapping
from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

import numpy as np

from repro import obs
from repro.errors import ValidationError
from repro.gnn.data import EncodedGraph
from repro.seqmodels.trainer import predict_proba_sequences
from repro.serve.cache import CacheKey, SliceGraphCache
from repro.serve.store import WarmState

__all__ = ["AddressScore"]


@dataclass
class AddressScore:
    """One scored address: predicted class plus the full distribution.

    ``probabilities`` is the ``(num_classes,) float64`` softmax row for
    the address (sums to 1); ``label`` is its argmax and ``class_name``
    the human-readable mapping supplied at service construction (or
    ``class_<label>``).
    """

    address: str
    label: int
    class_name: str
    probabilities: np.ndarray


#: One flat slice graph awaiting embedding: ``(graph, embedding cache
#: or None, embedding cache key, trust_cached)`` — ``trust_cached`` is
#: False for slices rebuilt this query, whose memoised rows are stale
#: by construction.
EmbedEntry = Tuple[
    EncodedGraph, Optional[SliceGraphCache], CacheKey, bool
]


def _class_name_mapping(
    class_names: "Union[Mapping[int, str], Sequence[str], None]",
) -> Dict[int, str]:
    """Normalise a ``{label: name}`` mapping or label-indexed sequence."""
    if class_names is None:
        return {}
    if isinstance(class_names, Mapping):
        return {int(k): str(v) for k, v in class_names.items()}
    return {i: str(name) for i, name in enumerate(class_names)}


#: Cap on the number of addresses an unknown-address error spells out.
_UNKNOWN_SHOWN = 5
#: Cap on the characters shown per spelled-out address.
_UNKNOWN_PREFIX = 16


def _unknown_addresses_error(unknown: Sequence[str]) -> ValidationError:
    """The no-transactions-on-chain report (``score`` and micro-batches).

    Long batches are summarised rather than dumped: the message always
    carries the *total* unknown count, spells out at most
    ``_UNKNOWN_SHOWN`` addresses truncated to ``_UNKNOWN_PREFIX``
    characters, and marks every truncation and elision explicitly — a
    caller reading the message can tell exactly how much it is not
    seeing.
    """
    shown = [
        a[:_UNKNOWN_PREFIX] + ("…" if len(a) > _UNKNOWN_PREFIX else "")
        for a in unknown[:_UNKNOWN_SHOWN]
    ]
    elided = len(unknown) - len(shown)
    detail = ", ".join(shown)
    if elided > 0:
        detail += f" (+{elided} more elided)"
    noun = "address" if len(unknown) == 1 else "addresses"
    return ValidationError(
        f"{len(unknown)} {noun} with no transactions on chain: {detail}"
    )


def _plan_slices(
    cache: SliceGraphCache,
    fingerprint: str,
    slice_size: int,
    address: str,
    count: int,
    covered: int,
    connected: bool,
) -> Tuple[Dict[int, EncodedGraph], List[int], int]:
    """Split one address's slices into cache-served and to-build.

    The freshness protocol of every cluster shard: coverage equal to
    the current transaction count trusts every cached slice; growth
    under a connected service
    trusts the slices invalidation left intact; growth without block
    events trusts nothing (there is no way to know where the new
    transactions sorted into the history).  Known-stale slices are
    counted as misses without a lookup.

    Returns ``(reusable, missing, fresh_until)``.  ``fresh_until``
    marks the trusted region: a *missing* slice below it was merely
    evicted — its rebuild is content-identical, so derived state
    (embedding rows) keyed to it stays valid.
    """
    num_slices = -(-count // slice_size)
    if covered > count:
        covered = 0  # not append-only growth: distrust everything
    if covered == count:
        fresh_until = num_slices
    elif connected:
        # on_block already dropped every dirtied slice (computed from
        # where the new transactions sort in), so whatever coverage
        # remains is exact.
        fresh_until = covered // slice_size
    else:
        fresh_until = 0
    reusable: Dict[int, EncodedGraph] = {}
    missing: List[int] = []
    for i in range(num_slices):
        if i < fresh_until:
            entry = cache.get((address, i, fingerprint))
            if entry is not None:
                reusable[i] = entry
                continue
        else:
            cache.note_miss()
        missing.append(i)
    return reusable, missing, fresh_until


def _invalidate_address(
    cache: SliceGraphCache,
    embeddings: Optional[SliceGraphCache],
    covered: Dict[str, int],
    records_for,
    address: str,
    earliest_new: "Optional[Tuple[float, str]]",
    slice_size: int,
) -> None:
    """Drop the cached slices a block append dirties for one address.

    The invalidation half of the freshness protocol: slices before the
    insertion point of the earliest new transaction keep their
    membership (so
    ``stale_from`` is computed from where the new transactions *sort
    into* the ``(timestamp, txid)``-ordered history); without timestamp
    information, assume append-at-end.  Both bounds are idempotent
    across repeated appends: already slice-aligned coverage is never
    eroded.  Graph entries and embedding rows drop together.
    """
    current = covered.get(address)
    if not current:
        return
    stale_from = current // slice_size
    if earliest_new is not None:
        position = sum(
            1
            for record in records_for(address)
            if (record.timestamp, record.txid) < earliest_new
        )
        stale_from = min(stale_from, position // slice_size)
    cache.invalidate_address(address, from_slice=stale_from)
    if embeddings is not None:
        embeddings.invalidate_address(address, from_slice=stale_from)
    covered[address] = min(current, stale_from * slice_size)


def _embed_entries(
    encoder, entries: Sequence[EmbedEntry], batch_size: int
) -> np.ndarray:
    """Embedding rows for flat slice graphs, embedding-cache-first.

    Rows found in an entry's embedding cache (and trusted) are reused;
    the remaining graphs run through ``encoder.embed_graphs`` in one
    batched pass, in input order, and their rows are memoised back.
    Returns the ``(len(entries), embedding_dim)`` float64 matrix.
    """
    rows = np.zeros((len(entries), encoder.embedding_dim), dtype=np.float64)
    to_compute: List[int] = []
    for position, (graph, cache, key, trust_cached) in enumerate(entries):
        cached = None
        if cache is not None:
            if trust_cached:
                cached = cache.get(key)
            else:
                cache.note_miss()
        if cached is None:
            to_compute.append(position)
        else:
            rows[position] = cached
    if to_compute:
        computed = encoder.embed_graphs(
            [entries[i][0] for i in to_compute], batch_size=batch_size
        )
        for offset, position in enumerate(to_compute):
            rows[position] = computed[offset]
            cache = entries[position][1]
            if cache is not None:
                cache.put(entries[position][2], computed[offset].copy())
    return rows


def _score_sequences(
    classifier,
    addresses: Sequence[str],
    sequences_by_address: Dict[str, List[EncodedGraph]],
    untrusted: "Set[Tuple[str, int]]",
    embedding_cache_of,
    embedding_fingerprint: str,
    graph_batch_size: int,
    sequence_batch_size: int,
    class_names: Dict[int, str],
) -> Dict[str, "AddressScore"]:
    """The inference tail: embed (cache-first), head, score dict.

    One block-diagonal GNN pass plus one padded sequence-head pass over
    the flattened slice sequences, in input address order — every
    cluster configuration routes through this one body, which is what
    keeps their scores identical.
    ``embedding_cache_of(address)`` supplies the owning embedding cache
    (or ``None``); ``untrusted`` lists the ``(address, slice_index)``
    pairs whose memoised rows must not be reused.
    """
    flat: List[EmbedEntry] = []
    spans: List[Tuple[int, int]] = []
    for address in addresses:
        graphs = sequences_by_address[address]
        spans.append((len(flat), len(flat) + len(graphs)))
        cache = embedding_cache_of(address)
        for graph in graphs:
            flat.append(
                (
                    graph,
                    cache,
                    (address, graph.slice_index, embedding_fingerprint),
                    (address, graph.slice_index) not in untrusted,
                )
            )
    with obs.span("serve.embed"):
        embeddings = _embed_entries(
            classifier.encoder, flat, graph_batch_size
        )
    with obs.span("serve.head"):
        probabilities = predict_proba_sequences(
            classifier.head,
            [embeddings[start:end] for start, end in spans],
            classifier.config.max_sequence_length,
            batch_size=sequence_batch_size,
        )
    labels = probabilities.argmax(axis=1)
    return {
        address: AddressScore(
            address=address,
            label=int(label),
            class_name=class_names.get(int(label), f"class_{int(label)}"),
            probabilities=row,
        )
        for address, label, row in zip(addresses, labels, probabilities)
    }


def _export_warm_state(
    cache: SliceGraphCache,
    embeddings: Optional[SliceGraphCache],
    covered: Dict[str, int],
) -> WarmState:
    """Snapshot one shard's caches and coverage for the store."""
    return WarmState(
        entries=[
            (key[0], key[1], payload)
            for key, payload in cache.export_entries()
        ],
        embeddings=(
            [
                (key[0], key[1], row)
                for key, row in embeddings.export_entries()
            ]
            if embeddings is not None
            else []
        ),
        covered=dict(covered),
    )


def _import_warm_state(
    state: WarmState,
    transaction_count: Callable[[str], int],
    resolve: Callable[
        [str],
        Tuple[SliceGraphCache, Optional[SliceGraphCache], Dict[str, int]],
    ],
    fingerprint: str,
    embedding_fingerprint: str,
) -> int:
    """Import one warm bundle into live caches; returns entries restored.

    Only addresses whose *current* transaction count still equals the
    bundle's recorded coverage are trusted — growth while the replica
    was down means unobserved appends, so those addresses rebuild cold.
    ``resolve`` maps an address to its owning ``(slice cache, embedding
    cache, covered dict)``.  The returned count
    covers entries still *live* after the import: a bundle larger than
    the target cache's capacity evicts its own oldest entries, which
    must not be reported as restored.
    """
    trusted = {
        address
        for address, count in state.covered.items()
        if count == transaction_count(address)
    }
    imported: List[Tuple[SliceGraphCache, CacheKey]] = []
    for address, slice_index, payload in state.entries:
        if address not in trusted:
            continue
        target = resolve(address)
        key = (address, slice_index, fingerprint)
        target[0].put(key, payload)
        imported.append((target[0], key))
    for address, slice_index, row in state.embeddings:
        if address not in trusted:
            continue
        target = resolve(address)
        if target[1] is None:
            continue
        target[1].put((address, slice_index, embedding_fingerprint), row)
    for address in trusted:
        resolve(address)[2][address] = state.covered[address]
    return sum(1 for cache, key in imported if key in cache)
