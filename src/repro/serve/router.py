"""Deterministic address-prefix sharding for the scoring cluster.

A scoring cluster splits a large address corpus across N shards, each
owning its own :class:`~repro.chain.explorer.ChainIndex` slice and
caches.  For that split to be *operable* it must be stable: the same
address has to land on the same shard in every process, on every run,
on every replica — otherwise warm caches, persisted stores, and
invalidation routing all silently miss.

:class:`ShardRouter` therefore hashes a fixed-length *prefix* of the
address string with BLAKE2b (a keyed-independent, process-independent
digest — never Python's salted ``hash()``) and reduces it modulo the
shard count.  Prefix hashing keeps related address families (HD-wallet
batches, vanity ranges) co-located on one shard, which is what makes
per-shard chain slices compact; the prefix length is configurable, and
``prefix_length=None`` hashes the whole address for maximum dispersion.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List, Optional

from repro.errors import ValidationError

__all__ = ["ShardRouter", "DEFAULT_PREFIX_LENGTH"]

#: Characters of the address hashed by default.  Long enough that the
#: simulator's (and real Base58/bech32) addresses disperse well, short
#: enough that deliberately co-prefixed address families share a shard.
DEFAULT_PREFIX_LENGTH = 12


class ShardRouter:
    """Deterministic ``address → shard`` partitioning by prefix hash.

    Parameters
    ----------
    num_shards:
        Number of shards to spread the address space over (>= 1).
    prefix_length:
        How many leading characters of the address feed the hash;
        ``None`` hashes the full address.  Shorter prefixes trade
        balance for locality (co-prefixed addresses shard together).
    """

    def __init__(
        self,
        num_shards: int,
        prefix_length: Optional[int] = DEFAULT_PREFIX_LENGTH,
    ):
        if num_shards < 1:
            raise ValidationError(
                f"num_shards must be >= 1, got {num_shards}"
            )
        if prefix_length is not None and prefix_length < 1:
            raise ValidationError(
                f"prefix_length must be >= 1 or None, got {prefix_length}"
            )
        self.num_shards = num_shards
        self.prefix_length = prefix_length

    def shard_of(self, address: str) -> int:
        """The owning shard of ``address`` (stable across processes).

        BLAKE2b over the UTF-8 bytes of the address prefix, reduced
        modulo ``num_shards`` — no process-salted hashing anywhere, so
        a router with the same parameters routes identically in every
        worker, replica, and restart.  A one-shard router owns every
        address and skips the hash.
        """
        if self.num_shards == 1:
            return 0
        prefix = (
            address
            if self.prefix_length is None
            else address[: self.prefix_length]
        )
        digest = hashlib.blake2b(
            prefix.encode("utf-8"), digest_size=8
        ).digest()
        return int.from_bytes(digest, "big") % self.num_shards

    def partition(self, addresses: Iterable[str]) -> Dict[int, List[str]]:
        """Group ``addresses`` by owning shard, order-preserving.

        Returns ``{shard: [addresses...]}`` containing only non-empty
        shards; within a shard, addresses keep their input order (the
        order cluster scoring reassembles results in).  Each address is
        hashed once, so callers route a request with one call and reuse
        the result.
        """
        shards: Dict[int, List[str]] = {}
        for address in addresses:
            shards.setdefault(self.shard_of(address), []).append(address)
        return shards

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ShardRouter):
            return NotImplemented
        return (
            self.num_shards == other.num_shards
            and self.prefix_length == other.prefix_length
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardRouter(num_shards={self.num_shards}, "
            f"prefix_length={self.prefix_length})"
        )
