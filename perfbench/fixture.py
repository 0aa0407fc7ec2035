"""Benchmark fixture: the world, a minimally trained model, and the oracle.

The world, the model and the popularity ranking are the same in every
run (:data:`WORLD_SEED`): worlds simulated from different seeds differ
by a third in cold-sweep throughput, because the size of their few
largest histories varies, and which of those few a per-run ranking
makes popular moves every warm batch's cost.  Either would swamp the
changes the benchmark is meant to detect.  The run's seed makes the
inputs: the cold-sweep orders, the Zipf draws and live_tip's cold set.
Everything here is built before any timed region; none of it is part
of a metric.  The :class:`Oracle` is
the naive ``BAClassifier.predict_proba`` evaluated on the chain *as of*
a given height, which is what every returned score is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro import (
    BAClassifier,
    BAClassifierConfig,
    WorldConfig,
    build_dataset,
    generate_world,
)
from repro.chain.explorer import ChainIndex

#: Scores must match the oracle to this absolute tolerance.
TOLERANCE = 1e-9
#: Seed of the simulated world and of the model's training split.
WORLD_SEED = 2023
#: Popularity ranks of the funded addresses block appends self-spend
#: from (popular, but not the few that dominate the draws), and the
#: most slices such an address may have.
TARGET_RANKS = (8, 16, 24)
MAX_TARGET_SLICES = 3


@dataclass(frozen=True)
class Scale:
    """World and model size.  ``FULL`` is what a run measures."""

    num_blocks: int
    num_retail: int
    num_gamblers: int
    num_miner_members: int
    num_mixers: int
    num_wallet_services: int
    num_lending_desks: int
    slice_size: int
    train_addresses: int


#: The full-mode world of ``benchmarks/bench_serving_throughput.py``
#: cut from 220 to 120 blocks, so that a cold sweep of the whole corpus
#: fits a few times in one run.  Histories stay heavy-tailed: 473
#: addresses, median 4 transactions, largest 2899
#: (:meth:`Fixture.history_facts`, printed with every result).
FULL = Scale(
    num_blocks=120, num_retail=90, num_gamblers=32, num_miner_members=18,
    num_mixers=3, num_wallet_services=3, num_lending_desks=2,
    slice_size=40, train_addresses=48,
)
#: Seconds-scale world for the benchmark's own tests.
TINY = Scale(
    num_blocks=40, num_retail=12, num_gamblers=6, num_miner_members=4,
    num_mixers=1, num_wallet_services=1, num_lending_desks=1,
    slice_size=20, train_addresses=16,
)


class Fixture:
    """World + fitted classifier + seed-shuffled scoring corpus."""

    def __init__(self, seed: int, scale: Scale = FULL):
        self.seed = seed
        self.scale = scale
        self.world = generate_world(
            WorldConfig(
                seed=WORLD_SEED,
                num_blocks=scale.num_blocks,
                num_retail=scale.num_retail,
                num_gamblers=scale.num_gamblers,
                num_miner_members=scale.num_miner_members,
                num_mixers=scale.num_mixers,
                num_wallet_services=scale.num_wallet_services,
                num_lending_desks=scale.num_lending_desks,
            )
        )
        self.chain = self.world.chain
        self.index = self.world.index
        dataset = build_dataset(
            self.world, min_transactions=4, seed=WORLD_SEED
        )
        train, _ = dataset.split(test_fraction=0.3, seed=WORLD_SEED)
        self.classifier = BAClassifier(
            BAClassifierConfig(
                slice_size=scale.slice_size,
                gnn_epochs=2,
                head_epochs=3,
                gnn_hidden_dim=16,
                head_hidden_dim=16,
                head_restarts=1,
                seed=0,
            )
        )
        self.classifier.fit(
            train.addresses[: scale.train_addresses],
            train.labels[: scale.train_addresses],
            self.index,
        )
        addresses = sorted(self.world.labeled_addresses(1))
        #: Funded addresses of short history that block appends
        #: self-spend from.  Short histories keep the oracle's rebuild
        #: of every post-append state cheap; the append itself dirties
        #: only trailing slices whatever the length.  They are the same
        #: in every run, so the refresh work does not depend on the seed.
        self.targets: List[str] = [
            address for address in addresses
            if self.slices_of(address) <= MAX_TARGET_SLICES
            and self.chain.utxo_set.entries_for(address)
        ][:len(TARGET_RANKS)]
        others = [a for a in addresses if a not in self.targets]
        ranking = np.random.default_rng([WORLD_SEED, 1]).permutation(
            len(others)
        )
        corpus = [others[i] for i in ranking]
        for rank, target in zip(TARGET_RANKS, self.targets):
            corpus.insert(rank, target)
        #: Every labelled address with history.  Position in this list is
        #: the address's popularity rank: a fixed random order (nothing
        #: measured says which addresses real lookups favour), with the
        #: append targets placed at :data:`TARGET_RANKS`.
        self.corpus: List[str] = corpus

    def history_facts(self) -> Dict[str, float]:
        """Corpus size and the median and largest history length."""
        counts = [self.index.transaction_count(a) for a in self.corpus]
        return {
            "corpus": len(counts),
            "history_median": float(np.median(counts)),
            "history_max": max(counts),
        }

    @property
    def height(self) -> int:
        return self.chain.height

    def slices_of(self, address: str) -> int:
        count = self.index.transaction_count(address)
        return -(-count // self.scale.slice_size)


class Oracle:
    """``BAClassifier.predict_proba`` on the chain as of a height.

    An address's score depends only on its own transactions (Stage 1
    extracts its slice graphs from them), so a result is remembered per
    address with the height it was computed at and reused for another
    height unless a block in between touched the address.  Older
    heights are evaluated on a replay index built from the chain's
    blocks, so scores returned while blocks were being appended are
    checked against the state they could have seen.
    """

    def __init__(self, fixture: Fixture):
        self._fixture = fixture
        self._memo: Dict[str, Tuple[int, np.ndarray]] = {}
        self._touched: Dict[int, Set[str]] = {}
        self._replay: Optional[ChainIndex] = None
        self.checks = 0

    def verify(
        self, records: Sequence[Tuple[str, np.ndarray, int, int]]
    ) -> Dict[int, str]:
        """Check ``(address, probabilities, lo, hi)`` score records.

        A record passes when it matches the oracle at some height in
        ``[lo, hi]`` (the heights committed while its request was in
        flight).  Returns ``{record position: message}`` for every
        record that matched none.
        """
        failures = {}
        for position in sorted(
            range(len(records)), key=lambda i: records[i][2]
        ):
            address, probabilities, lo, hi = records[position]
            self.checks += 1
            errors = [
                float(np.max(np.abs(probabilities - expected)))
                for expected in (
                    self.probabilities(address, height)
                    for height in self._candidate_heights(address, lo, hi)
                )
            ]
            if min(errors) > TOLERANCE:
                failures[position] = (
                    f"{address} at heights {lo}..{hi}: off by "
                    f"{min(errors):.3g}"
                )
        return failures

    def probabilities(self, address: str, height: int) -> np.ndarray:
        memo = self._memo.get(address)
        if memo is not None and not self._changed(address, memo[0], height):
            return memo[1]
        expected = self._fixture.classifier.predict_proba(
            [address], self._index_at(height)
        )[0]
        self._memo[address] = (height, expected)
        return expected

    def _candidate_heights(self, address: str, lo: int, hi: int) -> List[int]:
        heights = [hi]
        for height in range(hi, lo, -1):
            if self._changed(address, height - 1, height):
                heights.append(height - 1)
        return heights

    def _changed(self, address: str, a: int, b: int) -> bool:
        return any(
            address in self._touched_at(height)
            for height in range(min(a, b) + 1, max(a, b) + 1)
        )

    def _touched_at(self, height: int) -> Set[str]:
        touched = self._touched.get(height)
        if touched is None:
            block = self._fixture.chain.blocks[height]
            touched = {
                address
                for tx in block.transactions
                for address in tx.addresses()
            }
            self._touched[height] = touched
        return touched

    def _index_at(self, height: int) -> ChainIndex:
        blocks = self._fixture.chain.blocks
        if height == len(blocks) - 1:
            return self._fixture.index
        replay = self._replay
        if replay is None or replay_height(replay) > height:
            replay = ChainIndex()
        for block in blocks[replay_height(replay) + 1: height + 1]:
            replay.on_block(block)
        self._replay = replay
        return replay


def replay_height(index: ChainIndex) -> int:
    """Height of the last block ingested into ``index`` (-1 when empty)."""
    total = index.total_transactions()
    if total == 0:
        return -1
    return index.transactions_since(total - 1)[0][1]
