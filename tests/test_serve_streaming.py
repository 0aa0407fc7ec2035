"""Streaming steady-state serving: the concurrency surface of the cluster.

Pins the contracts the streaming rework introduced on top of the
parity/persistence tests of ``test_serve_cluster``:

- a block append on a connected cluster **streams** to the live worker
  pool instead of re-forking it — ``pool_stats()['starts']`` stays 1
  across any number of appends, and worker-built graphs reflect the
  appended history (tail-replay ingestion, not stale snapshots);
- queries on disjoint shards overlap: holding one shard's lock blocks
  only that shard's queries, never the others';
- micro-batched concurrent ``async_score`` calls that queue behind a
  running pass coalesce into one merged pass whose per-request scores
  equal serial scoring to 1e-9, and a request naming unknown addresses
  fails alone without poisoning its batch;
- a batch stuck on its miss builds (worker or inline) never holds a
  later warm request behind it;
- a block append racing an in-flight query forces a re-plan (the
  optimistic version protocol) and the query returns post-append
  scores — never a stale/fresh mix;
- unknown-address validation reports the *total* count and elides the
  tail explicitly, identically for one shard and many;
- ``async_score`` runs on the cluster's own bounded executor, created
  lazily and shut down by ``close()``.

Economies are tiny (slice size 4, single-epoch training): these tests
exercise locking and linearization, not model quality.
"""

import asyncio
import sys
import threading
from concurrent.futures import Future

import numpy as np
import pytest

from repro.core import BAClassifier, BAClassifierConfig
from repro.errors import ValidationError
from repro.graphs.pipeline import GraphConstructionPipeline
from repro.serve import ClusterConfig, ClusterScoringService
from repro.testing import append_self_spend, random_chain

SLICE_SIZE = 4


@pytest.fixture(scope="module")
def economy():
    """Randomized economy + single-epoch classifier."""
    chain, index, addresses = random_chain(7, num_wallets=4, rounds=10)
    classifier = BAClassifier(
        BAClassifierConfig(
            slice_size=SLICE_SIZE,
            gnn_epochs=1,
            head_epochs=1,
            gnn_hidden_dim=8,
            head_hidden_dim=8,
            head_restarts=1,
            seed=0,
        )
    )
    labels = np.array(
        [i % 2 for i in range(len(addresses))], dtype=np.int64
    )
    classifier.fit(addresses, labels, index)
    return chain, index, addresses, classifier


def _cluster(economy, *, connect=False, **kwargs):
    chain, index, _, classifier = economy
    config = ClusterConfig(**kwargs)
    return ClusterScoringService(
        classifier,
        index,
        chain=chain if connect else None,
        config=config,
    )


def _spendable(chain, index, addresses, router=None, shard_id=None):
    """An address with balance to self-spend (optionally on one shard)."""
    for address in addresses:
        if chain.utxo_set.balance_of(address) <= 0:
            continue
        if router is not None and router.shard_of(address) != shard_id:
            continue
        return address
    raise AssertionError("economy has no spendable address for this test")


class TestStreamingAppends:
    def test_append_streams_instead_of_reforking(self, economy):
        """The acceptance pin: appends never restart the worker pool,
        and post-append worker builds match a fresh model pass."""
        chain, index, addresses, classifier = economy
        cluster = _cluster(
            economy, connect=True, num_shards=2, num_workers=2
        )
        try:
            cluster.score(addresses)
            stats = cluster.pool_stats()
            assert stats["starts"] == 1
            assert stats["workers"] == 2
            before_ingests = stats["ingest_batches"]

            target = _spendable(chain, index, addresses)
            append_self_spend(chain, target)

            rescored = cluster.score(addresses)
            stats = cluster.pool_stats()
            assert stats["starts"] == 1  # streamed, not re-forked
            assert stats["ingest_batches"] > before_ingests
            expected = classifier.predict_proba([target], index)[0]
            np.testing.assert_allclose(
                rescored[target].probabilities,
                expected,
                rtol=1e-9,
                atol=1e-9,
            )
        finally:
            cluster.close()

    def test_repeated_appends_keep_workers_current(self, economy):
        """Several appends between scores all reach the workers as
        tail-replay messages; every rescore matches a fresh pass."""
        chain, index, addresses, classifier = economy
        cluster = _cluster(
            economy, connect=True, num_shards=2, num_workers=2
        )
        try:
            cluster.score(addresses)
            target = _spendable(chain, index, addresses)
            for _ in range(3):
                append_self_spend(chain, target)
                rescored = cluster.score(addresses)
                expected = classifier.predict_proba([target], index)[0]
                np.testing.assert_allclose(
                    rescored[target].probabilities,
                    expected,
                    rtol=1e-9,
                    atol=1e-9,
                )
            assert cluster.pool_stats()["starts"] == 1
        finally:
            cluster.close()


class TestPerShardLocking:
    def test_disjoint_shards_do_not_contend(self, economy):
        """Holding shard A's lock stalls shard-A queries only: a
        concurrent shard-B query completes while the lock is held."""
        _, index, addresses, _ = economy
        cluster = _cluster(
            economy, num_shards=2, num_workers=0, micro_batch=False
        )
        try:
            by_shard = cluster.router.partition(addresses)
            assert len(by_shard) == 2, "economy routed onto one shard"
            a_members, b_members = by_shard[0], by_shard[1]
            cluster.score(addresses)  # warm caches: queries are fast

            errors = []
            done_b = threading.Event()
            done_a = threading.Event()

            def run(members, done):
                try:
                    cluster.score(members)
                except Exception as error:  # pragma: no cover
                    errors.append(error)
                finally:
                    done.set()

            with cluster.shards[0].lock:
                thread_b = threading.Thread(
                    target=run, args=(b_members, done_b)
                )
                thread_b.start()
                assert done_b.wait(timeout=30), (
                    "shard-B query blocked behind shard-A lock"
                )
                thread_a = threading.Thread(
                    target=run, args=(a_members, done_a)
                )
                thread_a.start()
                assert not done_a.wait(timeout=0.5), (
                    "shard-A query ignored the held shard-A lock"
                )
            assert done_a.wait(timeout=30)
            thread_a.join(timeout=30)
            thread_b.join(timeout=30)
            assert errors == []
        finally:
            cluster.close()

    def test_append_during_inflight_query_linearizes(self, economy):
        """An append racing a query's build forces a re-plan: the query
        returns post-append scores, never a stale/fresh mix."""
        chain, index, addresses, classifier = economy
        cluster = _cluster(
            economy, connect=True, num_shards=2, num_workers=0
        )
        try:
            target = _spendable(chain, index, addresses)
            original_build = cluster._build
            build_started = threading.Event()
            resume = threading.Event()
            build_calls = []

            def gated_build(to_build):
                build_calls.append(sorted(to_build))
                if len(build_calls) == 1:
                    build_started.set()
                    assert resume.wait(timeout=30)
                return original_build(to_build)

            cluster._build = gated_build

            result = {}
            errors = []

            def query():
                try:
                    result.update(cluster.score([target]))
                except Exception as error:  # pragma: no cover
                    errors.append(error)

            thread = threading.Thread(target=query)
            thread.start()
            assert build_started.wait(timeout=30)
            # The query is mid-build holding no locks: the append must
            # proceed (no deadlock) and bump the target shard version.
            append_self_spend(chain, target)
            resume.set()
            thread.join(timeout=60)
            assert not thread.is_alive()
            assert errors == []
            assert len(build_calls) >= 2, (
                "append did not force the in-flight query to re-plan"
            )
            expected = classifier.predict_proba([target], index)[0]
            np.testing.assert_allclose(
                result[target].probabilities,
                expected,
                rtol=1e-9,
                atol=1e-9,
            )
        finally:
            cluster.close()


def _hold_first_pass(cluster):
    """Gate the cluster's first merged scoring pass.

    Returns ``(entered, release)``: ``entered`` is set once the first
    pass is running (its batch holds the CPU phase, so later requests
    queue behind it), and the pass proceeds once ``release`` is set.
    """
    original = cluster._score_addresses
    entered = threading.Event()
    release = threading.Event()
    calls = []

    def held(addresses, on_build=None):
        calls.append(addresses)
        if len(calls) == 1:
            entered.set()
            assert release.wait(timeout=30)
        return original(addresses, on_build=on_build)

    cluster._score_addresses = held
    return entered, release


async def _queue_behind_held_pass(cluster, entered, first, rest):
    """Start ``first``, wait until its pass holds the CPU phase, then
    queue every request of ``rest`` behind it; returns all tasks."""
    head = asyncio.ensure_future(cluster.async_score(first))
    assert await asyncio.to_thread(entered.wait, 30)
    tail = [asyncio.ensure_future(cluster.async_score(r)) for r in rest]
    await asyncio.sleep(0)  # each task runs up to its enqueue
    assert cluster.micro_batch_stats()["requests"] == 1 + len(rest)
    return [head, *tail]


class TestMicroBatching:
    def test_batched_scores_match_serial(self, economy):
        """Requests that arrive while a pass runs coalesce into one
        merged pass whose per-request results equal serial scoring to
        1e-9."""
        _, _, addresses, _ = economy
        cluster = _cluster(
            economy, num_shards=2, num_workers=0, micro_batch=True
        )
        try:
            serial = cluster.score(addresses)
            half = len(addresses) // 2
            requests = [
                list(addresses),
                list(addresses[:half]),
                list(addresses[half:]),
                [addresses[0], addresses[-1]],
            ]
            entered, release = _hold_first_pass(cluster)

            async def fan_out():
                try:
                    tasks = await _queue_behind_held_pass(
                        cluster, entered, requests[0], requests[1:]
                    )
                finally:
                    release.set()
                return await asyncio.wait_for(
                    asyncio.gather(*tasks), timeout=60
                )

            results = asyncio.run(fan_out())
            for request, scores in zip(requests, results):
                assert sorted(scores) == sorted(set(request))
                for address in request:
                    np.testing.assert_allclose(
                        scores[address].probabilities,
                        serial[address].probabilities,
                        rtol=1e-9,
                        atol=1e-9,
                    )
            stats = cluster.micro_batch_stats()
            assert stats["requests"] == len(requests)
            assert stats["batched_requests"] == len(requests)
            assert stats["batches"] < len(requests), (
                "requests queued behind a running pass did not coalesce"
            )
            assert stats["max_batch"] >= 2
        finally:
            cluster.close()

    def test_unknown_request_fails_alone(self, economy):
        """A request naming unknown addresses fails with the shared
        validation error; the valid request sharing its batch still
        scores."""
        _, _, addresses, _ = economy
        cluster = _cluster(
            economy, num_shards=2, num_workers=0, micro_batch=True
        )
        try:
            serial = cluster.score([addresses[0]])
            entered, release = _hold_first_pass(cluster)

            async def fan_out():
                try:
                    tasks = await _queue_behind_held_pass(
                        cluster,
                        entered,
                        [addresses[1]],
                        [[addresses[0]], ["bc1q-nowhere"]],
                    )
                finally:
                    release.set()
                return await asyncio.wait_for(
                    asyncio.gather(*tasks, return_exceptions=True),
                    timeout=60,
                )

            _, good, bad = asyncio.run(fan_out())
            assert cluster.micro_batch_stats()["max_batch"] == 2
            assert isinstance(bad, ValidationError)
            assert "1 address with no transactions" in str(bad)
            np.testing.assert_allclose(
                good[addresses[0]].probabilities,
                serial[addresses[0]].probabilities,
                rtol=1e-9,
                atol=1e-9,
            )
        finally:
            cluster.close()


    def test_stress_every_request_sealed_once(self, economy):
        """Closed-loop callers on a cold cluster with a tiny switch
        interval: every request is sealed exactly once, none hangs on a
        lost CPU-phase release, and scores equal serial scoring."""
        _, _, addresses, _ = economy
        cluster = _cluster(
            economy,
            num_shards=2,
            num_workers=0,
            micro_batch_max_addresses=8,
        )
        rng = np.random.default_rng(0)
        callers, rounds = 16, 12
        draws = [
            [
                [str(a) for a in rng.choice(addresses, size=3)]
                for _ in range(rounds)
            ]
            for _ in range(callers)
        ]

        async def caller(requests):
            return [await cluster.async_score(r) for r in requests]

        async def fan_out():
            return await asyncio.wait_for(
                asyncio.gather(*(caller(d) for d in draws)), timeout=120
            )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            results = asyncio.run(fan_out())
        finally:
            sys.setswitchinterval(interval)
        try:
            serial = cluster.score(addresses)
            for requests, answers in zip(draws, results):
                for request, scores in zip(requests, answers):
                    assert sorted(scores) == sorted(set(request))
                    for address in request:
                        np.testing.assert_allclose(
                            scores[address].probabilities,
                            serial[address].probabilities,
                            rtol=1e-9,
                            atol=1e-9,
                        )
            stats = cluster.micro_batch_stats()
            assert stats["requests"] == callers * rounds
            assert stats["batched_requests"] == callers * rounds
        finally:
            cluster.close()


def _relay_after(gate, inner):
    """A future that takes ``inner``'s outcome only once ``gate`` opens."""
    outer = Future()

    def relay():
        if not gate.wait(timeout=60):
            outer.set_exception(TimeoutError("gate never opened"))
            return
        try:
            outer.set_result(inner.result(timeout=60))
        except Exception as error:  # relayed to the waiting build
            outer.set_exception(error)

    threading.Thread(target=relay, daemon=True).start()
    return outer


class TestNoHeadOfLineBlocking:
    """A batch waiting on its miss builds leaves the CPU phase, so a
    later warm request is sealed and scored while the build is stuck."""

    @staticmethod
    def _warm_passes_stuck_cold(cluster, economy, building, gate):
        _, index, addresses, classifier = economy
        warm, cold = addresses[0], addresses[1]

        async def run():
            cold_task = asyncio.ensure_future(cluster.async_score([cold]))
            try:
                assert await asyncio.to_thread(building.wait, 30), (
                    "the cold request never reached its build"
                )
                warm_scores = await asyncio.wait_for(
                    cluster.async_score([warm]), timeout=5
                )
                assert not cold_task.done()
            finally:
                gate.set()
            return warm_scores, await asyncio.wait_for(cold_task, 60)

        warm_scores, cold_scores = asyncio.run(run())
        for address, scores in ((warm, warm_scores), (cold, cold_scores)):
            np.testing.assert_allclose(
                scores[address].probabilities,
                classifier.predict_proba([address], index)[0],
                rtol=1e-9,
                atol=1e-9,
            )

    def test_worker_build(self, economy):
        _, _, addresses, _ = economy
        cluster = _cluster(economy, num_shards=2, num_workers=1)
        try:
            cluster.score([addresses[0]])  # warm it; starts the pool
            pool = cluster._pool
            original_submit = pool.submit
            building = threading.Event()
            gate = threading.Event()

            def gated_submit(*args):
                building.set()
                return _relay_after(gate, original_submit(*args))

            pool.submit = gated_submit
            self._warm_passes_stuck_cold(cluster, economy, building, gate)
        finally:
            cluster.close()

    def test_inline_build(self, economy, monkeypatch):
        _, _, addresses, _ = economy
        cluster = _cluster(economy, num_shards=2, num_workers=0)
        try:
            cluster.score([addresses[0]])
            cold_shard = cluster.shards[
                cluster.router.shard_of(addresses[1])
            ]
            original_build = GraphConstructionPipeline.build_many_slices
            building = threading.Event()
            gate = threading.Event()

            def gated_build(pipeline, index, requests):
                if index is cold_shard.index:  # not the test's oracle
                    assert cold_shard.build_lock.locked()
                    building.set()
                    assert gate.wait(timeout=60)
                return original_build(pipeline, index, requests)

            monkeypatch.setattr(
                GraphConstructionPipeline, "build_many_slices", gated_build
            )
            self._warm_passes_stuck_cold(cluster, economy, building, gate)
        finally:
            cluster.close()


class TestUnknownAddressReporting:
    def test_total_count_and_explicit_elision(self, economy):
        """Seven unknowns: the error carries the full count, shows the
        first five, and says how many were elided."""
        _, _, addresses, _ = economy
        unknowns = [f"bc1q-missing-{i}" for i in range(7)]
        cluster = _cluster(economy, num_shards=2)
        single = _cluster(economy, num_shards=1, num_workers=0)
        try:
            messages = []
            for service in (single, cluster):
                with pytest.raises(ValidationError) as excinfo:
                    service.score([addresses[0], *unknowns])
                messages.append(str(excinfo.value))
            for message in messages:
                assert "7 addresses with no transactions" in message
                assert "(+2 more elided)" in message
            # Same builder at every shard count: identical reporting.
            assert messages[0] == messages[1]
        finally:
            single.close()
            cluster.close()


class TestAsyncExecutorLifecycle:
    def test_lazy_bounded_executor_closed_by_close(self, economy):
        """``async_score`` uses the cluster's own named executor —
        created on first use, never the loop default — and ``close()``
        shuts it down."""
        _, _, addresses, _ = economy
        cluster = _cluster(
            economy, num_shards=2, num_workers=0, micro_batch=False
        )
        try:
            assert cluster._async_executor is None  # lazy
            thread_names = []
            original_score = cluster.score

            def recording_score(batch):
                thread_names.append(threading.current_thread().name)
                return original_score(batch)

            cluster.score = recording_score
            asyncio.run(cluster.async_score(addresses[:2]))
            assert thread_names
            assert thread_names[0].startswith("repro-cluster-query")
            executor = cluster._async_executor
            assert executor is not None
            assert executor._max_workers == cluster.config.async_workers
        finally:
            cluster.close()
        assert cluster._async_executor is None
        assert executor._shutdown
