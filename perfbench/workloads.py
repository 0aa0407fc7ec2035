"""The three workloads, each against the same deployment.

Deployment under test: a store-backed
:class:`~repro.serve.ClusterScoringService` (``ClusterConfig(store_dir=…)``,
shards sharing one mapped chain store) with ``num_workers =
os.cpu_count()`` and every other setting at its default.

- ``cold_sweep`` — closed loop, one synchronous caller.  Each round
  starts a fresh cluster and scores the whole seed-shuffled corpus in
  batches of :data:`BATCH`; nothing was scored before, so every slice
  misses and the time goes to the worker fan-out, Stages 1–4, encoding,
  store reads and the GNN embed.
- ``warm_lookup`` — closed loop, :data:`CALLERS` coroutines on one event
  loop, each awaiting ``async_score([address])`` before its next
  request; addresses drawn Zipf(:data:`ZIPF_S`) from a corpus warmed in
  set-up.  Nothing is built: routing, cache lookups, micro-batching and
  the sequence head.
- ``live_tip`` — open loop at :data:`LIVE_RATE` requests/s over a corpus
  that is :data:`WARM_SHARE` warm, while a writer thread appends a
  self-spend block every :data:`APPEND_EVERY` seconds.  Writes meet
  reads on the same layers; each request is timed from when it was due.

``refresh_ms`` is live_tip's figure; the other two report it from
:data:`PROBE_APPENDS` appends made on the idle cluster outside their
timed window (after each cold round, after the last warm part), so
every workload prints every end-to-end metric.  The warm window itself
sees no append: each append adds a store segment, and the warm path's
``ChainStore.transaction_count`` searches every segment, so appends
between warm parts would make each part slower than the one before.

Each cold round and each warm part is one :class:`Part` of the window;
throughput and median latency are percentiles over the parts (see
:data:`perfbench.bench.QUIET_PERCENTILE`).
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import statistics
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.graphs.pipeline import STAGE_NAMES
from repro.serve import ClusterConfig, ClusterScoringService
from repro.testing import append_self_spend

from perfbench.fixture import Fixture
from perfbench.layers import Probe

#: Addresses per ``score()`` call in cold_sweep.
BATCH = 16
#: Batch size of the set-up cache-fill pass.
FILL_BATCH = 64
#: Concurrent callers in warm_lookup.
CALLERS = 16
#: Zipf exponent of the popularity draws.
ZIPF_S = 1.2
#: live_tip arrival rate (requests/s): below the knee, with headroom,
#: because open-loop tails above it do not repeat from run to run.
LIVE_RATE = 150.0
#: Seconds between live_tip block appends.
APPEND_EVERY = 0.5
#: Share of the live_tip corpus scored during set-up.
WARM_SHARE = 0.9
#: live_tip's cold addresses are drawn from histories of at most this
#: many slices.  A cold multi-thousand-transaction history stalls its
#: micro-batch for seconds, and whether the draws reach it would depend
#: on the seed; small cold builds still block the batches they join.
MAX_COLD_SLICES = 4
#: Appends per refresh probe of cold_sweep/warm_lookup.
PROBE_APPENDS = 4
#: Length (s) of one warm_lookup part.
PART_SECONDS = 0.5
#: A request still pending after this long counts as failed.
REQUEST_TIMEOUT = 60.0


@dataclass
class Part:
    """One timed stretch of a window: a cold round or a warm part."""

    seconds: float
    addresses: int
    latencies: List[float]


@dataclass
class Window:
    """Everything one workload run measured."""

    seconds: float = 0.0
    addresses: int = 0
    latencies: List[float] = field(default_factory=list)
    parts: List[Part] = field(default_factory=list)
    setup_seconds: List[float] = field(default_factory=list)
    refresh_seconds: List[float] = field(default_factory=list)
    lags: List[float] = field(default_factory=list)
    #: Resident MB of this process plus live workers at the end of the
    #: window's first part: one cluster started, warmed and serving.
    #: Each shared page is split between the processes mapping it (PSS):
    #: workers are forked from this process and map the same store, so
    #: summing their own resident sizes would count what they share once
    #: per process.  Later samples would depend on how far a run got:
    #: every cluster started leaves this process larger, and every warm
    #: request adds a record for the oracle.
    rss_mb: float = 0.0
    failures: List[str] = field(default_factory=list)
    #: ``(request, address, probabilities, lo, hi)`` for the oracle,
    #: where ``lo..hi`` are the heights committed while it was in flight.
    #: Requests outside the window (the first cluster's set-up fill,
    #: refresh probes) have negative numbers.
    records: List[Tuple[int, str, np.ndarray, int, int]] = field(
        default_factory=list
    )
    setup_requests: int = 0
    #: Counter deltas over the timed window, summed over clusters.
    counters: Dict[str, float] = field(default_factory=dict)
    #: Program spans finished inside the timed window (traced runs).
    program_spans: List[Dict] = field(default_factory=list)
    store_segments: int = 0
    store_mapped_mb: float = 0.0
    #: ``(steal, total)`` CPU ticks over the timed parts.
    steal_ticks: List[int] = field(default_factory=lambda: [0, 0])

    @property
    def attempted(self) -> int:
        return len(self.latencies) + len(self.failures) + self.setup_requests


class Runner:
    """Builds clusters for one workload run and measures their windows.

    With a :class:`~perfbench.layers.Probe`, the probe's wrappers are
    installed before the first cluster exists and recording is on only
    inside timed windows and refresh probes; without one, nothing of the
    program is wrapped.
    """

    def __init__(self, fixture: Fixture, workdir: Path,
                 probe: Optional[Probe] = None, setups: int = 3):
        self.fixture = fixture
        self.workdir = workdir
        self.probe = probe
        self.setups = setups
        self.window = Window()
        self._clusters = 0
        self._open: List[ClusterScoringService] = []
        #: ``id()`` -> number of each open cluster.  Numbers are never
        #: reused; ids of closed clusters are.
        self._numbers: Dict[int, int] = {}
        self._levels: Dict[Tuple[int, str], float] = {}

    # ------------------------------------------------------------------ #
    # Cluster lifecycle
    # ------------------------------------------------------------------ #

    def new_cluster(self) -> ClusterScoringService:
        self._clusters += 1
        cluster = ClusterScoringService(
            self.fixture.classifier,
            self.fixture.index,
            chain=self.fixture.chain,
            config=ClusterConfig(
                store_dir=str(self.workdir / f"store{self._clusters}"),
                num_workers=os.cpu_count() or 1,
            ),
        )
        self._open.append(cluster)
        self._numbers[id(cluster)] = self._clusters
        if self.probe is not None:
            self.probe.register(cluster)
        return cluster

    def close(self, cluster: ClusterScoringService) -> None:
        self._open.remove(cluster)
        del self._numbers[id(cluster)]
        cluster.close()

    def close_all(self) -> None:
        while self._open:
            self.close(self._open[-1])

    def set_up(self, addresses: List[str]) -> ClusterScoringService:
        """Start a cluster warmed on ``addresses`` and return it.  Its
        start-to-ready time is one ``setup_s`` sample, and its fill,
        which holds every first lookup of the warm corpus, goes to the
        oracle."""
        cluster, filled = self._start_warm(addresses)
        height = self.fixture.height
        for chunk, scores in filled:
            self.window.setup_requests += 1
            for address in chunk:
                self.window.records.append(
                    (-self.window.setup_requests, address,
                     scores[address].probabilities, height, height)
                )
        return cluster

    def repeat_set_up(self, addresses: List[str]) -> None:
        """Take the other ``setups - 1`` ``setup_s`` samples: start a
        cluster warmed on ``addresses``, then close it.  Called after the
        timed window, so the window runs in a process that has started
        one cluster: every cluster started leaves this process larger."""
        for _ in range(self.setups - 1):
            cluster, _ = self._start_warm(addresses)
            self.close(cluster)

    def _start_warm(self, addresses: List[str]):
        start = time.perf_counter()
        cluster = self.new_cluster()
        filled = [
            (chunk, cluster.score(chunk))
            for chunk in (
                addresses[i:i + FILL_BATCH]
                for i in range(0, len(addresses), FILL_BATCH)
            )
        ]
        self.window.setup_seconds.append(time.perf_counter() - start)
        return cluster, filled

    # ------------------------------------------------------------------ #
    # Timed windows
    # ------------------------------------------------------------------ #

    def measure(self, cluster: ClusterScoringService,
                body: Callable[[], None]) -> None:
        """Run ``body`` as (part of) the timed window on ``cluster``."""
        number = self._numbers[id(cluster)]
        before = _counters(cluster)
        first_request = len(self.window.latencies)
        first_address = self.window.addresses
        steal_before = cpu_steal()
        wall_start = time.time()
        if self.probe is not None:
            self.probe.recording = True
        start = time.perf_counter()
        try:
            body()
        finally:
            elapsed = time.perf_counter() - start
            if self.probe is not None:
                self.probe.recording = False
        wall_end = time.time()
        steal_after = cpu_steal()
        if steal_before is not None and steal_after is not None:
            for i in (0, 1):
                self.window.steal_ticks[i] += steal_after[i] - steal_before[i]
        self.window.seconds += elapsed
        self.window.parts.append(Part(
            elapsed,
            self.window.addresses - first_address,
            self.window.latencies[first_request:],
        ))
        after = _counters(cluster)
        for key, value in after.items():
            if key in _LEVELS:
                self._levels[(number, key)] = value
            else:
                self.window.counters[key] = (
                    self.window.counters.get(key, 0.0) + value - before[key]
                )
        for key in _LEVELS:
            self.window.counters[key] = sum(
                value for (_, name), value in self._levels.items()
                if name == key
            )
        if self.probe is not None:
            self.window.program_spans.extend(
                span for span in _flat_spans(obs.export_traces())
                if wall_start <= span["start"] <= wall_end
            )
        if len(self.window.parts) == 1:
            self.window.rss_mb = _rss_mb()
        store = cluster.shards[0].index.store
        self.window.store_segments = store.num_segments
        self.window.store_mapped_mb = store.mapped_nbytes() / 2**20

    def done(self, seconds: float) -> bool:
        """Whether the timed window has run for ``seconds``."""
        return self.window.seconds >= seconds

    def request_span(self):
        if self.probe is None:
            return nullcontext()
        return self.probe.span("bench.request")

    def record(self, scores, addresses, latency: float,
               lo: int, hi: int) -> None:
        request = len(self.window.latencies)
        self.window.latencies.append(latency)
        self.window.addresses += len(addresses)
        for address in addresses:
            self.window.records.append(
                (request, address, scores[address].probabilities, lo, hi)
            )

    def fail(self, error: BaseException) -> None:
        self.window.failures.append(f"{type(error).__name__}: {error}")

    def refresh_probe(self, cluster: ClusterScoringService) -> None:
        """Append on the idle cluster, timing each touched re-score.

        In a traced run the probe records these appends: they are where
        cold_sweep and warm_lookup exercise the chain, store and
        invalidation layers.
        """
        fixture = self.fixture
        targets = fixture.targets
        if self.probe is not None:
            self.probe.recording = True
        try:
            self._append_and_score(cluster, targets)
        finally:
            if self.probe is not None:
                self.probe.recording = False

    def _append_and_score(self, cluster, targets: List[str]) -> None:
        fixture = self.fixture
        for _ in range(PROBE_APPENDS):
            target = targets[len(self.window.refresh_seconds) % len(targets)]
            start = time.perf_counter()
            append_self_spend(fixture.chain, target)
            height = fixture.height
            scores = cluster.score([target])
            self.window.refresh_seconds.append(time.perf_counter() - start)
            self.window.setup_requests += 1
            self.window.records.append(
                (-self.window.setup_requests, target,
                 scores[target].probabilities, height, height)
            )


# ---------------------------------------------------------------------- #
# Workloads
# ---------------------------------------------------------------------- #


def cold_sweep(runner: Runner, seconds: float) -> None:
    fixture = runner.fixture
    # The primer starts the worker pool during set-up; the sweep never
    # asks for it, so every swept slice is a first build.
    primer = min(fixture.corpus, key=fixture.index.transaction_count)
    sweep = [address for address in fixture.corpus if address != primer]
    rng = np.random.default_rng([fixture.seed, 4])
    while True:
        # A new order per round, so batch compositions do not repeat.
        order = [sweep[i] for i in rng.permutation(len(sweep))]
        batches = [order[i:i + BATCH] for i in range(0, len(order), BATCH)]
        start = time.perf_counter()
        cluster = runner.new_cluster()
        cluster.score([primer])
        runner.window.setup_seconds.append(time.perf_counter() - start)

        def body() -> None:
            height = fixture.height
            for batch in batches:
                request_start = time.perf_counter()
                try:
                    with runner.request_span():
                        scores = cluster.score(batch)
                except Exception as error:  # counted, run continues
                    runner.fail(error)
                    continue
                runner.record(
                    scores, batch, time.perf_counter() - request_start,
                    height, height,
                )

        runner.measure(cluster, body)
        runner.refresh_probe(cluster)
        runner.close(cluster)
        if runner.done(seconds):
            return


def warm_lookup(runner: Runner, seconds: float) -> None:
    fixture = runner.fixture
    cluster = runner.set_up(fixture.corpus)
    draws = _zipf_draws(fixture, stream=1)

    async def caller(deadline: float) -> None:
        height = fixture.height
        while time.perf_counter() < deadline:
            address = fixture.corpus[next(draws)]
            start = time.perf_counter()
            try:
                with runner.request_span():
                    scores = await asyncio.wait_for(
                        cluster.async_score([address]), REQUEST_TIMEOUT
                    )
            except Exception as error:  # counted, run continues
                runner.fail(error)
                continue
            runner.record(
                scores, [address], time.perf_counter() - start,
                height, height,
            )

    async def callers() -> None:
        deadline = time.perf_counter() + PART_SECONDS
        await asyncio.gather(*(caller(deadline) for _ in range(CALLERS)))

    while not runner.done(seconds):
        runner.measure(cluster, lambda: asyncio.run(callers()))
    runner.refresh_probe(cluster)
    runner.close(cluster)
    runner.repeat_set_up(fixture.corpus)


def live_tip(runner: Runner, seconds: float) -> None:
    fixture = runner.fixture
    targets = fixture.targets
    candidates = [
        a for a in fixture.corpus
        if a not in targets and fixture.slices_of(a) <= MAX_COLD_SLICES
    ]
    rng = np.random.default_rng([fixture.seed, 2])
    cold = set(
        rng.choice(
            candidates,
            size=int(round(len(fixture.corpus) * (1 - WARM_SHARE))),
            replace=False,
        ).tolist()
    )
    cluster = runner.set_up([a for a in fixture.corpus if a not in cold])
    draws = _zipf_draws(fixture, stream=3)
    # Height whose block (and every listener of it) has fully landed:
    # a request sent now sees at least this state.
    committed = [fixture.height]

    async def request(address: str, due: float) -> float:
        lo = committed[0]
        try:
            with runner.request_span():
                scores = await asyncio.wait_for(
                    cluster.async_score([address]), REQUEST_TIMEOUT
                )
        except Exception as error:  # counted, run continues
            runner.fail(error)
            return time.perf_counter()
        done = time.perf_counter()
        runner.record(scores, [address], done - due, lo, fixture.height)
        return done

    async def appender(start: float, writer: ThreadPoolExecutor) -> None:
        loop = asyncio.get_running_loop()
        k = 1
        while k * APPEND_EVERY < seconds:
            await _sleep_until(start + k * APPEND_EVERY)
            refreshes = runner.window.refresh_seconds
            target = targets[len(refreshes) % len(targets)]
            append_start = time.perf_counter()
            await loop.run_in_executor(
                writer, append_self_spend, fixture.chain, target
            )
            committed[0] = fixture.height
            done = await request(target, time.perf_counter())
            refreshes.append(done - append_start)
            k += 1

    async def generator() -> None:
        start = time.perf_counter()
        with ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="perfbench-writer"
        ) as writer:
            tasks = [asyncio.ensure_future(appender(start, writer))]
            for i in range(int(seconds * LIVE_RATE)):
                due = start + i / LIVE_RATE
                await _sleep_until(due)
                runner.window.lags.append(time.perf_counter() - due)
                address = fixture.corpus[next(draws)]
                tasks.append(asyncio.ensure_future(request(address, due)))
            await asyncio.gather(*tasks)

    runner.measure(cluster, lambda: asyncio.run(generator()))
    runner.close(cluster)
    runner.repeat_set_up([a for a in fixture.corpus if a not in cold])


WORKLOAD_BODIES: Dict[str, Callable[[Runner, float], None]] = {
    "cold_sweep": cold_sweep,
    "warm_lookup": warm_lookup,
    "live_tip": live_tip,
}


# ---------------------------------------------------------------------- #
# Helpers
# ---------------------------------------------------------------------- #


async def _sleep_until(deadline: float) -> None:
    delay = deadline - time.perf_counter()
    if delay > 0:
        await asyncio.sleep(delay)


def _zipf_draws(fixture: Fixture, stream: int) -> Iterator[int]:
    """Endless Zipf(:data:`ZIPF_S`) corpus positions from the seed."""
    rng = np.random.default_rng([fixture.seed, stream])
    weights = np.arange(1, len(fixture.corpus) + 1, dtype=float) ** -ZIPF_S
    weights /= weights.sum()
    while True:
        yield from rng.choice(len(weights), size=4096, p=weights).tolist()


#: Counters reported as their level at window end, not as a delta,
#: summed over clusters: a pool started during set-up counts once.
_LEVELS = frozenset({"pool.starts"})


def _counters(cluster: ClusterScoringService) -> Dict[str, float]:
    """Every count the program exports, flattened to one dict."""
    out: Dict[str, float] = {}
    for row in cluster.construction_report():
        out[f"{row['stage']}.seconds"] = row["total_seconds"]
        out[f"{row['stage']}.entries"] = row["entries"]
    for stage in STAGE_NAMES:
        out.setdefault(f"{stage}.seconds", 0.0)
        out.setdefault(f"{stage}.entries", 0.0)
    for key, value in cluster.pool_stats().items():
        out[f"pool.{key}"] = value
    for key, value in cluster.micro_batch_stats().items():
        out[f"microbatch.{key}"] = value
    for key, value in cluster.stats.snapshot().items():
        out[f"slice.{key}"] = value
    embedding = cluster.embedding_stats
    for key, value in embedding.snapshot().items():
        out[f"embed.{key}"] = value
    snapshot = obs.snapshot()
    for name, value in snapshot["counters"].items():
        out[f"obs.{name}"] = value
    for name, histogram in snapshot["histograms"].items():
        out[f"obs.{name}.sum"] = histogram["sum"]
        out[f"obs.{name}.count"] = sum(histogram["counts"])
    return out


def _flat_spans(traces: List[Dict]) -> Iterator[Dict]:
    stack = [span for trace in traces for span in trace["spans"]]
    while stack:
        span = stack.pop()
        stack.extend(span["children"])
        yield span


def cpu_steal() -> Optional[Tuple[int, int]]:
    """``(steal, total)`` CPU ticks from ``/proc/stat``, when readable."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = [int(value) for value in handle.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    if len(fields) < 8:
        return None
    return fields[7], sum(fields)


def steal_pct(before, after) -> float:
    """Stolen share of CPU time between two :func:`cpu_steal` readings."""
    return 100 * (after[0] - before[0]) / max(after[1] - before[1], 1)


def _rss_mb() -> float:
    """Resident MB (PSS) of this process plus its live children."""
    pids = [os.getpid()] + [p.pid for p in multiprocessing.active_children()]
    total_kb = 0
    for pid in pids:
        try:
            path = f"/proc/{pid}/smaps_rollup"
            with open(path, encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("Pss:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue  # the child exited between listing and reading
    return total_kb / 1024


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0

