"""One benchmark run: fixture, timed window(s), oracle check, metrics.

``--trace 0`` measures one untraced window and reports the end-to-end
metrics.  ``--trace 1`` measures an untraced window and then a traced
one (the :class:`~perfbench.layers.Probe` installed, the program's own
span ring enlarged so no span of the window is dropped) and reports the
per-layer metrics of the traced window, plus the tracing overhead
between the two.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import platform
import shutil
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import obs

from perfbench.fixture import FULL, Fixture, Oracle, Scale
from perfbench.layers import SPAN_NAMES, Probe
from perfbench.workloads import (
    LIVE_RATE,
    WORKLOAD_BODIES,
    Runner,
    Window,
    median,
    steal_pct,
)

#: ``(name, unit)`` of every end-to-end metric in the result, in order.
END_TO_END = (
    ("setup_s", "s"),
    ("addr_per_s", "addr/s"),
    ("latency_p50_ms", "ms"),
    ("rss_mb", "MB"),
)
#: End-to-end figures printed beside the result but not part of it.
#: Latency tails and the ~25 ms append-to-fresh-score time of this
#: GIL-bound service follow the host's CPU steal (warm p99 from 10 to
#: 27 ms, refresh spread up to 0.28 of its median, over runs with
#: 0.5-14% steal), too loosely for a bound; ``failed_frac`` is 0 on
#: every correct run, and the result's ``failed``/``attempted`` carry it.
UNBOUNDED = (
    ("latency_tail_ms", "ms"),
    ("refresh_ms", "ms"),
    ("failed_frac", "ratio"),
)

#: ``(name, unit)`` of every per-layer metric, in print order.
PER_LAYER = (
    ("router.calls", "count"),
    ("router.partition_us", "us"),
    ("cache.slice.get_us", "us"),
    ("cache.slice.put_us", "us"),
    ("cache.slice.hit_ratio", "ratio"),
    ("cache.embed.get_us", "us"),
    ("cache.embed.hit_ratio", "ratio"),
    ("cache.slice.invalidations", "count"),
    ("serve.requests", "count"),
    ("serve.microbatch.requests_per_batch", "count"),
    ("serve.microbatch.wait_ms", "ms"),
    ("serve.shard_lock_wait_ms", "ms"),
    ("serve.version_retries", "count"),
    ("pool.build_wait_s", "s"),
    ("pool.worker_busy_s", "s"),
    ("pool.utilization", "ratio"),
    ("pool.starts", "count"),
    ("pool.ingest_batches", "count"),
    ("pool.remaps", "count"),
    ("graphs.slices_built", "count"),
    ("graphs.stage1_s", "s"),
    ("graphs.stage2_s", "s"),
    ("graphs.stage3_s", "s"),
    ("graphs.stage4_s", "s"),
    ("graphs.us_per_slice", "us"),
    ("worker.unattributed_frac", "ratio"),
    ("embed.graphs", "count"),
    ("embed.ms", "ms"),
    ("embed.us_per_graph", "us"),
    ("infer.plan_compiles", "count"),
    ("infer.plan_hits", "count"),
    ("head.calls", "count"),
    ("head.sequences", "count"),
    ("head.us_per_sequence", "us"),
    ("chain.on_block_ms", "ms"),
    ("store.append_block_ms", "ms"),
    ("store.remap_ms", "ms"),
    ("store.sync_s", "s"),
    ("store.segments", "count"),
    ("store.mapped_mb", "MB"),
    ("serve.on_block_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("gen.lag_ms", "ms"),
) + tuple((f"{name}.self_ms", "ms") for name in SPAN_NAMES)

#: Per workload, throughput is this percentile of the parts' rates and
#: median latency the mirror percentile (100 minus it) of the parts'
#: medians.  On a small shared VM other guests take CPU time in bursts
#: of seconds, and a warm part, made of thread handoffs and a coalescing
#: sleep, slows by about twice the share they take (10-15% steal took
#: 20-30% off a 0.5-s part's rate): so warm_lookup, with ~50 parts a
#: run, reports its quietest tenth, which says what the program does
#: while the rest says what the host did.  Over six warm runs on 2 vCPUs
#: with 3-15% steal, the median over parts spread 0.31 of its median
#: (IQR) and the 90th percentile 0.15.  A cold round lasts ~2.5 s and
#: a run has ~10: a burst covers a share of most rounds, what sets a
#: round apart is its batch mix, and the 90th percentile of ten
#: (spread 0.14 over ten runs) lands on the one or two fastest, so
#: cold_sweep reports the median.  live_tip is one part.
QUIET_PERCENTILE = {"cold_sweep": 50.0, "warm_lookup": 90.0,
                    "live_tip": 50.0}

#: ``latency_tail_ms`` percentile per workload, the highest one its
#: request count leaves at least ten samples beyond.
TAIL_PERCENTILE = {"cold_sweep": 75.0, "warm_lookup": 99.0, "live_tip": 99.0}
#: Fallbacks when a slow host makes fewer requests than expected.
_PERCENTILE_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: Cluster starts (each with its cache fill) per untraced run of a
#: workload that warms a corpus; ``setup_s`` is their median.
SETUPS = 5

#: The program's span ring: enlarged during the traced window, then put
#: back to the ``repro.obs`` default.
_TRACE_RING = 1 << 20
_DEFAULT_RING = 4096
_STAGE_PREFIX = "pipeline.stage"


def run_benchmark(
    workload: str, seed: int, seconds: float, trace: bool, root: Path,
    scale: Scale = FULL,
) -> Tuple[Dict, Dict, Dict, List[str]]:
    """Run one workload; returns ``(result, extra, host facts, messages)``.

    ``result`` is the JSON result object (``correct``, ``attempted``,
    ``failed``, ``metrics``); ``extra`` holds the :data:`UNBOUNDED`
    figures of an untraced run; ``messages`` are the failures and oracle
    mismatches, if any.
    """
    fixture = Fixture(seed, scale)
    workdir = root / ".perfbench" / f"work-{os.getpid()}"
    probe: Optional[Probe] = None
    try:
        windows = [
            _measure(workload, fixture, workdir / "plain", seconds, None,
                     setups=1 if trace else SETUPS)
        ]
        if trace:
            probe = Probe()
            obs.reset()
            obs.configure(ring_capacity=_TRACE_RING)
            probe.install(fixture)
            try:
                windows.append(
                    _measure(workload, fixture, workdir / "traced", seconds,
                             probe, setups=1)
                )
            finally:
                probe.uninstall()
                obs.configure(ring_capacity=_DEFAULT_RING)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        for child in multiprocessing.active_children():
            child.join(timeout=30)

    messages: List[str] = []
    attempted = failed = 0
    oracle = Oracle(fixture)
    for window in windows:
        mismatches = oracle.verify([record[1:] for record in window.records])
        bad_requests = {window.records[i][0] for i in mismatches}
        messages += window.failures + list(mismatches.values())
        attempted += window.attempted
        failed += len(window.failures) + len(bad_requests)

    tail = _tail_percentile(workload, len(windows[0].latencies))
    extra: Dict[str, Dict] = {}
    if trace:
        metrics = _per_layer(windows[1], windows[0], probe)
        traces = root / ".perfbench" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        probe.write_spans(traces / f"{workload}-seed{seed}.jsonl")
    else:
        metrics = _end_to_end(windows[0], QUIET_PERCENTILE[workload])
        latencies_ms = np.asarray(windows[0].latencies) * 1e3
        extra = {
            "latency_tail_ms": _metric(
                np.percentile(latencies_ms, tail), "ms"
            ),
            "refresh_ms": _metric(
                median(windows[0].refresh_seconds) * 1e3, "ms"
            ),
            "failed_frac": _metric(
                failed / attempted if attempted else 1.0, "ratio"
            ),
        }
    result = {
        "correct": failed == 0 and oracle.checks > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    facts = host_facts(root, workload, seed, seconds, tail)
    facts.update(fixture.history_facts())
    facts["oracle_checks"] = oracle.checks
    # The share of CPU time the hypervisor gave other guests while the
    # timed parts ran: a run with a high share is slow for reasons
    # outside the program.
    facts["cpu_steal_pct"] = steal_pct((0, 0), windows[0].steal_ticks)
    facts["parts"] = len(windows[0].parts)
    return result, extra, facts, messages


def _measure(workload: str, fixture: Fixture, workdir: Path, seconds: float,
             probe: Optional[Probe], setups: int) -> Window:
    runner = Runner(fixture, workdir, probe, setups)
    try:
        WORKLOAD_BODIES[workload](runner, seconds)
    finally:
        runner.close_all()
    return runner.window


# ---------------------------------------------------------------------- #
# Metrics
# ---------------------------------------------------------------------- #


def _metric(value: float, unit: str) -> Dict:
    return {"value": float(value), "unit": unit}


def _percentile(values: List[float], percentile: float) -> float:
    return float(np.percentile(values, percentile)) if values else 0.0


def _tail_percentile(workload: str, samples: int) -> float:
    wanted = TAIL_PERCENTILE[workload]
    for percentile in _PERCENTILE_LADDER:
        if percentile <= wanted and samples * (1 - percentile / 100) >= 10:
            return percentile
    return 50.0


def _end_to_end(window: Window, percentile: float) -> Dict[str, Dict]:
    parts = window.parts
    values = {
        "setup_s": median(window.setup_seconds),
        "addr_per_s": _percentile(
            [part.addresses / part.seconds for part in parts], percentile
        ),
        "latency_p50_ms": _percentile(
            [median(part.latencies) for part in parts if part.latencies],
            100 - percentile,
        ) * 1e3,
        "rss_mb": window.rss_mb,
    }
    return {name: _metric(values[name], unit) for name, unit in END_TO_END}


def _per_layer(window: Window, untraced: Window, probe: Probe) -> Dict:
    counters = window.counters
    spans = probe.span_totals()

    def count(key: str) -> float:
        return counters.get(key, 0.0)

    def mean_ms(name: str) -> float:
        calls, total, _ = spans[name]
        return total / calls * 1e3 if calls else 0.0

    def per_unit_us(name: str) -> float:
        units = probe.units[name]
        return spans[name][1] / units * 1e6 if units else 0.0

    def cache_us(key: str) -> float:
        return median(probe.cache_ns.get(key, [])) / 1e3

    def ratio(hits: float, misses: float) -> float:
        return hits / (hits + misses) if hits + misses else 0.0

    pid = os.getpid()

    def program_seconds(match) -> float:
        return sum(
            span["duration"] for span in window.program_spans if match(span)
        )

    build_wait = program_seconds(
        lambda s: s["name"] == "serve.build" and s["pid"] == pid
    )
    busy = program_seconds(
        lambda s: s["name"] in ("worker.build", "serve.build_task")
    )
    staged = program_seconds(
        lambda s: s["name"].startswith(_STAGE_PREFIX) and s["pid"] != pid
    )
    score_passes = [
        span["duration"] for span in window.program_spans
        if span["name"] == "serve.score"
    ]
    stage_seconds = [
        count(f"{stage}.seconds")
        for stage in (
            "stage1_extraction", "stage2_single_compression",
            "stage3_multi_compression", "stage4_augmentation",
        )
    ]
    slices = count("stage1_extraction.entries")
    batches = count("microbatch.batches")
    lock_waits = count("obs.shard_lock_wait_seconds.count")
    workers = os.cpu_count() or 1
    traced_rate = window.addresses / window.seconds
    untraced_rate = untraced.addresses / untraced.seconds
    values = {
        "router.calls": spans["router.partition"][0],
        "router.partition_us": mean_ms("router.partition") * 1e3,
        "cache.slice.get_us": cache_us("slice.get.hit"),
        "cache.slice.put_us": cache_us("slice.put"),
        "cache.slice.hit_ratio": ratio(count("slice.hits"),
                                       count("slice.misses")),
        "cache.embed.get_us": cache_us("embed.get.hit"),
        "cache.embed.hit_ratio": ratio(count("embed.hits"),
                                       count("embed.misses")),
        "cache.slice.invalidations": count("slice.invalidations"),
        "serve.requests": count("obs.serve_requests_total"),
        "serve.microbatch.requests_per_batch": (
            count("microbatch.batched_requests") / batches if batches else 0.0
        ),
        "serve.microbatch.wait_ms": (
            (median(window.latencies) - median(score_passes)) * 1e3
            if batches else 0.0
        ),
        "serve.shard_lock_wait_ms": (
            count("obs.shard_lock_wait_seconds.sum") / lock_waits * 1e3
            if lock_waits else 0.0
        ),
        "serve.version_retries": count("obs.shard_version_retries_total"),
        "pool.build_wait_s": build_wait,
        "pool.worker_busy_s": busy,
        "pool.utilization": busy / (window.seconds * workers),
        "pool.starts": count("pool.starts"),
        "pool.ingest_batches": count("pool.ingest_batches"),
        "pool.remaps": count("pool.remaps"),
        "graphs.slices_built": slices,
        "graphs.us_per_slice": (
            sum(stage_seconds) / slices * 1e6 if slices else 0.0
        ),
        "worker.unattributed_frac": 1 - staged / busy if busy else 0.0,
        "embed.graphs": probe.units["gnn.embed"],
        "embed.ms": spans["gnn.embed"][1] * 1e3,
        "embed.us_per_graph": per_unit_us("gnn.embed"),
        "infer.plan_compiles": count("obs.plan_compiles_total"),
        "infer.plan_hits": count("obs.plan_hits_total"),
        "head.calls": spans["seq.head"][0],
        "head.sequences": probe.units["seq.head"],
        "head.us_per_sequence": per_unit_us("seq.head"),
        "chain.on_block_ms": mean_ms("chain.on_block"),
        "store.append_block_ms": mean_ms("store.append_block"),
        "store.remap_ms": mean_ms("store.remap"),
        "store.sync_s": mean_ms("store.sync_from_index") / 1e3,
        "store.segments": window.store_segments,
        "store.mapped_mb": window.store_mapped_mb,
        "serve.on_block_ms": mean_ms("serve.on_block"),
        "trace.overhead_pct": (untraced_rate / traced_rate - 1) * 100,
        "gen.lag_ms": (
            float(np.percentile(window.lags, 99)) * 1e3 if window.lags else 0.0
        ),
    }
    for stage, seconds in enumerate(stage_seconds, start=1):
        values[f"graphs.stage{stage}_s"] = seconds
    for name in SPAN_NAMES:
        values[f"{name}.self_ms"] = spans[name][2] * 1e3
    return {name: _metric(values[name], unit) for name, unit in PER_LAYER}


# ---------------------------------------------------------------------- #
# Host facts
# ---------------------------------------------------------------------- #


def host_facts(root: Path, workload: str, seed: int, seconds: float,
               tail: float) -> Dict:
    """What a result needs next to it to be compared fairly."""
    facts = {
        "workload": workload,
        "seed": seed,
        "run_seconds": seconds,
        "cpus": os.cpu_count(),
        "num_workers": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _commit(root),
        "source_sha256": _source_digest(root),
        "latency_tail_percentile": tail,
    }
    if workload == "live_tip":
        facts["live_rate_per_s"] = LIVE_RATE
    return facts


def _commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` when there is one."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest(root: Path) -> str:
    """SHA-256 over the program's Python sources (identifies a checkout
    that is not a git repository)."""
    digest = hashlib.sha256()
    src = root / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]
