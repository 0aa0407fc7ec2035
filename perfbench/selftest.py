"""The benchmark's own tests, on a tiny world.

Run from the root of a checkout::

    python3 -m pytest perfbench/selftest.py -q

Each workload runs for a few seconds: every named metric must be
emitted with its unit, the oracle must have checked scores (and must
catch a wrong one), and no program attribute may be wrapped outside
the traced window.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import repro.serve.service as serve_service  # noqa: E402
from repro.chain.store import ChainStore  # noqa: E402
from repro.serve.cache import SliceGraphCache  # noqa: E402
from repro.serve.cluster import ClusterScoringService  # noqa: E402
from repro.serve.router import ShardRouter  # noqa: E402

from perfbench import bench, run, workloads  # noqa: E402
from perfbench.fixture import TINY, Fixture, Oracle  # noqa: E402

WORKLOADS = tuple(workloads.WORKLOAD_BODIES)
SECONDS = 2.5

#: Every attribute a probe may wrap, with its unwrapped value.
ORIGINALS = {
    (ShardRouter, "partition"): ShardRouter.__dict__["partition"],
    (ClusterScoringService, "on_block"):
        ClusterScoringService.__dict__["on_block"],
    (ChainStore, "append_block"): ChainStore.__dict__["append_block"],
    (ChainStore, "remap"): ChainStore.__dict__["remap"],
    (ChainStore, "sync_from_index"): ChainStore.__dict__["sync_from_index"],
    (SliceGraphCache, "get"): SliceGraphCache.__dict__["get"],
    (SliceGraphCache, "put"): SliceGraphCache.__dict__["put"],
    (serve_service, "predict_proba_sequences"):
        serve_service.__dict__["predict_proba_sequences"],
}


def _unwrapped(fixture=None) -> bool:
    if fixture is not None and "embed_graphs" in vars(
        fixture.classifier.encoder
    ):
        return False
    return all(
        owner.__dict__[name] is original
        for (owner, name), original in ORIGINALS.items()
    )


def _check_metrics(metrics, catalogue) -> None:
    assert list(metrics) == [name for name, _ in catalogue]
    for name, unit in catalogue:
        assert metrics[name]["unit"] == unit, name
        assert math.isfinite(metrics[name]["value"]), name


@pytest.fixture()
def spy_unwrapped(monkeypatch):
    """Record, from inside each workload body, whether anything of the
    program was wrapped while the body ran."""
    seen = []
    for name, body in workloads.WORKLOAD_BODIES.items():
        def spied(runner, seconds, body=body):
            seen.append((runner.probe is None, _unwrapped(runner.fixture)))
            return body(runner, seconds)
        monkeypatch.setitem(workloads.WORKLOAD_BODIES, name, spied)
    return seen


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_end_to_end_metrics(workload, spy_unwrapped):
    result, extra, facts, messages = bench.run_benchmark(
        workload, 3, SECONDS, False, ROOT, scale=TINY
    )
    assert messages == []
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert facts["oracle_checks"] > 0
    _check_metrics(result["metrics"], bench.END_TO_END)
    for name, _ in bench.END_TO_END:
        assert result["metrics"][name]["value"] > 0, name
    _check_metrics(extra, bench.UNBOUNDED)
    assert extra["latency_tail_ms"]["value"] > 0
    assert extra["refresh_ms"]["value"] > 0
    assert extra["failed_frac"]["value"] == 0
    assert spy_unwrapped == [(True, True)]
    for key in ("cpus", "python", "numpy", "seed", "commit",
                "latency_tail_percentile"):
        assert key in facts
    assert ("live_rate_per_s" in facts) == (workload == "live_tip")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_per_layer_metrics(workload, spy_unwrapped):
    result, _, _, messages = bench.run_benchmark(
        workload, 3, SECONDS, True, ROOT, scale=TINY
    )
    assert messages == [] and result["correct"]
    _check_metrics(result["metrics"], bench.PER_LAYER)
    # Untraced window first, unwrapped; then the traced one, wrapped.
    assert spy_unwrapped == [(True, True), (False, False)]
    assert _unwrapped()
    traces = ROOT / ".perfbench" / "traces"
    assert (traces / f"{workload}-seed3.jsonl").is_file()
    metrics = result["metrics"]
    assert metrics["router.calls"]["value"] > 0
    assert metrics["head.calls"]["value"] > 0
    if workload == "warm_lookup":
        assert metrics["cache.slice.get_us"]["value"] > 0
        assert metrics["graphs.slices_built"]["value"] == 0
    if workload == "cold_sweep":
        assert metrics["cache.slice.put_us"]["value"] > 0
        assert metrics["pool.utilization"]["value"] > 0
    # Every workload appends blocks (live_tip in its window, the others
    # in refresh probes), so the chain layers are measured on each.
    assert metrics["serve.on_block_ms"]["value"] > 0
    assert metrics["store.append_block_ms"]["value"] > 0
    assert metrics["chain.on_block_ms"]["value"] > 0


def test_oracle_flags_a_wrong_score():
    fixture = Fixture(3, TINY)
    oracle = Oracle(fixture)
    address = fixture.corpus[0]
    height = fixture.height
    right = fixture.classifier.predict_proba([address], fixture.index)[0]
    wrong = right + np.where(np.arange(right.size) == 0, 1e-6, 0.0)
    failures = oracle.verify(
        [(address, right, height, height), (address, wrong, height, height)]
    )
    assert list(failures) == [1]
    assert oracle.checks == 2


def test_clusters_keep_their_numbers_when_ids_are_reused(tmp_path):
    fixture = Fixture(3, TINY)
    runner = workloads.Runner(fixture, tmp_path)
    batch = fixture.corpus[:2]
    height = fixture.height
    try:
        for _ in range(3):
            cluster = runner.new_cluster()
            runner.measure(cluster, lambda: runner.record(
                cluster.score(batch), batch, 0.01, height, height
            ))
            runner.close(cluster)
    finally:
        runner.close_all()
    assert runner.window.counters["pool.starts"] == 3
    assert [part.addresses for part in runner.window.parts] == [2, 2, 2]


def test_throughput_and_p50_are_percentiles_over_parts():
    # Eleven parts: rates 10, 20, ..., 110 addr/s and medians 110, 100,
    # ..., 10 ms, so the 90th/10th percentiles fall on exact parts.
    window = workloads.Window(
        setup_seconds=[1.0, 3.0, 2.0],
        parts=[
            workloads.Part(1.0, 10 * k, [0.001 * (120 - 10 * k)])
            for k in range(1, 12)
        ],
        rss_mb=10.0,
    )
    metrics = bench._end_to_end(window, 90.0)
    assert metrics["setup_s"]["value"] == 2.0
    assert metrics["addr_per_s"]["value"] == pytest.approx(100.0)
    assert metrics["latency_p50_ms"]["value"] == pytest.approx(20.0)
    assert metrics["rss_mb"]["value"] == 10.0
    metrics = bench._end_to_end(window, 50.0)
    assert metrics["addr_per_s"]["value"] == pytest.approx(60.0)
    assert metrics["latency_p50_ms"]["value"] == pytest.approx(60.0)


def test_a_window_ends_after_its_seconds(tmp_path):
    runner = workloads.Runner(None, tmp_path)
    runner.window.seconds = 3.9
    assert not runner.done(4.0)
    runner.window.seconds = 4.0
    assert runner.done(4.0)


def test_benchmark_json_names_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(w["name"] for w in spec["workloads"]) <= set(WORKLOADS)
    assert run.WORKLOADS == WORKLOADS
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        bench.END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        bench.PER_LAYER
    )


def test_cli_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
