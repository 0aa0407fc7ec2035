"""Run one benchmark workload and print its result.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cold_sweep --seed 1 --seconds 10 --trace 0

Workloads: ``cold_sweep``, ``warm_lookup``, ``live_tip`` (see
:mod:`perfbench.workloads`).  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer ones.  Every metric is printed on
its own line with its unit (``--trace 0`` adds the unbounded
``latency_tail_ms``, with its percentile among the host facts, and
``failed_frac``), then the host facts, then — as the last line — one
JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exits 2 without a result when the checkout has no program
sources under ``src/``.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("cold_sweep", "warm_lookup", "live_tip")


def _positive(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=_positive)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.bench import run_benchmark

    # A terminated run still unwinds, so its clusters close and their
    # worker processes end with it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    result, extra, facts, messages = run_benchmark(
        args.workload, args.seed, args.seconds, bool(args.trace), ROOT
    )
    for message in messages:
        print(f"FAILED {message}")
    for name, metric in {**result["metrics"], **extra}.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print("host " + json.dumps(facts, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
