"""The repository benchmark: the scoring service end to end, layer by layer.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload against a store-backed
:class:`~repro.serve.ClusterScoringService` and prints one JSON result
line; see :mod:`perfbench.run`.
"""
