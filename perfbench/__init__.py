"""The repository benchmark: Table-1 overhead, a durable fleet and remote
ingest, driven through the public detection entry points.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; ``--workload all`` runs every
workload and prints one table.  See ``BENCHMARK.json`` for the metrics.
"""
