"""The repository benchmark: four seeded workloads, end-to-end and per-layer metrics.

Run ``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
from the repository root; ``perfbench/README.md`` describes the workloads,
the metrics and the output format.
"""
