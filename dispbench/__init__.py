"""Benchmark harness for dispersim: workloads, output checks and tracing.

Run it with ``python3 dispbench/run.py --workload NAME --seed N --seconds S
--trace 0|1`` from the repository root; see ``dispbench/README.md``.
"""
