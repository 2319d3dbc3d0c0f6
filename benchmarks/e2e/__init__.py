"""End-to-end benchmark: four workloads, their metrics and a traced per-layer split.

``run.py`` measures one workload (the command ``BENCHMARK.json`` names);
``python -m benchmarks.e2e run`` measures all four and ``compare`` checks
two such result files against the bounds in ``BENCHMARK.json``.  See
README.md.
"""
