"""perfbench: the wall-clock benchmark of this repository.

Four workloads, end-to-end metrics measured with tracing off, per-layer
metrics from a traced repeat of the same work.  See ``README.md`` here
and ``BENCHMARK.json`` at the repository root.
"""
