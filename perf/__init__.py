"""perf — the reference benchmark (see perf/README.md and BENCHMARK.json)."""
