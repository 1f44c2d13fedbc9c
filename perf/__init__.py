"""The repo benchmark: five workloads, calibrated host-cost metrics,
per-layer attribution.  See perf/README.md; entry point perf/run.py."""
