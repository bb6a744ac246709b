"""The repository benchmark: end-to-end and per-layer metrics of the Flash
reproduction on four workloads.  Run ``python3 perfbench/run.py --help``;
the method is described in ``perfbench/METHODOLOGY.md``."""
