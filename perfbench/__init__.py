"""The repository benchmark: three workloads timed end to end and, in a
separate traced run, layer by layer.  Entry point: ``perfbench/run.py``;
documentation: ``perfbench/README.md``."""
