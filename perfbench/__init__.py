"""Benchmark of acgw; run it with ``python3 perfbench/run.py``."""
