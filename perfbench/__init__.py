"""Benchmark of the mtabl library; run it with ``python3 perfbench/run.py``."""
