"""Benchmark of the capfolio CLI; run perfbench/run.py."""
