"""Benchmark of the delpezzo classifier; run it with perfbench/run.py."""
