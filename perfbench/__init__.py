"""Benchmark of the grasspack command line; see README.md."""
