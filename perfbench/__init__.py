"""Benchmark harness for the conedef command line (see README.md)."""
