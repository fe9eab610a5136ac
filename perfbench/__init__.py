"""Benchmark harness for veclstm: see perfbench/README.md."""
