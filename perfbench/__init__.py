"""Benchmark of the guided-DDPG package; see README.md."""
