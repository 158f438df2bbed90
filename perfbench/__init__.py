"""Benchmark of the qgroth command-line front end; see README.md."""
