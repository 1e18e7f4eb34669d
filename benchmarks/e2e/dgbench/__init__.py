"""Layered end-to-end benchmark harness for the Dominant Graph serving stack.

Entry point: ``benchmarks/e2e/run.py``.  See ``benchmarks/e2e/README.md``
for the workload and metric catalogue.
"""
