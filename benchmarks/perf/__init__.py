"""Scripted closed-loop benchmark of record (see README.md in this directory).

Entry points: ``python3 benchmarks/perf/run.py --workload W --seed N
--seconds S --trace 0|1`` (the contract in ``BENCHMARK.json``) and
``python -m benchmarks.perf {run,repeat,compare}``.
"""
