"""perfbench — the repository's end-to-end benchmark.

Run it from the root of a checkout::

    python3 perfbench/run.py --workload refresh_nightly --seed 1 --seconds 10 --trace 0

``BENCHMARK.json`` at the root names the workloads and the metrics; see
:mod:`perfbench.run` for what each run prints.
"""
