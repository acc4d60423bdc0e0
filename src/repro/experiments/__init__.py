"""Experiment harness: one module per paper table/figure.

Every module exposes a ``run(...)`` function returning a structured result
and a ``render(result)`` function producing the ASCII table the benchmarks
print.  ``repro.experiments.runner`` provides shared machinery (benchmark
lists, scaled instruction budgets, baseline caching) and
``repro.experiments.parallel`` fans independent simulation cells across
worker processes (``REPRO_JOBS`` controls the pool size).
"""
