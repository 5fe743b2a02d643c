"""Google-Benchmark-style reporting (paper namespace ``FIDESlib::bench``).

The paper uses Google Benchmark for its performance harness; this package
provides the equivalent reporting layer for the Python reproduction: result
tables with named rows/columns, speedup computation against a baseline
column, and text/markdown/CSV rendering used by the ``benchmarks/``
directory (model constants and rationale: :mod:`repro.perf.calibration`).
"""

from repro.bench.reporting import BenchmarkTable, format_seconds, speedup

__all__ = ["BenchmarkTable", "format_seconds", "speedup"]
