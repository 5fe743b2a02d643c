"""repro.obs: the unified observability plane.

The paper's core contribution is *explaining where GPU CKKS time goes*
(launch overhead, memory movement, fusion wins); this package turns the
runtime signals every other plane already produces into one coherent
telemetry layer.

Module map (sources -> instruments / spans / timelines -> exports)
------------------------------------------------------------------

::

    repro.serve.metrics.ServeMetrics ───  counts *into* the registry: its
                │                         serve_* series are the only store
    repro.serve.bucketing.BucketQueue ─┐  live state, pulled at readout
    repro.serve.faults.FaultInjector ──┤  (watch_queue / watch_injector /
    repro.core.memory.MemoryPool ──────┘  watch_pool)
                │
                ▼
    repro.obs.registry.MetricsRegistry          (labeled Counter / Gauge /
        deterministic snapshot() ordering,       Histogram instruments)
        Prometheus text exposition
                │
    repro.serve.executor.Server hooks           (submit -> admission ->
                │                                queued -> fused -> drain ->
                ▼                                retry -> complete/error)
    repro.obs.spans.SpanTracer                  parent/child request spans
        on the server's SimulatedClock           with ShapeKey / batch-size /
                │                                error_kind attrs
                │
    repro.perf.trace_model.TraceCostModel       every priced drain feeds
        (Server._run_priced) ───────────────┐    both accumulators below
                │                           │
                ▼                           ▼
    repro.obs.rollup.ScopeRollup       repro.obs.plane.DrainTimeline
        per-scope time/bytes               ScheduleResult slots placed at
        (modeled via the schedule          the drain's simulated dispatch
        timeline, or eager wall clock      time
        via WallClockProfiler plugged
        into Dispatcher.profiling)
                │                           │
                ▼                           ▼
    obs.report() -- table / JSON       repro.obs.perfetto
        reconciles with the                Chrome-trace / Perfetto JSON:
        TraceCostModel makespan            kernel tracks (one per stream,
        at <= 1%                           plus host launches) + the span tree
                                           in one loadable file

:class:`Observability` (``session.observability()``) is the facade that
bundles one registry, one tracer, one rollup and the export timelines;
hand it to ``session.server(observability=...)`` and every hook above is
wired -- to that one server: an enabled facade handed to a second server
raises.  Instrumentation is zero-cost when disabled: a disabled facade
hands out shared no-op contexts (the :meth:`Dispatcher.scope` trick) and
every hook early-outs.
"""

from repro.obs.perfetto import (
    chrome_trace_document,
    chrome_trace_events,
    export_chrome_trace,
)
from repro.obs.plane import DrainTimeline, Observability
from repro.obs.registry import (
    BYTES_BUCKETS,
    Counter,
    DEFAULT_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.rollup import ScopeRollup, ScopeRow, WallClockProfiler, rollup_trace
from repro.obs.spans import Span, SpanTracer

__all__ = [
    "BYTES_BUCKETS",
    "Counter",
    "DEFAULT_BUCKETS",
    "DrainTimeline",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Observability",
    "ScopeRollup",
    "ScopeRow",
    "Span",
    "SpanTracer",
    "WallClockProfiler",
    "chrome_trace_document",
    "chrome_trace_events",
    "export_chrome_trace",
    "rollup_trace",
]
