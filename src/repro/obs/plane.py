"""The observability facade: one object wiring metrics, spans and traces.

:class:`Observability` is what :meth:`repro.api.session.CKKSSession.observability`
returns and what :class:`~repro.serve.executor.Server` accepts via its
``observability=`` parameter.  It bundles:

* a :class:`~repro.obs.registry.MetricsRegistry` -- the store its one
  server's :class:`~repro.serve.metrics.ServeMetrics` counts into, plus
  the pull-style ``watch_*`` series over live queue/pool/injector state;
* a :class:`~repro.obs.spans.SpanTracer` on the server's simulated clock
  (the request-lifecycle trace the server's hooks feed);
* a :class:`~repro.obs.rollup.ScopeRollup` accumulating per-scope
  modeled time/bytes from every priced drain;
* the drain timeline records the Perfetto exporter renders.

**Zero cost when disabled.**  ``Observability(enabled=False)`` is inert:
every hook early-outs, :meth:`span` hands back a shared no-op context
(the same trick as :meth:`repro.core.dispatch.Dispatcher.scope`), and a
server given a disabled object behaves exactly as one given ``None``.

**One enabled facade, one server.**  The registry, the span clock and the
rollup belong to the server that claims them
(:meth:`Observability.claim`); a second server raises instead of mixing
its counts and timestamps into the first one's.  A disabled facade is
never claimed and stays shareable.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from repro.core.dispatch import _NULL_CONTEXT, get_dispatcher
from repro.obs.perfetto import export_chrome_trace
from repro.obs.registry import BYTES_BUCKETS, MetricsRegistry
from repro.obs.rollup import ScopeRollup, WallClockProfiler
from repro.obs.spans import SpanTracer


@dataclass(frozen=True)
class DrainTimeline:
    """One priced drain, positioned on the simulated clock.

    ``offset`` is the drain's dispatch time, so its modeled kernel
    schedule (which starts at 0) lands at the right spot on the shared
    export axis; ``scopes`` maps trace-event index -> leaf scope tag.
    """

    offset: float
    label: str
    schedule: object
    scopes: tuple[str, ...]


class Observability:
    """Unified observability plane: registry + spans + timelines + rollups."""

    def __init__(self, *, enabled: bool = True,
                 registry: MetricsRegistry | None = None,
                 clock=None) -> None:
        self.enabled = bool(enabled)
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = SpanTracer(clock=clock)
        self.rollup = ScopeRollup()
        self.timelines: list[DrainTimeline] = []
        #: The one server this enabled facade is wired to (see :meth:`claim`).
        self.owner = None
        self._pools: dict[str, object] = {}

    # -- ownership -----------------------------------------------------------

    def claim(self, owner, clock) -> None:
        """Wire this facade to ``owner``, its one server, or raise.

        Spans are stamped on ``clock`` unless a clock was set explicitly.
        """
        if self.owner is not None:
            raise ValueError(
                f"this Observability is already wired to {self.owner!r} and "
                f"was handed to {owner!r}; its registry, span clock and "
                f"rollup describe one server -- create one facade per server"
            )
        self.owner = owner
        if self.tracer.clock is None:
            self.tracer.clock = clock

    # -- ad-hoc spans --------------------------------------------------------

    def span(self, name: str, **attributes):
        """A user-facing span context; shared no-op when disabled."""
        if not self.enabled:
            return _NULL_CONTEXT
        return self.tracer.span(name, **attributes)

    # -- watchers (pull-style series over live state) ------------------------

    def watch_pool(self, pool, name: str = "default") -> None:
        """Publish a memory pool's accounting as function-backed gauges."""
        if not self.enabled:
            return
        self._pools[name] = pool
        registry = self.registry
        registry.gauge(
            "memory_pool_bytes_in_use", "Live allocated bytes in the pool",
        ).set_function(lambda: pool.bytes_in_use, pool=name)
        registry.gauge(
            "memory_pool_peak_bytes",
            "High-water mark of pool usage (reset_peak() rewinds it)",
        ).set_function(lambda: pool.peak_bytes, pool=name)
        registry.gauge(
            "memory_pool_internal_fragmentation",
            "Fraction of live allocated bytes lost to granularity rounding",
        ).set_function(lambda: pool.internal_fragmentation(), pool=name)
        registry.gauge(
            "memory_pool_utilization",
            "Fraction of pool capacity in use (0.0 when unbounded)",
        ).set_function(lambda: pool.utilization(), pool=name)
        registry.gauge(
            "memory_pool_allocations", "Allocations admitted by the pool",
        ).set_function(lambda: pool.allocation_count, pool=name)

    def watch_queue(self, queue) -> None:
        """Publish a bucket queue's live depths (one series per bucket)."""
        if not self.enabled:
            return
        depth_gauge = self.registry.gauge(
            "serve_bucket_depth", "Queued requests per shape bucket",
        )
        total_gauge = self.registry.gauge(
            "serve_queue_depth", "Total queued requests across all buckets",
        )

        def collect() -> None:
            # Rebuild from scratch so drained buckets drop their series.
            depth_gauge.clear()
            for key, size in queue.sizes().items():
                depth_gauge.set(size, bucket=repr(key))
            total_gauge.set(queue.depth)

        self.registry.register_collector(collect)

    def watch_injector(self, injector) -> None:
        """Publish the fault injector's per-kind fire counts."""
        if not self.enabled:
            return
        counter = self.registry.counter(
            "faults_fired_total", "Fault-injector events by kind",
        )

        def collect() -> None:
            counter.clear()
            for kind, fired in injector.fired.items():
                counter.inc(fired, kind=kind)

        self.registry.register_collector(collect)

    # -- server hooks --------------------------------------------------------

    def record_drain(self, trace, report, *, offset: float,
                     label: str = "") -> None:
        """Fold one priced drain into the rollup and the export timeline."""
        if not self.enabled:
            return
        self.rollup.add_report(trace, report)
        self.timelines.append(DrainTimeline(
            offset=float(offset), label=label, schedule=report.schedule,
            scopes=tuple(event.leaf for event in trace.events),
        ))

    def reset_drain_peaks(self) -> None:
        """Rewind every watched pool's high-water mark (drain start)."""
        if not self.enabled:
            return
        for pool in self._pools.values():
            pool.reset_peak()

    def observe_drain_peaks(self) -> None:
        """Sample every watched pool's per-drain peak (drain end)."""
        if not self.enabled or not self._pools:
            return
        histogram = self.registry.histogram(
            "serve_drain_peak_bytes",
            "Peak pool bytes reached within one drain",
            buckets=BYTES_BUCKETS,
        )
        for name, pool in self._pools.items():
            histogram.observe(pool.peak_bytes, pool=name)

    # -- eager profiling -----------------------------------------------------

    @contextmanager
    def profile(self) -> Iterator[WallClockProfiler | None]:
        """Attribute eager wall-clock time to dispatcher scopes.

        Folds the profiler's exclusive per-scope seconds into
        :attr:`rollup` (the ``wall_s`` column) on exit.  No-op when
        disabled (yields ``None``; the dispatcher hot path stays on the
        shared null context).
        """
        if not self.enabled:
            yield None
            return
        profiler = WallClockProfiler()
        with get_dispatcher().profiling(profiler):
            yield profiler
        profiler.fold_into(self.rollup)

    # -- readouts ------------------------------------------------------------

    def report(self) -> ScopeRollup:
        """The accumulated per-scope rollup (``obs.report()``)."""
        return self.rollup

    def to_prometheus(self) -> str:
        """Prometheus text dump of the registry (collectors included)."""
        return self.registry.to_prometheus()

    def snapshot(self) -> dict:
        """Deterministic registry snapshot (collectors included)."""
        return self.registry.snapshot()

    def export_chrome_trace(self, path=None) -> dict:
        """Write/return the Perfetto JSON covering kernels and spans."""
        return export_chrome_trace(
            path, timelines=self.timelines, spans=self.tracer.spans,
        )


__all__ = ["DrainTimeline", "Observability"]
