"""Serving-plane metrics: the registry's instruments are the store.

The metrics a dynamic-batching deployment is tuned by:

* **queue depth** samples (taken at every submit and drain);
* the **fused-batch-size histogram** -- the direct readout of how well the
  policy converts offered load into launch amortisation;
* **p50/p95 queueing latency** on the simulated clock (deterministic
  nearest-rank percentiles, no wall-clock flakiness);
* **modeled GPU throughput**: when the server is given a
  :class:`~repro.perf.trace_model.TraceCostModel`, every drained batch's
  recorded kernel stream is priced and accumulated here, so
  ``completed / modeled_seconds`` is the requests-per-modeled-GPU-second
  figure the serve benchmark gates on;
* the **robustness counters** of the fault-tolerant control plane:
  ``shed_requests`` (admission control), ``degraded_drains`` (the
  footprint/retry degradation cascade), ``retries`` and
  ``deadline_misses``, rolled up into the ``availability`` figure
  (completed / admitted) the chaos-replay benchmark gates at >= 99%.

A serve count has one home.  :class:`ServeMetrics` is constructed on a
:class:`~repro.obs.registry.MetricsRegistry` and declares each count once,
as (attribute, ``serve_*`` instrument, labels) in :data:`COUNTS`;
:meth:`ServeMetrics.count` writes that series when the event happens, and
the attribute, :meth:`ServeMetrics.summary`, the registry snapshot and
the Prometheus dump all read it back.  The derived gauges (availability,
mean batch size, percentiles) are pull-style series over the readouts.
``batch_sizes``, ``latencies`` and ``queue_depth_samples`` stay plain
lists: exact nearest-rank percentiles need every sample.
"""

from __future__ import annotations

import math

from repro.obs.registry import MetricsRegistry

_REQUESTS = "serve_requests_total"
_HANDLED = "serve_faults_handled_total"

#: Every serve count, declared once: attribute -> (instrument, labels).
#: ``metrics.<attribute>`` reads the series, ``metrics.count(<attribute>)``
#: writes it, ``summary()`` and the registry readouts list it.
COUNTS = {
    "submitted": (_REQUESTS, {"outcome": "submitted"}),
    # Requests that passed admission control (submitted minus shed).
    "admitted": (_REQUESTS, {"outcome": "admitted"}),
    "completed": (_REQUESTS, {"outcome": "completed"}),
    "failed": (_REQUESTS, {"outcome": "failed"}),
    # Requests shed by admission control (queue bound / memory watermark).
    "shed_requests": (_HANDLED, {"kind": "shed"}),
    # Drains that completed at reduced fused size (footprint cascade or
    # retry-driven halving) instead of failing their requests.
    "degraded_drains": (_HANDLED, {"kind": "degraded_drain"}),
    # Drain retry attempts actually scheduled (transient faults / OOM).
    "retries": (_HANDLED, {"kind": "retry"}),
    # Admitted requests resolved with DeadlineExceeded.
    "deadline_misses": (_HANDLED, {"kind": "deadline_miss"}),
    "footprint_fallbacks": (_HANDLED, {"kind": "footprint_fallback"}),
    "batches": ("serve_drains_total", {}),
    "modeled_kernels": ("serve_modeled_kernels_total", {}),
}

#: Help text of the instruments the counts live on.
_COUNTER_HELP = {
    _REQUESTS: "Requests by lifecycle outcome",
    _HANDLED: "Control-plane events by kind (retry/shed/degrade/...)",
    "serve_drains_total": "Bucket drains executed",
    "serve_modeled_kernels_total": "Kernel launches in priced drains",
}


class ServeMetrics:
    """Counts and samples of one :class:`~repro.serve.executor.Server`."""

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self.batch_sizes: list[int] = []
        self.latencies: list[float] = []
        self.queue_depth_samples: list[tuple[float, int]] = []
        for instrument, labels in COUNTS.values():
            # Touch every declared series so it reads 0 before its first
            # event instead of being absent from the dump.
            registry.counter(instrument, _COUNTER_HELP[instrument]).inc(
                0, **labels
            )
        self._batch_histogram = registry.histogram(
            "serve_fused_batch_size", "Fused batch size per drain",
            buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0),
        )
        self._modeled = registry.gauge(
            "serve_modeled_gpu_seconds",
            "Modeled GPU seconds of priced drains",
        )
        self._modeled.set(0.0)
        # The derived gauges are pull-style series over the readouts below.
        latency = registry.gauge(
            "serve_queue_latency_seconds",
            "Queueing latency percentiles on the simulated clock",
        )
        latency.set_function(lambda: self.p50_latency, quantile="0.5")
        latency.set_function(lambda: self.p95_latency, quantile="0.95")
        registry.gauge(
            "serve_availability", "completed / admitted (1.0 pre-admission)",
        ).set_function(lambda: self.availability)
        registry.gauge(
            "serve_mean_batch_size", "Average fused batch size over all drains",
        ).set_function(lambda: self.mean_batch_size)
        registry.gauge(
            "serve_max_queue_depth", "Deepest the queue ever got",
        ).set_function(lambda: self.max_queue_depth)

    def __getattr__(self, name: str) -> int:
        """A declared count reads back its counter series."""
        if name not in COUNTS:
            raise AttributeError(name)
        instrument, labels = COUNTS[name]
        return int(self.registry.counter(instrument).value(**labels))

    # -- recording -----------------------------------------------------------

    def count(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to the declared count ``name`` (e.g. ``"retries"``)."""
        instrument, labels = COUNTS[name]
        self.registry.counter(instrument).inc(amount, **labels)

    def observe_queue_depth(self, now: float, depth: int) -> None:
        """Sample the total queue depth at a simulated timestamp."""
        self.queue_depth_samples.append((float(now), int(depth)))

    def record_batch(self, size: int, latencies: list[float]) -> None:
        """Record one drained batch and its members' queueing latencies."""
        self.batch_sizes.append(int(size))
        self.count("batches")
        self._batch_histogram.observe(size)
        self.latencies.extend(float(v) for v in latencies)

    def record_modeled(self, seconds: float, kernels: int) -> None:
        """Accumulate one priced trace (modeled GPU time of a drain)."""
        self._modeled.inc(seconds)
        self.count("modeled_kernels", int(kernels))

    # -- readouts ------------------------------------------------------------

    @property
    def modeled_seconds(self) -> float:
        """Modeled GPU seconds summed over every priced drain."""
        return self._modeled.value()

    @property
    def availability(self) -> float:
        """Fraction of *admitted* requests that completed successfully.

        The chaos-replay figure ``benchmarks/bench_faults.py`` gates:
        shed requests are excluded (load shedding is the admission
        controller doing its job), so this measures whether every request
        the server *accepted* was actually served.  1.0 before any
        admission (vacuously available).
        """
        admitted = self.admitted
        if admitted <= 0:
            return 1.0
        return self.completed / admitted

    def batch_histogram(self) -> dict[int, int]:
        """How many drains ran at each fused batch size."""
        histogram: dict[int, int] = {}
        for size in self.batch_sizes:
            histogram[size] = histogram.get(size, 0) + 1
        return dict(sorted(histogram.items()))

    @property
    def mean_batch_size(self) -> float:
        """Average fused batch size across all drains (0.0 before any)."""
        if not self.batch_sizes:
            return 0.0
        return sum(self.batch_sizes) / len(self.batch_sizes)

    @property
    def max_queue_depth(self) -> int:
        """Deepest the queue ever got (0 before any sample)."""
        if not self.queue_depth_samples:
            return 0
        return max(depth for _, depth in self.queue_depth_samples)

    def latency_percentile(self, fraction: float) -> float:
        """Nearest-rank percentile of the queueing latencies (deterministic)."""
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        if not self.latencies:
            return 0.0
        ordered = sorted(self.latencies)
        rank = max(1, math.ceil(fraction * len(ordered)))
        return ordered[rank - 1]

    @property
    def p50_latency(self) -> float:
        """Median queueing latency (simulated seconds)."""
        return self.latency_percentile(0.50)

    @property
    def p95_latency(self) -> float:
        """95th-percentile queueing latency (simulated seconds)."""
        return self.latency_percentile(0.95)

    def modeled_throughput(self) -> float:
        """Completed requests per modeled GPU second (0.0 before any)."""
        seconds = self.modeled_seconds
        if seconds <= 0.0:
            return 0.0
        return self.completed / seconds

    def summary(self) -> dict:
        """Machine-readable snapshot (benchmark artifacts embed this)."""
        summary = {name: getattr(self, name) for name in COUNTS}
        summary.update({
            "availability": self.availability,
            "batch_histogram": self.batch_histogram(),
            "mean_batch_size": self.mean_batch_size,
            "max_queue_depth": self.max_queue_depth,
            "p50_latency_s": self.p50_latency,
            "p95_latency_s": self.p95_latency,
            "modeled_seconds": self.modeled_seconds,
            "modeled_requests_per_sec": self.modeled_throughput(),
        })
        return summary


__all__ = ["ServeMetrics"]
