"""The observability plane: registry, spans, rollups, Perfetto export.

The contracts under test:

* the :class:`MetricsRegistry` is deterministic -- two identically-seeded
  serve runs snapshot byte-identically, instruments render valid
  Prometheus text exposition, and kind conflicts raise;
* the span tracer records a well-formed parent/child tree of the request
  lifecycle (``request → admission/queued``, ``drain → fused/retry``) on
  the simulated clock, and :meth:`SpanTracer.validate` passes on a real
  chaos run;
* the Chrome-trace export is schema-complete (every event carries
  ``ph/ts/dur/pid/tid/name``), slice timestamps are monotonic, and the
  export of one priced B=8 drain is pinned by digest;
* the per-scope rollup reconciles with the
  :class:`~repro.perf.trace_model.TraceCostModel` makespan within 1%;
* a serve count has **one home**: ``server.metrics``, ``report.summary()``
  and the registry's ``serve_*`` series are the same numbers with or
  without a facade, request spans close with the outcome the counters
  count, and an enabled facade belongs to exactly one server;
* everything is **zero-cost when disabled**: the dispatcher hands out the
  shared null context and a server built with a disabled facade carries
  no observability hooks at all.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import warnings

import numpy as np
import pytest

from repro.api.session import CKKSSession
from repro.core.dispatch import get_dispatcher, _NULL_CONTEXT
from repro.core.memory import MemoryPool
from repro.gpu.kernel import Kernel, KernelCostModel
from repro.gpu.platforms import GPU_RTX_4090
from repro.gpu.stream import StreamScheduler
from repro.obs import (
    DrainTimeline,
    MetricsRegistry,
    Observability,
    ScopeRollup,
    SpanTracer,
    WallClockProfiler,
    chrome_trace_document,
    chrome_trace_events,
    rollup_trace,
)
from repro.obs.perfetto import PID_DEVICE_BASE, TID_LAUNCH
from repro.perf.trace_model import TraceCostModel
from repro.serve.metrics import ServeMetrics
from repro.serve import request as request_module
from repro.serve import (
    AdmissionPolicy,
    BatchingPolicy,
    FaultEvent,
    FaultPlan,
    OpProgram,
    ReplayDriver,
    RetryPolicy,
    Server,
    SimulatedClock,
    burst_arrivals,
)

PROGRAM = OpProgram.polynomial([1.0, 0.0, 2.0])  # 1 + 2x^2

#: The faulted run: three bursts of 8 against a queue bound of 6 (2 shed
#: per burst).  Burst 1's drain hits the transient, and its 1 ms retry
#: backoff outlasts the 2.5 ms deadlines (6 deadline misses); burst 2
#: drains inside the OOM window (one degraded drain); burst 3 is clean.
CHAOS_PLAN = FaultPlan([
    FaultEvent(0.0, "transient"),
    FaultEvent(4e-3, "oom", duration=4e-3),
])

#: summary() key -> the serve_* series that must hold the same number.
SERVE_SERIES = {
    "submitted": ("serve_requests_total", {"outcome": "submitted"}),
    "admitted": ("serve_requests_total", {"outcome": "admitted"}),
    "completed": ("serve_requests_total", {"outcome": "completed"}),
    "failed": ("serve_requests_total", {"outcome": "failed"}),
    "shed_requests": ("serve_faults_handled_total", {"kind": "shed"}),
    "degraded_drains": ("serve_faults_handled_total",
                        {"kind": "degraded_drain"}),
    "retries": ("serve_faults_handled_total", {"kind": "retry"}),
    "deadline_misses": ("serve_faults_handled_total",
                        {"kind": "deadline_miss"}),
    "footprint_fallbacks": ("serve_faults_handled_total",
                            {"kind": "footprint_fallback"}),
    "batches": ("serve_drains_total", {}),
    "modeled_kernels": ("serve_modeled_kernels_total", {}),
    "modeled_seconds": ("serve_modeled_gpu_seconds", {}),
    "availability": ("serve_availability", {}),
    "mean_batch_size": ("serve_mean_batch_size", {}),
    "max_queue_depth": ("serve_max_queue_depth", {}),
    "p50_latency_s": ("serve_queue_latency_seconds", {"quantile": "0.5"}),
    "p95_latency_s": ("serve_queue_latency_seconds", {"quantile": "0.95"}),
}


#: sha256 of the sorted-key JSON export of one priced B=8 drain with spans
#: (``TestChromeTraceExport.test_single_drain_export_is_pinned``).
SINGLE_DRAIN_EXPORT_SHA256 = (
    "f046b9e03398e8f4ca98709cf92000437a0bdb8aa17aa28c690181e32b60e6bc"
)


@pytest.fixture(scope="module")
def obs_session() -> CKKSSession:
    return CKKSSession.create("toy", seed=11, register_default=False)


def run_instrumented_burst(session, *, requests: int = 8, seed: int = 3,
                           faults: bool = False, observe: bool = True):
    """One fused burst through a server; returns (obs, server, report).

    ``faults`` replays :data:`CHAOS_PLAN` (24 requests, shedding, tight
    deadlines); ``observe=False`` serves the same run with no facade.
    """
    clock = SimulatedClock()
    obs = session.observability(clock=clock) if observe else None
    rng = np.random.default_rng(seed)
    server = session.server(
        BatchingPolicy(max_batch_size=8, max_wait=2e-3),
        clock=clock,
        trace_costs=TraceCostModel(GPU_RTX_4090),
        admission=AdmissionPolicy(max_queue_depth=6) if faults else None,
        retry=RetryPolicy(max_retries=3, backoff=1e-3 if faults else 1e-5),
        fault_plan=CHAOS_PLAN if faults else None,
        observability=obs,
    )
    arrivals = burst_arrivals(24 if faults else requests,
                              bursts=3 if faults else 2,
                              burst_gap=5e-3, seed=seed)
    driver = ReplayDriver(
        server, PROGRAM,
        lambda i: session.encrypt(rng.uniform(-1.0, 1.0, 8)),
        deadline_offset=2.5e-3 if faults else 2e-2,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        report = driver.run(arrivals)
    return obs, server, report


def seeded_snapshot(obs) -> dict:
    """The registry snapshot minus what is not a function of the seeds.

    Pool gauges track the live process-wide default pool, which other
    tests in the session mutate -- everything else must be reproducible.
    """
    snap = obs.snapshot()
    return {name: entry for name, entry in snap.items()
            if not name.startswith("memory_pool_")}


# -- registry -----------------------------------------------------------------


class TestMetricsRegistry:
    def test_counter_gauge_histogram_basics(self):
        registry = MetricsRegistry()
        hits = registry.counter("hits_total", "Hits by route")
        hits.inc(route="/a")
        hits.inc(2, route="/b")
        assert registry.value("hits_total", route="/a") == 1
        assert registry.value("hits_total", route="/b") == 3 - 1

        depth = registry.gauge("depth", "Current depth")
        depth.set(4)
        depth.inc()
        depth.dec(2)
        assert registry.value("depth") == 3

        lat = registry.histogram("lat_seconds", "Latency",
                                 buckets=(0.1, 1.0))
        lat.observe(0.05)
        lat.observe(0.5)
        lat.observe(5.0)
        snap = registry.snapshot()
        series = snap["lat_seconds"]["series"][0]
        assert series["count"] == 3
        assert series["sum"] == pytest.approx(5.55)
        # Per-bucket counts ending at the +Inf catch-all (the Prometheus
        # renderer cumulates them).
        les = [bucket[0] for bucket in series["buckets"]]
        counts = [bucket[1] for bucket in series["buckets"]]
        assert les[-1] == "+Inf"
        assert counts == [1, 1, 1]

    def test_counter_rejects_negative_and_kind_conflicts(self):
        registry = MetricsRegistry()
        counter = registry.counter("events_total")
        with pytest.raises(ValueError):
            counter.inc(-1)
        with pytest.raises(TypeError):
            registry.gauge("events_total")
        with pytest.raises(ValueError):
            registry.counter("bad name!")
        with pytest.raises(ValueError):
            counter.inc(**{"bad-label": "x"})

    def test_gauge_function_evaluated_at_collect(self):
        registry = MetricsRegistry()
        box = {"v": 1.0}
        registry.gauge("live").set_function(lambda: box["v"], src="box")
        assert registry.value("live", src="box") == 1.0
        box["v"] = 7.0
        assert registry.value("live", src="box") == 7.0
        assert 'live{src="box"} 7' in registry.to_prometheus()

    def test_prometheus_exposition_format(self):
        registry = MetricsRegistry()
        registry.counter("reqs_total", "Total requests").inc(3, kind="a b")
        registry.histogram("size", "Sizes", buckets=(2.0,)).observe(1.0)
        text = registry.to_prometheus()
        assert "# HELP reqs_total Total requests" in text
        assert "# TYPE reqs_total counter" in text
        assert 'reqs_total{kind="a b"} 3' in text
        assert 'size_bucket{le="2"} 1' in text
        assert 'size_bucket{le="+Inf"} 1' in text
        assert "size_sum 1" in text
        assert "size_count 1" in text

    def test_snapshot_deterministic_across_identical_runs(self, obs_session):
        snaps = []
        for _ in range(2):
            obs, _, _ = run_instrumented_burst(obs_session, faults=True)
            snaps.append(seeded_snapshot(obs))
        assert json.dumps(snaps[0], sort_keys=True) == \
            json.dumps(snaps[1], sort_keys=True)

    def test_a_serve_count_has_one_home(self, obs_session):
        obs, server, report = run_instrumented_burst(obs_session, faults=True)
        summary = server.metrics.summary()
        # The faulted run really is one: every kind of ending happened.
        assert summary["shed_requests"] == 6 and summary["retries"] == 1
        assert summary["deadline_misses"] == summary["failed"] == 6
        assert summary["completed"] == 12 and summary["degraded_drains"] == 1
        snapshot = seeded_snapshot(obs)

        def series(name, **labels):
            (entry,) = [entry for entry in snapshot[name]["series"]
                        if entry["labels"] == labels]
            return entry

        for key, (name, labels) in SERVE_SERIES.items():
            assert series(name, **labels)["value"] == summary[key], key
        batch_sizes = series("serve_fused_batch_size")
        assert batch_sizes["count"] == summary["batches"]
        assert batch_sizes["sum"] == sum(server.metrics.batch_sizes)
        # The report holds the server's metrics rather than a copy, and
        # adds only what responses alone can tell.
        assert report.metrics is server.metrics
        assert report.summary() == {
            **summary,
            "error_kinds": {"DeadlineExceeded": 6, "RequestRejected": 6},
            "deadline_violations": 0,
        }
        # Same numbers with no facade at all (the server's own registry).
        _, bare, _ = run_instrumented_burst(obs_session, faults=True,
                                            observe=False)
        assert bare.obs is None
        assert bare.metrics.summary() == summary
        assert bare.metrics.registry.value(
            "serve_requests_total", outcome="completed") == 12

    def test_one_enabled_facade_serves_one_server(self, obs_session):
        backend = obs_session.cost_backend()

        def serve(count, observability):
            server = Server(backend, BatchingPolicy(max_batch_size=4),
                            observability=observability)
            for _ in range(count):
                server.submit(PROGRAM, backend.encrypt(np.full(8, 0.5)))
            server.flush()
            return server

        obs = Observability()
        first = serve(5, obs)
        assert obs.owner is first
        # A second server used to overwrite the first one's totals (the
        # shared series read 2) and stamp its spans on the first's clock.
        with pytest.raises(ValueError, match="already wired to"):
            serve(2, obs)
        assert obs.registry.value(
            "serve_requests_total", outcome="completed") == 5
        # A disabled facade is inert, so it stays shareable.
        disabled = Observability(enabled=False)
        assert serve(5, disabled).metrics.completed == 5
        assert serve(2, disabled).metrics.completed == 2
        assert disabled.owner is None

    def test_modeled_throughput_is_completed_per_modeled_second(self):
        metrics = ServeMetrics(MetricsRegistry())
        assert metrics.modeled_throughput() == 0.0
        metrics.count("completed", 12)
        assert metrics.modeled_throughput() == 0.0  # nothing priced yet
        metrics.record_modeled(0.25, 40)
        metrics.record_modeled(0.5, 60)
        assert metrics.modeled_seconds == pytest.approx(0.75)
        assert metrics.modeled_kernels == 100
        assert metrics.modeled_throughput() == pytest.approx(16.0)
        assert metrics.summary()["modeled_requests_per_sec"] == \
            pytest.approx(16.0)

    def test_modeled_gpu_seconds_is_one_unlabeled_series(self, obs_session):
        obs, server, _ = run_instrumented_burst(obs_session)
        (series,) = obs.snapshot()["serve_modeled_gpu_seconds"]["series"]
        assert series["labels"] == {}
        assert series["value"] == server.metrics.modeled_seconds > 0


# -- spans --------------------------------------------------------------------


class TestSpans:
    def test_tracer_tree_and_validation(self):
        tracer = SpanTracer()
        root = tracer.begin("root", at=0.0)
        child = tracer.begin("child", parent=root, at=1.0, device=0)
        ping = tracer.event("ping", parent=child, at=1.5)
        tracer.finish(child, at=2.0)
        tracer.finish(root, at=3.0, outcome="ok")
        tracer.validate()
        root, child, ping = tracer.spans
        assert child.parent_id == root.span_id
        assert ping.parent_id == child.span_id
        assert ping.duration == 0.0
        assert tracer.children(root) == [child]
        assert tracer.find("child") == [child]

    def test_serve_run_span_integrity(self, obs_session):
        obs, _, report = run_instrumented_burst(obs_session, faults=True)
        tracer = obs.tracer
        tracer.validate()
        names = {span.name for span in tracer.spans}
        assert {"request", "admission", "queued", "drain", "fused"} <= names
        # Every request root closes with an outcome and its children nest
        # inside it on the simulated clock.
        roots = [span for span in tracer.roots() if span.name == "request"]
        metrics = report.metrics
        assert len(roots) == metrics.admitted + metrics.shed_requests == 24
        for root in roots:
            assert root.finished
            assert root.attributes["outcome"] in {"ok", "error", "shed"}
        fused = tracer.find("fused")
        assert fused and all(span.parent_id is not None for span in fused)

    def test_retry_spans_on_faulted_run(self, obs_session):
        obs, server, _ = run_instrumented_burst(obs_session, faults=True)
        retries = obs.tracer.find("retry")
        assert len(retries) == server.metrics.retries == 1
        assert all(span.attributes["error_kind"] for span in retries)

    def test_spans_close_with_the_outcome_the_counters_count(self, obs_session):
        # One resolution path: a request's root span, its response and the
        # outcome counter are written together, so they cannot drift.
        obs, server, _ = run_instrumented_burst(obs_session, faults=True)
        metrics = server.metrics
        outcomes = [
            (root.attributes["outcome"], root.attributes["error_kind"])
            for root in obs.tracer.roots() if root.name == "request"
        ]
        assert outcomes.count(("error", "DeadlineExceeded")) == \
            metrics.deadline_misses == 6
        assert outcomes.count(("shed", "RequestRejected")) == \
            metrics.shed_requests == 6
        assert outcomes.count(("ok", None)) == metrics.completed == 12
        assert len(obs.tracer.find("retry")) == metrics.retries
        # The drain whose every request went overdue closes as a miss too.
        assert [span.attributes["error_kind"]
                for span in obs.tracer.find("drain")
                if span.attributes["outcome"] == "error"] == ["DeadlineExceeded"]


# -- Perfetto export ----------------------------------------------------------


class TestChromeTraceExport:
    REQUIRED = {"ph", "ts", "dur", "pid", "tid", "name"}

    def test_event_schema_and_monotonic_timestamps(self, obs_session):
        obs, _, _ = run_instrumented_burst(obs_session)
        document = obs.export_chrome_trace()
        events = document["traceEvents"]
        assert events, "export produced no events"
        for event in events:
            assert self.REQUIRED <= set(event), event
            assert event["ph"] in {"X", "M"}
        slices = [event for event in events if event["ph"] == "X"]
        stamps = [event["ts"] for event in slices]
        assert stamps == sorted(stamps)
        assert all(event["dur"] >= 0 for event in slices)

    def test_export_is_valid_json_on_disk(self, obs_session, tmp_path):
        obs, _, _ = run_instrumented_burst(obs_session)
        path = tmp_path / "trace.perfetto.json"
        obs.export_chrome_trace(str(path))
        document = json.loads(path.read_text())
        assert document["traceEvents"]
        assert document["displayTimeUnit"] == "ms"

    def test_single_drain_export_is_pinned(self, obs_session, monkeypatch):
        # One priced B=8 drain with spans: the GPU's kernel and launch
        # tracks plus the request/drain span tree.  Request ids are
        # process-wide, so restart them to make the document a function
        # of this test alone.
        monkeypatch.setattr(request_module, "_REQUEST_IDS", itertools.count())
        clock = SimulatedClock()
        obs = obs_session.observability(clock=clock)
        server = obs_session.server(
            BatchingPolicy(max_batch_size=8, max_wait=2e-3), clock=clock,
            trace_costs=TraceCostModel(GPU_RTX_4090), observability=obs,
        )
        rng = np.random.default_rng(3)
        for _ in range(8):
            server.submit(PROGRAM, obs_session.encrypt(rng.uniform(-1, 1, 8)))
        server.drain()
        assert server.metrics.batch_sizes == [8]
        document = obs.export_chrome_trace()
        assert {event["pid"] for event in document["traceEvents"]} == {1, 100}
        digest = hashlib.sha256(
            json.dumps(document, sort_keys=True).encode()
        ).hexdigest()
        assert digest == SINGLE_DRAIN_EXPORT_SHA256

    @staticmethod
    def _drain(offset=0.0, *, launch_overhead_us=None, scopes=("hmult",)):
        platform = GPU_RTX_4090 if launch_overhead_us is None else \
            dataclasses.replace(GPU_RTX_4090,
                                launch_overhead_us=launch_overhead_us)
        timings = KernelCostModel(platform).time_kernels(
            [Kernel(f"k{i}", 1e6, 1e6, 1e6) for i in range(4)]
        )
        schedule = StreamScheduler(platform, streams=2).schedule(timings)
        return DrainTimeline(offset=offset, label="drain", schedule=schedule,
                             scopes=scopes)

    def test_empty_export_has_no_events(self):
        assert chrome_trace_events() == []
        assert chrome_trace_document()["traceEvents"] == []

    def test_kernels_run_on_the_one_gpu_process(self):
        events = chrome_trace_events(timelines=[self._drain(), self._drain(1.0)])
        assert {event["pid"] for event in events} == {PID_DEVICE_BASE}
        processes = [event["args"]["name"] for event in events
                     if event["name"] == "process_name"]
        assert processes == ["GPU device 0"]
        threads = {event["tid"]: event["args"]["name"] for event in events
                   if event["name"] == "thread_name"}
        assert threads == {0: "stream 0", 1: "stream 1",
                           TID_LAUNCH: "host launch"}
        kernels = [event for event in events
                   if event["ph"] == "X" and event["tid"] != TID_LAUNCH]
        assert len(kernels) == 8

    def test_launch_track_needs_launch_intervals(self):
        events = chrome_trace_events(
            timelines=[self._drain(launch_overhead_us=0.0)]
        )
        assert all(event["tid"] != TID_LAUNCH for event in events)
        assert "host launch" not in {event["args"].get("name")
                                     for event in events}

    def test_drain_offset_and_scope_args(self):
        record = self._drain(2.0)
        events = chrome_trace_events(timelines=[record])
        kernels = {event["args"]["index"]: event for event in events
                   if event["ph"] == "X" and event["tid"] != TID_LAUNCH}
        for slot in record.schedule.timeline:
            event = kernels[slot.index]
            assert event["name"] == slot.name
            assert event["ts"] == round((2.0 + slot.start) * 1e6, 3)
            assert event["args"]["drain"] == "drain"
            # Scopes cover trace indices; one past their end reads "".
            assert event["args"]["scope"] == ("hmult" if slot.index == 0 else "")


# -- rollup -------------------------------------------------------------------


class TestScopeRollup:
    def test_reconciles_with_priced_makespan(self, obs_session):
        obs, _, _ = run_instrumented_burst(obs_session)
        report = obs.report()
        assert report.rows
        assert report.makespan_total > 0
        assert report.reconciliation() <= 0.01
        scopes = {row.scope for row in report.sorted_rows()}
        assert {"hmult", "rescale"} <= scopes
        text = report.to_text()
        assert "reconciliation gap" in text

    def test_rollup_trace_helper(self, obs_session):
        session = obs_session
        ct = session.encrypt(np.linspace(-1, 1, 8))
        with get_dispatcher().record() as trace:
            ct * ct
        rollup = rollup_trace(trace, TraceCostModel(GPU_RTX_4090))
        assert rollup.reconciliation() <= 0.01
        assert sum(row.kernels for row in rollup.rows.values()) == len(
            trace.events
        )

    def test_wall_profiler_folds_scopes(self, obs_session):
        obs = Observability()
        session = obs_session
        ct = session.encrypt(np.linspace(-1, 1, 8))
        with obs.profile() as profiler:
            ct * ct
        assert isinstance(profiler, WallClockProfiler)
        report = obs.report()
        assert report.wall_total > 0
        assert any(row.wall_s > 0 for row in report.rows.values())
        # The profiler detached: the dispatcher is back on the null path.
        assert get_dispatcher().scope("x") is _NULL_CONTEXT


# -- pool + disabled path -----------------------------------------------------


class TestPoolAndDisabled:
    def test_peak_gauge_and_reset_peak(self):
        pool = MemoryPool()
        obs = Observability()
        obs.watch_pool(pool, name="test")
        pool.charge(1000)
        pool.charge(500)
        pool.release(1000)
        assert obs.registry.value(
            "memory_pool_peak_bytes", pool="test"
        ) == pool.peak_bytes
        previous = pool.reset_peak()
        assert previous >= 1500
        assert pool.peak_bytes == pool.bytes_in_use
        assert obs.registry.value(
            "memory_pool_peak_bytes", pool="test"
        ) == pool.bytes_in_use

    def test_drain_peak_histogram_recorded(self, obs_session):
        obs, _, _ = run_instrumented_burst(obs_session)
        snap = obs.snapshot()
        series = snap["serve_drain_peak_bytes"]["series"]
        assert series and all(entry["count"] >= 1 for entry in series)

    def test_disabled_facade_is_inert(self, obs_session):
        obs = obs_session.observability(enabled=False)
        assert not obs.enabled
        with obs.span("x") as span:
            assert span is None
        with obs.profile() as profiler:
            assert profiler is None
        server = obs_session.server(
            BatchingPolicy(max_batch_size=4), observability=obs,
        )
        assert server.obs is None
        assert get_dispatcher().scope("anything") is _NULL_CONTEXT
