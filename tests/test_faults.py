"""Fault tolerance: deterministic chaos, typed errors, graceful degradation.

The acceptance contract under test: with a seeded :class:`FaultPlan`
injecting OOM windows and transient drain failures, every admitted request
either completes **bit-identical** to fault-free sequential execution or
resolves to a typed :class:`~repro.serve.errors.ServeError`, successful
responses never dispatch past their deadline, the degradation cascade
halves fused drains ``B -> B/2 -> ... -> singleton`` in a pinned order,
and the injector's state stays bounded however long the plan.  Everything
runs on the simulated clock, so every scenario replays identically.
"""

from __future__ import annotations

import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from repro.api.vector import CipherVector
from repro.core.memory import MemoryPool, OutOfDeviceMemory
from repro.obs import Observability
from repro.serve import (
    AdmissionPolicy,
    BatchingPolicy,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    InjectedOOM,
    OpProgram,
    ReplayDriver,
    RequestRejected,
    RetryPolicy,
    Server,
    SimulatedClock,
    TransientFault,
    burst_arrivals,
    diurnal_arrivals,
    poisson_arrivals,
    validate_handle,
)
from repro.serve.faults import LOG_LIMIT

#: 1 + 2x^2: two levels deep, no rotation keys needed.
POLY_PROGRAM = OpProgram.polynomial([1.0, 0.0, 2.0])

SQUARE_PROGRAM = OpProgram("square-shift", lambda x: (x * x) + 0.5)


def bitwise_equal(a: CipherVector, b: CipherVector) -> bool:
    return np.array_equal(a.handle.c0.data, b.handle.c0.data) and \
        np.array_equal(a.handle.c1.data, b.handle.c1.data)


def fresh_vector(session, rng) -> CipherVector:
    return session.encrypt(rng.uniform(-1, 1, 8))


# ----------------------------------------------------------------------
# fault plans
# ----------------------------------------------------------------------


class TestFaultPlan:
    def test_same_seed_same_plan(self):
        kwargs = dict(duration=1.0, oom_fraction=0.2, transients=3)
        assert FaultPlan.generate(7, **kwargs) == FaultPlan.generate(7, **kwargs)
        assert FaultPlan.generate(7, **kwargs) != FaultPlan.generate(8, **kwargs)

    def test_events_are_time_sorted(self):
        plan = FaultPlan.generate(3, duration=2.0, oom_fraction=0.3,
                                  transients=5)
        times = [event.time for event in plan]
        assert times == sorted(times)
        assert len(plan) == plan.describe()["events"]

    def test_oom_fraction_scales_window_count(self):
        sparse = FaultPlan.generate(1, duration=10.0, oom_fraction=0.1,
                                    oom_window=1.0)
        dense = FaultPlan.generate(1, duration=10.0, oom_fraction=0.5,
                                   oom_window=1.0)
        assert dense.describe()["by_kind"]["oom"] > \
            sparse.describe()["by_kind"]["oom"]

    def test_event_validation(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultEvent(0.0, "meteor-strike")
        with pytest.raises(ValueError, match=">= 0"):
            FaultEvent(-1.0, "oom")
        with pytest.raises(ValueError, match="positive timeline"):
            FaultPlan.generate(0, duration=0.0)

    @pytest.mark.parametrize("make", [
        lambda: BatchingPolicy(max_wait=float("nan")),
        lambda: RetryPolicy(backoff=float("nan")),
        lambda: RetryPolicy(backoff_factor=float("nan")),
        lambda: SimulatedClock().advance(float("nan")),
        lambda: FaultEvent(float("nan"), "oom"),
        lambda: FaultEvent(0.0, "oom", duration=float("nan")),
        lambda: SimulatedClock().advance_to(float("nan")),
        lambda: BatchingPolicy(max_wait=float("inf")),
        lambda: RetryPolicy(backoff=float("inf")),
        lambda: RetryPolicy(backoff_factor=float("inf")),
        lambda: SimulatedClock().advance(float("inf")),
        lambda: SimulatedClock().advance_to(float("inf")),
    ], ids=["max_wait", "backoff", "backoff_factor", "clock_advance",
            "event_time", "event_duration", "clock_advance_to", "max_wait_inf",
            "backoff_inf", "backoff_factor_inf", "clock_advance_inf",
            "clock_advance_to_inf"])
    def test_non_finite_times_are_rejected(self, make):
        # ``nan < 0`` is False, so a NaN wait used to pass validation and
        # then hang Server.drain() (no time is ever >= a NaN timeout); an
        # infinite wait or backoff drained at t=inf, after which every
        # latency read inf and every deadline had already passed.
        with pytest.raises(ValueError):
            make()

    @pytest.mark.parametrize("make, message", [
        (lambda: BatchingPolicy(max_wait=-1e-3), "non-negative"),
        (lambda: RetryPolicy(backoff=-1e-3), "cannot be negative"),
        (lambda: RetryPolicy(backoff_factor=0.5), "at least 1.0"),
        (lambda: SimulatedClock().advance(-1e-3), "backwards"),
        (lambda: FaultEvent(-1e-3, "oom"), ">= 0"),
        (lambda: FaultEvent(0.0, "oom", duration=-1e-3), "cannot be negative"),
    ], ids=["max_wait", "backoff", "backoff_factor", "clock_advance",
            "event_time", "event_duration"])
    def test_out_of_range_times_are_rejected(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()

    @pytest.mark.parametrize("make", [
        lambda: BatchingPolicy(max_wait=0.0),
        lambda: RetryPolicy(backoff=0.0),
        lambda: RetryPolicy(backoff_factor=1.0),
        lambda: SimulatedClock(1.0).advance(0.0),
        lambda: FaultEvent(0.0, "oom"),
        lambda: FaultEvent(0.0, "oom", duration=0.0),
    ], ids=["max_wait", "backoff", "backoff_factor", "clock_advance",
            "event_time", "event_duration"])
    def test_boundary_times_are_accepted(self, make):
        # The NaN-proof ``not x >= bound`` checks keep the bound itself.
        assert make() is not None


class TestFaultInjector:
    def test_event_log_is_deterministic(self):
        plan = FaultPlan.generate(11, duration=1.0, oom_fraction=0.3,
                                  transients=2)
        logs = []
        for _ in range(2):
            injector = FaultInjector(plan)
            for now in (0.25, 0.5, 1.0):
                injector.advance(now)
            logs.append(list(injector.log))
        assert logs[0] == logs[1]

    def test_pool_hook_denies_charges_inside_window(self):
        clock = SimulatedClock()
        pool = MemoryPool(capacity_bytes=1 << 20)
        plan = FaultPlan([FaultEvent(0.5, "oom", duration=0.5, min_bytes=100)])
        injector = FaultInjector(plan, clock=clock, pool=pool)
        pool.charge(512)  # before the window
        assert pool.bytes_in_use == 512
        clock.advance(0.6)
        injector.advance(clock.now())
        with pytest.raises(OutOfDeviceMemory, match="injected device OOM"):
            pool.charge(512)
        pool.charge(64)  # below min_bytes: the window lets it through
        clock.advance(0.5)  # past the window
        pool.charge(512)
        assert ("pool-oom", 0.6, 512) in injector.log

    def test_state_stays_bounded_over_a_long_plan(self):
        # 10^5 overlapping OOM windows (one per ms, 2.5 ms long) fired by a
        # clock stepping 10 ms at a time, with a fused drain at every step.
        plan = FaultPlan(FaultEvent(i * 1e-3, "oom", duration=2.5e-3)
                         for i in range(100_000))
        injector = FaultInjector(plan)
        obs = Observability()
        obs.watch_injector(injector)
        denied = most_windows = 0
        for step in range(1, 10_001):
            now = step * 1e-2
            injector.advance(now)
            most_windows = max(most_windows, len(injector._windows))
            try:
                injector.check_fuse(now, 4)
            except InjectedOOM:
                denied += 1
        assert most_windows <= 3
        assert denied > 0
        assert len(injector.log) == LOG_LIMIT
        assert injector.fired == {"oom-window": 100_000, "fuse-denied": denied}
        fired = sum(
            entry["value"]
            for entry in obs.registry.snapshot()["faults_fired_total"]["series"]
        )
        assert fired == 100_000 + denied

    def test_expired_windows_are_dropped_on_advance(self):
        plan = FaultPlan([FaultEvent(0.1, "oom", duration=0.1),
                          FaultEvent(0.15, "oom", duration=0.5)])
        injector = FaultInjector(plan)
        injector.advance(0.16)
        assert len(injector._windows) == 2
        assert injector.oom_active(0.16)
        injector.advance(0.3)  # the first window closed at 0.2
        assert injector._windows == [(0.15, 0.65, 0)]
        assert injector.oom_active(0.3)
        injector.advance(0.7)
        assert injector._windows == []
        assert not injector.oom_active(0.7)

    def test_query_behind_the_clock_still_sees_dropped_windows(self):
        # A drain priced at its poll's start time after another bucket's
        # backoff moved the clock on must see the windows active back then.
        plan = FaultPlan([FaultEvent(0.1, "oom", duration=0.1, min_bytes=64)])
        injector = FaultInjector(plan)
        injector.advance(0.5)
        assert injector._windows == []
        assert injector.oom_active(0.15)
        assert injector.oom_active(0.15, nbytes=64)
        assert not injector.oom_active(0.15, nbytes=63)
        assert not injector.oom_active(0.25)

    def test_log_keeps_the_newest_entries(self):
        plan = FaultPlan(FaultEvent(float(i), "transient")
                         for i in range(LOG_LIMIT + 10))
        injector = FaultInjector(plan)
        injector.advance(float(LOG_LIMIT + 10))
        assert len(injector.log) == LOG_LIMIT
        assert injector.log[0] == ("transient-armed", 10.0)
        assert injector.log[-1] == ("transient-armed", float(LOG_LIMIT + 9))
        assert injector.fired == {"transient-armed": LOG_LIMIT + 10}

    def test_transients_are_counted_when_armed_and_when_fired(self):
        plan = FaultPlan([FaultEvent(0.0, "transient"),
                          FaultEvent(0.5, "transient")])
        injector = FaultInjector(plan)
        obs = Observability()
        obs.watch_injector(injector)
        injector.advance(0.1)
        with pytest.raises(TransientFault):
            injector.check_drain(0.1, 4)
        injector.check_drain(0.2, 4)  # nothing armed: the drain runs
        assert injector.fired == {"transient-armed": 1, "transient-fired": 1}
        injector.advance(1.0)
        with pytest.raises(TransientFault):
            injector.check_drain(1.0, 2)
        assert injector.fired == {"transient-armed": 2, "transient-fired": 2}
        assert obs.registry.value("faults_fired_total",
                                  kind="transient-fired") == 2
        assert list(injector.log) == [
            ("transient-armed", 0.0), ("transient-fired", 0.1, 4),
            ("transient-armed", 0.5), ("transient-fired", 1.0, 2),
        ]


# ----------------------------------------------------------------------
# degradation cascade
# ----------------------------------------------------------------------


class TestDegradationCascade:
    def test_cascade_halves_to_singletons_in_order(self, session, rng):
        plan = FaultPlan([FaultEvent(0.0, "oom", duration=10.0)])
        server = Server(session, BatchingPolicy(max_batch_size=8, max_wait=0.0),
                        fault_plan=plan)
        requests = [server.submit(POLY_PROGRAM, fresh_vector(session, rng))
                    for _ in range(8)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            server.poll()
        denied = [entry[2] for entry in server.injector.log
                  if entry[0] == "fuse-denied"]
        # Depth-first halving: 8 denied, left half 4 -> 2 -> singletons,
        # then the right half the same way.
        assert denied == [8, 4, 2, 2, 4, 2, 2]
        assert server.metrics.degraded_drains == 1
        assert server.metrics.footprint_fallbacks == 1
        for request in requests:
            assert request.response().ok
            assert bitwise_equal(request.result(), POLY_PROGRAM(request.vector))

    def test_degradation_warns_once_then_counts_silently(self, session, rng):
        plan = FaultPlan([FaultEvent(0.0, "oom", duration=10.0)])
        server = Server(session, BatchingPolicy(max_batch_size=2, max_wait=0.0),
                        fault_plan=plan)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for _ in range(2):  # two degraded drains
                for _ in range(2):
                    server.submit(POLY_PROGRAM, fresh_vector(session, rng))
                server.poll()
        degradation_warnings = [w for w in caught
                                if issubclass(w.category, RuntimeWarning)]
        assert len(degradation_warnings) == 1
        assert "ShapeKey" in str(degradation_warnings[0].message)
        assert server.metrics.degraded_drains == 2


# ----------------------------------------------------------------------
# deadlines
# ----------------------------------------------------------------------


class TestDeadlines:
    def test_deadline_tightens_dispatch(self, session, rng):
        server = Server(session, BatchingPolicy(max_batch_size=8, max_wait=1.0))
        request = server.submit(POLY_PROGRAM, fresh_vector(session, rng),
                                deadline=0.25)
        server.drain()
        response = request.response()
        assert response.ok
        assert response.dispatch_time == pytest.approx(0.25)

    def test_deadline_in_the_past_resolves_immediately(self, session, rng):
        clock = SimulatedClock(start=1.0)
        server = Server(session, BatchingPolicy(), clock=clock)
        request = server.submit(POLY_PROGRAM, fresh_vector(session, rng),
                                deadline=0.5)
        assert request.done()
        assert request.response().error_kind == "DeadlineExceeded"
        assert server.metrics.deadline_misses == 1

    def test_flush_expires_overdue_requests_like_poll(self, session, rng):
        clock = SimulatedClock()
        server = Server(session, BatchingPolicy(max_batch_size=8, max_wait=5.0),
                        clock=clock)
        overdue = server.submit(POLY_PROGRAM, fresh_vector(session, rng),
                                deadline=0.5)
        on_time = server.submit(POLY_PROGRAM, fresh_vector(session, rng),
                                deadline=3.0)
        clock.advance(2.0)
        completed = server.flush()
        assert overdue in completed and on_time in completed
        assert overdue.response().error_kind == "DeadlineExceeded"
        assert on_time.response().ok
        assert server.metrics.deadline_misses == 1

    def test_backoff_expires_overdue_members_but_serves_the_rest(
            self, session, rng):
        # A transient forces one retry whose 1 s backoff blows the first
        # request's deadline; the second request survives the retry.
        plan = FaultPlan([FaultEvent(0.0, "transient")])
        server = Server(
            session, BatchingPolicy(max_batch_size=2, max_wait=0.0),
            retry=RetryPolicy(max_retries=3, backoff=1.0),
            fault_plan=plan,
        )
        tight = server.submit(POLY_PROGRAM, fresh_vector(session, rng),
                              deadline=0.5)
        loose = server.submit(POLY_PROGRAM, fresh_vector(session, rng))
        server.poll()
        assert tight.response().error_kind == "DeadlineExceeded"
        assert loose.response().ok
        assert bitwise_equal(loose.result(), POLY_PROGRAM(loose.vector))
        assert server.metrics.deadline_misses == 1
        assert server.metrics.retries == 1


# ----------------------------------------------------------------------
# retry semantics
# ----------------------------------------------------------------------


class TestRetries:
    def test_transient_fault_retries_to_success(self, session, rng):
        plan = FaultPlan([FaultEvent(0.0, "transient")])
        server = Server(session, BatchingPolicy(max_batch_size=2, max_wait=0.0),
                        retry=RetryPolicy(max_retries=3, backoff=1e-4),
                        fault_plan=plan)
        requests = [server.submit(POLY_PROGRAM, fresh_vector(session, rng))
                    for _ in range(2)]
        server.poll()
        assert server.metrics.retries == 1
        assert server.clock.now() == pytest.approx(1e-4)  # one backoff
        for request in requests:
            assert request.response().ok
            assert bitwise_equal(request.result(), POLY_PROGRAM(request.vector))

    def test_retry_exhaustion_resolves_drain_failed(self, session, rng):
        plan = FaultPlan([FaultEvent(0.0, "transient") for _ in range(5)])
        server = Server(session, BatchingPolicy(max_batch_size=1, max_wait=0.0),
                        retry=RetryPolicy(max_retries=2, backoff=1e-4),
                        fault_plan=plan)
        request = server.submit(POLY_PROGRAM, fresh_vector(session, rng))
        server.poll()
        response = request.response()
        assert response.error_kind == "DrainFailed"
        assert isinstance(response.error.__cause__, TransientFault)
        assert server.metrics.retries == 2  # budget fully spent
        assert server.metrics.availability == 0.0

    def test_backoff_delays_grow_exponentially(self):
        policy = RetryPolicy(backoff=1e-4, backoff_factor=2.0)
        assert [policy.delay(n) for n in (1, 2, 3)] == \
            pytest.approx([1e-4, 2e-4, 4e-4])


# ----------------------------------------------------------------------
# admission control
# ----------------------------------------------------------------------


class TestAdmission:
    def test_queue_bound_sheds_with_typed_response(self, session, rng):
        server = Server(
            session, BatchingPolicy(max_batch_size=8, max_wait=1.0),
            admission=AdmissionPolicy(max_queue_depth=2),
        )
        admitted = [server.submit(POLY_PROGRAM, fresh_vector(session, rng))
                    for _ in range(2)]
        shed = [server.submit(POLY_PROGRAM, fresh_vector(session, rng))
                for _ in range(3)]
        for request in shed:
            response = request.response()
            assert response.error_kind == "RequestRejected"
            assert response.error.reason == "queue-full"
        assert server.metrics.shed_requests == 3
        assert server.metrics.admitted == 2
        server.drain()
        assert all(r.response().ok for r in admitted)
        assert server.metrics.availability == 1.0  # shed excluded

    def test_memory_watermark_sheds(self, session, rng):
        pool = MemoryPool(capacity_bytes=2048)
        pool.charge(1536)
        server = Server(
            session, BatchingPolicy(),
            admission=AdmissionPolicy(memory_high_watermark=0.5, pool=pool),
        )
        request = server.submit(POLY_PROGRAM, fresh_vector(session, rng))
        assert request.response().error.reason == "memory-pressure"

    def test_admission_policy_validation(self):
        with pytest.raises(ValueError, match="at least 1"):
            AdmissionPolicy(max_queue_depth=0)
        with pytest.raises(ValueError, match="fraction"):
            AdmissionPolicy(memory_high_watermark=1.5)


# ----------------------------------------------------------------------
# submit-time validation
# ----------------------------------------------------------------------


class TestSubmitValidation:
    def test_wrong_ring_degree_raises_at_submit(self, session, rng):
        params = session.params
        alien = SimpleNamespace(ring_degree=params.ring_degree * 2,
                                level=1, slots=params.slots, scale=2.0 ** 28)
        server = Server(session)
        with pytest.raises(RequestRejected, match="re-encrypt") as info:
            server.submit(POLY_PROGRAM, alien)
        assert info.value.reason == "invalid-shape"
        assert server.metrics.submitted == 0  # never entered the queue

    def test_validate_handle_reasons(self, session):
        params = session.params
        good = dict(ring_degree=params.ring_degree, level=1,
                    slots=params.slots, scale=2.0 ** 28)
        validate_handle(SimpleNamespace(**good), params)  # no raise
        with pytest.raises(RequestRejected) as info:
            validate_handle(
                SimpleNamespace(**{**good, "level": params.mult_depth + 5}),
                params)
        assert info.value.reason == "invalid-level"
        with pytest.raises(RequestRejected) as info:
            validate_handle(SimpleNamespace(**{**good, "scale": 0.0}), params)
        assert info.value.reason == "invalid-scale"
        with pytest.raises(RequestRejected) as info:
            validate_handle(
                SimpleNamespace(**{**good, "slots": params.slots * 2}), params)
        assert info.value.reason == "invalid-shape"


# ----------------------------------------------------------------------
# replay
# ----------------------------------------------------------------------


class TestArrivalTraces:
    def test_generators_are_seeded_and_sorted(self):
        for make in (
            lambda s: poisson_arrivals(100, rate=1000.0, seed=s),
            lambda s: burst_arrivals(100, bursts=5, burst_gap=0.01, seed=s),
            lambda s: diurnal_arrivals(100, period=1.0, seed=s),
        ):
            a, b = make(3), make(3)
            assert np.array_equal(a, b)
            assert len(a) == 100
            assert np.all(np.diff(a) >= 0)
            assert not np.array_equal(a, make(4))

    def test_diurnal_stays_inside_one_period(self):
        arrivals = diurnal_arrivals(500, period=2.0, seed=9, start=1.0)
        assert arrivals.min() >= 1.0 and arrivals.max() <= 3.0


class TestReplay:
    def test_replay_is_deterministic_on_cost_backend(self, session):
        def run_once():
            backend = session.cost_backend()
            plan = FaultPlan.generate(21, duration=0.2, oom_fraction=0.2,
                                      transients=2)
            server = Server(backend,
                            BatchingPolicy(max_batch_size=8, max_wait=1e-3),
                            fault_plan=plan)
            driver = ReplayDriver(
                server, POLY_PROGRAM,
                lambda i: backend.encrypt(np.full(8, 0.5)),
                deadline_offset=0.05,
            )
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                report = driver.run(
                    poisson_arrivals(300, rate=3000.0, seed=5))
            return report.summary(), list(server.injector.log)
        first, second = run_once(), run_once()
        assert first == second

    def test_burst_replay_sheds_and_stays_available(self, session):
        backend = session.cost_backend()
        server = Server(backend, BatchingPolicy(max_batch_size=8, max_wait=1e-3),
                        admission=AdmissionPolicy(max_queue_depth=8))
        driver = ReplayDriver(server, POLY_PROGRAM,
                              lambda i: backend.encrypt(np.full(8, 0.5)))
        report = driver.run(burst_arrivals(32, bursts=1, burst_gap=1.0, seed=2))
        assert report.metrics is server.metrics  # read, not copied
        assert report.metrics.shed_requests == 24  # depth bound 8 vs a 32-burst
        assert report.metrics.admitted == 8
        assert report.metrics.availability == 1.0
        assert report.error_kinds == {"RequestRejected": 24}

    def test_faulted_replay_meets_the_acceptance_contract(self, session, rng):
        # Functional backend: every OK response must be bit-identical to
        # fault-free sequential execution, every failure typed, and no OK
        # response dispatched past its deadline.
        plan = FaultPlan.generate(13, duration=0.06, oom_fraction=0.5,
                                  oom_window=0.01, transients=1)
        server = Server(session, BatchingPolicy(max_batch_size=4, max_wait=1e-3),
                        retry=RetryPolicy(max_retries=3, backoff=1e-5),
                        fault_plan=plan)
        vectors = [fresh_vector(session, rng) for _ in range(24)]
        driver = ReplayDriver(server, POLY_PROGRAM, lambda i: vectors[i],
                              deadline_offset=0.02)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            report = driver.run(
                burst_arrivals(24, bursts=6, burst_gap=0.01, seed=17))
        assert report.deadline_violations == 0
        assert report.metrics.submitted == 24
        expected = [POLY_PROGRAM(vector) for vector in vectors]
        for request, want in zip(driver.requests, expected):
            response = request.response()
            if response.ok:
                assert bitwise_equal(request.result(), want)
            else:
                assert response.error_kind in {
                    "RequestRejected", "DeadlineExceeded", "DrainFailed",
                }
        assert report.metrics.availability >= 0.99
