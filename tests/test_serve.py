"""Serving plane: bucketing, policies, dynamic batching, bit-identity.

The contract under test is the serving tentpole: a mixed-shape request
stream through :class:`repro.serve.Server` resolves every request with a
result **bit-identical** to running it alone on the sequential evaluator,
buckets never mix shapes, policy deadlines are never exceeded, and all
timing runs on the deterministic :class:`SimulatedClock` (no wall-clock
flakiness).  The same serving loop is exercised on all three backends --
functional, cost-model and tracing -- through the
:class:`~repro.api.backend.EvaluationBackend` seam.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api.vector import CipherVector
from repro.apps.logistic_regression import EncryptedLRScorer, sigmoid_poly
from repro.core.memory import FusedFootprintError
from repro.gpu.platforms import GPU_RTX_4090
from repro.perf.trace_model import TraceCostModel
from repro.serve import (
    BatchingPolicy,
    BucketQueue,
    OpProgram,
    Server,
    ShapeKey,
    SimulatedClock,
    shape_key_of,
)
from repro.serve.request import Request

#: 1 + 2x^2: two levels deep, no rotation keys needed.
POLY_PROGRAM = OpProgram.polynomial([1.0, 0.0, 2.0])

#: (x*x) + 0.5 written directly against the shared operator surface.
SQUARE_PROGRAM = OpProgram("square-shift", lambda x: (x * x) + 0.5)


def bitwise_equal(a: CipherVector, b: CipherVector) -> bool:
    return np.array_equal(a.handle.c0.data, b.handle.c0.data) and \
        np.array_equal(a.handle.c1.data, b.handle.c1.data)


def fresh_vector(session, rng, *, level: int | None = None) -> CipherVector:
    vector = session.encrypt(rng.uniform(-1, 1, 8))
    if level is not None and level != vector.level:
        vector = vector.at_level(level)
    return vector


# ----------------------------------------------------------------------
# bucketing
# ----------------------------------------------------------------------


class TestBucketing:
    def test_same_shape_requests_share_a_bucket(self, session, rng):
        queue = BucketQueue()
        n = session.params.ring_degree
        for _ in range(3):
            request = Request(POLY_PROGRAM, fresh_vector(session, rng),
                              arrival_time=0.0)
            queue.push(shape_key_of(request, default_ring_degree=n), request)
        assert len(queue.keys()) == 1
        assert queue.depth == 3

    def test_buckets_never_mix_shapes(self, session, rng):
        queue = BucketQueue()
        n = session.params.ring_degree
        top = session.max_level
        for level in (top, top - 1, top - 2):
            for program in (POLY_PROGRAM, SQUARE_PROGRAM):
                for _ in range(2):
                    request = Request(
                        program, fresh_vector(session, rng, level=level),
                        arrival_time=0.0,
                    )
                    queue.push(shape_key_of(request, default_ring_degree=n),
                               request)
        assert len(queue.keys()) == 6
        for key in queue.keys():
            for request in queue.requests(key):
                assert request.vector.level == key.level
                assert float(request.vector.scale) == key.scale
                assert request.program == key.program

    def test_fifo_order_and_bucket_cleanup(self, session, rng):
        queue = BucketQueue()
        n = session.params.ring_degree
        requests = [
            Request(POLY_PROGRAM, fresh_vector(session, rng), arrival_time=float(i))
            for i in range(4)
        ]
        key = shape_key_of(requests[0], default_ring_degree=n)
        for request in requests:
            queue.push(key, request)
        assert queue.oldest(key) is requests[0]
        first = queue.take(key, 3)
        assert [r.id for r in first] == [r.id for r in requests[:3]]
        assert queue.take(key, 3) == [requests[3]]
        assert queue.keys() == [] and queue.depth == 0


# ----------------------------------------------------------------------
# policy and clock
# ----------------------------------------------------------------------


class TestPolicyAndClock:
    def test_clock_is_monotone_and_deterministic(self):
        clock = SimulatedClock()
        assert clock.now() == 0.0
        clock.advance(1.5)
        clock.advance_to(1.0)  # no-op: already past
        assert clock.now() == 1.5
        with pytest.raises(ValueError):
            clock.advance(-1.0)

    def test_full_batch_is_ready_immediately(self, session, rng):
        policy = BatchingPolicy(max_batch_size=4, max_wait=1.0)
        request = Request(POLY_PROGRAM, fresh_vector(session, rng), arrival_time=0.0)
        timeout = policy.earliest_timeout([request])
        assert policy.ready(size=4, target=4, earliest_timeout=timeout, now=0.0)
        assert not policy.ready(size=3, target=4, earliest_timeout=timeout, now=0.5)

    def test_deadline_readiness(self, session, rng):
        policy = BatchingPolicy(max_batch_size=4, max_wait=1e-3)
        request = Request(POLY_PROGRAM, fresh_vector(session, rng), arrival_time=2.0)
        timeout = policy.earliest_timeout([request])
        assert not policy.ready(size=1, target=4, earliest_timeout=timeout,
                                now=2.0005)
        assert policy.ready(size=1, target=4, earliest_timeout=timeout, now=2.001)

    def test_per_request_deadline_tightens_timeout(self, session, rng):
        policy = BatchingPolicy(max_batch_size=4, max_wait=1.0)
        relaxed = Request(POLY_PROGRAM, fresh_vector(session, rng),
                          arrival_time=0.0)
        urgent = Request(POLY_PROGRAM, fresh_vector(session, rng),
                         arrival_time=0.1, deadline=0.25)
        assert policy.timeout_of(urgent) == 0.25
        # The bucket's obligation follows its most urgent member, which a
        # per-request deadline can make a *newer* arrival.
        assert policy.earliest_timeout([relaxed, urgent]) == 0.25

    def test_memory_budget_caps_drain_limit(self, session, rng):
        request = Request(POLY_PROGRAM, fresh_vector(session, rng), arrival_time=0.0)
        key = shape_key_of(request, default_ring_degree=session.params.ring_degree)
        member_bytes = 2 * (key.level + 1) * key.ring_degree * 8
        policy = BatchingPolicy(max_batch_size=8,
                                memory_budget_bytes=3 * member_bytes)
        assert policy.drain_limit(key) == 3
        # A budget below one member still allows singleton (unfused) drains.
        tiny = BatchingPolicy(max_batch_size=8, memory_budget_bytes=1)
        assert tiny.drain_limit(key) == 1

    def test_drain_limit_fits_the_budget_on_59_bit_moduli(self, rng):
        from repro.api import CKKSSession
        from repro.ckks.params import CKKSParameters

        dword = CKKSSession.create(
            CKKSParameters(ring_degree=1 << 6, mult_depth=2, scale_bits=59,
                           dnum=2, first_mod_bits=60, secret_hamming_weight=16),
            seed=5, register_default=False,
        )
        assert dword.numeric_backend == "dword"
        vector = fresh_vector(dword, rng)
        key = shape_key_of(Request(POLY_PROGRAM, vector, arrival_time=0.0),
                           default_ring_degree=dword.params.ring_degree)
        budget = 3 * vector.handle.footprint_bytes() + 1
        policy = BatchingPolicy(max_batch_size=8, memory_budget_bytes=budget)
        assert policy.drain_limit(key) == 3
        assert policy.drain_limit(key) * vector.handle.footprint_bytes() <= budget

    def test_invalid_policies_rejected(self):
        with pytest.raises(ValueError):
            BatchingPolicy(max_batch_size=0)
        with pytest.raises(ValueError):
            BatchingPolicy(max_wait=-1.0)
        with pytest.raises(ValueError):
            BatchingPolicy(memory_budget_bytes=0)


# ----------------------------------------------------------------------
# the server on the functional backend
# ----------------------------------------------------------------------


class TestServer:
    def test_full_batch_drains_immediately(self, session, rng):
        server = Server(session, BatchingPolicy(max_batch_size=4, max_wait=1.0))
        requests = [
            server.submit(POLY_PROGRAM, fresh_vector(session, rng))
            for _ in range(4)
        ]
        completed = server.poll()
        assert len(completed) == 4 and server.pending == 0
        for request in requests:
            assert request.done()
            assert request.response().batch_size == 4
            assert request.response().latency == 0.0
            assert bitwise_equal(request.result(), POLY_PROGRAM(request.vector))

    def test_partial_batch_waits_for_the_deadline(self, session, rng):
        clock = SimulatedClock()
        policy = BatchingPolicy(max_batch_size=4, max_wait=2e-3)
        server = Server(session, policy, clock=clock)
        requests = [
            server.submit(POLY_PROGRAM, fresh_vector(session, rng))
            for _ in range(3)
        ]
        assert server.poll() == []  # not full, not timed out
        assert server.next_timeout() == pytest.approx(2e-3)
        clock.advance_to(server.next_timeout())
        completed = server.poll()
        assert len(completed) == 3
        for request in requests:
            assert request.response().batch_size == 3
            assert request.response().latency == pytest.approx(policy.max_wait)

    def test_newer_request_deadline_drains_the_bucket_early(self, session, rng):
        """Regression: a per-request deadline earlier than the oldest
        member's timeout must pull the whole bucket's dispatch forward."""
        clock = SimulatedClock()
        policy = BatchingPolicy(max_batch_size=4, max_wait=1e-3)
        server = Server(session, policy, clock=clock)
        relaxed = server.submit(POLY_PROGRAM, fresh_vector(session, rng))
        clock.advance(1e-4)
        urgent = server.submit(POLY_PROGRAM, fresh_vector(session, rng),
                               deadline=2e-4)
        assert server.next_timeout() == pytest.approx(2e-4)
        clock.advance_to(server.next_timeout())
        server.poll()
        assert urgent.response().dispatch_time <= urgent.deadline
        assert relaxed.done()  # drained together, well within its own budget

    def test_singleton_bucket_runs_sequentially(self, session, rng):
        server = Server(session, BatchingPolicy(max_batch_size=8, max_wait=0.0))
        request = server.submit(SQUARE_PROGRAM, fresh_vector(session, rng))
        server.poll()
        assert server.metrics.batch_histogram() == {1: 1}
        assert bitwise_equal(request.result(), SQUARE_PROGRAM(request.vector))

    def test_flush_respects_drain_limit(self, session, rng):
        server = Server(session, BatchingPolicy(max_batch_size=4, max_wait=1.0))
        for _ in range(10):
            server.submit(POLY_PROGRAM, fresh_vector(session, rng))
        completed = server.flush()
        assert len(completed) == 10
        assert server.metrics.batch_histogram() == {2: 1, 4: 2}

    def test_mixed_shape_randomized_stream_bit_identity(self, session):
        """The acceptance scenario: seeded random arrivals at mixed
        (level, scale) with two programs, driven purely on the simulated
        clock -- every response bit-identical to sequential evaluation,
        no bucket ever mixes shapes, no deadline ever exceeded."""
        stream_rng = np.random.default_rng(20260729)
        clock = SimulatedClock()
        policy = BatchingPolicy(max_batch_size=4, max_wait=1.5e-3)
        server = Server(session, policy, clock=clock)
        top = session.max_level
        programs = (POLY_PROGRAM, SQUARE_PROGRAM)

        requests = []
        for _ in range(24):
            level = int(stream_rng.choice([top, top - 1, top - 2]))
            program = programs[int(stream_rng.integers(len(programs)))]
            vector = fresh_vector(session, stream_rng, level=level)
            requests.append(server.submit(program, vector))
            # Shape invariant: every queued bucket is internally uniform.
            for key in server.queue.keys():
                for queued in server.queue.requests(key):
                    assert queued.vector.level == key.level
                    assert float(queued.vector.scale) == key.scale
                    assert queued.program == key.program
            # Advance to the next arrival, polling at any timeout passed.
            gap = float(stream_rng.uniform(0.0, 1e-3))
            target = clock.now() + gap
            while server.next_timeout() is not None and \
                    server.next_timeout() <= target:
                clock.advance_to(server.next_timeout())
                server.poll()
            clock.advance_to(target)
            server.poll()
        server.drain()

        assert server.pending == 0
        assert server.metrics.completed == 24
        for request in requests:
            response = request.response()
            assert response.ok
            # deadline: dispatched within the policy's wait budget
            assert response.latency <= policy.max_wait + 1e-12
            assert response.batch_size <= policy.max_batch_size
            # bit-identity with the sequential path
            assert bitwise_equal(request.result(),
                                 request.program(request.vector))
        assert max(server.metrics.batch_sizes) > 1  # batching actually happened

    def test_program_error_fails_the_drain_not_the_server(self, session, rng):
        bad = OpProgram("needs-missing-key", lambda x: x << 7)  # no key for 7
        server = Server(session, BatchingPolicy(max_batch_size=2, max_wait=0.0))
        failed = [server.submit(bad, fresh_vector(session, rng)) for _ in range(2)]
        server.poll()
        for request in failed:
            assert request.done() and not request.response().ok
            with pytest.raises(KeyError):
                request.result()
        assert server.metrics.failed == 2
        # the server keeps serving
        ok = server.submit(POLY_PROGRAM, fresh_vector(session, rng))
        server.flush()
        assert ok.response().ok

    def test_footprint_error_degrades_to_sequential(self, session, rng,
                                                    monkeypatch):
        def exploding_batch_from(handles):
            raise FusedFootprintError("synthetic: fused footprint over budget")

        server = Server(session, BatchingPolicy(max_batch_size=4, max_wait=0.0))
        monkeypatch.setattr(server.backend, "batch_from", exploding_batch_from)
        requests = [
            server.submit(POLY_PROGRAM, fresh_vector(session, rng))
            for _ in range(4)
        ]
        server.poll()
        assert server.metrics.footprint_fallbacks == 1
        for request in requests:
            assert request.response().ok
            assert bitwise_equal(request.result(), POLY_PROGRAM(request.vector))

    def test_memory_budget_forces_singleton_drains(self, session, rng):
        server = Server(
            session,
            BatchingPolicy(max_batch_size=8, max_wait=0.0, memory_budget_bytes=1),
        )
        for _ in range(3):
            server.submit(POLY_PROGRAM, fresh_vector(session, rng))
        server.poll()
        assert server.metrics.batch_histogram() == {1: 3}

    def test_metrics_are_deterministic(self, session, rng):
        clock = SimulatedClock()
        server = Server(session, BatchingPolicy(max_batch_size=2, max_wait=1e-3),
                        clock=clock)
        server.submit(POLY_PROGRAM, fresh_vector(session, rng))
        clock.advance(1e-3)
        server.poll()  # deadline drain, latency 1 ms
        server.submit(POLY_PROGRAM, fresh_vector(session, rng))
        server.submit(POLY_PROGRAM, fresh_vector(session, rng))
        server.poll()  # full drain, latency 0
        metrics = server.metrics
        assert metrics.submitted == metrics.completed == 3
        assert metrics.batch_histogram() == {1: 1, 2: 1}
        assert metrics.p50_latency == 0.0
        assert metrics.p95_latency == pytest.approx(1e-3)
        assert metrics.max_queue_depth == 2
        assert metrics.summary()["mean_batch_size"] == pytest.approx(1.5)

    def test_unresolved_request_raises_until_driven(self, session, rng):
        server = Server(session, BatchingPolicy(max_batch_size=8, max_wait=1.0))
        request = server.submit(POLY_PROGRAM, fresh_vector(session, rng))
        assert not request.done()
        with pytest.raises(RuntimeError, match="still queued"):
            request.response()
        server.flush()
        assert request.done()


# ----------------------------------------------------------------------
# the same serving loop on the other backends
# ----------------------------------------------------------------------


class TestServeBackends:
    def test_cost_model_backend_serves_symbolically(self, session, rng):
        functional = Server(session, BatchingPolicy(max_batch_size=4, max_wait=0.0))
        symbolic_backend = session.cost_backend()
        pricer = TraceCostModel(GPU_RTX_4090)
        symbolic = Server(symbolic_backend,
                          BatchingPolicy(max_batch_size=4, max_wait=0.0),
                          trace_costs=pricer)
        rows = [rng.uniform(-1, 1, 8) for _ in range(4)]
        real = [functional.submit(POLY_PROGRAM, session.encrypt(row))
                for row in rows]
        ghosts = [
            symbolic.submit(POLY_PROGRAM,
                            CipherVector(symbolic_backend,
                                         symbolic_backend.encrypt(row)))
            for row in rows
        ]
        functional.poll()
        symbolic.poll()
        for request, ghost in zip(real, ghosts):
            assert ghost.response().batch_size == 4
            assert ghost.result().level == request.result().level
            assert ghost.result().scale == pytest.approx(
                request.result().scale, rel=1e-9
            )
        # The symbolic drain is on the trace seam: its modeled seconds are
        # the price of the fused B=4 kernels the backend emitted.
        with session.trace() as emitted:
            POLY_PROGRAM(CipherVector(symbolic_backend,
                                      symbolic_backend.encrypt_batch(rows)))
        assert all(e.scope.startswith("batch4/") for e in emitted)
        assert symbolic.metrics.modeled_kernels == emitted.kernel_count > 0
        assert symbolic.metrics.modeled_seconds == \
            pricer.price(emitted, streams=1).makespan

    def test_tracing_backend_serving_is_bit_identical(self, session, rng):
        rows = [rng.uniform(-1, 1, 8) for _ in range(3)]
        plain = Server(session, BatchingPolicy(max_batch_size=4, max_wait=0.0))
        tracing_backend = session.tracing_backend()
        traced = Server(tracing_backend,
                        BatchingPolicy(max_batch_size=4, max_wait=0.0))
        # One encryption per row, served through both stacks: encryption is
        # randomised, so bit-identity only holds for the same input handle.
        handles = [session.encrypt(row).handle for row in rows]
        expected = [
            plain.submit(SQUARE_PROGRAM, CipherVector(session.backend, handle))
            for handle in handles
        ]
        observed = [
            traced.submit(SQUARE_PROGRAM, CipherVector(tracing_backend, handle))
            for handle in handles
        ]
        plain.flush()
        traced.flush()
        for want, got in zip(expected, observed):
            assert bitwise_equal(got.result(), want.result())
        assert tracing_backend.trace.kernel_count > 0

    def test_trace_costs_accumulate_modeled_gpu_time(self, session, rng):
        server = Server(
            session, BatchingPolicy(max_batch_size=4, max_wait=0.0),
            trace_costs=TraceCostModel(GPU_RTX_4090),
        )
        for _ in range(4):
            server.submit(POLY_PROGRAM, fresh_vector(session, rng))
        server.poll()
        assert server.metrics.modeled_seconds > 0.0
        assert server.metrics.modeled_kernels > 0
        assert server.metrics.modeled_throughput() > 0.0

    def test_session_server_wires_the_session_backend(self, session, rng):
        server = session.server(BatchingPolicy(max_batch_size=2, max_wait=0.0))
        assert server.backend is session.backend
        request = server.submit(POLY_PROGRAM, session.encrypt(rng.uniform(-1, 1, 8)))
        server.flush()
        assert request.response().ok


# ----------------------------------------------------------------------
# op programs
# ----------------------------------------------------------------------


class TestOpProgram:
    def test_polynomial_matches_plain_math(self, session, rng):
        coeffs = [0.5, -1.0, 0.0, 0.25]  # 0.5 - x + 0.25 x^3
        program = OpProgram.polynomial(coeffs)
        values = rng.uniform(-1, 1, 8)
        result = program(session.encrypt(values))
        decrypted = session.decrypt(result, 8).real
        expected = np.polynomial.polynomial.polyval(values, coeffs)
        assert np.max(np.abs(decrypted - expected)) < 5e-3

    def test_polynomial_batched_is_bit_identical(self, session, rng):
        program = OpProgram.polynomial([0.5, -1.0, 0.0, 0.25])
        vectors = [session.encrypt(rng.uniform(-1, 1, 8)) for _ in range(3)]
        sequential = [program(v) for v in vectors]
        fused = program(session.batch(vectors)).split()
        for member, reference in zip(fused, sequential):
            assert bitwise_equal(member, reference)

    def test_constant_polynomial_rejected(self):
        with pytest.raises(ValueError, match="non-constant"):
            OpProgram.polynomial([3.0])
        with pytest.raises(ValueError, match="non-constant"):
            OpProgram.polynomial([3.0, 0.0, 0.0])

    def test_program_identity_drives_fusion(self):
        assert OpProgram.polynomial([1.0, 2.0]) == OpProgram.polynomial([1.0, 2.0])
        assert OpProgram.polynomial([1.0, 2.0]) != OpProgram.polynomial([1.0, 3.0])
        assert hash(OpProgram("a", abs)) == hash(OpProgram("a", str))
        with pytest.raises(TypeError, match="OpProgram"):
            Request(lambda x: x, None, arrival_time=0.0)


# ----------------------------------------------------------------------
# LR scoring through the server
# ----------------------------------------------------------------------


class TestLRServing:
    def test_scorer_batch_is_bit_identical_to_per_ciphertext(self, session, rng):
        weights = rng.uniform(-1, 1, 4)
        scorer = EncryptedLRScorer(session, weights)
        rows = [rng.uniform(-1, 1, 4) for _ in range(3)]
        vectors = [session.encrypt(row) for row in rows]
        sequential = [scorer.score(v) for v in vectors]
        fused = scorer.score(session.batch(vectors)).split()
        for member, reference, row in zip(fused, sequential, rows):
            assert bitwise_equal(member, reference)
            decrypted = float(session.decrypt(member, 1).real[0])
            expected = float(sigmoid_poly(np.array([weights @ row]))[0])
            assert abs(decrypted - expected) < 5e-3

    def test_lr_scoring_served_end_to_end(self, session, rng):
        weights = rng.uniform(-1, 1, 4)
        scorer = EncryptedLRScorer(session, weights)
        clock = SimulatedClock()
        server = Server(session, BatchingPolicy(max_batch_size=4, max_wait=1e-3),
                        clock=clock)
        program = scorer.program()
        rows = [rng.uniform(-1, 1, 4) for _ in range(6)]
        requests = [server.submit(program, session.encrypt(row)) for row in rows]
        server.drain()
        for request, row in zip(requests, rows):
            assert bitwise_equal(request.result(), scorer.score(request.vector))
            decrypted = float(session.decrypt(request.result(), 1).real[0])
            expected = float(sigmoid_poly(np.array([weights @ row]))[0])
            assert abs(decrypted - expected) < 5e-3
        assert server.metrics.batch_histogram() == {2: 1, 4: 1}

    def test_two_models_never_fuse(self, session, rng):
        scorer_a = EncryptedLRScorer(session, rng.uniform(-1, 1, 4))
        scorer_b = EncryptedLRScorer(session, rng.uniform(-1, 1, 4))
        assert scorer_a.program() != scorer_b.program()
        server = Server(session, BatchingPolicy(max_batch_size=8, max_wait=1.0))
        for _ in range(2):
            server.submit(scorer_a.program(), fresh_vector(session, rng))
            server.submit(scorer_b.program(), fresh_vector(session, rng))
        assert len(server.queue.keys()) == 2
        server.flush()
        assert server.metrics.batch_histogram() == {2: 2}
