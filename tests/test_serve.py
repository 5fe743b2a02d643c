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

from collections import Counter

import numpy as np
import pytest

from repro.api.vector import CipherVector
from repro.apps import logistic_regression
from repro.apps.logistic_regression import SCORE_DEPTH, EncryptedLRScorer, sigmoid_poly
from repro.ckks.context import REPLY_MARGIN_BITS, Context, reply_limbs
from repro.ckks.noise import measured_precision_bits
from repro.ckks.params import CKKSParameters
from repro.core.dispatch import DISPATCH
from repro.core.memory import FusedFootprintError
from repro.gpu.platforms import GPU_RTX_4090
from repro.perf.trace_model import TraceCostModel
from repro.serve import (
    AdmissionPolicy,
    BatchingPolicy,
    BucketQueue,
    OpProgram,
    RetryPolicy,
    Server,
    ShapeKey,
    SimulatedClock,
    shape_key_of,
)
from repro.serve import request as request_module
from repro.serve.request import Request
from tests.conftest import coefficient_frame

#: 1 + 2x^2: two levels deep, no rotation keys needed.
POLY_PROGRAM = OpProgram.polynomial([1.0, 0.0, 2.0])

#: The serve_burst_b8 polynomial: 0.5 + 0.25x − 0.02x^3.
BURST_POLYNOMIAL = [0.5, 0.25, 0.0, -0.02]

#: Horner programs checked against ``np.polyval``: degrees 3, 2 and 1, and a
#: trailing zero that is dropped.
HORNER_SETS = [BURST_POLYNOMIAL, [1.0, 0.0, 2.0], [0.5, -1.0, 0.0, 0.25],
               [0.3, -0.7], [1.0, 2.0, 0.0]]

#: The serve_burst_b8 model: four weights, features in [-1, 1].
LR_WEIGHTS = np.random.default_rng(42).uniform(-1.0, 1.0, 4)

#: (x*x) + 0.5 written directly against the shared operator surface.
SQUARE_PROGRAM = OpProgram("square-shift", lambda x: (x * x) + 0.5)


def bitwise_equal(a: CipherVector, b: CipherVector) -> bool:
    return np.array_equal(a.handle.c0.data, b.handle.c0.data) and \
        np.array_equal(a.handle.c1.data, b.handle.c1.data)


def keep_every_limb(monkeypatch) -> None:
    """Both programs as before the entry rule: no chain shorter than the
    whole one holds their output, so they keep every limb."""
    for module in (request_module, logistic_regression):
        monkeypatch.setattr(module, "reply_limbs", lambda moduli, *_: len(moduli))


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
        assert queue.requests(key)[0] is requests[0]
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

    @pytest.mark.parametrize("field, value", [
        ("max_batch_size", 2.5),
        ("max_batch_size", True),
        ("max_queue_depth", 2.5),
        ("max_retries", float("nan")),
        ("max_retries", 3.0),
        ("memory_budget_bytes", 250_000.0),
        ("memory_budget_bytes", float("inf")),
        ("memory_budget_bytes", float("nan")),
        ("memory_budget_bytes", True),
    ], ids=["fractional-batch", "bool-batch", "fractional-queue", "nan-retries",
            "float-retries", "float-budget", "inf-budget", "nan-budget",
            "bool-budget"])
    def test_policy_counts_must_be_integers(self, field, value):
        """Regression: a fractional batch size used to pass validation and
        break ``BucketQueue.take`` at drain time, NaN retries never ran out,
        a float budget broke ``Server.drain`` and an infinite one turned
        fusion off."""
        policy = {"max_batch_size": BatchingPolicy, "max_queue_depth": AdmissionPolicy,
                  "max_retries": RetryPolicy,
                  "memory_budget_bytes": BatchingPolicy}[field]
        with pytest.raises(TypeError, match=f"{field} must be an integer"):
            policy(**{field: value})
        assert getattr(policy(**{field: np.int64(4)}), field) == 4


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

    def test_coefficient_frame_fuses_with_evaluation_frames(self, session, rng):
        """Regression: a ciphertext uploaded from a "coeff" frame lands in
        the same bucket as evaluation-format uploads (the shape key has no
        format) and must fuse with them, not fail the whole drain."""
        frames = [session.download(fresh_vector(session, rng)) for _ in range(3)]
        uploads = [session.upload(frame) for frame in frames]
        uploads.append(session.upload(coefficient_frame(frames[0])))
        server = Server(session, BatchingPolicy(max_batch_size=4, max_wait=1.0))
        requests = [server.submit(POLY_PROGRAM, vector) for vector in uploads]
        server.poll()
        assert server.metrics.batch_histogram() == {4: 1}
        for request in requests:
            assert request.response().ok and request.response().batch_size == 4
            assert bitwise_equal(request.result(), POLY_PROGRAM(request.vector))
        assert bitwise_equal(requests[3].result(), requests[0].result())

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
        with pytest.warns(RuntimeWarning, match="fused drain degraded"):
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

    def test_cost_model_serves_both_programs_to_the_same_limbs(self, session, rng):
        """The symbolic server runs each program's entry mod-reduce too: the
        same level, scale and limb count as the functional reply."""
        scorer = EncryptedLRScorer(session, LR_WEIGHTS)
        symbolic_backend = session.cost_backend()
        servers = [Server(backend, BatchingPolicy(max_batch_size=4, max_wait=0.0))
                   for backend in (session.backend, symbolic_backend)]
        rows = [rng.uniform(-1, 1, 4) for _ in range(4)]
        for program in (scorer.program(), OpProgram.polynomial(BURST_POLYNOMIAL)):
            real = [servers[0].submit(program, session.encrypt(row)) for row in rows]
            ghosts = [servers[1].submit(program, CipherVector(
                symbolic_backend, symbolic_backend.encrypt(row))) for row in rows]
            for server in servers:
                server.poll()
            for request, ghost in zip(real, ghosts):
                want, got = request.result(), ghost.result()
                assert ghost.response().batch_size == 4
                assert (got.level, got.limb_count) == (want.level, want.limb_count) \
                    == (1, 2)
                assert got.scale == pytest.approx(want.scale, rel=1e-12)

    @pytest.mark.parametrize("coeffs", HORNER_SETS, ids=str)
    def test_cost_model_serves_horner_to_the_same_level_and_scale(
            self, session, rng, coeffs):
        """The twin runs the same weighted sum and product sums: the same
        level and scale, and the kernels the data plane launches."""
        program = OpProgram.polynomial(coeffs)
        rows = [rng.uniform(-1, 1, 8) for _ in range(3)]
        results, traces = [], []
        for backend in (session.backend, session.cost_backend()):
            x = CipherVector(backend, backend.encrypt_batch(rows))
            with session.trace() as trace:
                results.append(program(x))
            traces.append(trace)
        real, ghost = results
        assert ghost.level == real.level
        assert ghost.scale == pytest.approx(real.scale, rel=1e-12)
        recorded, emitted = traces
        assert emitted.kernel_count == recorded.kernel_count
        assert emitted.bytes_moved == pytest.approx(recorded.bytes_moved, rel=1e-3)

    def test_recorded_serving_is_bit_identical(self, session, rng):
        rows = [rng.uniform(-1, 1, 8) for _ in range(3)]
        plain = Server(session, BatchingPolicy(max_batch_size=4, max_wait=0.0))
        traced = Server(session, BatchingPolicy(max_batch_size=4, max_wait=0.0))
        # One encryption per row, served through both stacks: encryption is
        # randomised, so bit-identity only holds for the same input handle.
        handles = [session.encrypt(row).handle for row in rows]
        expected = [
            plain.submit(SQUARE_PROGRAM, CipherVector(session.backend, handle))
            for handle in handles
        ]
        observed = [
            traced.submit(SQUARE_PROGRAM, CipherVector(session.backend, handle))
            for handle in handles
        ]
        plain.flush()
        with session.trace() as trace:
            traced.flush()
        for want, got in zip(expected, observed):
            assert bitwise_equal(got.result(), want.result())
        assert trace.kernel_count > 0

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
    @pytest.mark.parametrize("members", [1, 3, 8])
    def test_polynomial_batched_is_bit_identical(self, session, rng, members):
        program = OpProgram.polynomial(BURST_POLYNOMIAL)
        vectors = [session.encrypt(rng.uniform(-1, 1, 8)) for _ in range(members)]
        sequential = [program(v) for v in vectors]
        fused = program(session.batch(vectors)).split()
        assert len(fused) == members
        for member, reference in zip(fused, sequential):
            assert bitwise_equal(member, reference)

    @pytest.mark.parametrize("coeffs", HORNER_SETS, ids=str)
    def test_polynomial_matches_plain_math(self, session, rng, coeffs):
        """Horner form against ``np.polyval``: entered at ``d + k`` limbs,
        ``d`` levels consumed (the trailing zeros of ``[1, 2, 0]`` cost
        none), so the result has the rule's ``k`` limbs, on the ladder scale
        of its level."""
        program = OpProgram.polynomial(coeffs)
        values = rng.uniform(-1, 1, 8)
        x = session.encrypt(values)
        result = program(x)
        decrypted = session.decrypt(result, 8).real
        assert np.max(np.abs(decrypted - np.polyval(coeffs[::-1], values))) < 5e-3
        degree = max(i for i, c in enumerate(coeffs) if c)
        k = reply_limbs(session.context.moduli, session.context.scale_ladder,
                        sum(abs(c) for c in coeffs))
        assert result.limb_count == k < x.limb_count - degree
        ladder = session.context.scale_at(result.level)
        assert abs(result.scale - ladder) <= 1e-12 * ladder

    def test_horner_is_one_weighted_sum_and_d_minus_one_products(self, session, rng):
        class Scopes(Counter):
            def enter(self, name):
                self[name.rsplit("/", 1)[-1]] += 1

            def exit(self, name):
                pass

        scopes = Scopes()
        x = session.encrypt(rng.uniform(-1, 1, 8))
        with DISPATCH.profiling(scopes):
            OpProgram.polynomial(BURST_POLYNOMIAL)(x)
        # No HSquare, realignment, addition or standalone scalar operation.
        assert {name: scopes[name] for name in (
            "scalardot", "rescale", "hmult", "hsquare", "at_level", "hadd",
            "scalarmult", "scalaradd")} == {
            "scalardot": 1, "rescale": 1, "hmult": 2, "hsquare": 0, "at_level": 0,
            "hadd": 0, "scalarmult": 0, "scalaradd": 0}

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
# the entry rule: a program runs at the fewest limbs its depth and output need
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def p13_context():
    """The serving workloads' chain: N=2^13, 7 limbs of 28-30 bits."""
    return Context(CKKSParameters(ring_degree=2**13, mult_depth=6, scale_bits=28,
                                  dnum=3, first_mod_bits=30))


def both_programs(session):
    """``(program, depth, bound)`` of the LR scorer and the burst polynomial."""
    scorer = EncryptedLRScorer(session, LR_WEIGHTS)
    return [(scorer.program(), SCORE_DEPTH, scorer.output_bound),
            (OpProgram.polynomial(BURST_POLYNOMIAL), 3,
             sum(abs(c) for c in BURST_POLYNOMIAL))]


class TestEntryRule:
    def test_both_programs_reply_with_two_limbs_on_p13(self, session, p13_context):
        moduli, ladder = p13_context.moduli, p13_context.scale_ladder
        for program, depth, bound in both_programs(session):
            k = reply_limbs(moduli, ladder, bound)
            assert k == 2, program
            # The fewest: one limb does not hold 2^(1+M)·bound·Δ, two do.
            need = 2.0 ** (1 + REPLY_MARGIN_BITS) * bound
            assert moduli[0] < need * ladder[0]
            assert moduli[0] * moduli[1] >= need * ladder[1]
            assert depth + k == 5 < len(moduli)

    def test_a_bound_no_shorter_chain_holds_keeps_every_limb(self, p13_context):
        moduli, ladder = p13_context.moduli, p13_context.scale_ladder
        assert reply_limbs(moduli, ladder, 2.0 ** 200) == len(moduli)
        assert reply_limbs(moduli, ladder, 0.0) == 1
        for bound in (float("nan"), float("inf"), -1.0):
            with pytest.raises(ValueError, match="bound"):
                reply_limbs(moduli, ladder, bound)

    @pytest.mark.parametrize("members", [1, 3])
    def test_an_input_at_or_below_the_entry_is_untouched(
            self, session, rng, monkeypatch, members):
        """An input that arrives with at most ``d + k`` limbs is not reduced:
        no ``modreduce`` launch, and the bits of the program without the
        rule."""
        context = session.context
        for program, depth, bound in both_programs(session):
            entry = depth + reply_limbs(context.moduli, context.scale_ladder, bound)
            for limbs in (entry, entry - 1):
                vectors = [fresh_vector(session, rng, level=limbs - 1)
                           for _ in range(members)]
                x = session.batch(vectors) if members > 1 else vectors[0]
                with session.trace() as trace:
                    ruled = program(x)
                assert not [e for e in trace if e.scope.endswith("modreduce")]
                assert ruled.limb_count == limbs - depth
                with monkeypatch.context() as patch:
                    keep_every_limb(patch)
                    assert bitwise_equal(ruled, program(x))

    @pytest.mark.parametrize("members", [1, 3, 8])
    def test_fused_members_are_the_sequential_results(self, session, rng, members):
        """Fused, served and sequential runs of both programs are the same
        bits, and each reply has the rule's 2 limbs."""
        scorer = EncryptedLRScorer(session, LR_WEIGHTS)
        server = Server(session, BatchingPolicy(max_batch_size=members, max_wait=0.0))
        vectors = [session.encrypt(rng.uniform(-1, 1, 4)) for _ in range(members)]
        polynomial = OpProgram.polynomial(BURST_POLYNOMIAL)
        for program, sequential in ((scorer.program(), scorer.score),
                                    (polynomial, polynomial)):
            expected = [sequential(v) for v in vectors]
            fused = program(session.batch(vectors)) if members > 1 else program(vectors[0])
            served = [server.submit(program, v) for v in vectors]
            server.flush()
            for member, request, reference in zip(fused.split(), served, expected):
                assert reference.limb_count == 2
                assert bitwise_equal(member, reference)
                assert bitwise_equal(request.result(), reference)

    def test_precision_is_within_a_third_of_a_bit_of_every_limb(
            self, session, monkeypatch):
        """Median measured precision over 96 seeded inputs, entered at
        ``d + k`` limbs against every limb: within 0.3 bit, both programs.
        (Over 24 inputs the two medians already differ by 0.3 bit either
        way from the sampling alone, so fewer inputs cannot resolve it.)"""
        rng = np.random.default_rng(7)
        rows = [rng.uniform(-1, 1, 4) for _ in range(96)]
        vectors = [session.encrypt(row) for row in rows]
        scorer = EncryptedLRScorer(session, LR_WEIGHTS)
        cases = [
            (scorer.program(), 1,
             [sigmoid_poly(np.array([LR_WEIGHTS @ row])) for row in rows]),
            (OpProgram.polynomial(BURST_POLYNOMIAL), 4,
             [np.polynomial.polynomial.polyval(row, BURST_POLYNOMIAL) for row in rows]),
        ]

        def median_bits(program, length, expected):
            members = [member for i in range(0, len(vectors), 32)
                       for member in program(session.batch(vectors[i:i + 32])).split()]
            return float(np.median([
                measured_precision_bits(want, session.decrypt(member, length).real)
                for member, want in zip(members, expected)]))

        ruled = [median_bits(*case) for case in cases]
        keep_every_limb(monkeypatch)
        full = [median_bits(*case) for case in cases]
        for got, want in zip(ruled, full):
            assert got >= want - 0.3, (ruled, full)


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
