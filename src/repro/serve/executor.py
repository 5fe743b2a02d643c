"""Bucket draining and fused execution: the serving plane's engine room.

:class:`BatchExecutor` turns one drained bucket into ciphertext results:
singleton drains run the program directly on the request's
:class:`~repro.api.vector.CipherVector` (no fused allocation at all),
while larger drains fuse the members through the backend's ``batch_from``
seam into one ``batch_size=B`` handle and run the *same program once* over
the fused ``(B·L, N)`` kernels.  Because the evaluator is bit-identical
member by member whatever the member count (the throughput-plane contract
the test suite asserts), every response is bit-identical to running that
request alone -- batching is invisible to clients except in latency.

When a fused allocation is denied -- a real
:class:`~repro.core.memory.FusedFootprintError` or an injected OOM window
from a :class:`~repro.serve.faults.FaultInjector` -- the executor runs the
**degradation cascade**: the drain is split in half and each half retried
fused, recursively, ``B -> B/2 -> ... -> singleton``.  Singleton leaves
need no fused allocation at all, so the cascade always terminates with
every member served, bit-identical, just in smaller (eventually
sequential) pieces.  The first degradation emits a one-time
:class:`RuntimeWarning` naming the bucket and the denial; after that the
cascade is silent and counted in
:attr:`~repro.serve.metrics.ServeMetrics.degraded_drains`.

:class:`Server` is the front door :meth:`repro.api.session.CKKSSession.server`
returns: a shape-bucketed request queue (:mod:`repro.serve.bucketing`)
driven by a dynamic-batching policy (:mod:`repro.serve.policy`) on a
deterministic simulated clock, with metrics (:mod:`repro.serve.metrics`)
and optional per-drain GPU pricing through a
:class:`~repro.perf.trace_model.TraceCostModel`.  It works unchanged on
both backends -- functional and cost-model -- since it only speaks the
:class:`~repro.api.backend.EvaluationBackend` surface.

The failure-first layer (PR 9) threads through both classes: requests are
shape-validated and admission-controlled at :meth:`Server.submit`,
per-request deadlines are enforced by the drain loop, transient drain
failures retry with bounded backoff on the simulated clock
(:class:`~repro.serve.policy.RetryPolicy`).  Every admitted request
therefore resolves -- bit-identical result or typed
:class:`~repro.serve.errors.ServeError` -- and successful responses never
dispatch past their deadline.
"""

from __future__ import annotations

import warnings
from typing import Sequence

from repro.api.backend import as_backend
from repro.api.vector import CipherVector, as_vector
from repro.core.dispatch import DISPATCH
from repro.core.memory import FusedFootprintError, OutOfDeviceMemory
from repro.obs.registry import MetricsRegistry
from repro.serve.bucketing import (
    BucketQueue,
    ShapeKey,
    shape_key_of,
    validate_handle,
)
from repro.serve.errors import (
    DeadlineExceeded,
    DrainFailed,
    RequestRejected,
    TransientFault,
)
from repro.serve.faults import FaultInjector, FaultPlan
from repro.serve.metrics import ServeMetrics
from repro.serve.policy import (
    AdmissionPolicy,
    BatchingPolicy,
    RetryPolicy,
    SimulatedClock,
)
from repro.serve.request import OpProgram, Request

#: Drain failures the server retries with backoff (everything else fails
#: the drain immediately).  ``OutOfDeviceMemory`` covers real pool
#: exhaustion and injected pool denials; fused-footprint denials are its
#: subclass but never reach the server -- the executor cascade absorbs
#: them.
RETRYABLE_FAULTS = (TransientFault, OutOfDeviceMemory)


class BatchExecutor:
    """Runs one drained bucket, fused when possible, degraded when not."""

    def __init__(self, backend, *, injector: FaultInjector | None = None) -> None:
        self.backend = as_backend(backend)
        self.injector = injector
        self._warned_degradation = False

    def execute(
        self,
        program: OpProgram,
        vectors: Sequence[CipherVector],
        *,
        key: ShapeKey | None = None,
        now: float = 0.0,
        max_fuse: int | None = None,
    ) -> tuple[list[CipherVector], int]:
        """Evaluate ``program`` on all vectors; returns ``(results, degradations)``.

        ``degradations`` counts the cascade splits this drain needed (0 for
        a clean fused or singleton drain).  ``max_fuse`` caps the fused
        chunk size below the drain size -- the retry policy's degradation
        arm -- by pre-chunking the members before the cascade runs.  A
        drain of one runs sequentially by design; a fused drain that trips
        :class:`FusedFootprintError` (real, or injected by the fault
        plan's OOM window) is split in half and retried, recursively down
        to singletons, so capacity pressure degrades throughput instead of
        failing requests -- correctness is identical on every path.
        """
        vectors = list(vectors)
        if max_fuse is not None and max_fuse >= 1 and max_fuse < len(vectors):
            results: list[CipherVector] = []
            degradations = 0
            for start in range(0, len(vectors), max_fuse):
                chunk_results, chunk_degradations = self._attempt(
                    program, vectors[start:start + max_fuse], key, now
                )
                results.extend(chunk_results)
                degradations += chunk_degradations
            return results, degradations
        return self._attempt(program, vectors, key, now)

    def _attempt(
        self,
        program: OpProgram,
        vectors: list[CipherVector],
        key: ShapeKey | None,
        now: float,
    ) -> tuple[list[CipherVector], int]:
        """One cascade level: fuse whole, or halve on footprint denial."""
        if len(vectors) == 1:
            return [program(vectors[0])], 0
        try:
            if self.injector is not None:
                self.injector.check_fuse(now, len(vectors))
            batch = CipherVector(
                self.backend, self.backend.batch_from([v.handle for v in vectors])
            )
            return program(batch).split(), 0
        except FusedFootprintError as exc:
            self._warn_degradation(key, exc)
            half = (len(vectors) + 1) // 2
            left, left_degradations = self._attempt(program, vectors[:half], key, now)
            right, right_degradations = self._attempt(program, vectors[half:], key, now)
            return left + right, left_degradations + right_degradations + 1

    def _warn_degradation(self, key: ShapeKey | None, exc: Exception) -> None:
        """One-time heads-up that fused drains are degrading (then silent)."""
        if self._warned_degradation:
            return
        self._warned_degradation = True
        bucket = f"bucket {key}" if key is not None else "unkeyed drain"
        warnings.warn(
            f"fused drain degraded for {bucket}: {exc}; splitting "
            f"B -> B/2 -> ... -> singleton (results stay bit-identical). "
            f"Further degradations are counted in "
            f"ServeMetrics.degraded_drains without this warning.",
            RuntimeWarning,
            stacklevel=2,
        )


class Server:
    """A shape-bucketed, dynamically-batched front end over one backend.

    Lifecycle: clients :meth:`submit` requests (stamped on the simulated
    clock) and hold the returned :class:`Request` as a future; the driver
    advances the clock and calls :meth:`poll`, which drains every bucket
    the policy deems ready -- full fused batches immediately, partial ones
    when their oldest member's wait budget expires.  :meth:`drain` runs
    that loop to completion, visiting each pending timeout exactly.
    ``clock`` (a :class:`SimulatedClock`) shares one simulated timeline
    with the driver; the server creates its own otherwise.  This is the
    reference for every keyword
    :meth:`CKKSSession.server <repro.api.session.CKKSSession.server>`
    forwards.

    Pass ``trace_costs`` (a :class:`~repro.perf.trace_model.TraceCostModel`)
    to record each drain's kernel stream from the execution plane and
    accumulate its modeled GPU time in :attr:`metrics` -- only meaningful
    on backends that drive the real data plane.

    The failure-first knobs (PR 9):

    * ``admission`` -- an :class:`~repro.serve.policy.AdmissionPolicy`;
      overload resolves new requests immediately with typed
      :class:`~repro.serve.errors.RequestRejected` responses (load
      shedding) instead of queueing unboundedly.
    * ``retry`` -- a :class:`~repro.serve.policy.RetryPolicy` governing
      transient-fault / OOM retry with simulated-clock backoff (defaults
      to ``RetryPolicy()``: 3 retries, exponential backoff, halving the
      fused size each retry).
    * ``fault_plan`` -- a :class:`~repro.serve.faults.FaultPlan` (or a
      ready :class:`~repro.serve.faults.FaultInjector`); the server
      attaches its clock and advances the injector as simulated time
      moves.

    Pass ``observability`` (a :class:`repro.obs.Observability`, see
    :meth:`repro.api.session.CKKSSession.observability`) to wire the
    unified observability plane: the request lifecycle is recorded as
    parent/child spans on the simulated clock, :attr:`metrics` counts
    into the facade's registry (its own otherwise), live queue/fault
    state is published next to it, and (with ``trace_costs``) every
    priced drain feeds the per-scope rollup and the Perfetto timeline
    export.  A facade belongs to one server -- a second one raises
    :class:`ValueError`; ``None`` (the default) costs one ``is not None``
    check per hook.
    """

    def __init__(self, backend, policy: BatchingPolicy | None = None, *,
                 clock: SimulatedClock | None = None,
                 trace_costs=None,
                 admission: AdmissionPolicy | None = None,
                 retry: RetryPolicy | None = None,
                 fault_plan=None,
                 observability=None) -> None:
        self.backend = as_backend(backend)
        self.policy = policy if policy is not None else BatchingPolicy()
        self.clock = clock if clock is not None else SimulatedClock()
        self.trace_costs = trace_costs
        self.admission = admission
        self.retry = retry if retry is not None else RetryPolicy()
        if fault_plan is None:
            self.injector: FaultInjector | None = None
        elif isinstance(fault_plan, FaultInjector):
            self.injector = fault_plan
        else:
            self.injector = FaultInjector(fault_plan)
        self.queue = BucketQueue()
        # The observability plane (repro.obs.Observability); without one
        # every hook below is one `is not None` check.
        self.obs = observability
        if observability is not None:
            observability.claim(self, self.clock)
            observability.watch_queue(self.queue)
            if self.injector is not None:
                observability.watch_injector(self.injector)
        #: Counts into the facade's registry, else the server's own.
        self.metrics = ServeMetrics(
            self.obs.registry if self.obs is not None else MetricsRegistry()
        )
        if self.injector is not None:
            self.injector.attach(clock=self.clock)
        self.executor = BatchExecutor(self.backend, injector=self.injector)
        #: request.id -> (root span, queued child or None) of open requests.
        self._request_spans: dict = {}

    # -- intake --------------------------------------------------------------

    def submit(self, program: OpProgram, vector, *,
               deadline: float | None = None) -> Request:
        """Queue one request; returns its future-style handle.

        ``vector`` may be a :class:`CipherVector` bound to this server's
        backend or a raw backend handle (it is wrapped).  ``deadline`` is
        an absolute simulated time that tightens the policy's ``max_wait``
        for this request only.

        A vector whose shape cannot serve under this backend's parameters
        **raises** :class:`~repro.serve.errors.RequestRejected` here (a
        client bug should fail loudly at the call site, not deep inside
        ``Ciphertext.fuse`` at drain time).  A request shed by the
        admission policy instead **returns already resolved** with a
        ``RequestRejected`` response -- load shedding is normal operation,
        accounted in :attr:`~repro.serve.metrics.ServeMetrics.shed_requests`.
        """
        vector = as_vector(self.backend, vector)
        validate_handle(vector.handle, self.backend.params)
        now = self.clock.now()
        self._advance_faults()
        request = Request(program, vector, arrival_time=now, deadline=deadline)
        self.metrics.count("submitted")
        rejection = None
        if self.admission is not None:
            rejection = self.admission.rejection_reason(
                queue_depth=self.queue.depth
            )
        error, admission = None, "admitted"
        if rejection is not None:
            reason, message = rejection
            error = RequestRejected(message, reason=reason)
            admission = f"shed:{reason}"
        else:
            self.metrics.count("admitted")
            if deadline is not None and deadline < now:
                # Admitted but born expired: resolved now as a deadline
                # miss (availability failure), never queued.
                error = DeadlineExceeded(
                    f"request deadline t={deadline:.6g} already passed at "
                    f"submission (t={now:.6g})"
                )
                admission = "expired-at-submit"
        root = None
        if self.obs is not None:
            tracer = self.obs.tracer
            root = tracer.begin(
                "request", at=now, request_id=request.id,
                program=program.name, deadline=deadline,
            )
            tracer.event("admission", parent=root, at=now, outcome=admission)
            self._request_spans[request.id] = (root, None)
        if error is not None:
            self._resolve(request, now, error=error)
            return request
        key = shape_key_of(
            request, default_ring_degree=self.backend.params.ring_degree
        )
        self.queue.push(key, request)
        self.metrics.observe_queue_depth(now, self.queue.depth)
        if root is not None:
            queued = tracer.begin("queued", parent=root, at=now,
                                  bucket=repr(key))
            self._request_spans[request.id] = (root, queued)
        return request

    # -- fault plumbing ------------------------------------------------------

    def _advance_faults(self) -> None:
        """Fire every fault event scheduled at or before the current time."""
        if self.injector is not None:
            self.injector.advance(self.clock.now())

    def _expire(self, now: float) -> list[Request]:
        """Resolve every queued request whose deadline has already passed.

        Under the normal drain loop deadlines are met exactly (timeouts
        cap at the deadline), so this only fires when retry backoff moved
        the clock past other requests' deadlines.
        """
        expired: list[Request] = []
        for key in self.queue.keys():
            expired.extend(self.queue.prune(
                key,
                lambda request: request.deadline is not None
                and request.deadline < now,
            ))
        for request in expired:
            self._resolve(request, now, error=DeadlineExceeded(
                f"deadline t={request.deadline:.6g} passed while queued "
                f"(resolved t={now:.6g})"
            ))
        if expired:
            self.metrics.observe_queue_depth(now, self.queue.depth)
        return expired

    def _resolve(self, request: Request, now: float, *,
                 result: CipherVector | None = None,
                 error: Exception | None = None,
                 batch_size: int = 0) -> None:
        """The one place a request resolves: response, count, spans.

        Every ending -- shed or born expired at :meth:`submit`, expired in
        the queue, overdue during retry backoff, drained ok, drained with
        an error -- comes through here, so the response a client reads,
        the outcome counters and the request's spans cannot disagree.
        """
        request.resolve(
            result, batch_size=batch_size, dispatch_time=now, error=error
        )
        if error is None:
            outcome = "ok"
            self.metrics.count("completed")
        elif isinstance(error, RequestRejected):
            outcome = "shed"
            self.metrics.count("shed_requests")
        else:
            outcome = "error"
            self.metrics.count("failed")
            if isinstance(error, DeadlineExceeded):
                self.metrics.count("deadline_misses")
        spans = self._request_spans.pop(request.id, None)
        if spans is None:
            return
        root, queued = spans
        tracer = self.obs.tracer
        closing = {
            "outcome": outcome,
            "error_kind": None if error is None else type(error).__name__,
        }
        if queued is not None:  # a request that never queued has no batch
            tracer.finish(queued, at=now)
            closing["batch_size"] = batch_size
        tracer.finish(root, at=now, **closing)

    # -- introspection -------------------------------------------------------

    @property
    def pending(self) -> int:
        """Number of queued (not yet dispatched) requests."""
        return self.queue.depth

    def next_timeout(self) -> float | None:
        """Earliest simulated time any queued request must dispatch by.

        Considers every queued request, not just each bucket's oldest: a
        per-request ``deadline`` can make a newer arrival the most urgent.
        """
        timeouts = [
            self.policy.earliest_timeout(self.queue.requests(key))
            for key in self.queue.keys()
        ]
        return min(timeouts) if timeouts else None

    # -- drivers -------------------------------------------------------------

    def poll(self) -> list[Request]:
        """Drain every bucket the policy deems ready at the current time.

        Returns the requests completed by this call (already resolved;
        read them through ``request.result()`` / ``request.response()``).
        """
        now = self.clock.now()
        self._advance_faults()
        completed: list[Request] = self._expire(now)
        for key in self.queue.keys():
            target = self.policy.drain_limit(key)
            while True:
                size = self.queue.size(key)
                if size == 0 or not self.policy.ready(
                    size=size, target=target, now=now,
                    earliest_timeout=self.policy.earliest_timeout(
                        self.queue.requests(key)
                    ),
                ):
                    break
                completed.extend(
                    self._execute(key, self.queue.take(key, target), now)
                )
        if completed:
            self.metrics.observe_queue_depth(self.clock.now(), self.queue.depth)
        return completed

    def flush(self) -> list[Request]:
        """Drain everything immediately, ignoring readiness (still respecting
        the policy's per-drain size and memory caps).

        Requests whose deadline has already passed are expired first, as in
        :meth:`poll`, and returned with the completed ones.
        """
        now = self.clock.now()
        self._advance_faults()
        completed: list[Request] = self._expire(now)
        for key in self.queue.keys():
            target = self.policy.drain_limit(key)
            while self.queue.size(key):
                completed.extend(
                    self._execute(key, self.queue.take(key, target), now)
                )
        if completed:
            self.metrics.observe_queue_depth(self.clock.now(), self.queue.depth)
        return completed

    def drain(self) -> list[Request]:
        """Advance the clock through every pending timeout until idle.

        The canonical driver loop: poll now, then repeatedly jump the
        simulated clock to the next bucket timeout and poll again, so no
        request ever waits past its policy deadline.
        """
        completed = self.poll()
        while self.queue.depth:
            self.clock.advance_to(self.next_timeout())
            completed.extend(self.poll())
        return completed

    # -- execution -----------------------------------------------------------

    def _run_priced(self, key: ShapeKey, vectors: list[CipherVector],
                    now: float, max_fuse: int | None
                    ) -> tuple[list[CipherVector], int]:
        """One drain attempt, with the kernel stream priced when configured."""
        if self.trace_costs is None:
            return self.executor.execute(
                key.program, vectors, key=key, now=now, max_fuse=max_fuse
            )
        with DISPATCH.record() as trace:
            results, degradations = self.executor.execute(
                key.program, vectors, key=key, now=now, max_fuse=max_fuse
            )
        report = self.trace_costs.price(trace, streams=1)
        self.metrics.record_modeled(report.makespan, report.kernel_count)
        if self.obs is not None:
            self.obs.record_drain(
                trace, report, offset=now,
                label=f"{key.program.name} B={len(vectors)}",
            )
        return results, degradations

    def _execute(self, key: ShapeKey, requests: list[Request],
                 now: float) -> list[Request]:
        """Run one drained bucket with retry, resolve requests, update metrics.

        The retry loop: a :class:`TransientFault` or a bare
        :class:`OutOfDeviceMemory` advances the simulated clock by the
        retry policy's backoff and tries again (halving the fused cap each
        retry), up to ``max_retries``; then the
        survivors resolve with :class:`DrainFailed` chaining the last
        error.  Requests whose deadlines pass during backoff resolve with
        :class:`DeadlineExceeded` instead of retrying.  Footprint denials
        never reach this loop -- the executor's cascade absorbs them.
        """
        drained_size = len(requests)
        results: list[CipherVector] | None = None
        error: Exception | None = None
        degradations = 0
        max_fuse: int | None = None
        attempts = 0
        resolved: list[Request] = []
        obs = self.obs
        drain_span = None
        if obs is not None:
            drain_span = obs.tracer.begin(
                "drain", at=now, bucket=repr(key), batch_size=drained_size,
            )
            obs.reset_drain_peaks()
        while True:
            attempt_span = None
            try:
                if self.injector is not None:
                    self.injector.check_drain(now, len(requests))
                if drain_span is not None:
                    attempt_span = obs.tracer.begin(
                        "fused", parent=drain_span, at=now,
                        batch_size=len(requests),
                    )
                results, degradations = self._run_priced(
                    key, [r.vector for r in requests], now, max_fuse
                )
                if attempt_span is not None:
                    obs.tracer.finish(attempt_span, at=now,
                                      degradations=degradations)
                break
            except Exception as exc:
                if attempt_span is not None:
                    obs.tracer.finish(attempt_span, at=now,
                                      error_kind=type(exc).__name__)
                if not isinstance(exc, RETRYABLE_FAULTS):
                    error = exc  # program errors fail the drain, not the server
                    break
                attempts += 1
                if attempts > self.retry.max_retries:
                    error = DrainFailed(
                        f"drain of {len(requests)} requests failed after "
                        f"{self.retry.max_retries} retries: {exc}"
                    )
                    error.__cause__ = exc
                    break
                self.metrics.count("retries")
                backoff_start = now
                self.clock.advance(self.retry.delay(attempts))
                now = self.clock.now()
                if drain_span is not None:
                    backoff = obs.tracer.begin(
                        "retry", parent=drain_span, at=backoff_start,
                        attempt=attempts, error_kind=type(exc).__name__,
                    )
                    obs.tracer.finish(backoff, at=now)
                self._advance_faults()
                if len(requests) > 1:
                    cap = max_fuse if max_fuse is not None else len(requests)
                    max_fuse = max(1, cap // 2)
                # Backoff moved the clock: requests whose deadline passed
                # must not retry -- they resolve as deadline misses now.
                overdue = [
                    r for r in requests
                    if r.deadline is not None and r.deadline < now
                ]
                if overdue:
                    requests = [r for r in requests if r not in overdue]
                    for request in overdue:
                        missed = DeadlineExceeded(
                            f"deadline t={request.deadline:.6g} passed "
                            f"during retry backoff (t={now:.6g})"
                        )
                        self._resolve(request, now, error=missed,
                                      batch_size=drained_size)
                    resolved.extend(overdue)
                    if not requests:
                        error = missed  # nothing left to run: the drain missed too
                        break
        if error is not None:
            results = [None] * len(requests)
        for request, result in zip(requests, results):
            self._resolve(request, now, result=result, error=error,
                          batch_size=drained_size)
        if requests:
            self.metrics.record_batch(
                len(requests), [now - r.arrival_time for r in requests]
            )
        if error is None:
            if degradations > 0 or (max_fuse is not None and drained_size > 1):
                self.metrics.count("degraded_drains")
            if degradations > 0:
                self.metrics.count("footprint_fallbacks")
        if obs is not None:
            obs.observe_drain_peaks()
            obs.tracer.finish(
                drain_span, at=now,
                outcome="ok" if error is None else "error",
                error_kind=None if error is None else type(error).__name__,
                retries=attempts,
            )
        resolved.extend(requests)
        return resolved

    def describe(self) -> dict:
        """Server configuration plus a metrics snapshot."""
        return {
            "backend": self.backend.describe(),
            "policy": {
                "max_batch_size": self.policy.max_batch_size,
                "max_wait": self.policy.max_wait,
                "memory_budget_bytes": self.policy.memory_budget_bytes,
            },
            "admission": (
                {
                    "max_queue_depth": self.admission.max_queue_depth,
                    "memory_high_watermark": self.admission.memory_high_watermark,
                }
                if self.admission is not None
                else None
            ),
            "retry": {
                "max_retries": self.retry.max_retries,
                "backoff": self.retry.backoff,
                "backoff_factor": self.retry.backoff_factor,
            },
            "fault_plan": (
                self.injector.plan.describe()
                if self.injector is not None
                else None
            ),
            "clock": self.clock.now(),
            "pending": self.pending,
            "metrics": self.metrics.summary(),
        }


__all__ = ["BatchExecutor", "Server", "RETRYABLE_FAULTS"]
