"""Dynamic-batching policies and the deterministic simulated clock.

A serving deployment trades latency against launch-overhead amortisation:
waiting longer fills bigger fused batches (fewer kernel launches per
request, §III-F.1) but delays early arrivals.  :class:`BatchingPolicy`
expresses that trade-off with three knobs --

* ``max_batch_size``: drain as soon as a bucket can fill a full fused
  batch (the throughput knob);
* ``max_wait``: never hold a request longer than this before dispatch,
  even in a partial batch (the latency knob);
* ``memory_budget_bytes``: cap the fused ``2·B·L·N`` footprint so a drain
  can never trip :class:`~repro.core.memory.FusedFootprintError`
  (the capacity knob) -- the budget arithmetic here mirrors the pre-check
  in :meth:`~repro.ckks.ciphertext.Ciphertext.fuse` exactly.

Two further policies make the server failure-first (PR 9):

* :class:`AdmissionPolicy` -- when to *refuse* work: a queue-depth bound
  and a :class:`~repro.core.memory.MemoryPool` utilisation high watermark,
  consulted by :meth:`~repro.serve.executor.Server.submit` so overload
  resolves to typed :class:`~repro.serve.errors.RequestRejected`
  responses (load shedding) instead of unbounded queues;
* :class:`RetryPolicy` -- bounded retry-with-backoff for transient drain
  failures on the simulated clock, halving the fused batch size each
  retry (the degradation cascade's retry arm).

All timing runs on :class:`SimulatedClock`, a deterministic virtual clock
the caller advances explicitly, so policy behaviour -- and every serving
test -- is reproducible with no wall-clock flakiness.  Every time a
policy or the clock accepts is finite: an infinite wait or backoff would
send the clock to ``inf``, past every deadline and latency it reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.core.memory import MemoryPool, _check_count, default_pool
from repro.gpu.kernel import ELEMENT_BYTES
from repro.serve.bucketing import ShapeKey
from repro.serve.request import Request


class SimulatedClock:
    """A deterministic virtual clock (seconds, monotone, caller-driven)."""

    __slots__ = ("_now",)

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def now(self) -> float:
        """Current simulated time."""
        return self._now

    def advance(self, seconds: float) -> float:
        """Move time forward by ``seconds`` (a finite, non-negative step)."""
        if not 0 <= seconds < math.inf:
            raise ValueError(
                f"the simulated clock cannot run backwards or to infinity "
                f"(step {seconds!r})"
            )
        self._now += float(seconds)
        return self._now

    def advance_to(self, timestamp: float) -> float:
        """Move time forward to an absolute timestamp (no-op if in the past)."""
        if not math.isfinite(timestamp):
            raise ValueError(f"the simulated clock cannot move to {timestamp!r}")
        self._now = max(self._now, float(timestamp))
        return self._now

    def __repr__(self) -> str:
        return f"SimulatedClock(t={self._now:.6g})"


@dataclass(frozen=True)
class BatchingPolicy:
    """When to drain a bucket and how many requests one drain may fuse."""

    max_batch_size: int = 8
    max_wait: float = 1e-3
    memory_budget_bytes: int | None = None

    def __post_init__(self) -> None:
        _check_count("max_batch_size", self.max_batch_size, 1)
        # ``not 0 <= x < inf`` rather than ``x < 0``, so NaN is rejected too.
        if not 0 <= self.max_wait < math.inf:
            raise ValueError(
                f"max_wait must be finite and non-negative, got {self.max_wait!r}"
            )
        if self.memory_budget_bytes is not None:
            _check_count("memory_budget_bytes", self.memory_budget_bytes, 1)

    # -- capacity ------------------------------------------------------------

    def drain_limit(self, key: ShapeKey) -> int:
        """Most members one drain of this bucket may fuse.

        The memory budget divides by the fused per-member footprint
        (``2·L·N`` elements: both ciphertext components).  The limit never
        drops below 1 -- a singleton drain bypasses fusing entirely (the
        executor runs the program on the request's own ciphertext), so it
        needs no fused allocation at all.
        """
        limit = self.max_batch_size
        if self.memory_budget_bytes is not None:
            member_bytes = 2 * (key.level + 1) * key.ring_degree * ELEMENT_BYTES
            limit = min(limit, max(1, self.memory_budget_bytes // member_bytes))
        return limit

    # -- timing --------------------------------------------------------------

    def timeout_of(self, request: Request) -> float:
        """Latest simulated time this request may wait for more batching."""
        timeout = request.arrival_time + self.max_wait
        if request.deadline is not None:
            timeout = min(timeout, request.deadline)
        return timeout

    def earliest_timeout(self, requests: Sequence[Request]) -> float:
        """Soonest dispatch obligation across one bucket's queued requests.

        Arrival order is FIFO but per-request ``deadline`` overrides can
        make a *newer* request the most urgent, so the whole bucket is
        consulted, not just its oldest member.
        """
        if not requests:
            raise ValueError("a bucket timeout needs at least one request")
        return min(self.timeout_of(request) for request in requests)

    def ready(self, *, size: int, target: int, earliest_timeout: float,
              now: float) -> bool:
        """Whether a bucket should drain now.

        Either the bucket can fill a full fused batch (``size >= target``)
        or some member has exhausted its wait budget.
        """
        return size >= target or now >= earliest_timeout


@dataclass(frozen=True)
class AdmissionPolicy:
    """When :meth:`~repro.serve.executor.Server.submit` refuses work.

    ``max_queue_depth`` bounds the total queued requests across all
    buckets; ``memory_high_watermark`` is a pool-utilisation fraction in
    ``(0, 1]`` above which new requests are shed (``pool`` defaults to the
    process-wide :data:`repro.core.memory.default_pool`; an unbounded pool
    never trips the watermark).  A shed request resolves immediately with
    a typed :class:`~repro.serve.errors.RequestRejected` response -- load
    shedding is normal operation, not an exception.
    """

    max_queue_depth: int | None = None
    memory_high_watermark: float | None = None
    pool: MemoryPool | None = None

    def __post_init__(self) -> None:
        if self.max_queue_depth is not None:
            _check_count("max_queue_depth", self.max_queue_depth, 1)
        if self.memory_high_watermark is not None and \
                not 0.0 < self.memory_high_watermark <= 1.0:
            raise ValueError(
                "memory_high_watermark is a pool-utilisation fraction in (0, 1]"
            )

    def rejection_reason(self, *, queue_depth: int) -> tuple[str, str] | None:
        """``(reason_tag, message)`` when a request must be shed, else None."""
        if self.max_queue_depth is not None and queue_depth >= self.max_queue_depth:
            return (
                "queue-full",
                f"queue depth {queue_depth} is at the admission bound "
                f"{self.max_queue_depth}; request shed",
            )
        if self.memory_high_watermark is not None:
            pool = self.pool if self.pool is not None else default_pool
            utilization = pool.utilization()
            if utilization >= self.memory_high_watermark:
                return (
                    "memory-pressure",
                    f"pool utilisation {utilization:.3f} is at the "
                    f"{self.memory_high_watermark:.3f} high watermark "
                    f"({pool.bytes_in_use}/{pool.capacity_bytes} bytes); "
                    f"request shed",
                )
        return None


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry-with-backoff for transient drain failures.

    After a :class:`~repro.serve.errors.TransientFault` or a (non-fused)
    :class:`~repro.core.memory.OutOfDeviceMemory`, the server advances the
    simulated clock by :meth:`delay` and retries the drain, at most
    ``max_retries`` times before resolving the survivors with
    :class:`~repro.serve.errors.DrainFailed`.  Each retry also halves the
    maximum fused batch size (``B -> B/2 -> ... -> singleton``), so
    repeated capacity pressure converges on the allocation-free sequential
    path.
    """

    max_retries: int = 3
    backoff: float = 1e-4
    backoff_factor: float = 2.0

    def __post_init__(self) -> None:
        _check_count("max_retries", self.max_retries, 0)
        if not 0 <= self.backoff < math.inf:
            raise ValueError(
                f"backoff cannot be negative or infinite, got {self.backoff!r}"
            )
        if not 1.0 <= self.backoff_factor < math.inf:
            raise ValueError(
                f"backoff_factor must be finite and at least 1.0, "
                f"got {self.backoff_factor!r}"
            )

    def delay(self, attempt: int) -> float:
        """Simulated backoff before retry number ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError("retry attempts are numbered from 1")
        return self.backoff * self.backoff_factor ** (attempt - 1)


__all__ = [
    "AdmissionPolicy",
    "BatchingPolicy",
    "RetryPolicy",
    "SimulatedClock",
]
