"""``repro.serve`` -- the serving plane: dynamic batching over fused kernels.

The throughput plane (PR 4) made ``B`` same-shape ciphertexts walk a
circuit on fused ``(B·L, N)`` kernels, but nothing *produced* batches: every
caller hand-assembled same-shape ciphertexts.  This package is the missing
layer between ``encrypt_batch`` and live traffic -- a shape-bucketed
request queue that turns an arbitrary arrival stream into fused batches:

    submit --> bucket by (N, level, scale, program) --> policy drains
          --> fuse --> one kernel stream per batch --> futures resolve

Module map
----------

``request``
    :class:`OpProgram` (a named circuit written once against the
    ``CipherVector`` operator surface, run on one request or a fused batch),
    :class:`Request`/:class:`Response` with future-style completion.
``bucketing``
    :class:`ShapeKey` ``(ring_degree, level, scale, op_program)`` and the
    FIFO :class:`BucketQueue` -- only fuse-compatible requests share a
    bucket, so drains always satisfy ``Ciphertext.fuse``.
``policy``
    :class:`BatchingPolicy` (``max_batch_size`` / ``max_wait`` /
    ``memory_budget_bytes`` -- the throughput, latency and capacity knobs)
    and the deterministic :class:`SimulatedClock` every test and benchmark
    runs on.
``executor``
    :class:`BatchExecutor` (fused drains through the backend's
    ``batch_from`` seam; singleton drains run unfused;
    :class:`~repro.core.memory.FusedFootprintError` triggers the
    degradation cascade ``B -> B/2 -> ... -> singleton``) and
    :class:`Server`, the front door
    :meth:`~repro.api.session.CKKSSession.server` returns -- now with
    admission control, per-request deadlines, retry-with-backoff and
    device-loss recovery.
``metrics``
    :class:`ServeMetrics`: queue depth, fused-batch-size histogram,
    deterministic p50/p95 latency, modeled GPU throughput from priced
    per-drain traces, and the robustness counters behind the
    ``availability`` figure -- each count declared once and stored in the
    ``serve_*`` series of the server's :class:`~repro.obs.MetricsRegistry`.
``errors``
    The typed :class:`ServeError` taxonomy every failed
    :class:`Response` carries: :class:`RequestRejected`,
    :class:`DeadlineExceeded`, :class:`TransientFault`,
    :class:`DrainFailed`, :class:`DeviceLost`.
``faults``
    Deterministic fault injection: seed-derived :class:`FaultPlan`
    schedules of OOM windows, transient drain failures and device
    losses, fired by a :class:`FaultInjector` on the simulated clock.
``replay``
    Seeded arrival traces (Poisson / burst / diurnal) and the
    :class:`ReplayDriver` that feeds them through a server under a fault
    plan; its :class:`ReplayReport` is the server's metrics plus the
    response-level error tally and deadline-violation count.

Responses are **bit-identical to sequential execution**: fused drains
inherit the throughput plane's member-by-member bit-identity contract, and
singleton drains literally *are* the sequential path.  The server speaks
only the :class:`~repro.api.backend.EvaluationBackend` surface, so the
same serving loop runs functionally, symbolically (cost model) or traced.

The cluster plane (:mod:`repro.cluster`) extends the server past one GPU:
pass ``cluster=`` a :class:`~repro.cluster.topology.ClusterTopology` and
buckets are placed round-robin across devices (drains record and are
priced under their home device; :class:`ServeMetrics` reports per-device
utilisation and a cluster-makespan throughput), or ``shard_drains=True``
to member-shard each drain across all devices -- still bit-identical,
since every shard runs the same fused execution on its member slice.
"""

from repro.serve.bucketing import (
    BucketQueue,
    ShapeKey,
    shape_key_of,
    validate_handle,
)
from repro.serve.errors import (
    DeadlineExceeded,
    DeviceLost,
    DrainFailed,
    RequestRejected,
    ServeError,
    TransientFault,
)
from repro.serve.executor import BatchExecutor, Server
from repro.serve.faults import FaultEvent, FaultInjector, FaultPlan, InjectedOOM
from repro.serve.metrics import ServeMetrics
from repro.serve.policy import (
    AdmissionPolicy,
    BatchingPolicy,
    RetryPolicy,
    SimulatedClock,
)
from repro.serve.replay import (
    ReplayDriver,
    ReplayReport,
    burst_arrivals,
    diurnal_arrivals,
    poisson_arrivals,
)
from repro.serve.request import OpProgram, Request, Response

__all__ = [
    "AdmissionPolicy",
    "BatchExecutor",
    "BatchingPolicy",
    "BucketQueue",
    "DeadlineExceeded",
    "DeviceLost",
    "DrainFailed",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "InjectedOOM",
    "OpProgram",
    "ReplayDriver",
    "ReplayReport",
    "Request",
    "RequestRejected",
    "Response",
    "RetryPolicy",
    "ServeError",
    "ServeMetrics",
    "Server",
    "ShapeKey",
    "SimulatedClock",
    "TransientFault",
    "burst_arrivals",
    "diurnal_arrivals",
    "poisson_arrivals",
    "shape_key_of",
    "validate_handle",
]
