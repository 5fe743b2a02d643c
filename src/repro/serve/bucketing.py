"""Shape-keyed request buckets: the grouping stage of the serving plane.

Every batched kernel downstream requires one common shape -- one ring
degree, one level (hence one RNS basis) and one scale -- and fusing only
makes sense for requests walking the *same* circuit.  The
:class:`ShapeKey` captures exactly that ``(ring_degree, level, scale,
op_program)`` tuple, and the :class:`BucketQueue` groups incoming
requests by it in FIFO order, so a drain hands the executor a list that
:meth:`~repro.ckks.ciphertext.Ciphertext.fuse` is guaranteed to accept.

Scales are compared exactly (they come off one session's deterministic
scale ladder, so equal levels imply bit-equal scales); a near-miss scale
lands in its own bucket, which is conservative but always correct.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Iterable

from repro.serve.errors import RequestRejected
from repro.serve.request import OpProgram, Request


@dataclass(frozen=True)
class ShapeKey:
    """The fuse-compatibility class of a request."""

    ring_degree: int
    level: int
    scale: float
    program: OpProgram

    def __repr__(self) -> str:
        return (
            f"ShapeKey(N={self.ring_degree}, level={self.level}, "
            f"scale={self.scale:.6g}, program={self.program.name!r})"
        )


def shape_key_of(request: Request, *, default_ring_degree: int) -> ShapeKey:
    """Compute a request's bucket key from its handle metadata.

    Symbolic (cost-model) handles carry no ring degree of their own, so the
    backend's parameter set supplies ``default_ring_degree``.
    """
    handle = request.vector.handle
    return ShapeKey(
        ring_degree=int(getattr(handle, "ring_degree", default_ring_degree)),
        level=int(handle.level),
        scale=float(handle.scale),
        program=request.program,
    )


def validate_handle(handle, params) -> None:
    """Reject a handle whose shape cannot serve under ``params`` -- at submit.

    Checks ring degree, level range, slot count and scale against the
    backend's parameter set and raises a descriptive typed
    :class:`~repro.serve.errors.RequestRejected` on mismatch, so a
    foreign-session or corrupted handle fails loudly at
    :meth:`~repro.serve.executor.Server.submit` instead of deep inside
    ``Ciphertext.fuse`` at drain time.  Symbolic
    (cost-model) handles carry no ring degree; attributes a handle lacks
    are skipped.
    """
    ring_degree = getattr(handle, "ring_degree", None)
    if ring_degree is not None and int(ring_degree) != params.ring_degree:
        raise RequestRejected(
            f"cannot serve a ring-degree N={ring_degree} vector on a "
            f"N={params.ring_degree} backend; re-encrypt under this "
            f"session's parameters",
            reason="invalid-shape",
        )
    level = getattr(handle, "level", None)
    if level is None:
        raise RequestRejected(
            f"{type(handle).__name__} carries no level metadata; submit a "
            f"CipherVector handle (or a backend ciphertext)",
            reason="invalid-shape",
        )
    if not 0 <= int(level) <= params.mult_depth:
        raise RequestRejected(
            f"vector level {level} is outside this backend's moduli chain "
            f"(0..{params.mult_depth})",
            reason="invalid-level",
        )
    slots = getattr(handle, "slots", None)
    if slots is not None and int(slots) != params.slots:
        raise RequestRejected(
            f"cannot serve a {slots}-slot vector on a {params.slots}-slot "
            f"backend (ring degree N={params.ring_degree})",
            reason="invalid-shape",
        )
    scale = getattr(handle, "scale", None)
    if scale is None or not float(scale) > 0.0:
        raise RequestRejected(
            f"vector scale {scale!r} is not a positive encoding scale",
            reason="invalid-scale",
        )


class BucketQueue:
    """FIFO queues of same-shape requests, one per :class:`ShapeKey`.

    Buckets appear on first push and disappear when drained empty; iteration
    order is bucket creation order, which keeps draining deterministic for
    the simulated-clock tests.
    """

    def __init__(self) -> None:
        self._buckets: "OrderedDict[ShapeKey, deque[Request]]" = OrderedDict()

    # -- producers -----------------------------------------------------------

    def push(self, key: ShapeKey, request: Request) -> None:
        """Append a request to its shape bucket."""
        self._buckets.setdefault(key, deque()).append(request)

    # -- introspection -------------------------------------------------------

    def keys(self) -> list[ShapeKey]:
        """Live bucket keys, oldest bucket first."""
        return list(self._buckets)

    def size(self, key: ShapeKey) -> int:
        """Number of queued requests in one bucket (0 for unknown keys)."""
        bucket = self._buckets.get(key)
        return len(bucket) if bucket is not None else 0

    def sizes(self) -> dict[ShapeKey, int]:
        """Queue depth per live bucket."""
        return {key: len(bucket) for key, bucket in self._buckets.items()}

    @property
    def depth(self) -> int:
        """Total number of queued requests across all buckets."""
        return sum(len(bucket) for bucket in self._buckets.values())

    def __len__(self) -> int:
        return self.depth

    def requests(self, key: ShapeKey) -> list[Request]:
        """Snapshot of one bucket's queued requests, FIFO order."""
        bucket = self._buckets.get(key)
        return list(bucket) if bucket is not None else []

    def __iter__(self) -> Iterable[Request]:
        for bucket in self._buckets.values():
            yield from bucket

    # -- consumers -----------------------------------------------------------

    def prune(self, key: ShapeKey, predicate) -> list[Request]:
        """Remove and return every queued request matching ``predicate``.

        FIFO order is preserved among the survivors; an emptied bucket is
        dropped like :meth:`take` drops it.  The server's deadline sweep
        uses this to expire requests whose deadlines passed while the
        clock sat in retry backoff.
        """
        bucket = self._buckets.get(key)
        if bucket is None:
            return []
        kept: deque[Request] = deque()
        removed: list[Request] = []
        for request in bucket:
            (removed if predicate(request) else kept).append(request)
        if removed:
            if kept:
                self._buckets[key] = kept
            else:
                del self._buckets[key]
        return removed

    def take(self, key: ShapeKey, count: int) -> list[Request]:
        """Pop up to ``count`` requests from one bucket, FIFO order.

        Empty buckets are dropped from the queue so :meth:`keys` only ever
        names buckets with work in them.
        """
        bucket = self._buckets.get(key)
        if bucket is None:
            return []
        drained = [bucket.popleft() for _ in range(min(count, len(bucket)))]
        if not bucket:
            del self._buckets[key]
        return drained


__all__ = ["ShapeKey", "BucketQueue", "shape_key_of", "validate_handle"]
