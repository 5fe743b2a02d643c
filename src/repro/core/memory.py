"""Stream-ordered device-memory pool analogue.

FIDESlib manages GPU buffers through ``VectorGPU`` objects that allocate
asynchronously from CUDA's stream-ordered memory pool at construction and
free at destruction (RAII).  There is no physical device here, but the
allocation discipline still matters: the performance model charges
allocation traffic, and the tests assert that both allocation strategies
of §III-D -- one buffer per limb ("array per limb") versus a single
flattened ``(L, N)`` buffer per polynomial ("flattened") -- produce the
expected footprints and that no buffers leak.

:class:`MemoryPool` tracks live allocations, bytes in use, peak usage and
the exact internal fragmentation (granularity rounding waste), broken down
per allocation strategy so the §III-D comparison is measured rather than
modeled.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable

#: The two §III-D allocation strategies a record can be charged under.
STRATEGY_ARRAY_PER_LIMB = "array-per-limb"
STRATEGY_FLATTENED = "flattened"


class OutOfDeviceMemory(RuntimeError):
    """Raised when an allocation would exceed the configured device capacity."""


class FusedFootprintError(OutOfDeviceMemory):
    """A fused ``(B·L, N)`` allocation would not fit the pool budget.

    Raised *before* any row copying starts (by
    :meth:`repro.core.limb_stack.LimbStack.fuse` and
    :meth:`repro.ckks.ciphertext.Ciphertext.fuse`) so callers
    such as the serving plane's batching policy can react -- typically by
    draining fewer requests per fused batch -- instead of dying on a bare
    :class:`OutOfDeviceMemory` mid-copy.
    """


@dataclass
class AllocationRecord:
    """A single live allocation inside a :class:`MemoryPool`."""

    handle: int
    nbytes: int
    requested: int
    tag: str
    stream: int
    strategy: str = STRATEGY_ARRAY_PER_LIMB


@dataclass
class MemoryPool:
    """Accounting model of the CUDA stream-ordered memory allocator.

    Parameters
    ----------
    capacity_bytes:
        Device memory capacity; ``None`` means unbounded (useful in tests).
    granularity:
        Allocation granularity in bytes; requests are rounded up to a
        multiple of this value, which is what produces internal
        fragmentation for small buffers.
    """

    capacity_bytes: int | None = None
    granularity: int = 256
    bytes_in_use: int = 0
    peak_bytes: int = 0
    requested_bytes: int = 0
    allocation_count: int = 0
    free_count: int = 0
    #: Optional charge-time hook ``(pool, nbytes, tag) -> None`` consulted
    #: before every allocation is admitted.  A hook may raise
    #: :class:`OutOfDeviceMemory` to deny the charge -- this is the fault
    #: injection seam :class:`repro.serve.faults.FaultInjector` installs to
    #: produce deterministic OOM windows on the simulated clock.
    charge_hook: Callable | None = None
    _live: dict[int, AllocationRecord] = field(default_factory=dict)
    _handles: itertools.count = field(default_factory=itertools.count)

    def allocate(
        self,
        nbytes: int,
        *,
        tag: str = "",
        stream: int = 0,
        strategy: str = STRATEGY_ARRAY_PER_LIMB,
    ) -> int:
        """Allocate ``nbytes`` and return an opaque handle."""
        if nbytes < 0:
            raise ValueError("allocation size must be non-negative")
        if self.charge_hook is not None:
            self.charge_hook(self, nbytes, tag)
        rounded = self._round_up(nbytes)
        if self.capacity_bytes is not None and self.bytes_in_use + rounded > self.capacity_bytes:
            raise OutOfDeviceMemory(
                f"allocation of {rounded} bytes exceeds capacity "
                f"({self.bytes_in_use}/{self.capacity_bytes} in use)"
            )
        handle = next(self._handles)
        self._live[handle] = AllocationRecord(handle, rounded, nbytes, tag, stream, strategy)
        self.bytes_in_use += rounded
        self.requested_bytes += nbytes
        self.peak_bytes = max(self.peak_bytes, self.bytes_in_use)
        self.allocation_count += 1
        return handle

    def free(self, handle: int) -> None:
        """Free an allocation (idempotent frees raise, as double-free is a bug)."""
        record = self._live.pop(handle, None)
        if record is None:
            raise KeyError(f"unknown or already-freed allocation handle {handle}")
        self.bytes_in_use -= record.nbytes
        self.free_count += 1

    def free_bytes(self) -> int | None:
        """Remaining capacity in bytes, or ``None`` for an unbounded pool."""
        if self.capacity_bytes is None:
            return None
        return self.capacity_bytes - self.bytes_in_use

    def utilization(self) -> float:
        """Fraction of the capacity currently in use (0.0 when unbounded).

        The serving plane's admission controller sheds load when this
        crosses its configured high watermark.
        """
        if not self.capacity_bytes:
            return 0.0
        return self.bytes_in_use / self.capacity_bytes

    def fits(self, *sizes: int) -> bool:
        """Whether allocations of ``sizes`` bytes would all fit right now.

        Each size is rounded up to the pool granularity exactly as
        :meth:`allocate` would round it, so a ``True`` answer means the
        allocations cannot raise :class:`OutOfDeviceMemory` (absent
        concurrent allocations).  Unbounded pools always fit.
        """
        if self.capacity_bytes is None:
            return True
        needed = sum(self._round_up(s) for s in sizes)
        return self.bytes_in_use + needed <= self.capacity_bytes

    def live_allocations(self) -> list[AllocationRecord]:
        """Return records for every allocation that has not been freed."""
        return list(self._live.values())

    def internal_fragmentation(self) -> float:
        """Return the exact fraction of allocated bytes lost to rounding.

        Every :class:`AllocationRecord` remembers the bytes the caller
        requested, so the waste is ``allocated - requested`` rather than the
        granularity worst-case bound.
        """
        allocated = sum(r.nbytes for r in self._live.values())
        if allocated == 0:
            return 0.0
        requested = sum(r.requested for r in self._live.values())
        return (allocated - requested) / allocated

    def bytes_by_strategy(self) -> dict[str, int]:
        """Return live allocated bytes grouped by §III-D allocation strategy."""
        totals: dict[str, int] = {}
        for record in self._live.values():
            totals[record.strategy] = totals.get(record.strategy, 0) + record.nbytes
        return totals

    def fragmentation_by_strategy(self) -> dict[str, float]:
        """Return the exact internal fragmentation of each allocation strategy."""
        allocated: dict[str, int] = {}
        requested: dict[str, int] = {}
        for record in self._live.values():
            allocated[record.strategy] = allocated.get(record.strategy, 0) + record.nbytes
            requested[record.strategy] = requested.get(record.strategy, 0) + record.requested
        return {
            strategy: (allocated[strategy] - requested[strategy]) / allocated[strategy]
            for strategy in allocated
            if allocated[strategy] > 0
        }

    def reset_peak(self) -> int:
        """Rewind the high-water mark to current usage; returns the old peak.

        The observability plane calls this at drain start so
        :attr:`peak_bytes` reads as the *per-drain* peak at drain end
        (sampled into the ``serve_drain_peak_bytes`` histogram); lifetime
        counters are untouched.
        """
        previous = self.peak_bytes
        self.peak_bytes = self.bytes_in_use
        return previous

    def reset_statistics(self) -> None:
        """Reset counters without touching live allocations."""
        self.peak_bytes = self.bytes_in_use
        self.requested_bytes = sum(r.requested for r in self._live.values())
        self.allocation_count = len(self._live)
        self.free_count = 0

    def _round_up(self, nbytes: int) -> int:
        g = self.granularity
        return ((nbytes + g - 1) // g) * g


#: Default process-wide pool, mirroring the default ``cudaMemPool_t``.
default_pool = MemoryPool()


__all__ = [
    "MemoryPool",
    "AllocationRecord",
    "OutOfDeviceMemory",
    "FusedFootprintError",
    "default_pool",
    "STRATEGY_ARRAY_PER_LIMB",
    "STRATEGY_FLATTENED",
]
