"""Device-memory pool accounting: live bytes, peak bytes, one charge hook.

FIDESlib allocates each polynomial's flattened buffer (§III-D) from CUDA's
stream-ordered memory pool.  There is no physical device here, so a
:class:`MemoryPool` is a handful of integer counters: an
:class:`~repro.core.rns_poly.RNSPoly` -- the only thing that charges a
pool -- calls :meth:`MemoryPool.charge` once when it is built and
:meth:`MemoryPool.release` once when it goes (a row window charges
nothing).  Admission control,
:class:`FusedFootprintError` and the ``memory_pool_*`` instruments read the
counters; the fault injector denies charges through ``charge_hook``.
``charge``, ``release`` and ``reset_peak`` update the counters under one
lock, so threads may share a pool (the process-wide ``default_pool``).
"""

from __future__ import annotations

import operator
import threading
from dataclasses import dataclass, field
from typing import Callable


def _check_count(name: str, value, minimum: int) -> None:
    """Reject a non-integer count (``2.5``, NaN, ``True``) or one below ``minimum``."""
    try:
        if isinstance(value, bool):
            raise TypeError
        operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None
    if value < minimum:
        raise ValueError(f"{name} must be at least {minimum}")


class OutOfDeviceMemory(RuntimeError):
    """Raised when an allocation would exceed the configured device capacity."""


class FusedFootprintError(OutOfDeviceMemory):
    """A fused ``(B·L, N)`` allocation would not fit the pool budget.

    Raised *before* any row copying starts (by
    :meth:`repro.core.rns_poly.RNSPoly.fuse_many`, which
    :meth:`repro.ckks.ciphertext.Ciphertext.fuse` calls) so callers
    such as the serving plane's batching policy can react -- typically by
    draining fewer requests per fused batch -- instead of dying on a bare
    :class:`OutOfDeviceMemory` mid-copy.
    """


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
    #: Live bytes (rounded), their high-water mark, and charges ever admitted.
    bytes_in_use: int = field(default=0, init=False)
    peak_bytes: int = field(default=0, init=False)
    allocation_count: int = field(default=0, init=False)
    #: Optional charge-time hook ``(pool, nbytes, tag) -> None`` consulted
    #: before every charge is admitted.  A hook may raise
    #: :class:`OutOfDeviceMemory` to deny the charge -- this is the fault
    #: injection seam :class:`repro.serve.faults.FaultInjector` installs to
    #: produce deterministic OOM windows on the simulated clock.
    charge_hook: Callable | None = field(default=None, init=False)
    #: Live bytes as requested, before rounding (for the fragmentation readout).
    _requested_in_use: int = field(default=0, init=False, repr=False)
    #: Serialises the read-modify-write of the counters across threads.  It
    #: is reentrant: ``RNSPoly.__del__`` releases, and a finaliser may run
    #: on a thread that holds the lock.
    _lock: threading.RLock = field(default_factory=threading.RLock, init=False,
                                   repr=False, compare=False)

    def __post_init__(self) -> None:
        # A zero granularity divides by zero on the first charge; a zero
        # capacity refuses every charge while reading as 0% utilised.
        if self.capacity_bytes is not None:
            _check_count("capacity_bytes", self.capacity_bytes, 1)
        _check_count("granularity", self.granularity, 1)

    def charge(self, nbytes: int, tag: str = "") -> None:
        """Admit a live allocation of ``nbytes`` or raise, changing nothing."""
        if self.charge_hook is not None:
            self.charge_hook(self, nbytes, tag)
        rounded = self._round_up(nbytes)
        capacity = self.capacity_bytes
        # The locked section makes no call and builds no object, so no
        # collection (and no ``RNSPoly.__del__`` releasing into this pool)
        # can run between a counter's read and its write.
        with self._lock:
            in_use = self.bytes_in_use + rounded
            admitted = capacity is None or in_use <= capacity
            if admitted:
                self.bytes_in_use = in_use
                self._requested_in_use += nbytes
                if in_use > self.peak_bytes:
                    self.peak_bytes = in_use
                self.allocation_count += 1
        if not admitted:
            raise OutOfDeviceMemory(
                f"allocation of {rounded} bytes exceeds capacity "
                f"({in_use - rounded}/{capacity} in use)"
            )

    def release(self, nbytes: int) -> None:
        """Credit back one admitted charge of ``nbytes`` (call once per charge)."""
        rounded = self._round_up(nbytes)
        with self._lock:
            self.bytes_in_use -= rounded
            self._requested_in_use -= nbytes

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
        if self.capacity_bytes is None:
            return 0.0
        return self.bytes_in_use / self.capacity_bytes

    def fits(self, *sizes: int) -> bool:
        """Whether charges of ``sizes`` bytes would all fit right now.

        Each size is rounded up to the pool granularity exactly as
        :meth:`charge` rounds it, so a ``True`` answer means the charges
        cannot raise :class:`OutOfDeviceMemory` on capacity.  Unbounded
        pools always fit.
        """
        if self.capacity_bytes is None:
            return True
        needed = sum(self._round_up(s) for s in sizes)
        return self.bytes_in_use + needed <= self.capacity_bytes

    def internal_fragmentation(self) -> float:
        """The exact fraction of live bytes lost to granularity rounding."""
        if self.bytes_in_use == 0:
            return 0.0
        return (self.bytes_in_use - self._requested_in_use) / self.bytes_in_use

    def reset_peak(self) -> int:
        """Rewind the high-water mark to current usage; returns the old peak.

        The observability plane calls this at drain start so
        :attr:`peak_bytes` reads as the *per-drain* peak at drain end
        (sampled into the ``serve_drain_peak_bytes`` histogram); lifetime
        counters are untouched.
        """
        with self._lock:
            previous = self.peak_bytes
            self.peak_bytes = self.bytes_in_use
        return previous

    def _round_up(self, nbytes: int) -> int:
        g = self.granularity
        return ((nbytes + g - 1) // g) * g


#: Default process-wide pool, mirroring the default ``cudaMemPool_t``.
default_pool = MemoryPool()


__all__ = ["MemoryPool", "OutOfDeviceMemory", "FusedFootprintError", "default_pool"]
