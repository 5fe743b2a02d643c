"""``VectorGPU`` and ``Limb``: the smallest data containers of Figure 2.

A ``Limb`` names the residues of an ``N``-degree polynomial under a single
RNS prime ``q_i``, together with the representation they are currently in
(coefficient or evaluation/NTT).  It is a container, not an arithmetic:
all compute runs batched across limbs on the flat
:class:`~repro.core.limb_stack.LimbStack` (§III-D, §III-F), and a ``Limb``
is the zero-copy per-row view of it that ``poly.limbs[i]`` hands out.  Its
backing store is a ``VectorGPU``: in FIDESlib this is an RAII wrapper over
stream-ordered device memory; here it is an allocation handle in the
:class:`~repro.core.memory.MemoryPool` so footprint accounting matches the
GPU library.  Unmanaged vectors (views into a larger flattened buffer, the
second allocation strategy discussed in §III-D) are supported through the
``managed`` flag.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.core.memory import STRATEGY_ARRAY_PER_LIMB, MemoryPool, default_pool


class LimbFormat(enum.Enum):
    """Representation of a limb's data."""

    COEFFICIENT = "coeff"
    EVALUATION = "eval"


class VectorGPU:
    """RAII-style wrapper over a contiguous device buffer.

    Parameters
    ----------
    element_count:
        Number of elements in the buffer.
    element_bytes:
        Bytes per element (8 for the 64-bit limbs the library verifies,
        4 for the 32-bit template instantiation).
    pool:
        Memory pool charged for the allocation.  Managed vectors allocate
        at construction and free when :meth:`free` is called or the object
        is garbage collected; unmanaged vectors only reference memory owned
        by a higher-level object.
    """

    def __init__(
        self,
        element_count: int,
        *,
        element_bytes: int = 8,
        pool: MemoryPool | None = None,
        managed: bool = True,
        stream: int = 0,
        tag: str = "VectorGPU",
        strategy: str = STRATEGY_ARRAY_PER_LIMB,
    ) -> None:
        self.element_count = element_count
        self.element_bytes = element_bytes
        self.managed = managed
        self.pool = pool if pool is not None else default_pool
        self.strategy = strategy
        self._handle: int | None = None
        if managed:
            self._handle = self.pool.allocate(
                element_count * element_bytes, tag=tag, stream=stream, strategy=strategy
            )

    @property
    def nbytes(self) -> int:
        """Return the buffer size in bytes."""
        return self.element_count * self.element_bytes

    @property
    def is_live(self) -> bool:
        """Return True while a managed allocation has not been freed."""
        return self._handle is not None

    def free(self) -> None:
        """Release the underlying allocation (no-op for unmanaged vectors)."""
        if self.managed and self._handle is not None:
            self.pool.free(self._handle)
            self._handle = None

    def __del__(self) -> None:  # pragma: no cover - interpreter-dependent
        try:
            self.free()
        except Exception:
            pass


@dataclass
class Limb:
    """Residues of a degree-``N`` polynomial under a single prime modulus."""

    modulus: int
    data: np.ndarray
    fmt: LimbFormat
    ring_degree: int
    buffer: VectorGPU | None = field(default=None, repr=False)

    @classmethod
    def view_of(
        cls,
        modulus: int,
        data: np.ndarray,
        fmt: LimbFormat,
        ring_degree: int,
        buffer: VectorGPU | None = None,
    ) -> "Limb":
        """Build a zero-copy limb over already-canonical residue data.

        Used for the per-limb views into a flattened
        :class:`~repro.core.limb_stack.LimbStack` buffer (the second §III-D
        allocation strategy): ``data`` stays a live view into the stack
        row, and ``buffer`` is the unmanaged :class:`VectorGPU` window over
        the owning allocation.
        """
        return cls(modulus, data, fmt, ring_degree, buffer)

    def release(self) -> None:
        """Free the managed buffer held by this limb (no-op for views)."""
        if self.buffer is not None:
            self.buffer.free()

    def __len__(self) -> int:
        return self.ring_degree


__all__ = ["Limb", "LimbFormat", "VectorGPU"]
