"""``LimbStack``: flat ``(num_limbs, N)`` residue storage for one polynomial.

This is the flattened allocation strategy of §III-D: instead of one device
buffer per limb (stack-of-arrays), all limbs of a polynomial live in a
single contiguous 2-D array backed by one pool-charged
:class:`~repro.core.limb.VectorGPU`.  A ``LimbStack`` is storage only --
constructors, fuse/split, row copies, views and the pool charge.  The
arithmetic is written once, in :mod:`repro.core.modmath`'s ``stack_*``
kernels, which :class:`~repro.core.rns_poly.RNSPoly` calls on
``stack.data`` with the ``(L, 1)`` moduli column ``stack.moduli_col``
broadcast over the rows (the Python analogue of the batched cross-limb
kernels of §III-F -- no per-limb Python loop on the hot path).

Per-limb access is a zero-copy view: :meth:`LimbStack.limb_view` hands
out a :class:`~repro.core.limb.Limb` whose ``data`` is a row view of the
stack and whose buffer is an unmanaged :class:`~repro.core.limb.VectorGPU`
window over the flat allocation, so ``poly.limbs[i]`` neither duplicates
memory nor double-charges the pool.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core import modmath
from repro.core.dispatch import get_dispatcher
from repro.core.limb import Limb, LimbFormat, VectorGPU
from repro.core.memory import STRATEGY_FLATTENED, FusedFootprintError, MemoryPool
from repro.gpu.kernel import ELEMENT_BYTES

_DISPATCH = get_dispatcher()


class LimbStack:
    """All limbs of one degree-``N`` polynomial in a flat ``(L, N)`` array.

    One ``uint64`` word per residue whenever every modulus is below 2**62
    (the single-word and the double-word arithmetic share this layout),
    Python integers in an object array otherwise.

    Parameters
    ----------
    moduli:
        One word-sized prime per row.
    data:
        Canonical ``(len(moduli), N)`` residue stack.  Machine words under
        an exact basis (or Python integers under a word basis) are
        converted via :func:`repro.core.modmath.coerce_stack`; use
        :meth:`from_rows` to canonicalize arbitrary input.
    pool:
        Memory pool charged for the single flattened allocation.
    """

    __slots__ = ("moduli", "data", "ring_degree", "buffer", "_col")

    def __init__(
        self,
        moduli: Sequence[int],
        data: np.ndarray,
        *,
        pool: MemoryPool | None = None,
    ) -> None:
        self.moduli = tuple(int(q) for q in moduli)
        data = np.asarray(data)
        if data.ndim != 2 or data.shape[0] != len(self.moduli):
            raise ValueError(
                f"stack data must be ({len(self.moduli)}, N), got {data.shape}"
            )
        self._col = modmath.moduli_column(self.moduli)
        self.data = modmath.coerce_stack(data, self._col)
        self.ring_degree = int(self.data.shape[-1])
        self.buffer = VectorGPU(
            len(self.moduli) * self.ring_degree,
            pool=pool,
            tag=f"LimbStack[{len(self.moduli)}x{self.ring_degree}]",
            strategy=STRATEGY_FLATTENED,
        )

    # -- constructors --------------------------------------------------------

    @classmethod
    def zeros(
        cls,
        ring_degree: int,
        moduli: Sequence[int],
        *,
        pool: MemoryPool | None = None,
    ) -> "LimbStack":
        """Return an all-zero stack charged to ``pool``."""
        col = modmath.moduli_column(moduli)
        data = modmath.stack_zeros(len(col), ring_degree, col)
        return cls(moduli, data, pool=pool)

    @classmethod
    def from_rows(
        cls,
        moduli: Sequence[int],
        rows: Sequence[np.ndarray],
        *,
        pool: MemoryPool | None = None,
    ) -> "LimbStack":
        """Canonicalize per-limb residue rows into a fresh stack."""
        return cls(moduli, modmath.as_residue_stack(rows, moduli), pool=pool)

    @classmethod
    def fuse(
        cls,
        stacks: Sequence["LimbStack"],
        *,
        pool: MemoryPool | None = None,
    ) -> "LimbStack":
        """Concatenate several stacks row-wise into one fused allocation.

        The throughput plane's entry point: ``B`` same-shape stacks become a
        single contiguous ``(B*L, N)`` buffer charged to the pool **once**,
        so every cross-limb kernel downstream launches once for the whole
        batch.  Member rows are laid out member-major (all rows of stack 0,
        then stack 1, ...), the order :meth:`split` undoes.  The row copy is
        pure data movement; provenance is forwarded so dependency edges stay
        intact in a recorded trace.
        """
        stacks = list(stacks)
        if not stacks:
            raise ValueError("fuse needs at least one stack")
        n = stacks[0].ring_degree
        for stack in stacks[1:]:
            if stack.ring_degree != n:
                raise ValueError("fused stacks must share one ring degree")
        target_pool = pool if pool is not None else stacks[0].buffer.pool
        total_rows = sum(s.num_limbs for s in stacks)
        fused_moduli = [q for stack in stacks for q in stack.moduli]
        fused_col = modmath.moduli_column(fused_moduli)
        nbytes = total_rows * n * ELEMENT_BYTES
        if not target_pool.fits(nbytes):
            rows_each = sorted({s.num_limbs for s in stacks})
            rows_text = (
                f"L={rows_each[0]}" if len(rows_each) == 1 else f"L∈{rows_each}"
            )
            raise FusedFootprintError(
                f"fusing B={len(stacks)} limb stacks ({rows_text} rows each, "
                f"N={n}) needs one {nbytes}-byte allocation, but the pool "
                f"budget is {target_pool.capacity_bytes} bytes with "
                f"{target_pool.free_bytes()} free; drain fewer members per "
                f"fused batch (e.g. serve's BatchingPolicy.memory_budget_bytes) "
                f"or raise the pool capacity"
            )
        data = np.concatenate(
            [modmath.coerce_stack(s.data, fused_col) for s in stacks], axis=0
        )
        fused = cls(fused_moduli, data, pool=target_pool)
        _DISPATCH.link(tuple(s.data for s in stacks), fused.data)
        return fused

    @classmethod
    def _view(cls, moduli: Sequence[int], data: np.ndarray, owner: VectorGPU) -> "LimbStack":
        """Zero-copy stack over already-canonical rows of a fused buffer.

        The buffer is an unmanaged window into ``owner``'s allocation, so
        the view charges nothing to the pool and :meth:`release` on it never
        touches accounting (mirrors :meth:`limb_view`).
        """
        stack = object.__new__(cls)
        stack.moduli = tuple(int(q) for q in moduli)
        stack._col = modmath.moduli_column(stack.moduli)
        stack.data = data
        stack.ring_degree = int(data.shape[-1])
        stack.buffer = VectorGPU(
            len(stack.moduli) * stack.ring_degree,
            pool=owner.pool,
            managed=False,
            tag="stack-view",
        )
        return stack

    def split(self, parts: int) -> list["LimbStack"]:
        """Split a fused stack back into ``parts`` equal zero-copy members.

        The inverse of :meth:`fuse`: each returned stack is a row-range view
        of this stack's flat allocation (no copy, no pool charge).  Views
        dangle if the fused stack is released; copy them first to detach.
        """
        if parts <= 0:
            raise ValueError("parts must be positive")
        if self.num_limbs % parts:
            raise ValueError(
                f"cannot split {self.num_limbs} rows into {parts} equal members"
            )
        rows = self.num_limbs // parts
        return [
            LimbStack._view(
                self.moduli[i * rows : (i + 1) * rows],
                self.data[i * rows : (i + 1) * rows],
                self.buffer,
            )
            for i in range(parts)
        ]

    def copy(self) -> "LimbStack":
        """Deep copy, charged to the same pool as this stack's buffer."""
        data = self.data.copy()
        if _DISPATCH.recording:
            _DISPATCH.copy(reads=(self.data,), writes=(data,))
        return LimbStack(self.moduli, data, pool=self.buffer.pool)

    # -- accessors -----------------------------------------------------------

    @property
    def num_limbs(self) -> int:
        """Number of limb rows currently in the stack."""
        return len(self.moduli)

    @property
    def moduli_col(self) -> np.ndarray:
        """The broadcastable ``(L, 1)`` moduli column."""
        return self._col

    def footprint_bytes(self) -> int:
        """Device-memory footprint of the flat allocation."""
        return self.buffer.nbytes

    def limb_view(self, index: int, fmt: LimbFormat) -> Limb:
        """Return a zero-copy :class:`Limb` over row ``index``.

        The limb's buffer is an unmanaged window into this stack's flat
        allocation, so releasing the view never touches pool accounting.
        """
        window = VectorGPU(
            self.ring_degree,
            pool=self.buffer.pool,
            managed=False,
            tag="limb-view",
        )
        return Limb.view_of(
            self.moduli[index], self.data[index], fmt, self.ring_degree, window
        )

    def rows(self) -> list[np.ndarray]:
        """Return per-limb residue rows (zero-copy views)."""
        return [self.data[i] for i in range(self.num_limbs)]

    def release(self) -> None:
        """Free the flat buffer (views handed out become dangling)."""
        self.buffer.free()

    # -- row management ------------------------------------------------------

    def take(self, indices: Sequence[int]) -> "LimbStack":
        """Return a new stack holding copies of the rows at ``indices``."""
        indices = list(indices)
        moduli = [self.moduli[i] for i in indices]
        # Fancy indexing already materializes a fresh array.
        data = self.data[indices]
        if _DISPATCH.recording:
            # The per-row read tuple is only packed when a trace is live.
            _DISPATCH.copy(
                reads=tuple(self.data[i : i + 1] for i in indices),
                writes=(data,),
            )
        return LimbStack(moduli, data, pool=self.buffer.pool)

    def head(self, count: int) -> "LimbStack":
        """Return a new stack with copies of the first ``count`` rows."""
        data = self.data[:count].copy()
        if _DISPATCH.recording:
            _DISPATCH.copy(reads=(self.data[:count],), writes=(data,))
        return LimbStack(self.moduli[:count], data, pool=self.buffer.pool)

    def __len__(self) -> int:
        return self.num_limbs


__all__ = ["LimbStack"]
