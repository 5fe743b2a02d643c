"""``LimbStack``: flat ``(num_limbs, N)`` residue storage for one polynomial.

This is the flattened allocation strategy of §III-D: all limbs of a
polynomial live in one contiguous 2-D array, and that array is one charge
on a :class:`~repro.core.memory.MemoryPool` -- made at the end of
construction, credited back by :meth:`LimbStack.release` (which ``__del__``
also calls).  A ``LimbStack`` is storage only -- constructors, fuse/split,
row windows (:meth:`LimbStack.head`; stacks are immutable once built, see
:mod:`repro.ckks.ciphertext`), row copies and that charge.  The arithmetic
is written once, in
:mod:`repro.core.modmath`'s ``stack_*`` kernels, which
:class:`~repro.core.rns_poly.RNSPoly` calls on ``stack.data`` with the
``(L, 1)`` moduli column ``stack.moduli_col`` broadcast over the rows (the
Python analogue of the batched cross-limb kernels of §III-F -- no per-limb
Python loop on the hot path).  A limb is row ``i`` of ``data``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core import modmath
from repro.core.dispatch import gather_rows, get_dispatcher
from repro.core.memory import FusedFootprintError, MemoryPool, default_pool
from repro.gpu.kernel import ELEMENT_BYTES

#: The tag every stack charges under (``charge_hook(pool, nbytes, tag)``).
_TAG = "LimbStack"
_DISPATCH = get_dispatcher()


def _replay_rows(reads: tuple, writes: tuple) -> None:
    """Replay of a row copy: the source row blocks, in order."""
    gather_rows(reads, writes[0])


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
        Memory pool charged for the single flattened allocation (the
        process-wide ``default_pool`` when omitted).
    """

    __slots__ = ("moduli", "moduli_col", "data", "ring_degree", "pool", "_charged", "_owner")

    def __init__(
        self,
        moduli: Sequence[int],
        data: np.ndarray,
        *,
        pool: MemoryPool | None = None,
    ) -> None:
        # First, so that ``__del__`` finds a stack whose construction raised
        # (wrong shape, capacity, a denying ``charge_hook``) uncharged.
        self._charged = 0
        moduli = tuple(int(q) for q in moduli)
        data = np.asarray(data)
        if data.ndim != 2 or data.shape[0] != len(moduli):
            raise ValueError(
                f"stack data must be ({len(moduli)}, N), got {data.shape}"
            )
        col = modmath.moduli_column(moduli)
        self._bind(
            moduli, col, modmath.coerce_stack(data, col),
            pool if pool is not None else default_pool, None,
        )
        nbytes = self.footprint_bytes()
        self.pool.charge(nbytes, _TAG)
        self._charged = nbytes

    def _bind(self, moduli, col, data, pool, owner) -> None:
        """Set the storage fields: the one body ``__init__`` and ``split`` share."""
        self.moduli = moduli
        self.moduli_col = col  # the broadcastable (L, 1) moduli column
        self.data = data
        self.ring_degree = int(data.shape[-1])
        self.pool = pool
        self._owner = owner

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
        if len(rows) != len(moduli):
            raise ValueError("row count does not match modulus count")
        rows = modmath.lift_residues(rows, modmath.moduli_column(moduli))
        return cls(moduli, rows, pool=pool)

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
        target_pool = pool if pool is not None else stacks[0].pool
        fused_moduli = [q for stack in stacks for q in stack.moduli]
        fused_col = modmath.moduli_column(fused_moduli)
        nbytes = len(fused_moduli) * n * ELEMENT_BYTES
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

    def split(self, parts: int) -> list["LimbStack"]:
        """Split a fused stack back into ``parts`` equal zero-copy members.

        The inverse of :meth:`fuse`: each returned stack is a row-range view
        of this stack's flat allocation (no copy, no pool charge).  A view
        keeps the stack it windows alive (NumPy's ``.base`` rule), so the
        allocation stays charged until its last view is gone or
        :meth:`release` is called on the owner.
        """
        if parts <= 0:
            raise ValueError("parts must be positive")
        if self.num_limbs % parts:
            raise ValueError(
                f"cannot split {self.num_limbs} rows into {parts} equal members"
            )
        rows = self.num_limbs // parts
        return [
            self._window(start, start + rows)
            for start in range(0, self.num_limbs, rows)
        ]

    def _window(self, start: int, stop: int) -> "LimbStack":
        """Rows ``[start, stop)`` as a view: no copy, no charge, owner pinned."""
        moduli = self.moduli[start:stop]
        view = object.__new__(LimbStack)
        view._charged = 0
        view._bind(
            moduli, modmath.moduli_column(moduli),
            self.data[start:stop], self.pool, self,
        )
        return view

    def copy(self) -> "LimbStack":
        """Deep copy (every row taken), charged to the same pool as this stack."""
        return self.take(range(self.num_limbs))

    # -- accessors -----------------------------------------------------------

    @property
    def num_limbs(self) -> int:
        """Number of limb rows currently in the stack."""
        return len(self.moduli)

    def footprint_bytes(self) -> int:
        """Device-memory footprint of the flat allocation."""
        return len(self.moduli) * self.ring_degree * ELEMENT_BYTES

    def release(self) -> None:
        """Credit the pool charge back, once (a view charged nothing)."""
        nbytes, self._charged = self._charged, 0
        if nbytes:
            self.pool.release(nbytes)

    __del__ = release

    # -- row management ------------------------------------------------------

    def take(self, indices: Sequence[int]) -> "LimbStack":
        """Return a new stack holding copies of the rows at ``indices``."""
        indices = list(indices)
        # Fancy indexing already materializes a fresh array.
        data = self.data[indices]
        if _DISPATCH.recording:
            _DISPATCH.elementwise(
                "limb-copy", reads=tuple(self.data[i : i + 1] for i in indices),
                writes=(data,), ops_per_element=0.0, replay=_replay_rows,
            )
        return LimbStack([self.moduli[i] for i in indices], data, pool=self.pool)

    def head(self, count: int) -> "LimbStack":
        """The first ``count`` rows as a zero-copy view (see :meth:`split`):
        dropping limbs moves no data and charges nothing."""
        return self._window(0, count)


__all__ = ["LimbStack"]
