"""``LimbStack``: flat ``(num_limbs, N)`` residue storage for one polynomial.

This is the flattened allocation strategy of §III-D: instead of one device
buffer per limb (stack-of-arrays), all limbs of a polynomial live in a
single contiguous 2-D array backed by one pool-charged
:class:`~repro.core.limb.VectorGPU`.  Cross-limb operations then run as
single NumPy expressions that broadcast the ``(L, 1)`` moduli column over
the stack (:mod:`repro.core.modmath`'s ``stack_*`` kernels), which is the
Python analogue of the batched cross-limb kernels of §III-F -- no per-limb
Python loop remains on the hot path.

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
from repro.core.automorphism import coeff_automorphism_map
from repro.core.dispatch import get_dispatcher
from repro.core.limb import Limb, LimbFormat, VectorGPU
from repro.core.memory import STRATEGY_FLATTENED, FusedFootprintError, MemoryPool
from repro.gpu.kernel import ELEMENT_BYTES, MODADD_OPS

_DISPATCH = get_dispatcher()


def _add_column(data: np.ndarray, index: int, col: np.ndarray, qs: np.ndarray) -> None:
    """Add ``col`` (one canonical constant per row) to column ``index``, in place."""
    if data.dtype == np.object_:
        data[:, index] = (data[:, index] + col) % qs
    else:
        s = data[:, index] + col
        data[:, index] = np.where(s >= qs, s - qs, s)


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

    @property
    def is_fast(self) -> bool:
        """True when the stack runs on the fast uint64 backend."""
        return modmath.stack_is_fast(self._col)

    @property
    def backend(self) -> str:
        """Numeric backend of the stack (``uint64``/``dword``/``object``)."""
        return modmath.stack_backend(self._col)

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

    # -- elementwise arithmetic (batched across limbs) -----------------------

    def _check_compatible(self, other: "LimbStack") -> None:
        if self.moduli != other.moduli:
            raise ValueError("limb-stack moduli differ")
        if self.ring_degree != other.ring_degree:
            raise ValueError("limb-stack ring degrees differ")

    def _wrap(self, data: np.ndarray) -> "LimbStack":
        return LimbStack(self.moduli, data, pool=self.buffer.pool)

    def add(self, other: "LimbStack") -> "LimbStack":
        """Elementwise modular sum of two stacks (one broadcast expression)."""
        self._check_compatible(other)
        return self._wrap(modmath.stack_add_mod(self.data, other.data, self._col))

    def sub(self, other: "LimbStack") -> "LimbStack":
        """Elementwise modular difference."""
        self._check_compatible(other)
        return self._wrap(modmath.stack_sub_mod(self.data, other.data, self._col))

    def negate(self) -> "LimbStack":
        """Elementwise modular negation."""
        return self._wrap(modmath.stack_neg_mod(self.data, self._col))

    def multiply(self, other: "LimbStack") -> "LimbStack":
        """Elementwise modular product (caller enforces evaluation format)."""
        self._check_compatible(other)
        return self._wrap(modmath.stack_mul_mod(self.data, other.data, self._col))

    def multiply_scalars(self, scalars: Sequence[int]) -> "LimbStack":
        """Multiply each row by its own integer constant."""
        return self._wrap(modmath.stack_scalar_mod(self.data, scalars, self._col))

    def add_scalars_broadcast(self, scalars: Sequence[int]) -> "LimbStack":
        """Add one constant per row to every element (evaluation-format add)."""
        return self._wrap(modmath.stack_add_scalar_mod(self.data, scalars, self._col))

    def add_scalars_at(self, scalars: Sequence[int], index: int = 0) -> "LimbStack":
        """Add one constant per row to a single coefficient column.

        The coefficient-format scalar add: a constant polynomial only
        touches the degree-``index`` coefficient of every limb.
        """
        data = self.data.copy()
        col = modmath.scalar_column(scalars, self._col).ravel()
        qs = self._col.ravel()
        _add_column(data, index, col, qs)
        if _DISPATCH.recording:
            replay = None
            if _DISPATCH.executable_recording:

                def replay(reads, writes, _idx=index, _qs=qs):
                    src, col_r, dst = reads[0], reads[1], writes[0]
                    if not np.shares_memory(src, dst):
                        np.copyto(dst, src)
                    _add_column(dst, _idx, col_r, _qs)

            _DISPATCH.elementwise(
                "stack-scalar-add", reads=(self.data, col), writes=(data,),
                ops_per_element=MODADD_OPS, replay=replay,
            )
        return self._wrap(data)

    def automorphism_coeff(self, exponent: int) -> "LimbStack":
        """Apply ``X -> X^exponent`` to every row (coefficient representation).

        One gather plus one sign-fix expression for the whole stack -- the
        batched form of the GPU ``Automorph`` kernel.
        """
        source, sign = coeff_automorphism_map(self.ring_degree, exponent)
        with _DISPATCH.suppressed():
            gathered = self.data[..., source]
            negated = modmath.stack_neg_mod(gathered, self._col)
            # np.where picks the gather's (Fortran) iteration order; traces
            # need C-contiguous operands for byte-interval views.
            out = np.ascontiguousarray(np.where(sign == 1, gathered, negated))
        if _DISPATCH.recording:
            replay = None
            if _DISPATCH.executable_recording:

                def replay(reads, writes, _src=source, _sign=sign, _col=self._col):
                    gathered = reads[0][..., _src]
                    negated = modmath.stack_neg_mod(gathered, _col)
                    writes[0][...] = np.where(_sign == 1, gathered, negated)

            _DISPATCH.elementwise(
                "automorph", reads=(self.data,), writes=(out,),
                ops_per_element=2.0, replay=replay,
            )
        return self._wrap(out)

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
