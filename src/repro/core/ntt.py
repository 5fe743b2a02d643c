"""Negacyclic Number Theoretic Transform (NTT): one engine, one oracle.

Polynomial multiplication in ``Z_q[X]/(X^N + 1)`` is carried out in the
evaluation domain: the forward NTT maps a coefficient vector to its
evaluations at the odd powers of a 2N-th root of unity ``ψ``, where
multiplication is element-wise.  Following §III-F.4 of the paper, the
forward transform is radix-2 Cooley-Tukey (normal-order input,
bit-reversed output) and the inverse is Gentleman-Sande (bit-reversed
input, normal-order output), so no explicit bit reversal is ever needed.

* :func:`twiddle_tables` validates ``(N, q)`` and caches the
  bit-reversed ``ψ``/``ψ⁻¹`` tables and ``N⁻¹`` per modulus;
* :class:`StackedNTTEngine` is the only engine: it transforms every row
  of a flat ``(rows, N)`` limb stack at once with Shoup-precomputed
  twiddles (Table III) on lazy ``[0, 2q)`` representatives, on the
  single-word and the double-word backend alike;
* :func:`reference_transform` is the exact-integer oracle: the production
  path for moduli at or above 2**62 and the reference every test compares
  the vectorized backends against.

The engine is also where a transform *launch* is described.  FIDESlib folds
element-wise work into its (i)NTT kernels (§III-F.5: rescale, ModDown); a
call hands that work over as a :class:`Fused` prologue/epilogue next to the
row blocks it reads, the engine runs it around the one stacked transform
and records the fused launch itself (:meth:`StackedNTTEngine._record`).  On
the uint64 backend the event also carries its unfused form -- the
prologue's launch, ``log2 N`` butterfly-stage launches, the iNTT's ``N^-1``
scale and the epilogue's launch -- as plain data, which
:func:`repro.core.fusion.expand_stages` turns into the per-stage stream.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

import numpy as np

from repro.core import modmath
from repro.core.dispatch import gather_rows, get_dispatcher
from repro.core.primes import find_root_of_unity
from repro.gpu.kernel import BUTTERFLY_OPS, SHOUP_MUL_OPS

_DISPATCH = get_dispatcher()


def bit_reverse_indices(n: int) -> np.ndarray:
    """Return the bit-reversal permutation of ``range(n)`` (n a power of two)."""
    bits = n.bit_length() - 1
    indices = np.arange(n, dtype=np.int64)
    result = np.zeros(n, dtype=np.int64)
    for b in range(bits):
        result |= ((indices >> b) & 1) << (bits - 1 - b)
    return result


def is_power_of_two(n: int) -> bool:
    """Return True when ``n`` is a positive power of two."""
    return n > 0 and (n & (n - 1)) == 0


@lru_cache(maxsize=256)
def twiddle_tables(ring_degree: int, modulus: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Return ``(ψ powers, ψ⁻¹ powers, N⁻¹ mod q)`` for one prime modulus.

    Both tables are in bit-reversed order (entry ``m + i`` is the twiddle
    of group ``i`` in the stage with ``m`` groups) and hold canonical
    residues as :func:`repro.core.modmath.as_residue_array` stores them.
    ``ring_degree`` must be a power of two and ``modulus`` an NTT-friendly
    prime (``modulus ≡ 1 mod 2N``).  Cached per ``(N, q)`` and read-only,
    mirroring FIDESlib's singleton precomputation: the tables are built
    once per context and shared by every engine over that modulus.  The
    cache holds the moduli of several contexts (a context has ``L + K``),
    not every prime a long-lived process ever meets.
    """
    n, q = ring_degree, modulus
    if not is_power_of_two(n):
        raise ValueError(f"ring degree must be a power of two, got {n}")
    if (q - 1) % (2 * n) != 0:
        raise ValueError(f"modulus {q} is not NTT-friendly for N={n}")
    psi = find_root_of_unity(2 * n, q)
    if modmath.pow_mod(psi, 2 * n, q) != 1 or modmath.pow_mod(psi, n, q) == 1:
        raise ValueError("psi is not a primitive 2N-th root of unity")
    psi_inv = modmath.inv_mod(psi, q)
    powers = np.empty(n, dtype=object)
    inv_powers = np.empty(n, dtype=object)
    acc = 1
    acc_inv = 1
    for i in range(n):
        powers[i] = acc
        inv_powers[i] = acc_inv
        acc = (acc * psi) % q
        acc_inv = (acc_inv * psi_inv) % q
    rev = bit_reverse_indices(n)
    tables = (
        modmath.as_residue_array(powers[rev], q),
        modmath.as_residue_array(inv_powers[rev], q),
    )
    for table in tables:
        table.flags.writeable = False
    return (*tables, modmath.inv_mod(n, q))


def reference_transform(
    rows, moduli: Sequence[int], *, inverse: bool = False
) -> np.ndarray:
    """Exact-integer negacyclic NTT (or iNTT) of every row, for any moduli.

    ``rows`` holds one length-``N`` residue vector per modulus (any
    integer dtype); the result is a fresh ``(rows, N)`` object
    array of Python integers.  Canonical radix-2 stages, one ``%`` per
    operation: the production path of the exact (``>= 2**62``) backend and
    the oracle the uint64 and dword pipelines are tested against -- they
    run the same butterflies in the same order, so they agree bit for bit.
    """
    moduli = [int(q) for q in moduli]
    a = np.array(modmath.object_row(np.asarray(rows)), dtype=object)
    if a.ndim != 2 or a.shape[0] != len(moduli):
        raise ValueError(
            f"expected one row per modulus ({len(moduli)}), got shape {a.shape}"
        )
    count, n = a.shape
    tables = [twiddle_tables(n, q) for q in moduli]
    twiddles = np.stack([modmath.object_row(t[1 if inverse else 0]) for t in tables])
    col = np.array(moduli, dtype=object).reshape(-1, 1, 1)
    for stage in range(n.bit_length() - 1):
        # Cooley-Tukey walks the stages outside-in, Gentleman-Sande inside-out.
        m = n >> (stage + 1) if inverse else 1 << stage
        t = n // (2 * m)
        view = a.reshape(count, m, 2 * t)
        w = twiddles[:, m : 2 * m].reshape(count, m, 1)
        u = view[:, :, :t]
        v = view[:, :, t:]
        if inverse:
            low, high = (u + v) % col, ((u - v) * w) % col
        else:
            v = (v * w) % col
            low, high = (u + v) % col, (u - v) % col
        view[:, :, :t] = low
        view[:, :, t:] = high
    if inverse:
        n_inv = np.array([t[2] for t in tables], dtype=object).reshape(-1, 1)
        a = (a * n_inv) % col[:, 0]
    return a


#: Contiguous block size (elements) below which radix-2 stages run in a
#: transposed layout.  Stages with butterfly half-width ``t < BLOCK/2``
#: touch tiny strided slices that defeat vectorization; transposing the
#: ``(blocks, BLOCK)`` grid once turns their inner axis into long
#: contiguous runs -- the same locality argument as the paper's four-step
#: NTT (§III-F.4, Figure 3), applied to the CPU cache hierarchy.
_TRANSPOSED_BLOCK = 16

#: Rows processed together by one pass of the stacked stage pipeline --
#: the CPU analogue of the paper's ``limb_batch`` parameter (§III-F.1,
#: Figure 7): batches must be wide enough to amortize kernel overhead but
#: small enough that the working set (data plus scratch) stays resident in
#: the private cache, or throughput degrades exactly as Figure 7 shows for
#: small-L2 GPUs.
_NTT_LIMB_BATCH = 3

#: Extra elements between the four stage buffers of a chunk (the first one
#: starts half a stagger in).  Large NumPy allocations all start at the
#: same offset within a page and the buffer sizes are powers of two times
#: the row count, so laid back to back the same lane of the data rows and
#: of every buffer would share its low 12 address bits, and each
#: butterfly's loads would stall behind its stores to another array (4K
#: aliasing; +6% per transform at N = 2**13).  512 bytes staggers them.
_STAGE_BUFFER_STAGGER = 64


class Fused(NamedTuple):
    """Element-wise work a transform launch absorbs (the §III-F.5 fusions).

    FIDESlib's (i)NTT kernels take their pre/post-processing as an
    argument; this is that argument.  ``fn(reads, writes)`` computes it, in
    the signature of a replay thunk, on any whole number of segments: a
    *prologue* fills ``writes[0]``, the rows about to be transformed, from
    ``reads`` (rescale's modulus switch); an *epilogue* gets the transformed
    rows as ``reads[0]``, then ``reads``, and leaves its result in the same
    rows, ``writes[0]`` (the ``c · (head − x)`` folds of rescale, ModDown).

    ``reads`` are row blocks in the transform's row order at one uniform
    scale: a segment covering a tenth of the rows reads the blocks (or the
    slice of a block) covering that tenth.  ``tag``/``ops_per_element`` name
    and price the step as a launch of its own, which it is in the
    transform's unfused form (:func:`repro.core.fusion.expand_stages`).
    """

    tag: str
    ops_per_element: float
    reads: Sequence[np.ndarray]
    fn: Callable[[tuple, tuple], None]


def _segment_blocks(blocks, parts: Sequence[int], cols: int, what: str) -> list[tuple]:
    """Each segment's share (views, in order) of ``(rows, N)`` row ``blocks``
    laid out like a transform cut into ``parts`` rows (see :class:`Fused`)."""
    if not blocks:
        return [()] * len(parts)
    total, rows = sum(len(block) for block in blocks), sum(parts)
    if any(np.ndim(b) != 2 or np.shape(b)[1] != cols for b in blocks) or any(
        part * total % rows for part in parts
    ):
        raise ValueError(
            f"{what} of shapes {[np.shape(b) for b in blocks]} are not "
            f"(rows, {cols}) blocks dividing over segments {list(parts)}"
        )
    shares, queue = [], list(blocks)
    for part in parts:
        need, share = part * total // rows, []
        while need:
            block = queue.pop(0)
            if len(block) > need:
                queue.insert(0, block[need:])
                block = block[:need]
            share.append(block)
            need -= len(block)
        shares.append(tuple(share))
    return shares


class StackedNTTEngine:
    """Batched negacyclic NTT/iNTT over a flat ``(num_limbs, N)`` limb stack.

    Radix-2 transforms share their butterfly schedule across limbs -- only
    the twiddle values differ.  Stacking the per-modulus twiddle tables
    into ``(L, N)`` matrices therefore lets one pass of ``log2 N``
    broadcast expressions transform every limb of a polynomial at once,
    which is the limb-batched NTT of §III-F: no Python loop per limb, and
    each stage is a single vectorized butterfly over the whole stack.

    The last ``log2(BLOCK)`` stages only move data within contiguous
    ``BLOCK``-sized runs, so on the single-word backend they execute on a
    transposed ``(L, BLOCK, N/BLOCK)`` grid where the vectorized inner
    axis stays long (the four-step locality idea of §III-F.4).

    Results are bit-identical to :func:`reference_transform`: the same
    butterflies execute in the same order on the same residues, merely
    staged through a different memory layout.

    Fused cross-ciphertext calls (the throughput plane) transform stacks
    whose moduli tuple is a *tiling* of a shorter base -- ``B`` members at
    the same level repeat the same ``L`` primes.  The engine detects the
    repeat period and materializes its twiddle/Shoup tables only for the
    base period: a GPU keeps one twiddle table in constant memory no
    matter how many ciphertexts a kernel covers, and duplicating the
    tables ``B×`` on the CPU would just evict them from cache.  Tiled
    stacks are processed per period (single-modulus tilings broadcast one
    table row over the whole stack), which changes neither the butterfly
    order nor any residue.
    """

    def __init__(self, ring_degree: int, moduli: Sequence[int]) -> None:
        self.ring_degree = ring_degree
        self.moduli = tuple(int(q) for q in moduli)
        col = modmath.moduli_column(self.moduli)
        self.backend = modmath.stack_backend(col)
        self.fast = self.backend == modmath.BACKEND_UINT64
        self.dword = self.backend == modmath.BACKEND_DWORD
        self._col = col
        # Twiddle tables cover one table row per *distinct* chunk modulus:
        # fused cross-ciphertext stacks repeat a short base either
        # member-major (the tuple tiles with some period) or limb-major
        # (runs of one modulus), and materializing the repeats would only
        # evict the tables from cache.
        length = len(self.moduli)
        base = self.moduli
        #: ``(row_lo, row_hi, table_lo, table_hi)`` processing chunks.
        #: Non-repeating stacks walk :data:`_NTT_LIMB_BATCH`-row chunks
        #: with matching table rows; member-major tilings walk one repeat
        #: period per chunk; limb-major runs walk one run per chunk with
        #: its single table row broadcast over the run's data rows.
        self._chunks: list[tuple[int, int, int, int]] = []
        period = self._repeat_period(self.moduli)
        runs = self._runs(self.moduli)
        if period < length:
            base = self.moduli[:period]
            if period == 1:
                self._chunks = [(0, length, 0, 1)]
            else:
                self._chunks = [
                    (r0, r0 + period, 0, period)
                    for r0 in range(0, length, period)
                ]
        elif len(runs) < length:
            base = tuple(q for q, _ in runs)
            row = 0
            for index, (_, count) in enumerate(runs):
                self._chunks.append((row, row + count, index, index + 1))
                row += count
        else:
            self._chunks = [
                (r0, min(r0 + _NTT_LIMB_BATCH, length), r0,
                 min(r0 + _NTT_LIMB_BATCH, length))
                for r0 in range(0, length, _NTT_LIMB_BATCH)
            ]
        tables = [twiddle_tables(ring_degree, q) for q in base]
        if self.backend == modmath.BACKEND_OBJECT:
            # The moduli are validated; the exact backend keeps no stacked
            # tables -- reference_transform is its whole transform.
            return
        base_col = modmath.moduli_column(base)
        self._base_col = base_col
        self._col3 = base_col.reshape(-1, 1, 1)
        self._col4 = base_col.reshape(-1, 1, 1, 1)
        # 2q columns for the lazy [0, 2q) butterfly representatives
        # (2q < 2**63 for every dword modulus, so sums stay below 4q < 2**64).
        self._two3 = self._col3 * np.uint64(2)
        self._two4 = self._col4 * np.uint64(2)
        self._n_inv = [twiddle_tables(ring_degree, q)[2] for q in self.moduli]
        # The block-local stages run transposed on both word backends.
        self._block = _TRANSPOSED_BLOCK
        self._grid = 0
        if self.ring_degree >= 2 * self._block:
            self._grid = self.ring_degree // self._block
        self._fw_stages, self._fw_trans = self._stage_tables([t[0] for t in tables])
        self._inv_stages, self._inv_trans = self._stage_tables([t[1] for t in tables])

    @staticmethod
    def _repeat_period(moduli: tuple[int, ...]) -> int:
        """Smallest ``p`` with ``moduli == moduli[:p] * (len(moduli) // p)``."""
        length = len(moduli)
        for p in range(1, length):
            if length % p == 0 and moduli == moduli[:p] * (length // p):
                return p
        return length

    @staticmethod
    def _runs(moduli: tuple[int, ...]) -> list[tuple[int, int]]:
        """Collapse consecutive equal moduli into ``(modulus, count)`` runs."""
        runs: list[tuple[int, int]] = []
        for q in moduli:
            if runs and runs[-1][0] == q:
                runs[-1] = (q, runs[-1][1] + 1)
            else:
                runs.append((q, 1))
        return runs

    def _stage_tables(self, rows: list[np.ndarray]):
        """Per-stage ``(twiddles, shoup)`` tables from per-modulus twiddle rows.

        Returns the standard-layout stages -- entry ``s`` holds the
        ``m = 2**s`` twiddles of that stage as an ``(L, m, 1)`` array next
        to their Shoup companions -- and the block-local stages in the
        transposed-grid layout (empty when no stage runs transposed).
        The companions are ``floor(w * 2**32 / q)`` on the single-word
        backend (Table III) and ``floor(w * 2**64 / q)`` on the dword
        backend, stored as 32-bit digit halves on an extra axis 1 so each
        butterfly's quotient reads precomputed operands instead of
        re-splitting per stage.  Each stage's table is copied in the one
        layout it runs in, so an engine holds its twiddles once.
        """
        table = np.stack(rows)
        if self.fast:
            shoup = modmath.shoup_column(table, self._base_col)
        else:
            wide = modmath.dword_shoup_column(table, self._base_col)
            shoup = np.stack(
                [wide >> np.uint64(32), wide & np.uint64(0xFFFFFFFF)], axis=1
            )
        grid = self._grid
        stages, transposed = [], []
        m = 1
        while m < self.ring_degree:
            if not grid or m < grid:
                stages.append(tuple(
                    t[..., m : 2 * m].reshape(*t.shape[:-1], m, 1).copy()
                    for t in (table, shoup)
                ))
            else:
                # Group ``g`` of the stage splits into block ``g // (m/grid)``
                # and in-block subgroup ``g % (m/grid)``; on the transposed
                # ``(L, BLOCK, grid)`` layout the stage's twiddles become an
                # ``(L, m/grid, 1, grid)`` grid.
                transposed.append(tuple(
                    t[..., m : 2 * m]
                    .reshape(*t.shape[:-1], grid, m // grid)
                    .swapaxes(-1, -2)[..., None, :]
                    .copy()
                    for t in (table, shoup)
                ))
            m *= 2
        return stages, transposed

    def _check_operand(self, stack: np.ndarray) -> None:
        """Reject a stack that is not one length-``N`` row per modulus."""
        if stack.shape != (len(self.moduli), self.ring_degree):
            raise ValueError(
                f"stack of shape {stack.shape} does not match the engine: "
                f"expected ({len(self.moduli)}, {self.ring_degree}) residues"
            )

    def _working_copy(self, stack: np.ndarray, consume: bool) -> np.ndarray:
        a = modmath.coerce_stack(stack, self._col)
        if consume and a.flags.c_contiguous and a.flags.writeable:
            # The caller relinquished ownership (and any dtype coercion
            # already produced a fresh array), so transform in place.
            return a
        return a.copy()

    def forward(self, stack: np.ndarray | None = None, *,
                consume: bool = False, **operands) -> np.ndarray:
        """Forward NTT of every row (normal-order input, bit-reversed output).

        ``consume=True`` lets the engine transform a caller-owned temporary
        in place instead of taking a defensive copy.  ``operands`` say what
        the launch reads and what is fused into it (none changes a residue
        of the transform; recording only observes):

        ``segments``
            How the stacked call decomposes into logical GPU launches (one
            row count per launch: a key-switching digit, a ciphertext
            component); the engine records one launch per segment.
        ``sources``
            Row blocks the engine gathers into the buffer it transforms,
            in place of ``stack``; a segment's launch reads its own blocks.
        ``prologue``, ``epilogue``
            The element-wise neighbours the launch absorbs (:class:`Fused`);
            a prologue produces the rows, in place of ``stack``.  They run
            once around the one stacked transform.
        ``fused_ops_per_element``
            What the neighbours add to the ``ntt``/``intt`` kernel: by
            default their declared sum (plus the inverse's ``N^-1``
            scaling), less where folding makes one cheaper than its launch.
        """
        return self._transform(stack, consume, inverse=False, **operands)

    def inverse(self, stack: np.ndarray | None = None, *,
                consume: bool = False, **operands) -> np.ndarray:
        """Inverse NTT of every row (bit-reversed input, normal-order output);
        same operands as :meth:`forward`."""
        return self._transform(stack, consume, inverse=True, **operands)

    def _transform(
        self,
        stack: np.ndarray | None,
        consume: bool,
        *,
        inverse: bool,
        segments: Sequence[int] | None = None,
        sources: Sequence[np.ndarray] | None = None,
        prologue: Fused | None = None,
        epilogue: Fused | None = None,
        fused_ops_per_element: float | None = None,
    ) -> np.ndarray:
        rows = len(self.moduli)
        parts = [rows] if segments is None else [int(s) for s in segments]
        if sum(parts) != rows or min(parts) < 1:
            raise ValueError(f"segments {parts} do not cover {rows} rows")
        if (stack is not None) + (sources is not None) + (prologue is not None) != 1:
            raise ValueError(
                "a transform takes its rows from exactly one of a stack, "
                "sources to gather and a prologue that produces them"
            )
        if prologue is not None:
            given = ()
            a = np.empty((rows, self.ring_degree), dtype=self._col.dtype)
        else:
            # A gathered buffer is the engine's own: transformed in place.
            given = (np.asarray(stack),) if sources is None else tuple(sources)
            a = given[0] if sources is None else np.concatenate(given)
            self._check_operand(a)
            a = self._working_copy(a, consume or sources is not None)
        # Every segment's share of the row blocks, checked before any work.
        shares = [
            _segment_blocks(blocks, parts, self.ring_degree, what)
            for blocks, what in (
                (given, "sources"),
                (prologue.reads if prologue else (), "prologue reads"),
                (epilogue.reads if epilogue else (), "epilogue reads"),
            )
        ]
        with _DISPATCH.suppressed():
            if prologue is not None:
                prologue.fn(tuple(prologue.reads), (a,))
            if self.backend == modmath.BACKEND_OBJECT:
                a[...] = reference_transform(a, self.moduli, inverse=inverse)
            else:
                rows_fn = self._inverse_rows if inverse else self._forward_rows
                for r0, r1, t0, t1 in self._chunks:
                    rows_fn(a[r0:r1], t0, t1)
                if inverse:
                    # The rows carry lazy [0, 2q) representatives here; the
                    # fused N^-1 scaling (Shoup) canonicalizes them.
                    a = modmath.stack_scalar_mod(a, self._n_inv, self._col, out=a)
            if epilogue is not None:
                epilogue.fn((a, *epilogue.reads), (a,))
        if _DISPATCH.recording:
            if fused_ops_per_element is None:
                # The inverse's fused N^-1 scaling is one Shoup multiply.
                fused_ops_per_element = (SHOUP_MUL_OPS if inverse else 0.0) + sum(
                    op.ops_per_element for op in (prologue, epilogue) if op
                )
            self._record("intt" if inverse else "ntt", parts, a, shares,
                         prologue, epilogue, fused_ops_per_element)
        return a

    def _record(self, tag, parts, out, shares, prologue, epilogue,
                fused_ops_per_element) -> None:
        """Report the call to the execution plane, one launch per segment.

        The one place that knows what a fused transform launch reads,
        computes and costs, and what its unfused form is: a single
        ``ntt``/``intt`` event whose replay is composed of the callables
        that just ran and which, on the uint64 path, carries as plain data
        the prologue's launch, the ``log2 N`` stage launches (plus the
        iNTT's ``N^-1`` scale) and the epilogue's launch
        (:func:`repro.core.fusion.expand_stages`).
        """
        n = self.ring_degree
        forward = tag == "ntt"
        row = 0
        for index, part in enumerate(parts):
            # Per-segment row slices keep fused launches independent in the
            # dependency DAG (each digit/component touches its own rows).
            _DISPATCH.segment = index
            dst = out[row : row + part]
            moduli = self.moduli[row : row + part]
            row += part
            given, before, after = (share[index] for share in shares)
            unfused = _unfused_launches(
                tag, n, len(given), len(before), len(after), prologue, epilogue,
            ) if self.fast else ()

            # Each segment replays through its own cached sub-engine
            # (chunking/tiling is bit-identical, see the class docstring),
            # transforming the program's write view in place.
            def replay(reads, writes, _moduli=moduli, _split=len(given or before)):
                if prologue is not None:
                    prologue.fn(reads[:_split], writes)
                _transform_in_place(
                    n, _moduli, () if prologue else reads[:_split], writes[0],
                    forward=forward,
                )
                if epilogue is not None:
                    epilogue.fn((writes[0], *reads[_split:]), writes)

            _DISPATCH.transform(
                tag, part, reads=(*given, *before, *after), writes=(dst,),
                cols=n, fused_ops_per_element=fused_ops_per_element,
                replay=replay, unfused=unfused,
            )

    # -- the stage pipeline ---------------------------------------------------
    #
    # One chunk of rows runs through the whole stage pipeline while its
    # working set (data + scratch) is cache-resident.  All intermediates
    # live in pooled scratch buffers (no allocator traffic on the hot
    # path), and values travel as lazy [0, 2q) representatives -- Shoup
    # products and one conditional subtraction against 2q per butterfly --
    # with a single canonicalization at the end, which leaves the output
    # bit-identical to the canonical per-stage computation.
    #
    # ``a`` holds the data rows of the chunk; ``t0:t1`` indexes the twiddle
    # tables.  For tiled stacks the chunk is one repeat period (table rows
    # == data rows); a period of one broadcasts a single table row over
    # every data row of the stack.
    #
    # Every canonical residue (< 2**62) and lazy representative (< 4q <
    # 2**64) of a dword modulus fits the uint64 word it is stored in, so
    # both word backends run the same stage loop on the same rows -- only
    # the butterflies differ (:meth:`_shoup_quotient`,
    # :meth:`_dword_butterflies`).

    def _stage_buffers(self, rows: int) -> np.ndarray:
        """The four staggered stage buffers of a ``rows``-row chunk."""
        size = rows * (self.ring_degree // 2)
        bufs = modmath._scratch("ntt-stage", (4, size + _STAGE_BUFFER_STAGGER))
        lead = _STAGE_BUFFER_STAGGER // 2
        return bufs[:, lead : lead + size]

    def _forward_rows(self, data: np.ndarray, t0: int, t1: int) -> None:
        n = self.ring_degree
        rows = int(data.shape[0])
        bufs = self._stage_buffers(rows)
        q3 = self._col3[t0:t1]
        tq3 = self._two3[t0:t1]
        grid = self._grid
        t = n
        for tw, sh in self._fw_stages:
            t //= 2
            view = data.reshape(rows, -1, 2 * t)
            self._lazy_butterflies(
                view[:, :, :t], view[:, :, t:], tw[t0:t1], sh[t0:t1], q3, tq3,
                bufs.reshape(4, rows, -1, t),
            )
        if grid:
            block = self._block
            gbuf = modmath._scratch("ntt-grid", (rows, block, grid))
            np.copyto(gbuf, data.reshape(rows, grid, block).transpose(0, 2, 1))
            q4 = self._col4[t0:t1]
            tq4 = self._two4[t0:t1]
            for tw, sh in self._fw_trans:
                t //= 2
                view = gbuf.reshape(rows, -1, 2 * t, grid)
                self._lazy_butterflies(
                    view[:, :, :t, :], view[:, :, t:, :], tw[t0:t1], sh[t0:t1],
                    q4, tq4, bufs.reshape(4, rows, -1, t, grid),
                )
            np.copyto(data.reshape(rows, grid, block), gbuf.transpose(0, 2, 1))
        # Canonicalize the lazy representatives once (dword rows from
        # [0, 4q), see :meth:`_dword_butterflies`).
        if self.dword:
            modmath._fast_reduce_once(data, self._two3[t0:t1, :, 0])
        modmath._fast_reduce_once(data, self._base_col[t0:t1])

    def _inverse_rows(self, data: np.ndarray, t0: int, t1: int) -> None:
        rows = int(data.shape[0])
        bufs = self._stage_buffers(rows)
        q3 = self._col3[t0:t1]
        tq3 = self._two3[t0:t1]
        grid = self._grid
        t = 1
        if grid:
            block = self._block
            gbuf = modmath._scratch("ntt-grid", (rows, block, grid))
            np.copyto(gbuf, data.reshape(rows, grid, block).transpose(0, 2, 1))
            q4 = self._col4[t0:t1]
            tq4 = self._two4[t0:t1]
            for tw, sh in reversed(self._inv_trans):
                view = gbuf.reshape(rows, -1, 2 * t, grid)
                self._lazy_gs_butterflies(
                    view[:, :, :t, :], view[:, :, t:, :], tw[t0:t1], sh[t0:t1],
                    q4, tq4, bufs.reshape(4, rows, -1, t, grid),
                )
                t *= 2
            np.copyto(data.reshape(rows, grid, block), gbuf.transpose(0, 2, 1))
        for tw, sh in reversed(self._inv_stages):
            view = data.reshape(rows, -1, 2 * t)
            self._lazy_gs_butterflies(
                view[:, :, :t], view[:, :, t:], tw[t0:t1], sh[t0:t1], q3, tq3,
                bufs.reshape(4, rows, -1, t),
            )
            t *= 2
        # Rows are left lazy (< 2q); the caller's fused N^-1 Shoup scaling
        # accepts any uint64 input and canonicalizes.

    def _shoup_quotient(self, x, sh, q, out, spare) -> None:
        """``out = q * floor(x * w / q)`` up to a few ``q``, from ``w``'s companion.

        The single-word estimate is a 32-bit shift and leaves ``x * w - out``
        in ``[0, 2q)``.  The dword estimate is the three-product quotient
        from the companion's digit halves (``spare`` is its scratch), up to
        three short for *any* uint64 ``x``: ``x * w - out`` lands in
        ``[0, 4q)`` and the butterfly folds it with one minimum against ``2q``.
        """
        if self.dword:
            modmath._dword_shoup_quotient(x, sh[:, 0], sh[:, 1], out, spare)
            out *= q
        else:
            np.multiply(x, sh, out=out)
            out >>= modmath.STACK_SHOUP_SHIFT
            out *= q

    def _lazy_butterflies(self, u, x, tw, sh, q, two_q, bufs) -> None:
        """One forward stage on lazy representatives, entirely in scratch.

        ``v = (x * tw) mod-ish q`` lands in ``[0, 2q)`` (Shoup, no final
        correction); ``low = u + v`` and ``high = u + 2q - v`` are folded
        back below ``2q`` with one subtract+minimum each (the uint64
        wraparound of the min-trick; sums stay below ``4q < 2**64``).
        """
        if self.dword:
            self._dword_butterflies(u, x, tw, sh, q, two_q, bufs)
            return
        buf_v, buf_q, buf_lo, buf_hi = bufs
        self._shoup_quotient(x, sh, q, buf_q, buf_lo)
        np.multiply(x, tw, out=buf_v)
        buf_v -= buf_q
        np.add(u, two_q, out=buf_hi)
        buf_hi -= buf_v
        np.add(u, buf_v, out=buf_lo)
        # u and x are no longer read; the final minimums write straight
        # into the data views, saving two copy passes.
        np.subtract(buf_lo, two_q, out=buf_q)
        np.minimum(buf_lo, buf_q, out=u)
        np.subtract(buf_hi, two_q, out=buf_q)
        np.minimum(buf_hi, buf_q, out=x)

    def _dword_butterflies(self, u, x, tw, sh, q, two_q, bufs) -> None:
        """:meth:`_lazy_butterflies` on the dword backend (Harvey's butterfly).

        The rows hold ``[0, 4q)`` representatives between stages: ``u``
        and the three-product Shoup product ``v`` (also in ``[0, 4q)``) are
        each folded below ``2q`` with one minimum, and ``u + v`` and
        ``u + 2q - v`` -- both below ``4q < 2**64`` -- are stored as they
        are.  Two minimums per butterfly, as on the single-word backend.
        """
        buf_v, buf_q, buf_lo, buf_hi = bufs
        self._shoup_quotient(x, sh, q, buf_q, buf_lo)
        np.multiply(x, tw, out=buf_v)
        buf_v -= buf_q
        np.subtract(buf_v, two_q, out=buf_q)
        np.minimum(buf_v, buf_q, out=buf_v)
        np.subtract(u, two_q, out=buf_q)
        np.minimum(u, buf_q, out=buf_lo)
        np.add(buf_lo, two_q, out=buf_hi)
        np.subtract(buf_hi, buf_v, out=x)
        np.add(buf_lo, buf_v, out=u)

    def _lazy_gs_butterflies(self, u, v, tw, sh, q, two_q, bufs) -> None:
        """One inverse (Gentleman-Sande) stage on lazy representatives."""
        if self.dword:
            self._dword_gs_butterflies(u, v, tw, sh, q, two_q, bufs)
            return
        buf_v, buf_q, buf_lo, buf_hi = bufs
        np.add(u, v, out=buf_lo)
        np.add(u, two_q, out=buf_hi)
        buf_hi -= v
        # u and v are no longer read as inputs from here on.
        np.subtract(buf_lo, two_q, out=buf_q)
        np.minimum(buf_lo, buf_q, out=u)
        np.subtract(buf_hi, two_q, out=buf_q)
        np.minimum(buf_hi, buf_q, out=buf_hi)
        self._shoup_quotient(buf_hi, sh, q, buf_q, buf_v)
        np.multiply(buf_hi, tw, out=buf_v)
        np.subtract(buf_v, buf_q, out=v)

    def _dword_gs_butterflies(self, u, v, tw, sh, q, two_q, bufs) -> None:
        """:meth:`_lazy_gs_butterflies` on the dword backend, ``[0, 2q)`` rows.

        The three-product quotient takes any uint64 operand, so
        ``u + 2q - v`` goes into the Shoup multiply unfolded; its product,
        in ``[0, 4q)``, takes the minimum instead.
        """
        buf_v, buf_q, buf_lo, buf_hi = bufs
        np.add(u, v, out=buf_lo)
        np.add(u, two_q, out=buf_hi)
        buf_hi -= v
        np.subtract(buf_lo, two_q, out=buf_q)
        np.minimum(buf_lo, buf_q, out=u)
        self._shoup_quotient(buf_hi, sh, q, buf_q, buf_v)
        np.multiply(buf_hi, tw, out=buf_v)
        buf_v -= buf_q
        np.subtract(buf_v, two_q, out=buf_q)
        np.minimum(buf_v, buf_q, out=v)


@lru_cache(maxsize=128)
def get_stacked_engine(ring_degree: int, moduli: tuple[int, ...]) -> StackedNTTEngine:
    """Return a cached :class:`StackedNTTEngine` for a moduli tuple.

    Each CKKS level (and key-switching sub-basis, and the fused
    concatenated tuples of the batched rescale/ModDown paths) reuses its
    stacked twiddle matrices across every polynomial.  The cache is
    bounded because each entry holds several ``(L, N)`` tables; evicted
    engines rebuild cheaply from the per-modulus :func:`twiddle_tables`,
    which stay cached.
    """
    return StackedNTTEngine(ring_degree, moduli)


def _transform_in_place(
    ring_degree: int,
    moduli: tuple[int, ...],
    sources: Sequence[np.ndarray],
    dst: np.ndarray,
    *,
    forward: bool,
) -> None:
    """Stage ``sources`` into ``dst`` and (i)NTT it in place (replay helper).

    ``sources`` are the row blocks a recorded transform read -- one per
    member of a fused stack; none (or ``dst`` itself) for an in-place launch.
    """
    gather_rows(sources, dst)
    engine = get_stacked_engine(ring_degree, moduli)
    res = (engine.forward if forward else engine.inverse)(dst, consume=True)
    if res is not dst:
        np.copyto(dst, res)


def _unfused_launches(tag: str, n: int, given: int, before: int, after: int,
                      prologue: Fused | None, epilogue: Fused | None) -> tuple:
    """A transform launch's unfused form (see ``TraceEvent.unfused``).

    The event reads ``given`` source blocks, then the prologue's ``before``
    and the epilogue's ``after`` blocks, and writes its rows.  Unfused, the
    prologue is a launch of its own, then ``log2 N`` butterfly stages each
    stream the rows through memory (the first reads the sources, when there
    are any), the iNTT scales by ``N^-1`` in another, and the epilogue
    folds last -- how a GPU runs the transform before the §III-F.4/F.5
    fusions.
    """
    rows = ((1, 0),)
    launches = []
    if prologue is not None:
        launches.append((prologue.tag, prologue.ops_per_element,
                         tuple((0, given + i) for i in range(before)), (0,)))
    first = tuple((0, i) for i in range(given)) or rows
    # One radix-2 butterfly covers two elements.
    launches.extend(
        (f"{tag}-stage{s}", BUTTERFLY_OPS / 2.0, rows if s else first, (0,))
        for s in range(n.bit_length() - 1)
    )
    if tag == "intt":
        launches.append((f"{tag}-scale", SHOUP_MUL_OPS, rows, (0,)))
    if epilogue is not None:
        launches.append((epilogue.tag, epilogue.ops_per_element, rows + tuple(
            (0, given + before + i) for i in range(after)), (0,)))
    return tuple(launches)


__all__ = [
    "Fused",
    "StackedNTTEngine",
    "bit_reverse_indices",
    "is_power_of_two",
    "twiddle_tables",
    "reference_transform",
    "get_stacked_engine",
]
