"""Negacyclic Number Theoretic Transform (NTT): one engine, one oracle.

Polynomial multiplication in ``Z_q[X]/(X^N + 1)`` is carried out in the
evaluation domain: the forward NTT maps a coefficient vector to its
evaluations at the odd powers of a 2N-th root of unity ``ψ``, where
multiplication is element-wise.  The forward transform takes normal-order
input to bit-reversed output and the inverse the other way round, so no
explicit bit reversal is ever needed.

* :func:`twiddle_tables` validates ``(N, q)`` and caches the
  bit-reversed ``ψ``/``ψ⁻¹`` tables and ``N⁻¹`` per modulus;
* :class:`StackedNTTEngine` is the only engine: it transforms every row
  of a flat ``(rows, N)`` limb stack at once, on every word-sized modulus
  (``q < 2**62``: the uint64 and the double-word backends alike), with one
  compiled radix-2 kernel (the ``ntt`` entry point of the word kernel,
  :func:`repro.core.modmath.word_kernel`) over the per-``(N, q)``
  tables of :func:`kernel_tables`: Cooley-Tukey / Gentleman-Sande
  butterflies with 64-bit Shoup twiddles (Table III) on lazy ``[0, 4q)``
  representatives, FIDESlib's one hand-written kernel per transform
  (§III-F.4);
* :func:`reference_transform` is the exact-integer oracle: the production
  path for moduli at or above 2**62 and the reference every test compares
  the kernel against.

The engine is also where a transform *launch* is described.  FIDESlib folds
element-wise work into its (i)NTT kernels (§III-F.5: rescale, ModDown); a
call hands that work over as a :class:`Fused` prologue/epilogue next to the
row blocks it reads, the engine runs it around the one stacked transform
and records the fused launch itself (:meth:`StackedNTTEngine._record`).  On
the uint64 backend the event also carries its unfused form as plain data --
the prologue's launch, the ``log2 N`` radix-2 butterfly-stage launches of
the modeled GPU baseline, the iNTT's ``N^-1`` scale and the epilogue's
launch -- which :func:`repro.core.fusion.expand_stages` turns into the
per-stage stream.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

import numpy as np

from repro.core import modmath
from repro.core.dispatch import DISPATCH, gather_rows
from repro.core.primes import find_root_of_unity, is_prime
from repro.gpu.kernel import BUTTERFLY_OPS, SHOUP_MUL_OPS


def bit_reverse_indices(n: int) -> np.ndarray:
    """Return the bit-reversal permutation of ``range(n)`` (n a power of two)."""
    if not is_power_of_two(n):
        raise ValueError(f"bit reversal needs a power of two, got {n}")
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
    residues as :func:`repro.core.modmath.lift_residues` stores them.
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
    if (q - 1) % (2 * n) != 0 or not is_prime(q):
        raise ValueError(f"modulus {q} is not NTT-friendly for N={n}")
    psi = find_root_of_unity(2 * n, q)
    if modmath.pow_mod(psi, 2 * n, q) != 1 or modmath.pow_mod(psi, n, q) == 1:
        raise ValueError("psi is not a primitive 2N-th root of unity")
    rev = bit_reverse_indices(n)
    return (
        modmath.read_only(_powers(psi, n, q)[rev]),
        modmath.read_only(_powers(modmath.inv_mod(psi, q), n, q)[rev]),
        modmath.inv_mod(n, q),
    )


def _powers(root: int, n: int, q: int) -> np.ndarray:
    """``root**i mod q`` for ``i < n`` (a power of two), in the stack dtype of
    ``q``: by doubling, ``powers[k:2k] = powers[:k] · root**k``, one
    vectorised product per step."""
    col = modmath.moduli_column((q,))
    powers = modmath.stack_zeros(1, n, col)
    powers[0, 0] = 1
    k, step = 1, root
    with DISPATCH.suppressed():
        while k < n:
            modmath.stack_scalar_mod(powers[:, :k], (step,), col, out=powers[:, k : 2 * k])
            k, step = 2 * k, step * step % q
    return powers[0]


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


@lru_cache(maxsize=256)
def kernel_tables(ring_degree: int, modulus: int) -> np.ndarray:
    """The compiled kernel's tables of one ``(N, q)``, ``q < 2**62``.

    A read-only ``(2, N, 2)`` uint64 array: per direction (forward, then
    inverse) the :func:`twiddle_tables` row with each twiddle ``w`` next to
    its Shoup companion ``floor(w * 2**64 / q)`` (computed by the kernel's
    ``shoup_companions``, in 128-bit integers), so a butterfly reads
    both from one cache line.  No stage reads entry 0, so the inverse's
    holds ``N⁻¹`` instead, for the kernel's last pass.  Cached per ``(N,
    q)`` with the same bound as :func:`twiddle_tables`; an engine points
    each row at its modulus' table and holds the array, never a copy.
    """
    forward, inverse, n_inv = twiddle_tables(ring_degree, modulus)
    tables = np.empty((2, ring_degree, 2), dtype=np.uint64)
    tables[..., 0] = (forward, inverse)
    tables[1, 0, 0] = n_inv
    modmath.word_kernel().shoup_companions(tables.ctypes.data, 2 * ring_degree, modulus)
    return modmath.read_only(tables)


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

    Every word-sized stack runs one compiled kernel (the word kernel's
    ``ntt``): per row, ``log2 N`` radix-2 stages -- Cooley-Tukey forward,
    Gentleman-Sande inverse -- of Harvey butterflies on lazy ``[0, 4q)``
    representatives, each twiddle product a Shoup multiply with a 128-bit
    quotient, then one pass that makes the row canonical (and, for the
    inverse, multiplies by ``N⁻¹``).  The butterflies run in :func:`reference_transform`'s order,
    so the results are bit-identical to it on any input in ``[0, 2q)``,
    canonical or lazy.  This is also the schedule the
    modeled GPU baseline prices (:func:`_unfused_launches`).  The exact
    (``>= 2**62``) backend runs :func:`reference_transform` itself.

    The kernel takes one table address per row.  Fused cross-ciphertext
    calls (the throughput plane) transform stacks whose moduli tuple is a
    tiling of a shorter base -- ``B`` members at the same level repeat the
    same ``L`` primes -- or runs of one modulus (ModUp's limb-major
    layout); every row of a modulus points at the one cached table of
    :func:`kernel_tables`, as a GPU keeps one twiddle table in constant
    memory however many ciphertexts a kernel covers.
    """

    def __init__(self, ring_degree: int, moduli: Sequence[int]) -> None:
        self.ring_degree = ring_degree
        self.moduli = tuple(int(q) for q in moduli)
        col = modmath.moduli_column(self.moduli)
        self.backend = modmath.stack_backend(col)
        self.fast = self.backend == modmath.BACKEND_UINT64
        self._col = col
        distinct = dict.fromkeys(self.moduli)
        for q in distinct:
            twiddle_tables(ring_degree, q)  # validates (N, q)
        if self.backend == modmath.BACKEND_OBJECT:
            # The exact backend keeps no tables -- reference_transform is
            # its whole transform.
            return
        self._ntt = modmath.word_kernel().ntt
        # The engine holds the cached tables its rows point into, so an
        # eviction from kernel_tables cannot free memory the kernel reads.
        self._tables = {q: kernel_tables(ring_degree, q) for q in distinct}
        #: Per direction, the address of each row's table.
        self._row_tables = modmath.read_only(np.array(
            [[self._tables[q][d].ctypes.data for q in self.moduli] for d in (0, 1)],
            dtype=np.uint64,
        ))
        #: The kernel's table arguments per direction: each row's modulus
        #: and each row's table, as addresses.
        self._arguments = tuple(
            (col.ctypes.data, rows.ctypes.data) for rows in self._row_tables
        )

    def _check_operand(self, stack: np.ndarray) -> None:
        """Reject a stack that is not one length-``N`` row per modulus."""
        if stack.shape != (len(self.moduli), self.ring_degree):
            raise ValueError(
                f"stack of shape {stack.shape} does not match the engine: "
                f"expected ({len(self.moduli)}, {self.ring_degree}) residues"
            )

    def _working_copy(self, stack: np.ndarray, consume: bool) -> np.ndarray:
        a = modmath.coerce_stack(stack, self._col)
        if (consume and a.flags.c_contiguous and a.flags.writeable
                and a.dtype == self._col.dtype):
            # The caller relinquished ownership (and any dtype coercion
            # already produced a fresh array), so transform in place.
            return a
        return np.array(a, dtype=self._col.dtype, order="C")

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
        with DISPATCH.suppressed():
            if prologue is not None:
                prologue.fn(tuple(prologue.reads), (a,))
            if self.backend == modmath.BACKEND_OBJECT:
                a[...] = reference_transform(a, self.moduli, inverse=inverse)
            else:
                # The kernel writes raw memory: one C-contiguous uint64 row
                # per modulus, as _working_copy and np.empty give it.
                if not (a.flags.c_contiguous and a.flags.writeable
                        and a.dtype == np.uint64):
                    raise ValueError("the NTT kernel needs a writable C-contiguous "
                                     f"uint64 stack, got {a.dtype} {a.flags}")
                self._ntt(a.ctypes.data, rows, self.ring_degree,
                          *self._arguments[inverse], inverse)
            if epilogue is not None:
                epilogue.fn((a, *epilogue.reads), (a,))
        if DISPATCH.recording:
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
            DISPATCH.segment = index
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

            DISPATCH.transform(
                tag, part, reads=(*given, *before, *after), writes=(dst,),
                cols=n, fused_ops_per_element=fused_ops_per_element,
                replay=replay, unfused=unfused,
            )


@lru_cache(maxsize=128)
def get_stacked_engine(ring_degree: int, moduli: tuple[int, ...]) -> StackedNTTEngine:
    """Return a cached :class:`StackedNTTEngine` for a moduli tuple.

    Each CKKS level (and key-switching sub-basis, and the fused
    concatenated tuples of the batched rescale/ModDown paths) reuses its
    row table addresses across every polynomial.  The cache is bounded
    because each entry keeps its moduli's :func:`kernel_tables` alive;
    evicted engines rebuild cheaply from those, which stay cached.
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
    "kernel_tables",
    "bit_reverse_indices",
    "is_power_of_two",
    "twiddle_tables",
    "reference_transform",
    "get_stacked_engine",
]
