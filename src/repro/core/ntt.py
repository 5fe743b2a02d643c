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
  of a flat ``(rows, N)`` limb stack at once.  Moduli below 2**31 (the
  uint64 backend) take the hierarchical transform of §III-F.4 as exact
  float64 matrix steps -- GEMMs of small DFTs around one twiddle
  ``twist``, the matrix-unit mapping of TensorFHE -- over the
  per-``(N, q)`` factors of :func:`gemm_tables`: two sides below
  ``N = 2**12``, three from there; the double-word backend runs radix-2
  Cooley-Tukey / Gentleman-Sande butterflies with 64-bit Shoup twiddles
  (Table III) on lazy ``[0, 2q)`` representatives;
* :func:`reference_transform` is the exact-integer oracle: the production
  path for moduli at or above 2**62 and the reference every test compares
  the vectorized paths against.

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

import math
from functools import cached_property, lru_cache
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
    if (q - 1) % (2 * n) != 0 or not is_prime(q):
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
    return (
        modmath.read_only(modmath.as_residue_array(powers[rev], q)),
        modmath.read_only(modmath.as_residue_array(inv_powers[rev], q)),
        modmath.inv_mod(n, q),
    )


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


#: Bits of the low half a GEMM data operand is split into,
#: ``x = h * 2**15 + l``.  Residues are kept centred, ``|x| <= (q+1)/2 <=
#: 2**30`` for ``q < 2**31``, so ``|h| <= 2**15`` and ``|l| <= 2**14``.
#: The operand's high half is kept as ``h * 2**15``: adding and subtracting
#: ``1.5 * 2**67`` rounds any ``|x| < 2**66`` to the nearest multiple of
#: 2**15 (the float64 spacing there), and the factor half it meets carries
#: ``2**-15``, so each product is still the integer ``h * w``.
_SPLIT_BITS = 15
_SPLIT_ROUND = 1.5 * 2.0 ** (52 + _SPLIT_BITS)

#: Largest inner dimension ``k`` of an exact GEMM step: a factor entry is
#: centred too, ``|w| < 2**30``, so a dot product of a split operand is at
#: most ``k * 2**30 * (2**15 + 2**14) <= 1.5 * 2**52`` -- every partial sum
#: is an integer below 2**53 and exact in float64, whatever order BLAS
#: adds in.  Every side of a plan is a step's inner dimension, and three
#: sides of at most 128 cover ``N <= 2**21``.
_GEMM_MAX_SIDE = 128

#: Largest inner dimension of a first step that takes the rows as they
#: come, any residue below 2**32 (canonical or lazy), without centring
#: them: ``|h| <= 2**17``, so its sums stay below ``k * 2**30 * (2**17 +
#: 2**14) <= 1.125 * 2**52``.  A wider first step centres its operand.
_UNCENTRED_MAX_SIDE = 32

#: Smallest ring cut into three sides; smaller rings keep two.
_THREE_SIDES_FROM = 1 << 12


def _gemm_sides(ring_degree: int) -> tuple[int, int, int]:
    """The plan ``(n1, n2, n3)`` with ``N = n1 * n2 * n3``.

    From ``N = 2**12`` a row is an ``(n1, n2, n3)`` cube with ``n3 =
    2**ceil(log2(N) / 3)`` and the rest halved as evenly, ``n1 >= n2``
    (``16 * 16 * 32`` at ``2**13``); below it the two sides ``n1 =
    2**ceil(log2(N) / 2)`` and ``n3 = N / n1``, with ``n2 = 1``: the same
    steps with the middle one left out.
    """
    bits = ring_degree.bit_length() - 1
    if ring_degree < _THREE_SIDES_FROM:
        n1 = 1 << ((bits + 1) // 2)
        return n1, 1, ring_degree // n1
    n3 = 1 << -(-bits // 3)
    rest = bits - (n3.bit_length() - 1)
    n1 = 1 << ((rest + 1) // 2)
    return n1, (1 << rest) // n1, n3


def _plan_steps(sides: tuple[int, int, int]) -> list[tuple[str, tuple, tuple]]:
    """The forward steps of a plan, as ``(kind, row dims, factor dims)``.

    A row of ``N = n1 * n2 * n3`` values is viewed ``row dims`` for the
    step: ``"left"`` multiplies it by its factor from the left (``W1`` over
    ``n1``, then one ``M2[p1]`` per ``p1`` over ``n2``), ``"twist"``
    element-wise, ``"right"`` from the right (``W3^T`` over ``n3``).  The
    inverse runs the same steps in reverse order.  A plan with ``n2 = 1``
    has no middle step.
    """
    n1, n2, n3 = sides
    steps = [
        ("left", (n1, n2 * n3), (n1, n1)),
        ("left", (n1, n2, n3), (n1, n2, n2)),
        ("twist", (n1, n2, n3), (n1, n2, n3)),
        ("right", (n1 * n2, n3), (n3, n3)),
    ]
    return steps if n2 > 1 else steps[:1] + steps[2:]


def _factor_views(packed: np.ndarray, sides: tuple[int, int, int], inverse: bool,
                  shape: tuple[int, ...]) -> list[np.ndarray]:
    """The factors of the ``(m, size)`` packed rows (:func:`gemm_tables`) of
    ``m = prod(shape)`` moduli in the order the transform applies them,
    each laid out ``(2, *shape, *dims)``: the split halves lead, then the
    rows' batch axes (views, no copy)."""
    steps = _plan_steps(sides)
    views, start = [], 0
    for _, _, dims in reversed(steps) if inverse else steps:
        stop = start + 2 * math.prod(dims)
        block = packed[:, start:stop]
        if len(packed) > 1:
            block = block.reshape(-1, 2, *dims).swapaxes(0, 1)
        views.append(block.reshape(2, *shape, *dims))
        start = stop
    return views


@lru_cache(maxsize=128)
def gemm_tables(ring_degree: int, modulus: int) -> tuple[np.ndarray, np.ndarray]:
    """The forward and inverse factors of one ``(N, q)``, each one packed
    float64 row.

    With the plan ``N = n1 * n2 * n3`` (:func:`_gemm_sides`), a row
    ``a.reshape(n1, n2, n3)`` and ``r`` the bit reversal of an index, the
    forward transform is a left product with ``W1[p1, j1] = ψ^((2 r(p1) +
    1) n2 n3 j1)``; per ``p1`` a left product with ``M2[p1][p2, j2] =
    ψ^((2 n1 n3 r(p2) + (2 r(p1) + 1) n3) j2)``, which carries the first
    twist; the twist ``B[p1, p2, j3] = ψ^((2 r(p1) + 1 + 2 n1 r(p2)) j3)``;
    and a right product with ``W3^T``, ``W3[p3, j3] = ψ^(2 n1 n2 r(p3)
    j3)``.  Taking every row in bit-reversed order makes the result the
    engine's bit-reversed output as it lies.  The inverse is the mirror
    image over ``ψ⁻¹`` -- ``W3'``, ``B'``, ``M2'[p1]^T``, ``W1'^T`` -- with
    ``N⁻¹`` folded into its last factor.  With ``n2 = 1`` (``N < 2**12``)
    ``M2`` is 1 and left out: ``W1``, ``B`` and ``W3`` are the two-sided
    four-step transform.

    Entries are centred residues.  Every factor carries the split
    ``x = h * 2**15 + l`` of the operand it multiplies as a pair
    ``[(F * 2**15 mod q) * 2**-15, F]``: the first half multiplies the high
    half as the kernel keeps it, ``h * 2**15``, the second ``l``, and the
    halves add up to ``F x mod q`` up to one reduction.  A row
    holds the pairs in the order the transform applies them
    (:func:`_plan_steps`), so a chunk of rows over several moduli gathers
    every factor it needs in one copy (:func:`_factor_views` cuts them
    out).  Cached per ``(N, q)`` like :func:`twiddle_tables` and
    read-only; an engine looks its factors up per call and never keeps a
    copy.
    """
    n, q = ring_degree, modulus
    n1, n2, n3 = _gemm_sides(n)
    forward_table, _, n_inv = twiddle_tables(n, q)
    natural = forward_table.astype(np.int64)[bit_reverse_indices(n)]  # ψ^e

    def power(exponents):
        e = np.asarray(exponents, dtype=np.int64) % (2 * n)
        values = natural[e % n]
        return np.where(e >= n, (q - values) % q, values)  # ψ^N = -1

    lift = pow(2, _SPLIT_BITS, q)

    def centred(values):
        return np.where(values > q // 2, values - q, values).astype(np.float64)

    def packed(*factors):
        """``[F 2**15 / 2**15, F]`` of each factor, centred (the first half
        scaled after centring, so it stays exact), in one float64 row."""
        halves = []
        for values in factors:
            values = np.asarray(values, dtype=np.int64) % q
            halves += [centred(values * lift % q) / 2.0**_SPLIT_BITS, centred(values)]
        return modmath.read_only(np.concatenate([h.ravel() for h in halves]))

    odd = 2 * bit_reverse_indices(n1)[:, None, None] + 1  # 2 r(p1) + 1
    rows2 = bit_reverse_indices(n2)[None, :, None]         # r(p2)
    rows3 = bit_reverse_indices(n3)[:, None]               # r(p3)
    outer = odd[:, :, 0] * n2 * n3 * np.arange(n1)         # (p1, j1)
    middle = (2 * n1 * n3 * rows2 + odd * n3) * np.arange(n2)  # (p1, p2, j2)
    twist = (odd + 2 * n1 * rows2) * np.arange(n3)         # (p1, p2, j3)
    inner = 2 * n1 * n2 * rows3 * np.arange(n3)            # (p3, j3)
    forward = [power(outer), power(middle), power(twist), power(inner).T]
    inverse = [power(-inner), power(-twist), power(-middle).swapaxes(1, 2),
               power(-outer).T * n_inv]
    if n2 == 1:
        del forward[1], inverse[2]
    return packed(*forward), packed(*inverse)


#: Contiguous block size (elements) below which radix-2 stages run in a
#: transposed layout.  Stages with butterfly half-width ``t < BLOCK/2``
#: touch tiny strided slices that defeat vectorization; transposing the
#: ``(blocks, BLOCK)`` grid once turns their inner axis into long
#: contiguous runs -- the same locality argument as the paper's four-step
#: NTT (§III-F.4, Figure 3), applied to the CPU cache hierarchy.
_TRANSPOSED_BLOCK = 16

#: Scratch bytes one chunk of rows may use -- the CPU analogue of the
#: paper's ``limb_batch`` parameter (§III-F.1, Figure 7): batches must be
#: wide enough to amortize kernel overhead but small enough that the
#: working set stays resident in the private cache.  The butterflies stage
#: :data:`_SCRATCH_PER_COEFF` bytes per coefficient: four half-row stage
#: buffers, a transposed grid row and a reduction row of uint64.  The GEMM
#: transform takes the same row count and stages more: six float64 planes
#: per row, plus the packed factors of up to one modulus per row when a
#: chunk holds several (seven words per coefficient at ``N = 2**9``; with
#: three sides about four, two each for the middle factors and the twist; a
#: chunk of one modulus reads its factors in place).  24 rows at
#: ``N = 2**9``, three at ``N = 2**12`` (three-sided cubes with gathered
#: middle factors) and one from ``N = 2**13``.
_NTT_CHUNK_BYTES = 384 << 10
_SCRATCH_PER_COEFF = 32

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

    One engine, two kernels chosen from ``(max q, N)`` alone:

    * **Hierarchical GEMMs** for moduli below 2**31 (every uint64 stack,
      up to ``N = 2**21``): each row is an ``(n1, n2, n3)`` cube
      (:func:`_gemm_sides`, ``16 * 16 * 32`` at ``N = 2**13``), and the
      transform is a left product with ``W1``, a left product with one
      ``M2[p1]`` per ``p1`` that carries the first twist, one twist and a
      right product with ``W3^T`` (:func:`gemm_tables`) -- three stacked
      GEMMs per chunk of rows instead of ``log2 N`` sweeps, the
      hierarchical NTT of §III-F.4 with the small DFTs on matrix units as
      in TensorFHE.  Below ``N = 2**12`` the plan has two sides and no
      middle step.  Values are centred float64 residues; a data operand is
      split into 15-bit halves, so every product sum is an exact integer
      below 2**53 and one ``x - q * rint(x / q)`` reduces it.
    * **Radix-2 butterflies** for everything else word-sized (the dword
      backend): stacking the
      per-modulus twiddle tables into ``(L, N)`` matrices lets one pass of
      ``log2 N`` broadcast expressions transform every limb at once, with
      64-bit Shoup companions and double-word products, on lazy
      ``[0, 2q)`` representatives.  The last ``log2(BLOCK)`` stages only
      move data within contiguous ``BLOCK``-sized runs, so they execute on
      a transposed ``(L, BLOCK, N/BLOCK)`` grid where the vectorized inner
      axis stays long.  This is also the schedule the modeled GPU baseline
      prices (:func:`_unfused_launches`).

    Results are bit-identical to :func:`reference_transform` on both: every
    GEMM partial sum is exact, and the butterflies execute in the oracle's
    order on the same residues, merely staged through another layout.

    Fused cross-ciphertext calls (the throughput plane) transform stacks
    whose moduli tuple is a *tiling* of a shorter base -- ``B`` members at
    the same level repeat the same ``L`` primes.  The engine reads tables
    only for the distinct moduli: a GPU keeps one twiddle table in
    constant memory no matter how many ciphertexts a kernel covers, and
    duplicating the tables ``B×`` on the CPU would just evict them from
    cache.  The GEMM kernel gathers the factors of a chunk's distinct
    moduli into scratch once per call (a chunk of one modulus reads them in
    place) and broadcasts them over the members of a tiling or the rows of
    a run, so each step of a chunk is one ``np.matmul`` over every row; the
    butterflies walk a tiled stack one repeat period at a time
    (single-modulus tilings broadcast one table row over the whole stack).
    Neither changes a residue.
    """

    def __init__(self, ring_degree: int, moduli: Sequence[int]) -> None:
        self.ring_degree = ring_degree
        self.moduli = tuple(int(q) for q in moduli)
        col = modmath.moduli_column(self.moduli)
        self.backend = modmath.stack_backend(col)
        self.fast = self.backend == modmath.BACKEND_UINT64
        self._col = col
        #: Rows of one chunk, by the scratch byte budget.
        self._chunk_rows = max(
            1, _NTT_CHUNK_BYTES // (_SCRATCH_PER_COEFF * ring_degree)
        )
        for q in dict.fromkeys(self.moduli):
            twiddle_tables(ring_degree, q)  # validates (N, q)
        #: The GEMM kernel's precondition (see ``_GEMM_MAX_SIDE``): every
        #: uint64 stack up to ``N = 2**21``.
        self.gemm = self.fast and max(_gemm_sides(ring_degree)) <= _GEMM_MAX_SIDE
        if self.backend == modmath.BACKEND_OBJECT:
            # The exact backend keeps no tables -- reference_transform is
            # its whole transform.
            return
        length = len(self.moduli)
        if self.gemm:
            #: The GEMM kernel's chunks (:meth:`_gemm_chunks`).
            self._blocks = self._gemm_chunks(self.moduli, self._chunk_rows)
            self._qf = modmath.read_only(col.astype(np.float64))
            self._qinv = modmath.read_only(1.0 / self._qf)
            return
        # Twiddle tables cover one row per *distinct* chunk modulus: fused
        # cross-ciphertext stacks repeat a short base either member-major
        # (the tuple tiles with some period) or limb-major (runs of one
        # modulus), and materializing the repeats would only evict the
        # tables from cache.
        base = self.moduli
        #: ``(row_lo, row_hi, table_lo, table_hi)`` processing chunks.
        #: Non-repeating stacks walk budget-sized chunks with matching
        #: table rows; member-major tilings walk one repeat period per
        #: chunk; limb-major runs walk one run per chunk with its single
        #: table row broadcast over the run's data rows.
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
            step = self._chunk_rows
            self._chunks = [
                (r0, min(r0 + step, length), r0, min(r0 + step, length))
                for r0 in range(0, length, step)
            ]
        #: The distinct moduli the stage tables cover, one row each.
        self._table_moduli = base
        base_col = modmath.moduli_column(base)
        self._base_col = base_col
        self._col3 = base_col.reshape(-1, 1, 1)
        self._col4 = base_col.reshape(-1, 1, 1, 1)
        # 2q columns for the lazy [0, 2q) butterfly representatives
        # (2q < 2**63 for every dword modulus, so sums stay below 4q < 2**64).
        self._two3 = modmath.read_only(self._col3 * np.uint64(2))
        self._two4 = self._two3.reshape(-1, 1, 1, 1)
        self._n_inv = [twiddle_tables(ring_degree, q)[2] for q in self.moduli]
        self._block = _TRANSPOSED_BLOCK
        self._grid = 0
        if self.ring_degree >= 2 * self._block:
            self._grid = self.ring_degree // self._block

    # An engine builds a direction's stage tables on its first transform in
    # that direction: most stacks only ever run one (a ModDown's special
    # limbs go in, a ModUp's extended digits come out), and a dword table
    # set is three (rows, N) words per modulus.  A second thread racing the
    # first build computes the same read-only tables.

    @cached_property
    def _forward_tables(self) -> tuple[list, list]:
        """The forward ``(stages, transposed stages)`` (:meth:`_stage_tables`)."""
        return self._stage_tables([
            twiddle_tables(self.ring_degree, q)[0] for q in self._table_moduli
        ])

    @cached_property
    def _inverse_tables(self) -> tuple[list, list]:
        """The inverse ``(stages, transposed stages)`` (:meth:`_stage_tables`)."""
        return self._stage_tables([
            twiddle_tables(self.ring_degree, q)[1] for q in self._table_moduli
        ])

    @classmethod
    def _gemm_chunks(cls, moduli: tuple[int, ...], chunk_rows: int) -> list[tuple]:
        """``(row_lo, row_hi, shape, factor_shape, base)`` for each chunk of
        ``chunk_rows`` rows of ``moduli``, for the GEMM kernel.

        A chunk's rows are a ``shape`` batch over the distinct moduli
        ``base``, whose factors, laid out ``factor_shape``, broadcast over
        the rest: ``(k, p)`` for ``k`` members of a period-``p`` tiling
        (factors ``(1, p)``), ``(p, r)`` for ``p`` runs of ``r`` rows of one
        modulus (factors ``(p, 1)``), else ``(rows,)`` with one modulus per
        row.  So a fused batch gathers each factor once per chunk, not once
        per member.
        """
        chunks = []
        for r0 in range(0, len(moduli), chunk_rows):
            rows = moduli[r0 : r0 + chunk_rows]
            period, runs = cls._repeat_period(rows), cls._runs(rows)
            if period < len(rows):
                shapes = ((len(rows) // period, period), (1, period))
                base = rows[:period]
            elif len(runs) < len(rows) and len({c for _, c in runs}) == 1:
                shapes = ((len(runs), runs[0][1]), (len(runs), 1))
                base = tuple(q for q, _ in runs)
            else:
                shapes, base = ((len(rows),), (len(rows),)), rows
            chunks.append((r0, r0 + len(rows), *shapes, base))
        return chunks

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
        The companions are ``floor(w * 2**64 / q)``, stored as 32-bit digit
        halves on an extra axis 1 so each butterfly's quotient reads
        precomputed operands instead of re-splitting per stage.  Each
        stage's table is copied in the one layout it runs in, so an engine
        holds its twiddles once.
        """
        table = np.stack(rows)
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
                    modmath.read_only(
                        t[..., m : 2 * m].reshape(*t.shape[:-1], m, 1).copy()
                    )
                    for t in (table, shoup)
                ))
            else:
                # Group ``g`` of the stage splits into block ``g // (m/grid)``
                # and in-block subgroup ``g % (m/grid)``; on the transposed
                # ``(L, BLOCK, grid)`` layout the stage's twiddles become an
                # ``(L, m/grid, 1, grid)`` grid.
                transposed.append(tuple(
                    modmath.read_only(
                        t[..., m : 2 * m]
                        .reshape(*t.shape[:-1], grid, m // grid)
                        .swapaxes(-1, -2)[..., None, :]
                        .copy()
                    )
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
        with DISPATCH.suppressed():
            if prologue is not None:
                prologue.fn(tuple(prologue.reads), (a,))
            if self.backend == modmath.BACKEND_OBJECT:
                a[...] = reference_transform(a, self.moduli, inverse=inverse)
            elif self.gemm:
                self._gemm_rows(a, inverse)
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

    # -- the hierarchical GEMM transform ---------------------------------------
    #
    # A chunk of rows runs through three staggered float64 scratch regions
    # of two planes each: ``(x, tmp)`` (the values; the reduction's
    # quotient and the second half of a product), ``(hi, lo)`` (the split
    # operand, ``h * 2**15`` and ``l``) and each row's ``(q, 1/q)`` (a chunk
    # of one modulus reads scalars instead).  Each step of the plan
    # (:func:`_plan_steps`) views them in its own dims and is one stacked
    # ``np.matmul`` over both halves of every row, or one twist, the
    # factors gathered once per chunk and broadcast over its ``shape``.
    # Between steps every value is a centred residue, |x| <= (q+1)/2.

    def _gemm_rows(self, a: np.ndarray, inverse: bool) -> None:
        """Transform the rows of ``a`` in place, chunk by chunk."""
        n = self.ring_degree
        sides = _gemm_sides(n)
        steps = _plan_steps(sides)
        if inverse:
            steps.reverse()
        # Only a first step wider than _UNCENTRED_MAX_SIDE centres its operand.
        centre = steps[0][2][-1] > _UNCENTRED_MAX_SIDE
        bufs = DISPATCH.scratch(
            "ntt-gemm", (3, 2 * self._chunk_rows * n + _STAGE_BUFFER_STAGGER),
            np.float64,
        )
        lead = _STAGE_BUFFER_STAGGER // 2
        for r0, r1, shape, factor_shape, base in self._blocks:
            rows = r1 - r0
            pair, split, columns = bufs[:, lead : lead + 2 * rows * n].reshape(3, 2, rows, n)
            (x, tmp), (hi, lo) = pair, split
            packs = [gemm_tables(n, modulus)[inverse] for modulus in base]
            if len(packs) == 1:
                # One modulus: its cached factors, read in place, and scalars.
                packed = packs[0][None]
                q = float(base[0])
                qinv = 1.0 / q
            else:
                packed = DISPATCH.scratch(
                    "ntt-gemm-factors", (self._chunk_rows, packs[0].size), np.float64
                )[: len(packs)]
                np.concatenate(packs, out=packed.reshape(-1))
                # A ufunc broadcasting a column costs more than reading a plane.
                q, qinv = columns
                np.copyto(q, self._qf[r0:r1])
                np.copyto(qinv, self._qinv[r0:r1])
            factors = _factor_views(packed, sides, inverse, factor_shape)
            # Residues are below 2**32: the int64 view converts in one pass.
            matrix = a[r0:r1].view(np.int64)
            np.copyto(x, matrix)
            if centre:
                _reduce(x, q, qinv, tmp)
            # Forward: W1 and M2 from the left, the twist, W3^T from the
            # right; the inverse runs the mirrored factors in reverse.
            for (kind, dims, _), factor in zip(steps, factors):
                _split(x, hi, lo)
                operand = split.reshape(2, *shape, *dims)
                if kind == "twist":
                    # x * B = (h 2**15) * (B 2**15 / 2**15) + l * B, below 2**46.
                    np.multiply(operand, factor, out=operand)
                    np.add(hi, lo, out=x)
                else:
                    # The product of each half lands in x and tmp.
                    halves = pair.reshape(2, *shape, *dims)
                    if kind == "left":
                        np.matmul(factor, operand, out=halves)
                    else:
                        np.matmul(operand, factor, out=halves)
                    np.add(x, tmp, out=x)
                _reduce(x, q, qinv, tmp)
            # Centred -> canonical [0, q).
            np.less(x, 0.0, out=tmp)
            tmp *= q
            x += tmp
            np.copyto(matrix, x, casting="unsafe")

    # -- the radix-2 stage pipeline -------------------------------------------
    #
    # One chunk of rows runs through the whole stage pipeline while its
    # working set (data + scratch) is cache-resident.  All intermediates
    # live in pooled scratch buffers (no allocator traffic on the hot
    # path), and values travel as lazy representatives -- Harvey's
    # butterflies with three-product 64-bit Shoup quotients
    # (:func:`repro.core.modmath._dword_shoup_quotient`) -- with a single
    # canonicalization at the end, which leaves the output bit-identical to
    # the canonical per-stage computation.
    #
    # ``a`` holds the data rows of the chunk; ``t0:t1`` indexes the twiddle
    # tables.  For tiled stacks the chunk is one repeat period (table rows
    # == data rows); a period of one broadcasts a single table row over
    # every data row of the stack.  Every canonical residue (< 2**62) and
    # lazy representative (< 4q < 2**64) fits the uint64 word it is
    # stored in.

    def _stage_buffers(self, rows: int) -> np.ndarray:
        """The four staggered stage buffers of a ``rows``-row chunk."""
        size = rows * (self.ring_degree // 2)
        bufs = DISPATCH.scratch("ntt-stage", (4, size + _STAGE_BUFFER_STAGGER))
        lead = _STAGE_BUFFER_STAGGER // 2
        return bufs[:, lead : lead + size]

    def _forward_rows(self, data: np.ndarray, t0: int, t1: int) -> None:
        n = self.ring_degree
        rows = int(data.shape[0])
        bufs = self._stage_buffers(rows)
        q3 = self._col3[t0:t1]
        tq3 = self._two3[t0:t1]
        grid = self._grid
        stages, transposed = self._forward_tables
        t = n
        for tw, sh in stages:
            t //= 2
            view = data.reshape(rows, -1, 2 * t)
            _butterflies(
                view[:, :, :t], view[:, :, t:], tw[t0:t1], sh[t0:t1], q3, tq3,
                bufs.reshape(4, rows, -1, t),
            )
        if grid:
            block = self._block
            gbuf = DISPATCH.scratch("ntt-grid", (rows, block, grid))
            np.copyto(gbuf, data.reshape(rows, grid, block).transpose(0, 2, 1))
            q4 = self._col4[t0:t1]
            tq4 = self._two4[t0:t1]
            for tw, sh in transposed:
                t //= 2
                view = gbuf.reshape(rows, -1, 2 * t, grid)
                _butterflies(
                    view[:, :, :t, :], view[:, :, t:, :], tw[t0:t1], sh[t0:t1],
                    q4, tq4, bufs.reshape(4, rows, -1, t, grid),
                )
            np.copyto(data.reshape(rows, grid, block), gbuf.transpose(0, 2, 1))
        # Canonicalize the lazy [0, 4q) representatives once.
        modmath._fast_reduce_once(data, self._two3[t0:t1, :, 0])
        modmath._fast_reduce_once(data, self._base_col[t0:t1])

    def _inverse_rows(self, data: np.ndarray, t0: int, t1: int) -> None:
        rows = int(data.shape[0])
        bufs = self._stage_buffers(rows)
        q3 = self._col3[t0:t1]
        tq3 = self._two3[t0:t1]
        grid = self._grid
        stages, transposed = self._inverse_tables
        t = 1
        if grid:
            block = self._block
            gbuf = DISPATCH.scratch("ntt-grid", (rows, block, grid))
            np.copyto(gbuf, data.reshape(rows, grid, block).transpose(0, 2, 1))
            q4 = self._col4[t0:t1]
            tq4 = self._two4[t0:t1]
            for tw, sh in reversed(transposed):
                view = gbuf.reshape(rows, -1, 2 * t, grid)
                _gs_butterflies(
                    view[:, :, :t, :], view[:, :, t:, :], tw[t0:t1], sh[t0:t1],
                    q4, tq4, bufs.reshape(4, rows, -1, t, grid),
                )
                t *= 2
            np.copyto(data.reshape(rows, grid, block), gbuf.transpose(0, 2, 1))
        for tw, sh in reversed(stages):
            view = data.reshape(rows, -1, 2 * t)
            _gs_butterflies(
                view[:, :, :t], view[:, :, t:], tw[t0:t1], sh[t0:t1], q3, tq3,
                bufs.reshape(4, rows, -1, t),
            )
            t *= 2
        # Rows are left lazy (< 2q); the caller's fused N^-1 Shoup scaling
        # accepts any uint64 input and canonicalizes.


def _reduce(x, q, qinv, tmp) -> None:
    """``x -= q * rint(x / q)`` in place, for integers ``|x| <= 1.5 * 2**52``.

    ``x * qinv`` is within ``|x| * 2**-52 <= 1.5`` of ``x / q``, so the
    rounding misses the nearest quotient only at a near-tie: the result is
    within ``q/2 + 1.5``, i.e. ``(q+1)/2`` for an odd ``q``, and ``q``
    times the quotient stays below 2**53, so every step is exact.
    """
    np.multiply(x, qinv, out=tmp)
    np.rint(tmp, out=tmp)
    tmp *= q
    x -= tmp


def _split(x, hi, lo) -> None:
    """Write ``x = hi + lo`` with ``hi`` a multiple of 2**15 and ``|lo| <=
    2**14``."""
    np.add(x, _SPLIT_ROUND, out=hi)
    hi -= _SPLIT_ROUND
    np.subtract(x, hi, out=lo)


def _butterflies(u, x, tw, sh, q, two_q, bufs) -> None:
    """One forward (Cooley-Tukey) stage on lazy representatives, entirely
    in scratch (Harvey's butterfly).

    The rows hold ``[0, 4q)`` representatives between stages: ``u`` and
    the three-product Shoup product ``v = x * tw`` (also in ``[0, 4q)``:
    the quotient from the companion's digit halves is up to three short for
    *any* uint64 ``x``) are each folded below ``2q`` with one minimum
    against ``2q`` (the uint64 wraparound of the min-trick), and
    ``u + v`` and ``u + 2q - v`` -- both below ``4q < 2**64`` -- are
    stored as they are.
    """
    buf_v, buf_q, buf_lo, buf_hi = bufs
    modmath._dword_shoup_quotient(x, sh[:, 0], sh[:, 1], buf_q, buf_lo)
    buf_q *= q
    np.multiply(x, tw, out=buf_v)
    buf_v -= buf_q
    np.subtract(buf_v, two_q, out=buf_q)
    np.minimum(buf_v, buf_q, out=buf_v)
    np.subtract(u, two_q, out=buf_q)
    np.minimum(u, buf_q, out=buf_lo)
    np.add(buf_lo, two_q, out=buf_hi)
    np.subtract(buf_hi, buf_v, out=x)
    np.add(buf_lo, buf_v, out=u)


def _gs_butterflies(u, v, tw, sh, q, two_q, bufs) -> None:
    """One inverse (Gentleman-Sande) stage on lazy ``[0, 2q)`` rows.

    The three-product quotient takes any uint64 operand, so ``u + 2q - v``
    goes into the Shoup multiply unfolded; its product, in ``[0, 4q)``,
    takes the minimum instead.
    """
    buf_v, buf_q, buf_lo, buf_hi = bufs
    np.add(u, v, out=buf_lo)
    np.add(u, two_q, out=buf_hi)
    buf_hi -= v
    np.subtract(buf_lo, two_q, out=buf_q)
    np.minimum(buf_lo, buf_q, out=u)
    modmath._dword_shoup_quotient(buf_hi, sh[:, 0], sh[:, 1], buf_q, buf_v)
    buf_q *= q
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
    "gemm_tables",
    "bit_reverse_indices",
    "is_power_of_two",
    "twiddle_tables",
    "reference_transform",
    "get_stacked_engine",
]
