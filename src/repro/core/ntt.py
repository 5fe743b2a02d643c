"""Negacyclic Number Theoretic Transform (NTT) engines.

Polynomial multiplication in ``Z_q[X]/(X^N + 1)`` is carried out in the
evaluation domain: the forward NTT maps a coefficient vector to its
evaluations at the odd powers of a 2N-th root of unity ``ψ``, where
multiplication is element-wise.  FIDESlib implements:

* a radix-2 Cooley-Tukey forward transform (normal-order input,
  bit-reversed output) and a Gentleman-Sande inverse transform
  (bit-reversed input, normal-order output), avoiding explicit bit
  reversal exactly as described in §III-F.4 of the paper;
* Shoup-precomputed twiddle factors so every butterfly uses the cheap
  constant-operand multiplication of Table III;
* a hierarchical/2D ("four-step") formulation (Figure 3) that splits the
  length-N transform into √N-sized sub-transforms, which is what bounds
  global-memory traffic to four accesses per element on the GPU; and
* fusion hooks -- optional element-wise pre/post scaling folded into the
  transform, mirroring the Rescale/ModDown/HMult kernel fusions of
  §III-F.5.

The engines operate on NumPy arrays using the backend selected by
:func:`repro.core.modmath.dtype_for_modulus`.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

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


@dataclass
class NTTEngine:
    """Radix-2 negacyclic NTT/iNTT for a single prime modulus.

    Parameters
    ----------
    ring_degree:
        Polynomial degree bound ``N`` (power of two).
    modulus:
        NTT-friendly prime with ``modulus ≡ 1 (mod 2N)``.
    psi:
        Optional 2N-th primitive root of unity; derived automatically when
        omitted.
    """

    ring_degree: int
    modulus: int
    psi: int | None = None
    _psi_bitrev: np.ndarray = field(init=False, repr=False)
    _psi_inv_bitrev: np.ndarray = field(init=False, repr=False)
    _psi_powers: np.ndarray = field(init=False, repr=False)
    _psi_inv_powers: np.ndarray = field(init=False, repr=False)
    _n_inv: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        n, q = self.ring_degree, self.modulus
        if not is_power_of_two(n):
            raise ValueError(f"ring degree must be a power of two, got {n}")
        if (q - 1) % (2 * n) != 0:
            raise ValueError(f"modulus {q} is not NTT-friendly for N={n}")
        if self.psi is None:
            self.psi = find_root_of_unity(2 * n, q)
        psi = self.psi
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
        self._psi_powers = modmath.as_residue_array(powers, q)
        self._psi_inv_powers = modmath.as_residue_array(inv_powers, q)
        self._psi_bitrev = modmath.as_residue_array(powers[rev], q)
        self._psi_inv_bitrev = modmath.as_residue_array(inv_powers[rev], q)
        self._n_inv = modmath.inv_mod(n, q)

    # -- public API ---------------------------------------------------------

    @property
    def n_inverse(self) -> int:
        """Return ``N^-1 mod q`` applied by the inverse transform."""
        return self._n_inv

    def forward(
        self,
        coefficients: np.ndarray,
        *,
        premultiply: int | None = None,
        postmultiply: int | None = None,
    ) -> np.ndarray:
        """Forward negacyclic NTT (normal-order input, bit-reversed output).

        ``premultiply``/``postmultiply`` are optional scalar factors fused
        into the transform, mirroring the SwitchModulus/Rescale fusions the
        paper folds into its NTT kernels.
        """
        q = self.modulus
        a = modmath.as_residue_array(coefficients, q).copy()
        if premultiply is not None:
            a = modmath.vec_mul_scalar_mod(a, premultiply, q)
        n = self.ring_degree
        t = n
        m = 1
        while m < n:
            t //= 2
            view = a.reshape(m, 2 * t)
            twiddles = self._psi_bitrev[m : 2 * m]
            u = view[:, :t].copy()
            v = modmath.vec_mul_mod(view[:, t:], twiddles.reshape(m, 1), q)
            view[:, :t] = modmath.vec_add_mod(u, v, q)
            view[:, t:] = modmath.vec_sub_mod(u, v, q)
            a = view.reshape(n)
            m *= 2
        if postmultiply is not None:
            a = modmath.vec_mul_scalar_mod(a, postmultiply, q)
        return a

    def inverse(
        self,
        evaluations: np.ndarray,
        *,
        premultiply: int | None = None,
        postmultiply: int | None = None,
    ) -> np.ndarray:
        """Inverse negacyclic NTT (bit-reversed input, normal-order output).

        Implemented with Gentleman-Sande butterflies so no explicit
        bit-reversal pass is needed (paper §III-F.4).
        """
        q = self.modulus
        a = modmath.as_residue_array(evaluations, q).copy()
        if premultiply is not None:
            a = modmath.vec_mul_scalar_mod(a, premultiply, q)
        n = self.ring_degree
        t = 1
        m = n
        while m > 1:
            h = m // 2
            view = a.reshape(h, 2 * t)
            twiddles = self._psi_inv_bitrev[h : 2 * h]
            u = view[:, :t]
            v = view[:, t:]
            view_sum = modmath.vec_add_mod(u, v, q)
            view_diff = modmath.vec_mul_mod(
                modmath.vec_sub_mod(u, v, q), twiddles.reshape(h, 1), q
            )
            view[:, :t] = view_sum
            view[:, t:] = view_diff
            a = view.reshape(n)
            t *= 2
            m = h
        scale = self._n_inv
        if postmultiply is not None:
            scale = modmath.mul_mod(scale, postmultiply % q, q)
        return modmath.vec_mul_scalar_mod(a, scale, q)

    def negacyclic_multiply(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Multiply two coefficient-domain polynomials modulo ``X^N + 1``."""
        fa = self.forward(a)
        fb = self.forward(b)
        return self.inverse(modmath.vec_mul_mod(fa, fb, self.modulus))

    def shoup_twiddles(self) -> np.ndarray:
        """Return Shoup precomputations for the bit-reversed twiddle table.

        These are the constants the GPU kernels use to replace the wide
        modular multiplications in the butterflies with Shoup
        multiplications (one wide + two low multiplies per Table III).
        """
        q = self.modulus
        return np.array(
            [(int(w) << modmath.WORD_BITS) // q for w in self._psi_bitrev],
            dtype=object,
        )


@dataclass
class HierarchicalNTT:
    """Four-step hierarchical/2D negacyclic NTT (Figure 3 of the paper).

    The length-N transform is decomposed into ``N1 x N2`` sub-transforms
    (``N1, N2 ≈ √N``):

    1. twist the input by ``ψ^j`` (turning the negacyclic transform into a
       cyclic one),
    2. column transforms of size ``N1``,
    3. multiplication by inter-block twiddle factors computed "on the fly"
       in the GPU implementation,
    4. row transforms of size ``N2`` followed by a transpose.

    On a GPU this bounds global-memory traffic to four accesses per
    element; here the same structure is reproduced and the per-pass memory
    traffic is accounted for so the performance model can consume it.
    Results are produced in natural order and agree with
    :class:`NTTEngine` up to the output permutation (verified by the test
    suite through round-trips and the convolution theorem).
    """

    ring_degree: int
    modulus: int
    psi: int | None = None

    def __post_init__(self) -> None:
        n, q = self.ring_degree, self.modulus
        if not is_power_of_two(n):
            raise ValueError(f"ring degree must be a power of two, got {n}")
        if self.psi is None:
            self.psi = find_root_of_unity(2 * n, q)
        psi = self.psi
        self._omega = modmath.mul_mod(psi, psi, q)  # primitive N-th root
        log_n = n.bit_length() - 1
        self._n1 = 1 << (log_n // 2)
        self._n2 = n // self._n1
        self._psi_powers = modmath.as_residue_array(
            np.array([modmath.pow_mod(psi, j, q) for j in range(n)], dtype=object), q
        )
        self._psi_inv_powers = modmath.as_residue_array(
            np.array(
                [modmath.pow_mod(modmath.inv_mod(psi, q), j, q) for j in range(n)],
                dtype=object,
            ),
            q,
        )
        self._col_engine = _CyclicNTT(self._n1, q, modmath.pow_mod(self._omega, self._n2, q))
        self._row_engine = _CyclicNTT(self._n2, q, modmath.pow_mod(self._omega, self._n1, q))
        self._inter_twiddles = self._build_inter_twiddles(inverse=False)
        self._inter_twiddles_inv = self._build_inter_twiddles(inverse=True)
        self._n_inv = modmath.inv_mod(n, q)
        self.memory_passes = 4  # element loads per transform, as in Figure 3

    def _build_inter_twiddles(self, *, inverse: bool) -> np.ndarray:
        q = self.modulus
        omega = self._omega if not inverse else modmath.inv_mod(self._omega, q)
        rows = np.empty((self._n1, self._n2), dtype=object)
        for i in range(self._n1):
            w = modmath.pow_mod(omega, i, q)
            acc = 1
            for j in range(self._n2):
                rows[i, j] = acc
                acc = (acc * w) % q
        return modmath.as_residue_array(rows, q)

    def forward(self, coefficients: np.ndarray) -> np.ndarray:
        """Forward negacyclic NTT in natural order via the four-step method."""
        q = self.modulus
        a = modmath.as_residue_array(coefficients, q)
        a = modmath.vec_mul_mod(a, self._psi_powers, q)  # negacyclic twist
        # Pass 1: load coefficients as an (n1, n2) grid, M[j1][j2] = a[j1*n2+j2].
        grid = a.reshape(self._n1, self._n2)
        # Pass 2: size-n1 column transforms (the sqrt(N)-sized sub-FFTs of Fig. 3).
        grid = self._col_engine.forward_batch(grid.T).T
        # Pass 3: inter-block twiddles (computed "on the fly" by the GPU kernel).
        grid = modmath.vec_mul_mod(grid, self._inter_twiddles, q)
        # Pass 4: size-n2 row transforms followed by the output transpose.
        grid = self._row_engine.forward_batch(grid)
        return grid.T.reshape(self.ring_degree)

    def inverse(self, evaluations: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`forward` (natural-order input and output)."""
        q = self.modulus
        grid = modmath.as_residue_array(evaluations, q).reshape(self._n2, self._n1).T
        grid = self._row_engine.inverse_batch(grid)
        grid = modmath.vec_mul_mod(grid, self._inter_twiddles_inv, q)
        grid = self._col_engine.inverse_batch(grid.T).T
        a = grid.reshape(self.ring_degree)
        a = modmath.vec_mul_mod(a, self._psi_inv_powers, q)
        return a

    def negacyclic_multiply(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Multiply two coefficient-domain polynomials modulo ``X^N + 1``."""
        fa = self.forward(a)
        fb = self.forward(b)
        return self.inverse(modmath.vec_mul_mod(fa, fb, self.modulus))


class _CyclicNTT:
    """Cyclic (DFT-style) NTT of a power-of-two size used by the 2D scheme."""

    def __init__(self, size: int, modulus: int, omega: int) -> None:
        if not is_power_of_two(size):
            raise ValueError("cyclic NTT size must be a power of two")
        if modmath.pow_mod(omega, size, modulus) != 1:
            raise ValueError("omega is not a size-th root of unity")
        self.size = size
        self.modulus = modulus
        self.omega = omega
        self._matrix = self._build_matrix(omega)
        self._matrix_inv = self._build_matrix(modmath.inv_mod(omega, modulus))
        self._size_inv = modmath.inv_mod(size, modulus)

    def _build_matrix(self, omega: int) -> np.ndarray:
        q = self.modulus
        rows = np.empty((self.size, self.size), dtype=object)
        for i in range(self.size):
            w = modmath.pow_mod(omega, i, q)
            acc = 1
            for j in range(self.size):
                rows[i, j] = acc
                acc = (acc * w) % q
        return rows

    def _apply(self, matrix: np.ndarray, batch: np.ndarray) -> np.ndarray:
        q = self.modulus
        data = np.array([[int(x) for x in row] for row in np.atleast_2d(batch)], dtype=object)
        out = data.dot(matrix.T) % q
        return modmath.as_residue_array(out, q)

    def forward_batch(self, batch: np.ndarray) -> np.ndarray:
        """Transform each row of ``batch`` (shape ``(rows, size)``)."""
        return self._apply(self._matrix, batch)

    def inverse_batch(self, batch: np.ndarray) -> np.ndarray:
        """Inverse-transform each row of ``batch``."""
        out = self._apply(self._matrix_inv, batch)
        return modmath.vec_mul_scalar_mod(out, self._size_inv, self.modulus)


@lru_cache(maxsize=None)
def get_engine(ring_degree: int, modulus: int, psi: int | None = None) -> NTTEngine:
    """Return a cached :class:`NTTEngine` for ``(ring_degree, modulus)``.

    Mirrors FIDESlib's singleton precomputation: twiddle tables are built
    once per context and shared by every kernel launch.
    """
    return NTTEngine(ring_degree=ring_degree, modulus=modulus, psi=psi)


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

#: Byte budget of the NTT scratch-buffer cache.  Batched (B·L, N) transforms
#: grow the per-key buffers to the largest shape seen; without a bound a
#: one-off wide batch would pin its high-water scratch forever.  Least
#: recently used buffers are evicted once the total exceeds the budget (the
#: buffer serving the current call is never evicted, even if it alone
#: exceeds the budget -- the transform cannot run without it).
_SCRATCH_BUDGET_BYTES = 64 << 20

_scratch_cache: "OrderedDict[str, np.ndarray]" = OrderedDict()


def set_scratch_budget(nbytes: int) -> int:
    """Set the scratch-cache byte budget, returning the previous value.

    Passing a smaller budget evicts immediately.  Mainly for tests and
    memory-constrained deployments.
    """
    global _SCRATCH_BUDGET_BYTES
    previous = _SCRATCH_BUDGET_BYTES
    _SCRATCH_BUDGET_BYTES = int(nbytes)
    _evict_scratch(keep=None)
    return previous


def scratch_cache_bytes() -> int:
    """Total bytes currently held by the NTT scratch cache."""
    return sum(buf.nbytes for buf in _scratch_cache.values())


def _evict_scratch(keep: str | None) -> None:
    """Evict least-recently-used scratch buffers beyond the byte budget."""
    total = scratch_cache_bytes()
    while total > _SCRATCH_BUDGET_BYTES and _scratch_cache:
        key = next(iter(_scratch_cache))
        if key == keep:
            if len(_scratch_cache) == 1:
                break
            _scratch_cache.move_to_end(key)
            key = next(iter(_scratch_cache))
        total -= _scratch_cache.pop(key).nbytes


def _scratch(key: str, shape: tuple[int, ...]) -> np.ndarray:
    """Return a cached uint64 scratch buffer (single-threaded reuse, LRU)."""
    size = 1
    for dim in shape:
        size *= dim
    buf = _scratch_cache.get(key)
    if buf is None or buf.size < size:
        _scratch_cache.pop(key, None)
        buf = np.empty(size, dtype=np.uint64)
        _scratch_cache[key] = buf
        _evict_scratch(keep=key)
    else:
        _scratch_cache.move_to_end(key)
    return buf[:size].reshape(shape)


class StackedNTTEngine:
    """Batched negacyclic NTT/iNTT over a flat ``(num_limbs, N)`` limb stack.

    The per-limb radix-2 transforms of :class:`NTTEngine` share their
    butterfly schedule across limbs -- only the twiddle values differ.
    Stacking the per-modulus twiddle tables into ``(L, N)`` matrices
    therefore lets one pass of ``log2 N`` broadcast expressions transform
    every limb of a polynomial at once, which is the limb-batched NTT of
    §III-F: the Python-loop-per-limb overhead disappears and each stage is
    a single vectorized butterfly over the whole stack.

    The last ``log2(BLOCK)`` stages only move data within contiguous
    ``BLOCK``-sized runs, so they execute on a transposed ``(L, BLOCK,
    N/BLOCK)`` grid where the vectorized inner axis stays long (the
    four-step locality idea of §III-F.4).

    Results are bit-identical to running :class:`NTTEngine` limb by limb:
    the same butterflies execute in the same order on the same residues,
    merely staged through a different memory layout.

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
        # evict the tables from cache.  The exact object path keeps
        # full-length tables: it indexes them per stack row.
        length = len(self.moduli)
        base = self.moduli
        self._chunks: list[tuple[int, int, int, int]] = []
        if self.backend != modmath.BACKEND_OBJECT:
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
        if not self._chunks:
            base = self.moduli
            self._chunks = [
                (r0, min(r0 + _NTT_LIMB_BATCH, length), r0,
                 min(r0 + _NTT_LIMB_BATCH, length))
                for r0 in range(0, length, _NTT_LIMB_BATCH)
            ]
        self._period = len(base)
        engines = [get_engine(ring_degree, q) for q in base]
        base_col = modmath.moduli_column(base)
        self._col3 = base_col.reshape(-1, 1, 1)
        self._col4 = base_col.reshape(-1, 1, 1, 1)
        self._base_col = base_col
        self._psi_bitrev = self._stack_tables([e._psi_bitrev for e in engines])
        self._psi_inv_bitrev = self._stack_tables([e._psi_inv_bitrev for e in engines])
        self._n_inv = [get_engine(ring_degree, q).n_inverse for q in self.moduli]
        if self.fast:
            # Shoup companions of both twiddle tables (Table III): the
            # butterflies then run with two multiplies and a shift instead
            # of a hardware division per element.
            self._psi_shoup = modmath.shoup_column(self._psi_bitrev, base_col)
            self._psi_inv_shoup = modmath.shoup_column(self._psi_inv_bitrev, base_col)
            # 2q columns for the lazy [0, 2q) butterfly representatives.
            self._two3 = self._col3 * np.uint64(2)
            self._two4 = self._col4 * np.uint64(2)
        elif self.dword:
            # 64-bit Shoup companions (floor(w * 2**64 / q)), stored as
            # 32-bit digit halves so each butterfly's mulhi64 reads
            # precomputed operands instead of re-splitting per stage.
            shift = np.uint64(32)
            mask = np.uint64(0xFFFFFFFF)
            fw = modmath.dword_shoup_column(self._psi_bitrev, base_col)
            inv = modmath.dword_shoup_column(self._psi_inv_bitrev, base_col)
            self._psi_shoup_hi = fw >> shift
            self._psi_shoup_lo = fw & mask
            self._psi_inv_shoup_hi = inv >> shift
            self._psi_inv_shoup_lo = inv & mask
            # 2q < 2**63 for every dword modulus, so the lazy bound still
            # fits a lane (sums stay below 4q < 2**64).
            self._two3 = self._col3 * np.uint64(2)
        # Precompute the per-stage transposed twiddle grids (fast path only;
        # the exact object path keeps the simple standard-layout stages).
        self._block = _TRANSPOSED_BLOCK
        self._grid = self.ring_degree // self._block if self.ring_degree > self._block else 0
        if self.fast and self._grid >= 2:
            self._fw_trans = self._transposed_tables(self._psi_bitrev, self._psi_shoup)
            self._inv_trans = self._transposed_tables(
                self._psi_inv_bitrev, self._psi_inv_shoup
            )
        else:
            self._grid = 0

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

    def _row_chunks(self, num_rows: int):
        """``(row_lo, row_hi, table_lo, table_hi)`` processing chunks.

        Non-repeating stacks walk :data:`_NTT_LIMB_BATCH`-row chunks with
        matching table rows.  Member-major tilings walk one repeat period
        per chunk; limb-major runs walk one run per chunk with its single
        table row broadcast over the run's data rows.
        """
        if num_rows != len(self.moduli):  # pragma: no cover - defensive
            raise ValueError(
                f"stack has {num_rows} rows but the engine covers "
                f"{len(self.moduli)} moduli"
            )
        return self._chunks

    def _stack_tables(self, rows: list[np.ndarray]) -> np.ndarray:
        if self.fast:
            return np.stack(rows)
        if self.dword:
            # Per-limb tables of >=2**31 moduli are exact object rows;
            # every canonical twiddle fits a merged uint64 lane.
            return np.stack([
                r.astype(np.uint64) if r.dtype == np.object_ else r
                for r in rows
            ])
        return np.stack([modmath.object_row(r) for r in rows])

    def _transposed_tables(self, table: np.ndarray, shoup: np.ndarray | None):
        """Twiddles of the block-local stages, reshaped for the transposed grid.

        For a stage with ``m`` groups (``m >= grid``), group ``g`` splits
        into block ``b = g // (m/grid)`` and in-block subgroup
        ``s = g % (m/grid)``; on the transposed ``(L, BLOCK, grid)`` layout
        the stage's twiddles become an ``(L, m/grid, 1, grid)`` grid.
        """
        num_limbs = self._period
        grid = self._grid
        tables = []
        m = grid
        while m < self.ring_degree:
            sub = m // grid
            tw = (
                table[:, m : 2 * m]
                .reshape(num_limbs, grid, sub)
                .transpose(0, 2, 1)[:, :, None, :]
                .copy()
            )
            sh = (
                shoup[:, m : 2 * m]
                .reshape(num_limbs, grid, sub)
                .transpose(0, 2, 1)[:, :, None, :]
                .copy()
                if shoup is not None
                else None
            )
            tables.append((tw, sh))
            m *= 2
        return tables

    def _working_copy(self, stack: np.ndarray, consume: bool) -> np.ndarray:
        a = modmath.coerce_stack(np.asarray(stack), self._col)
        if consume and a.flags.c_contiguous and a.flags.writeable:
            # The caller relinquished ownership (and any dtype coercion
            # already produced a fresh array), so transform in place.
            return a
        return a.copy()

    def forward(
        self,
        stack: np.ndarray,
        *,
        consume: bool = False,
        segments: Sequence[int] | None = None,
    ) -> np.ndarray:
        """Forward NTT of every row (normal-order input, bit-reversed output).

        ``consume=True`` lets the engine transform a caller-owned temporary
        in place instead of taking a defensive copy.  ``segments``
        describes how a fused call decomposes into logical GPU launches
        (one row count per launch, e.g. one per key-switching digit); it
        only affects trace recording, never the computation.
        """
        source = np.asarray(stack)
        with _DISPATCH.suppressed():
            a = self._working_copy(stack, consume)
            if self.fast:
                for r0, r1, t0, t1 in self._row_chunks(len(self.moduli)):
                    self._forward_rows_fast(a[r0:r1], t0, t1)
            elif self.dword:
                for r0, r1, t0, t1 in self._row_chunks(len(self.moduli)):
                    self._forward_rows_dword(a[r0:r1], t0, t1)
            else:
                a = self._forward_object(a)
        self._record_transform("ntt", source, a, segments)
        return a

    def inverse(
        self,
        stack: np.ndarray,
        *,
        consume: bool = False,
        segments: Sequence[int] | None = None,
    ) -> np.ndarray:
        """Inverse NTT of every row (bit-reversed input, normal-order output)."""
        source = np.asarray(stack)
        with _DISPATCH.suppressed():
            a = self._working_copy(stack, consume)
            if self.backend == modmath.BACKEND_OBJECT:
                a = self._inverse_object(a)
            else:
                rows_fn = (
                    self._inverse_rows_fast if self.fast
                    else self._inverse_rows_dword
                )
                for r0, r1, t0, t1 in self._row_chunks(len(self.moduli)):
                    rows_fn(a[r0:r1], t0, t1)
                # The rows carry lazy [0, 2q) representatives here; the
                # fused N^-1 scaling (Shoup) canonicalizes them.
                a = modmath.stack_scalar_mod(a, self._n_inv, self._col, out=a)
        # The fused N^-1 scaling is one Shoup multiply per element.
        self._record_transform(
            "intt", source, a, segments, fused_ops_per_element=SHOUP_MUL_OPS
        )
        return a

    def _record_transform(
        self,
        tag: str,
        source: np.ndarray,
        out: np.ndarray,
        segments: Sequence[int] | None,
        *,
        fused_ops_per_element: float = 0.0,
    ) -> None:
        """Report the transform to the execution plane (GPU launch granularity)."""
        if not _DISPATCH.recording:
            return
        rows = int(out.shape[0])
        parts = [rows] if segments is None else [int(s) for s in segments]
        if sum(parts) != rows:
            raise ValueError(f"segments {parts} do not cover {rows} rows")
        executable = _DISPATCH.executable_recording
        row = 0
        for part in parts:
            seg_moduli = self.moduli[row : row + part]
            if self.fast and _DISPATCH.stage_granular:
                _record_stage_launches(
                    tag, self.ring_degree, seg_moduli,
                    (source[row : row + part],), out[row : row + part],
                    executable,
                )
                row += part
                continue
            replay = None
            if executable:
                # Each segment replays through its own cached sub-engine
                # (chunking/tiling is bit-identical, see the class docstring),
                # transforming the program's write view in place.

                def replay(
                    reads,
                    writes,
                    _n=self.ring_degree,
                    _moduli=seg_moduli,
                    _forward=(tag == "ntt"),
                ):
                    transform_in_place(
                        _n, _moduli, reads, writes[0], forward=_forward
                    )

            # Per-segment row slices keep fused launches independent in the
            # dependency DAG (each digit/component touches its own rows).
            _DISPATCH.transform(
                tag,
                part,
                reads=(source[row : row + part],),
                writes=(out[row : row + part],),
                cols=self.ring_degree,
                fused_ops_per_element=fused_ops_per_element,
                replay=replay,
            )
            row += part

    def reference_stage(
        self, a: np.ndarray, stage: int, *, forward: bool = True,
    ) -> None:
        """One canonical radix-2 butterfly stage, in place (fast path).

        The per-launch granularity of an *unfused* GPU NTT: each stage
        streams the whole stack through memory and hands canonical
        ``[0, q)`` residues to the next launch, with fresh temporaries per
        launch (cross-stage lazy representatives and scratch pipelining
        are exactly the privileges stage fusion buys).  Running all
        ``log2 N`` stages is bit-identical to :meth:`forward` /
        :meth:`inverse` at the transform boundary -- the fused lazy
        pipeline canonicalizes to the same residues.
        """
        if not self.fast:
            raise NotImplementedError(
                "per-stage reference execution covers the uint64 fast path"
            )
        n = self.ring_degree
        rows = int(a.shape[0])
        if forward:
            m = 1 << stage
            t = n >> (stage + 1)
        else:
            t = 1 << stage
            m = n >> (stage + 1)
        for r0, r1, t0, t1 in self._row_chunks(rows):
            seg = a[r0:r1]
            srows = r1 - r0
            q3 = self._col3[t0:t1]
            if forward:
                view = seg.reshape(srows, m, 2 * t)
                u = view[:, :, :t]
                x = view[:, :, t:]
                tw = self._psi_bitrev[t0:t1, m : 2 * m].reshape(t1 - t0, m, 1)
                sh = self._psi_shoup[t0:t1, m : 2 * m].reshape(t1 - t0, m, 1)
                v = modmath.stack_shoup_mul(x, tw, sh, q3)
                lo = u + v
                np.minimum(lo, lo - q3, out=lo)
                hi = u - v
                np.minimum(hi, hi + q3, out=hi)
                u[...] = lo
                x[...] = hi
            else:
                view = seg.reshape(srows, m, 2 * t)
                u = view[:, :, :t]
                v = view[:, :, t:]
                tw = self._psi_inv_bitrev[t0:t1, m : 2 * m].reshape(t1 - t0, m, 1)
                sh = self._psi_inv_shoup[t0:t1, m : 2 * m].reshape(t1 - t0, m, 1)
                total = u + v
                np.minimum(total, total - q3, out=total)
                diff = u - v
                np.minimum(diff, diff + q3, out=diff)
                diff = modmath.stack_shoup_mul(diff, tw, sh, q3)
                u[...] = total
                v[...] = diff

    def reference_scale(self, a: np.ndarray) -> None:
        """The iNTT's trailing ``N^-1`` scaling as its own launch, in place."""
        modmath.stack_scalar_mod(a, self._n_inv, self._col, out=a)

    # -- fast (uint64) path ---------------------------------------------------

    #
    # One batch of rows runs through the whole stage pipeline while its
    # working set (data + scratch) is cache-resident.  All intermediates
    # live in preallocated scratch buffers (no allocator traffic on the hot
    # path), and values travel as lazy [0, 2q) representatives -- Shoup
    # products and one conditional subtraction against 2q per butterfly --
    # with a single canonicalization at the end, which leaves the output
    # bit-identical to the canonical per-stage computation.

    def _forward_rows_fast(self, a: np.ndarray, r0: int, r1: int) -> None:
        # ``a`` holds the data rows of this chunk; ``r0:r1`` indexes the
        # twiddle tables.  For tiled stacks the chunk is one repeat period
        # (table rows == data rows); a period of one broadcasts a single
        # table row over every data row of the stack.
        n = self.ring_degree
        rows = int(a.shape[0])
        q3 = self._col3[r0:r1]
        tq3 = self._two3[r0:r1]
        half = n // 2
        buf_v = _scratch("ntt-v", (rows, half))
        buf_q = _scratch("ntt-q", (rows, half))
        buf_lo = _scratch("ntt-lo", (rows, half))
        buf_hi = _scratch("ntt-hi", (rows, half))
        grid = self._grid
        switch = grid if grid else n
        t = n
        m = 1
        while m < switch:
            t //= 2
            view = a.reshape(rows, m, 2 * t)
            tw = self._psi_bitrev[r0:r1, m : 2 * m].reshape(r1 - r0, m, 1)
            sh = self._psi_shoup[r0:r1, m : 2 * m].reshape(r1 - r0, m, 1)
            self._lazy_butterflies(
                view[:, :, :t], view[:, :, t:], tw, sh, q3, tq3,
                buf_v.reshape(rows, m, t), buf_q.reshape(rows, m, t),
                buf_lo.reshape(rows, m, t), buf_hi.reshape(rows, m, t),
            )
            m *= 2
        if grid:
            block = self._block
            gbuf = _scratch("ntt-grid", (rows, block, grid))
            np.copyto(gbuf, a.reshape(rows, grid, block).transpose(0, 2, 1))
            q4 = self._col4[r0:r1]
            tq4 = self._two4[r0:r1]
            t = block
            for tw_full, sh_full in self._fw_trans:
                t //= 2
                sub = tw_full.shape[1]
                view = gbuf.reshape(rows, sub, 2 * t, grid)
                shape = (rows, sub, t, grid)
                self._lazy_butterflies(
                    view[:, :, :t, :], view[:, :, t:, :],
                    tw_full[r0:r1], sh_full[r0:r1], q4, tq4,
                    buf_v.reshape(shape), buf_q.reshape(shape),
                    buf_lo.reshape(shape), buf_hi.reshape(shape),
                )
            np.copyto(a.reshape(rows, grid, block), gbuf.transpose(0, 2, 1))
        # Canonicalize the lazy representatives once.
        work = _scratch("ntt-w", (rows, n))
        np.subtract(a, self._base_col[r0:r1], out=work)
        np.minimum(a, work, out=a)

    @staticmethod
    def _lazy_butterflies(u, x, tw, sh, q, two_q, buf_v, buf_q, buf_lo, buf_hi):
        """One forward stage on lazy representatives, entirely in scratch.

        ``v = (x * tw) mod-ish q`` lands in ``[0, 2q)`` (Shoup, no final
        correction); ``low = u + v`` and ``high = u + 2q - v`` are folded
        back below ``2q`` with one subtract+minimum each (the uint64
        wraparound of the min-trick).
        """
        np.multiply(x, sh, out=buf_q)
        buf_q >>= modmath.STACK_SHOUP_SHIFT
        buf_q *= q
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

    @staticmethod
    def _lazy_gs_butterflies(u, v, tw, sh, q, two_q, buf_v, buf_q, buf_lo, buf_hi):
        """One inverse (Gentleman-Sande) stage on lazy representatives."""
        np.add(u, v, out=buf_lo)
        np.add(u, two_q, out=buf_hi)
        buf_hi -= v
        # u and v are no longer read as inputs from here on.
        np.subtract(buf_lo, two_q, out=buf_q)
        np.minimum(buf_lo, buf_q, out=u)
        np.subtract(buf_hi, two_q, out=buf_q)
        np.minimum(buf_hi, buf_q, out=buf_hi)
        np.multiply(buf_hi, sh, out=buf_q)
        buf_q >>= modmath.STACK_SHOUP_SHIFT
        buf_q *= q
        np.multiply(buf_hi, tw, out=buf_v)
        np.subtract(buf_v, buf_q, out=v)

    def _inverse_rows_fast(self, a: np.ndarray, r0: int, r1: int) -> None:
        # Same chunk contract as ``_forward_rows_fast``: ``r0:r1`` indexes
        # the (period-sized) tables, ``a`` carries the chunk's data rows.
        n = self.ring_degree
        rows = int(a.shape[0])
        q3 = self._col3[r0:r1]
        tq3 = self._two3[r0:r1]
        half = n // 2
        buf_v = _scratch("ntt-v", (rows, half))
        buf_q = _scratch("ntt-q", (rows, half))
        buf_lo = _scratch("ntt-lo", (rows, half))
        buf_hi = _scratch("ntt-hi", (rows, half))
        grid = self._grid
        t = 1
        m = n
        if grid:
            block = self._block
            gbuf = _scratch("ntt-grid", (rows, block, grid))
            np.copyto(gbuf, a.reshape(rows, grid, block).transpose(0, 2, 1))
            q4 = self._col4[r0:r1]
            tq4 = self._two4[r0:r1]
            for tw_full, sh_full in reversed(self._inv_trans):
                sub = tw_full.shape[1]
                view = gbuf.reshape(rows, sub, 2 * t, grid)
                shape = (rows, sub, t, grid)
                self._lazy_gs_butterflies(
                    view[:, :, :t, :], view[:, :, t:, :],
                    tw_full[r0:r1], sh_full[r0:r1], q4, tq4,
                    buf_v.reshape(shape), buf_q.reshape(shape),
                    buf_lo.reshape(shape), buf_hi.reshape(shape),
                )
                t *= 2
                m //= 2
            np.copyto(a.reshape(rows, grid, block), gbuf.transpose(0, 2, 1))
        while m > 1:
            h = m // 2
            view = a.reshape(rows, h, 2 * t)
            tw = self._psi_inv_bitrev[r0:r1, h : 2 * h].reshape(r1 - r0, h, 1)
            sh = self._psi_inv_shoup[r0:r1, h : 2 * h].reshape(r1 - r0, h, 1)
            self._lazy_gs_butterflies(
                view[:, :, :t], view[:, :, t:], tw, sh, q3, tq3,
                buf_v.reshape(rows, h, t), buf_q.reshape(rows, h, t),
                buf_lo.reshape(rows, h, t), buf_hi.reshape(rows, h, t),
            )
            t *= 2
            m = h
        # Rows are left lazy (< 2q); the caller's fused N^-1 Shoup scaling
        # canonicalizes them.

    # -- double-word (dword) path ---------------------------------------------
    #
    # Moduli in (2**31, 2**62) arrive as (rows, 2, N) hi/lo digit planes.
    # Every canonical residue (< 2**62) and lazy representative (< 2q <
    # 2**63) fits one uint64 lane, so the chunk merges its planes into a
    # single (rows, N) working buffer once, runs the same lazy [0, 2q)
    # butterfly pipeline as the fast path -- with 64-bit Shoup companions
    # whose quotient estimate needs an emulated mulhi64 -- and splits back
    # at the end.  The transposed block stages are skipped (``_grid = 0``):
    # the mulhi emulation already dominates, and the standard layout keeps
    # the code identical to the per-limb schedule.

    def _forward_rows_dword(self, a: np.ndarray, r0: int, r1: int) -> None:
        n = self.ring_degree
        rows = int(a.shape[0])
        q3 = self._col3[r0:r1]
        tq3 = self._two3[r0:r1]
        half = n // 2
        merged = _scratch("ntt-dw", (rows, n))
        modmath.dword_merge(a, out=merged)
        buf_v = _scratch("ntt-v", (rows, half))
        buf_q = _scratch("ntt-q", (rows, half))
        buf_lo = _scratch("ntt-lo", (rows, half))
        buf_hi = _scratch("ntt-hi", (rows, half))
        t = n
        m = 1
        while m < n:
            t //= 2
            view = merged.reshape(rows, m, 2 * t)
            tw = self._psi_bitrev[r0:r1, m : 2 * m].reshape(r1 - r0, m, 1)
            sh_hi = self._psi_shoup_hi[r0:r1, m : 2 * m].reshape(r1 - r0, m, 1)
            sh_lo = self._psi_shoup_lo[r0:r1, m : 2 * m].reshape(r1 - r0, m, 1)
            self._lazy_dword_butterflies(
                view[:, :, :t], view[:, :, t:], tw, sh_hi, sh_lo, q3, tq3,
                buf_v.reshape(rows, m, t), buf_q.reshape(rows, m, t),
                buf_lo.reshape(rows, m, t), buf_hi.reshape(rows, m, t),
            )
            m *= 2
        # Canonicalize the lazy representatives once, then restore planes.
        work = _scratch("ntt-w", (rows, n))
        np.subtract(merged, self._base_col[r0:r1], out=work)
        np.minimum(merged, work, out=merged)
        modmath.dword_split(merged, out=a)

    def _inverse_rows_dword(self, a: np.ndarray, r0: int, r1: int) -> None:
        n = self.ring_degree
        rows = int(a.shape[0])
        q3 = self._col3[r0:r1]
        tq3 = self._two3[r0:r1]
        half = n // 2
        merged = _scratch("ntt-dw", (rows, n))
        modmath.dword_merge(a, out=merged)
        buf_v = _scratch("ntt-v", (rows, half))
        buf_q = _scratch("ntt-q", (rows, half))
        buf_lo = _scratch("ntt-lo", (rows, half))
        buf_hi = _scratch("ntt-hi", (rows, half))
        t = 1
        m = n
        while m > 1:
            h = m // 2
            view = merged.reshape(rows, h, 2 * t)
            tw = self._psi_inv_bitrev[r0:r1, h : 2 * h].reshape(r1 - r0, h, 1)
            sh_hi = self._psi_inv_shoup_hi[r0:r1, h : 2 * h].reshape(r1 - r0, h, 1)
            sh_lo = self._psi_inv_shoup_lo[r0:r1, h : 2 * h].reshape(r1 - r0, h, 1)
            self._lazy_dword_gs_butterflies(
                view[:, :, :t], view[:, :, t:], tw, sh_hi, sh_lo, q3, tq3,
                buf_v.reshape(rows, h, t), buf_q.reshape(rows, h, t),
                buf_lo.reshape(rows, h, t), buf_hi.reshape(rows, h, t),
            )
            t *= 2
            m = h
        # Rows stay lazy (< 2q) through the split; the caller's fused N^-1
        # Shoup scaling accepts any uint64 input and canonicalizes.
        modmath.dword_split(merged, out=a)

    @staticmethod
    def _lazy_dword_butterflies(u, x, tw, sh_hi, sh_lo, q, two_q,
                                buf_v, buf_q, buf_lo, buf_hi):
        """One forward stage on merged lazy representatives (q < 2**62).

        ``v = x * tw`` reduces with a 64-bit Shoup companion: the quotient
        estimate ``mulhi64(x, shoup)`` is at most one short for *any*
        uint64 ``x``, leaving ``v`` in ``[0, 2q)``; the add/sub halves fold
        back below ``2q`` with the same min-trick as the fast path (sums
        stay below ``4q < 2**64``).
        """
        q_est = modmath._dword_mulhi(x, sh_hi, sh_lo)
        np.multiply(q_est, q, out=buf_q)
        np.multiply(x, tw, out=buf_v)
        buf_v -= buf_q
        np.add(u, two_q, out=buf_hi)
        buf_hi -= buf_v
        np.add(u, buf_v, out=buf_lo)
        np.subtract(buf_lo, two_q, out=buf_q)
        np.minimum(buf_lo, buf_q, out=u)
        np.subtract(buf_hi, two_q, out=buf_q)
        np.minimum(buf_hi, buf_q, out=x)

    @staticmethod
    def _lazy_dword_gs_butterflies(u, v, tw, sh_hi, sh_lo, q, two_q,
                                   buf_v, buf_q, buf_lo, buf_hi):
        """One inverse (Gentleman-Sande) stage on merged representatives."""
        np.add(u, v, out=buf_lo)
        np.add(u, two_q, out=buf_hi)
        buf_hi -= v
        # u and v are no longer read as inputs from here on.
        np.subtract(buf_lo, two_q, out=buf_q)
        np.minimum(buf_lo, buf_q, out=u)
        np.subtract(buf_hi, two_q, out=buf_q)
        np.minimum(buf_hi, buf_q, out=buf_hi)
        q_est = modmath._dword_mulhi(buf_hi, sh_hi, sh_lo)
        np.multiply(q_est, q, out=buf_q)
        np.multiply(buf_hi, tw, out=buf_v)
        np.subtract(buf_v, buf_q, out=v)

    # -- exact (object) path --------------------------------------------------

    def _forward_object(self, a: np.ndarray) -> np.ndarray:
        n = self.ring_degree
        num_limbs = len(self.moduli)
        t = n
        m = 1
        while m < n:
            t //= 2
            view = a.reshape(num_limbs, m, 2 * t)
            twiddles = self._psi_bitrev[:, m : 2 * m].reshape(num_limbs, m, 1)
            u = view[:, :, :t]
            v = (view[:, :, t:] * twiddles) % self._col3
            low = (u + v) % self._col3
            high = (u - v) % self._col3
            view[:, :, :t] = low
            view[:, :, t:] = high
            a = view.reshape(num_limbs, n)
            m *= 2
        return a

    def _inverse_object(self, a: np.ndarray) -> np.ndarray:
        n = self.ring_degree
        num_limbs = len(self.moduli)
        t = 1
        m = n
        while m > 1:
            h = m // 2
            view = a.reshape(num_limbs, h, 2 * t)
            twiddles = self._psi_inv_bitrev[:, h : 2 * h].reshape(num_limbs, h, 1)
            u = view[:, :, :t]
            v = view[:, :, t:]
            view_sum = (u + v) % self._col3
            view_diff = ((u - v) * twiddles) % self._col3
            view[:, :, :t] = view_sum
            view[:, :, t:] = view_diff
            a = view.reshape(num_limbs, n)
            t *= 2
            m = h
        return modmath.stack_scalar_mod(a, self._n_inv, self._col)


@lru_cache(maxsize=128)
def get_stacked_engine(ring_degree: int, moduli: tuple[int, ...]) -> StackedNTTEngine:
    """Return a cached :class:`StackedNTTEngine` for a moduli tuple.

    Each CKKS level (and key-switching sub-basis, and the fused
    concatenated tuples of the batched rescale/ModDown paths) reuses its
    stacked twiddle matrices across every polynomial, like the per-modulus
    :func:`get_engine` cache.  The cache is bounded because each entry
    holds several ``(L, N)`` tables; evicted engines rebuild cheaply from
    the per-modulus tables, which stay cached.
    """
    return StackedNTTEngine(ring_degree, moduli)


def transform_in_place(
    ring_degree: int,
    moduli: tuple[int, ...],
    sources: Sequence[np.ndarray],
    dst: np.ndarray,
    *,
    forward: bool,
) -> None:
    """Stage ``sources`` into ``dst`` and (i)NTT it in place (replay helper).

    ``sources`` are the row blocks a recorded transform read -- one per
    member of a fused stack, or ``dst`` itself for an in-place launch.
    """
    gather_rows(sources, dst)
    engine = get_stacked_engine(ring_degree, moduli)
    res = (engine.forward if forward else engine.inverse)(dst, consume=True)
    if res is not dst:
        np.copyto(dst, res)


def _record_stage_launches(
    tag: str,
    n: int,
    moduli: tuple[int, ...],
    sources: Sequence[np.ndarray],
    dst: np.ndarray,
    executable: bool,
) -> None:
    """Record one transform as per-stage launches (the unfused baseline).

    Emits ``log2 N`` butterfly-stage events (plus the iNTT's ``N^-1``
    scaling launch), each replaying one canonical stage via
    :meth:`StackedNTTEngine.reference_stage` -- a full global-memory round
    trip per stage, which is exactly how an unfused GPU NTT executes.  The
    first stage reads ``sources`` (the row blocks that make up ``dst``,
    one per member of a fused stack); later stages run in place.  The run
    is then registered as a fusion group whose mega-kernel replay is the
    stage-fused engine call, so ``fuse_trace`` can collapse the chain back
    into the fused transform (§III-F.4/F.5).
    """
    stages = n.bit_length() - 1
    forward = tag == "ntt"
    sources = tuple(sources)
    source_count = len(sources)
    for s in range(stages):
        replay = None
        if executable:

            def replay(reads, writes, _s=s):
                gather_rows(reads, writes[0])
                get_stacked_engine(n, moduli).reference_stage(
                    writes[0], _s, forward=forward
                )

        _DISPATCH.elementwise(
            f"{tag}-stage{s}",
            reads=sources if s == 0 else (dst,),
            writes=(dst,),
            # One radix-2 butterfly covers two elements.
            ops_per_element=BUTTERFLY_OPS / 2.0,
            replay=replay,
        )
    count = stages
    if not forward:
        scale_replay = None
        if executable:

            def scale_replay(reads, writes):
                gather_rows(reads, writes[0])
                get_stacked_engine(n, moduli).reference_scale(writes[0])

        _DISPATCH.elementwise(
            f"{tag}-scale",
            reads=(dst,),
            writes=(dst,),
            ops_per_element=SHOUP_MUL_OPS,
            replay=scale_replay,
        )
        count += 1
    if executable:

        def fused_replay(reads, writes):
            # A group replay sees every member's reads in member order;
            # the transform's input is the first stage's.
            transform_in_place(
                n, moduli, reads[:source_count], writes[0], forward=forward
            )

        _DISPATCH.fusion_group(count, fused_replay)


def record_staged_transform(
    tag: str,
    ring_degree: int,
    moduli: tuple[int, ...],
    sources: Sequence[np.ndarray],
    out: np.ndarray,
    *,
    executable: bool,
) -> bool:
    """Record one full-stack transform as per-stage launches.

    The entry point for call sites that record transforms directly (the
    ModDown and rescale pipelines): under ``stage_launches`` recording
    they emit the unfused per-stage launch run plus its fusion group
    instead of one fused transform event.  ``sources`` are the row blocks
    the transform reads, in ``out``'s row order.  Returns ``False`` --
    recording nothing -- when the stack is off the uint64 fast path, so
    the caller falls back to its single fused transform record.
    """
    if not get_stacked_engine(ring_degree, moduli).fast:
        return False
    _record_stage_launches(tag, ring_degree, moduli, sources, out, executable)
    return True


__all__ = [
    "NTTEngine",
    "HierarchicalNTT",
    "StackedNTTEngine",
    "bit_reverse_indices",
    "is_power_of_two",
    "get_engine",
    "get_stacked_engine",
    "record_staged_transform",
    "transform_in_place",
    "set_scratch_budget",
    "scratch_cache_bytes",
]
