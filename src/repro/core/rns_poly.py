"""``RNSPoly``: the polynomial container of Figure 2, and its storage.

An :class:`RNSPoly` is a degree-``N`` polynomial decomposed over an RNS
basis ``B = {q_0, ..., q_l}`` and stored as one flat ``(num_limbs, N)``
array -- the flattened allocation strategy of §III-D -- that is one charge
on a :class:`~repro.core.memory.MemoryPool`: made at construction,
credited back by :meth:`RNSPoly.release` (which ``__del__`` also calls).
A limb row window (:meth:`RNSPoly.keep_limbs`) and a member of a split
batch (:meth:`RNSPoly.split`) are views: they charge nothing and keep the
polynomial they window -- and with it the charge -- alive.

Every cross-limb operation (element-wise arithmetic, rescaling, limb
dropping, base-extension glue, CRT recomposition, NTT) is written here,
once, as a call of a :mod:`repro.core.modmath` ``stack_*`` kernel (or the
stacked NTT engine) on ``data`` with the ``(L, 1)`` moduli column
``moduli_col`` broadcast over the rows: vectorized expressions with no
per-limb Python loop, matching the batched kernels of §III-F.

Per-limb access is a view, not a second arithmetic:
``poly.limb_arrays()[i]`` is row ``i`` of ``data``, zero-copy.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

from repro.core import modmath
from repro.core.automorphism import coeff_automorphism_map, eval_automorphism_map
from repro.core.dispatch import get_dispatcher
from repro.core.limb import LimbFormat
from repro.core.memory import FusedFootprintError, MemoryPool, default_pool
from repro.core.ntt import Fused, get_stacked_engine
from repro.core.rns import RNSBasis
from repro.gpu.kernel import ELEMENT_BYTES, MODADD_OPS, MODMUL_OPS

_DISPATCH = get_dispatcher()

#: The tag every polynomial charges under (``charge_hook(pool, nbytes, tag)``).
_TAG = "RNSPoly"


@lru_cache(maxsize=128)  # one entry per rescaled basis (a toy bootstrap: 11)
def _rescale_inverses(moduli: tuple[int, ...]) -> tuple[int, ...]:
    """``(q_l^{-1} mod q_i)`` for every limb kept by a rescale (cached)."""
    q_last = moduli[-1]
    return tuple(modmath.inv_mod(q_last % q, q) for q in moduli[:-1])


class RNSPoly:
    """A polynomial in ``Z_Q[X]/(X^N + 1)`` stored as one flat residue array.

    One ``uint64`` word per residue whenever every modulus is below 2**62
    (the single-word and the double-word arithmetic share this layout),
    Python integers in an object array otherwise.

    Parameters
    ----------
    moduli:
        The RNS basis primes ``q_0 ... q_l`` currently attached to the
        polynomial (shrinks as levels are consumed), one per row.
    data:
        Canonical ``(len(moduli), N)`` residues as ``uint64`` words or
        Python integers, converted exactly to the basis' dtype by
        :func:`repro.core.modmath.coerce_stack`; any other dtype is a
        :class:`TypeError`.  Build from arbitrary integers with
        :meth:`from_limb_arrays` or :meth:`from_int_coefficients`, or
        start from :meth:`zeros`.
    fmt:
        Representation shared by all limbs (format is tracked per
        polynomial, which is what lets every cross-limb kernel batch).
    pool:
        Memory pool charged for the flat allocation (the process-wide
        ``default_pool`` when omitted).
    """

    __slots__ = ("moduli", "moduli_col", "data", "ring_degree", "pool",
                 "_fmt", "_charged", "_owner")

    def __init__(
        self,
        moduli: Sequence[int],
        data: np.ndarray,
        fmt: LimbFormat,
        *,
        pool: MemoryPool | None = None,
    ) -> None:
        # First, so that ``__del__`` finds a polynomial whose construction
        # raised (wrong shape or dtype, capacity, a denying ``charge_hook``)
        # uncharged.
        self._charged = 0
        moduli = [int(q) for q in moduli]
        data = np.asarray(data)
        if data.ndim != 2 or data.shape[0] != len(moduli):
            raise ValueError(
                f"stack data must be ({len(moduli)}, N), got {data.shape}"
            )
        if data.dtype not in (np.uint64, np.object_):
            raise TypeError(
                f"stack data must be uint64 or object residues, got "
                f"{data.dtype}; lift integers with RNSPoly.from_limb_arrays"
            )
        col = modmath.moduli_column(moduli)
        self._bind(
            moduli, col, modmath.coerce_stack(data, col), fmt,
            pool if pool is not None else default_pool, None,
        )
        nbytes = self.footprint_bytes()
        self.pool.charge(nbytes, _TAG)
        self._charged = nbytes

    def _bind(self, moduli, col, data, fmt, pool, owner) -> None:
        """Set the storage fields: the one body ``__init__`` and a view share."""
        self.moduli = moduli
        self.moduli_col = col  # the broadcastable (L, 1) moduli column
        self.data = data
        self.ring_degree = int(data.shape[-1])
        self._fmt = fmt
        self.pool = pool
        self._owner = owner

    # -- constructors --------------------------------------------------------

    @classmethod
    def zeros(
        cls,
        ring_degree: int,
        moduli: Sequence[int],
        *,
        fmt: LimbFormat = LimbFormat.COEFFICIENT,
        pool: MemoryPool | None = None,
    ) -> "RNSPoly":
        """Return the zero polynomial, charged to ``pool``."""
        col = modmath.moduli_column(moduli)
        data = modmath.stack_zeros(len(col), ring_degree, col)
        return cls(moduli, data, fmt, pool=pool)

    @classmethod
    def from_int_coefficients(
        cls,
        ring_degree: int,
        moduli: Sequence[int],
        coefficients: Sequence[int],
        *,
        fmt: LimbFormat = LimbFormat.COEFFICIENT,
    ) -> "RNSPoly":
        """Build a poly from signed integer coefficients (length ``<= N``).

        ``coefficients`` is an integer array (or list) straight from the
        encoder or a sampler; :func:`repro.core.modmath.lift_residues`
        reduces it against every modulus in one broadcast expression.
        ``fmt=EVALUATION`` prepares a *constant* (an encoding, a diagonal):
        client-side on both kernel producers, so its transform is unrecorded.
        """
        if len(coefficients) > ring_degree:
            raise ValueError("too many coefficients for the ring degree")
        rows = modmath.lift_residues(coefficients, modmath.moduli_column(moduli))
        if rows.shape[1] < ring_degree:
            rows = np.pad(rows, ((0, 0), (0, ring_degree - rows.shape[1])))
        poly = cls(moduli, rows, LimbFormat.COEFFICIENT)
        if fmt is LimbFormat.EVALUATION:
            with _DISPATCH.suppressed():
                poly = poly.to_evaluation()
        return poly

    @classmethod
    def from_limb_arrays(
        cls,
        ring_degree: int,
        moduli: Sequence[int],
        arrays: Sequence[np.ndarray],
        fmt: LimbFormat,
        *,
        pool: MemoryPool | None = None,
    ) -> "RNSPoly":
        """Canonicalize per-limb integer rows into a fresh polynomial."""
        if len(arrays) != len(moduli):
            raise ValueError("row count does not match modulus count")
        rows = modmath.lift_residues(arrays, modmath.moduli_column(moduli))
        if rows.shape[-1] != ring_degree:
            raise ValueError("limb data length does not match ring degree")
        return cls(moduli, rows, fmt, pool=pool)

    @staticmethod
    def fuse_many(
        groups: Sequence[Sequence["RNSPoly"]], *, pool: MemoryPool | None = None
    ) -> list["RNSPoly"]:
        """Fuse each group of polynomials into one allocation, all or none.

        The throughput plane's entry point: ``B`` same-degree polynomials
        become a single contiguous ``(B*L, N)`` buffer charged to the pool
        **once**, so every cross-limb kernel downstream launches once for
        the whole batch.  Rows are laid out member-major (all rows of the
        first polynomial, then the second, ...), the order :meth:`split`
        undoes.  The pool (``pool``, else the first polynomial's) must fit
        every group's buffer before any row is copied, otherwise this
        raises :class:`~repro.core.memory.FusedFootprintError` -- a
        ciphertext fuses its two components as two groups.  The row copy
        is pure data movement; provenance is forwarded so dependency edges
        stay intact in a recorded trace.
        """
        groups = [list(group) for group in groups]
        if not all(groups):
            raise ValueError("fuse needs at least one polynomial per group")
        first = groups[0][0]
        n, fmt = first.ring_degree, first._fmt
        if any(p.ring_degree != n or p._fmt is not fmt for g in groups for p in g):
            raise ValueError("fused polynomials must share one ring degree and format")
        target = pool if pool is not None else first.pool
        sizes = [sum(p.footprint_bytes() for p in group) for group in groups]
        if not target.fits(*sizes):
            rows = sorted({p.level_count // p.members for p in groups[0]})
            rows_text = f"L={rows[0]}" if len(rows) == 1 else f"L∈{rows}"
            raise FusedFootprintError(
                f"fusing B={sum(p.members for p in groups[0])} members "
                f"({rows_text} limbs each, N={n}) needs allocations of "
                f"{' + '.join(map(str, sizes))} bytes, but the pool budget is "
                f"{target.capacity_bytes} bytes with {target.free_bytes()} "
                f"free; drain fewer members per fused batch (e.g. serve's "
                f"BatchingPolicy.memory_budget_bytes) or raise the pool capacity"
            )
        fused = []
        for group in groups:
            moduli = [q for p in group for q in p.moduli]
            col = modmath.moduli_column(moduli)
            data = np.concatenate([modmath.coerce_stack(p.data, col) for p in group])
            poly = RNSPoly(moduli, data, fmt, pool=target)
            _DISPATCH.link(tuple(p.data for p in group), poly.data)
            fused.append(poly)
        return fused

    def split(self, parts: int) -> list["RNSPoly"]:
        """Split a fused polynomial back into ``parts`` equal zero-copy members.

        The inverse of :meth:`fuse_many`: each member is a row-range view of
        this polynomial's flat allocation (no copy, no pool charge).  A view
        keeps the polynomial it windows alive (NumPy's ``.base`` rule), so
        the allocation stays charged until its last view is gone or
        :meth:`release` is called on the owner.
        """
        if parts <= 0:
            raise ValueError("parts must be positive")
        total = len(self.moduli)
        if total % parts:
            raise ValueError(f"cannot split {total} rows into {parts} equal members")
        rows = total // parts
        return [self._window(start, start + rows) for start in range(0, total, rows)]

    def _window(self, start: int, stop: int) -> "RNSPoly":
        """Rows ``[start, stop)`` as a view: no copy, no charge, owner pinned."""
        moduli = self.moduli[start:stop]
        view = object.__new__(RNSPoly)
        view._charged = 0
        view._bind(
            moduli, modmath.moduli_column(moduli), self.data[start:stop],
            self._fmt, self.pool, self,
        )
        return view

    def take(self, indices: Sequence[int]) -> "RNSPoly":
        """Return a new polynomial holding copies of the rows at ``indices``
        (one recorded ``limb-copy`` launch), charged to the same pool."""
        indices = list(indices)
        return RNSPoly(
            [self.moduli[i] for i in indices],
            modmath.stack_take(self.data, indices), self._fmt, pool=self.pool,
        )

    def copy(self) -> "RNSPoly":
        """Return a deep copy (every row taken), charged to the same pool."""
        return self.take(range(len(self.moduli)))

    def release(self) -> None:
        """Credit the pool charge back, once (a view charged nothing)."""
        nbytes, self._charged = self._charged, 0
        if nbytes:
            self.pool.release(nbytes)

    __del__ = release

    # -- basic accessors -----------------------------------------------------

    @property
    def stack(self) -> "RNSPoly":
        """The polynomial itself.

        Read-only alias kept for ``benchmarks/e2e``, which reads ``data``
        and ``moduli_col`` through it; everything else reads the fields
        directly.
        """
        return self

    @property
    def level_count(self) -> int:
        """Return the number of limbs currently attached (ℓ + 1)."""
        return len(self.moduli)

    @property
    def fmt(self) -> LimbFormat:
        """Return the common representation of all limbs."""
        return self._fmt

    @property
    def members(self) -> int:
        """Number of same-basis polynomials fused member-major in the rows.

        A fused polynomial (:meth:`fuse_many` of same-shape members) tiles one
        basis ``B`` times, and a basis never repeats a prime, so the first
        modulus occurs once per member; 1 for a plain polynomial.  Every
        cross-limb pipeline (key switching, rescale, limb dropping) reads
        the member count from here.
        """
        return self.moduli.count(self.moduli[0])

    def member_rows(self, start: int, stop: int | None = None) -> tuple[np.ndarray, ...]:
        """Zero-copy views of limb rows ``[start, stop)`` of every member.

        Indices are per member with slice semantics (``-1`` is each
        member's last limb); a plain polynomial yields one view.
        """
        members = self.members
        per = len(self.moduli) // members
        rows = range(per)[start:stop]
        data = self.data
        return tuple(
            data[m * per + rows.start : m * per + rows.stop]
            for m in range(members)
        )

    def tile(self, members: int) -> "RNSPoly":
        """Repeat the polynomial member-major ``members`` times.

        How one plaintext, constant or key meets every member of a fused
        operand in a single kernel; ``members == 1`` returns ``self``.
        """
        if members == 1:
            return self
        tiled = np.concatenate([self.data] * members)
        _DISPATCH.link((self.data,), tiled)
        return RNSPoly(self.moduli * members, tiled, self._fmt, pool=self.pool)

    def basis(self) -> RNSBasis:
        """Return the :class:`RNSBasis` for the current moduli."""
        return RNSBasis(self.moduli)

    def footprint_bytes(self) -> int:
        """Device-memory footprint of the flat allocation."""
        return len(self.moduli) * self.ring_degree * ELEMENT_BYTES

    # -- representation ------------------------------------------------------

    def to_evaluation(self) -> "RNSPoly":
        """Return the polynomial with every limb in evaluation format.

        All limbs are transformed in one stacked NTT call.
        """
        if self._fmt is LimbFormat.EVALUATION:
            return self.copy()
        engine = get_stacked_engine(self.ring_degree, tuple(self.moduli))
        return self._adopt(engine.forward(self.data), LimbFormat.EVALUATION)

    def to_coefficient(self) -> "RNSPoly":
        """Return the polynomial with every limb in coefficient format."""
        if self._fmt is LimbFormat.COEFFICIENT:
            return self.copy()
        engine = get_stacked_engine(self.ring_degree, tuple(self.moduli))
        return self._adopt(engine.inverse(self.data), LimbFormat.COEFFICIENT)

    # -- arithmetic ----------------------------------------------------------

    def _check_compatible(self, other: "RNSPoly") -> None:
        if self.ring_degree != other.ring_degree:
            raise ValueError("ring degrees differ")
        if self.moduli != other.moduli:
            raise ValueError(
                f"RNS bases differ ({len(self.moduli)} vs {len(other.moduli)} limbs)"
            )
        if self._fmt != other._fmt:
            raise ValueError(f"limb formats differ: {self._fmt} vs {other._fmt}")

    def _adopt(self, data: np.ndarray, fmt: LimbFormat | None = None) -> "RNSPoly":
        """A polynomial over this one's basis and pool holding kernel output ``data``."""
        return RNSPoly(
            self.moduli, data, self._fmt if fmt is None else fmt, pool=self.pool
        )

    def add(self, other: "RNSPoly") -> "RNSPoly":
        """Return the element-wise sum (same basis and format required)."""
        self._check_compatible(other)
        return self._adopt(
            modmath.stack_add_mod(self.data, other.data, self.moduli_col)
        )

    def sub(self, other: "RNSPoly") -> "RNSPoly":
        """Return the element-wise difference."""
        self._check_compatible(other)
        return self._adopt(
            modmath.stack_sub_mod(self.data, other.data, self.moduli_col)
        )

    def negate(self) -> "RNSPoly":
        """Return the negated polynomial."""
        return self._adopt(modmath.stack_neg_mod(self.data, self.moduli_col))

    def multiply(self, other: "RNSPoly") -> "RNSPoly":
        """Return the element-wise (evaluation-domain) product."""
        self._check_compatible(other)
        if self._fmt is not LimbFormat.EVALUATION:
            raise ValueError("element-wise limb products require evaluation format")
        return self._adopt(
            modmath.stack_mul_mod(self.data, other.data, self.moduli_col)
        )

    def _scalars_per_limb(self, scalar: int | Sequence[int]) -> list[int]:
        if isinstance(scalar, (int, np.integer)):
            return [int(scalar)] * len(self.moduli)
        scalars = [int(s) for s in scalar]
        if len(scalars) != len(self.moduli):
            raise ValueError("need one scalar per limb")
        return scalars

    @staticmethod
    def multiply_accumulate(pairs: Sequence[tuple["RNSPoly", "RNSPoly"]]) -> "RNSPoly":
        """Fused ``Σ a_i ⊙ b_i`` over evaluation-format polynomials.

        The dot-product fusion of §III-F.5: raw products accumulate in the
        wide uint64 lane and reduce once, instead of a reduce per multiply
        and per add.  All operands must share one basis and be in
        evaluation format.
        """
        if not pairs:
            raise ValueError("multiply_accumulate needs at least one pair")
        first = pairs[0][0]
        for a, b in pairs:
            first._check_compatible(a)
            first._check_compatible(b)
        if first.fmt is not LimbFormat.EVALUATION:
            raise ValueError("element-wise limb products require evaluation format")
        return first._adopt(modmath.stack_dot_mod(
            [(a.data, b.data) for a, b in pairs], first.moduli_col,
        ))

    def multiply_scalar(self, scalar: int | Sequence[int]) -> "RNSPoly":
        """Multiply by an integer constant, or by one constant per limb."""
        return self._adopt(modmath.stack_scalar_mod(
            self.data, self._scalars_per_limb(scalar), self.moduli_col
        ))

    def add_scalar(self, scalar: int | Sequence[int]) -> "RNSPoly":
        """Add an integer constant (or one constant per limb).

        In coefficient format the constant is added to the degree-0
        coefficient; in evaluation format a constant polynomial evaluates
        to the same value everywhere, so it is added to every element.
        """
        scalars = self._scalars_per_limb(scalar)
        if self._fmt is LimbFormat.EVALUATION:
            add = modmath.stack_add_scalar_mod
        else:
            add = modmath.stack_add_scalar_at
        return self._adopt(add(self.data, scalars, self.moduli_col))

    def automorphism(self, exponent: int) -> "RNSPoly":
        """Apply the Galois automorphism ``X -> X^exponent`` to every limb."""
        return RNSPoly.automorphism_many([self], exponent)[0]

    @staticmethod
    def automorphism_many(polys: Sequence["RNSPoly"], exponent: int) -> list["RNSPoly"]:
        """Apply ``X -> X^exponent`` to same-basis polynomials in one launch.

        The format never changes.  In evaluation format the automorphism
        only permutes the evaluation points: one :func:`numpy.take` per
        polynomial with the cached ``eval_automorphism_map`` index -- no
        transform, any word backend, any member count.  In coefficient
        format it is the ``coeff_automorphism_map`` gather plus sign fix.
        The execution plane sees the single ``Automorph`` kernel a GPU
        launches for both ciphertext components (or every hoisted digit).
        """
        first = polys[0]
        for poly in polys[1:]:
            first._check_compatible(poly)
        if first._fmt is LimbFormat.EVALUATION:
            index, sign = eval_automorphism_map(first.ring_degree, exponent), None
        else:
            index, sign = coeff_automorphism_map(first.ring_degree, exponent)
        outs = modmath.stack_automorphism(
            [p.data for p in polys], index, sign, first.moduli_col
        )
        return [p._adopt(out) for p, out in zip(polys, outs)]

    # -- level management ----------------------------------------------------

    def keep_limbs(self, count: int) -> "RNSPoly":
        """Return the polynomial truncated to its first ``count`` limbs.

        Keeping every limb returns ``self`` and a plain polynomial's head
        is a zero-copy window (polynomials are immutable once built); on a
        fused polynomial every member keeps its first ``count`` limbs,
        which is a gather.
        """
        members = self.members
        per = len(self.moduli) // members
        if not 1 <= count <= per:
            raise ValueError(f"cannot keep {count} of {per} limbs")
        if count == per:
            return self
        if members == 1:
            return self._window(0, count)
        return self.take([m * per + j for m in range(members) for j in range(count)])

    def rescale_last(self) -> "RNSPoly":
        """Divide by the last prime ``q_l`` and drop its limb (RNS rescale).

        For every remaining limb ``i``:
        ``c_i' = q_l^{-1} · (c_i - SwitchModulus(c_l)) mod q_i``.
        This is the computation FIDESlib fuses into its NTT kernels
        ("Rescale fusion", §III-F.5).  Here the switched last limb is
        broadcast into every remaining modulus, transformed with one
        stacked NTT when needed, and folded in with batched subtract and
        scalar-multiply kernels -- no per-limb loop.
        """
        return RNSPoly.rescale_last_many([self])[0]

    @staticmethod
    def rescale_last_many(polys: Sequence["RNSPoly"]) -> list["RNSPoly"]:
        """Rescale several same-basis polynomials in fused stacked kernels.

        The two components of a ciphertext (and every member of a fused
        ``(B·L, N)`` polynomial -- the member count is read off the
        operands) share every transform: the switched last limbs and the
        NTT passes of all ``P·B`` member polynomials are concatenated
        row-wise into single stacked calls, cutting the per-call overhead
        without changing any residue -- the per-row math is exactly
        :meth:`rescale_last`.
        """
        if not polys:
            return []
        first = polys[0]
        for poly in polys[1:]:
            first._check_compatible(poly)
        members = first.members
        count = len(polys)
        keep = len(first.moduli) // members - 1
        if keep < 1:
            raise ValueError("cannot rescale a single-limb polynomial")
        n = first.ring_degree
        q_last = first.moduli[-1]
        target_moduli = first.moduli[:keep]
        target_col = modmath.moduli_column(target_moduli)
        last_moduli = (q_last,) * members
        kept_moduli = tuple(target_moduli) * members
        inverses = _rescale_inverses(tuple(first.moduli[: keep + 1]))
        lasts = [row for p in polys for row in p.member_rows(-1)]
        heads = [rows for p in polys for rows in p.member_rows(0, -1)]
        # The subtract/scale tail folds each member's head limbs into its
        # rows of the switched block in place.
        fold = modmath.head_fold(inverses, target_col)
        fold_ops = MODMUL_OPS + MODADD_OPS

        def switch(reads, writes):
            # The batched modulus switch lands every member's block directly
            # in the (members*keep, N) layout the fold consumes.
            modmath.stack_switch_modulus_many(
                reads[0], q_last, target_col, out=writes[0]
            )

        # Per component, a GPU backend launches an iNTT of the dropped limbs
        # plus an NTT over the kept limbs with the switch/subtract/scale
        # arithmetic fused in ("Rescale fusion", §III-F.5); a fused component
        # is the same kernels over ``B×`` the rows.
        with _DISPATCH.interleaved():
            if first.fmt is LimbFormat.EVALUATION:
                # Folded into the transforms the switch costs its centring
                # add on the iNTT (which absorbs the N^-1 scale) and shares
                # the fold's multiply on the NTT.
                dropped = get_stacked_engine(n, last_moduli * count).inverse(
                    sources=lasts, segments=[members] * count,
                    fused_ops_per_element=MODADD_OPS,
                )
                out = get_stacked_engine(n, kept_moduli * count).forward(
                    segments=[members * keep] * count,
                    prologue=Fused("rescale-switch", MODMUL_OPS, (dropped,), switch),
                    epilogue=Fused("rescale-tail", fold_ops, heads, fold),
                    fused_ops_per_element=fold_ops,
                )
            else:
                # In coefficient format only the fused element-wise kernel
                # remains: switch each component's last limbs and fold.
                def switch_and_fold(reads, writes):
                    switch((np.concatenate(reads[:members]),), writes)
                    fold((writes[0], *reads[members:]), writes)

                out = np.empty((count * members * keep, n), dtype=target_col.dtype)
                for i, block in enumerate(np.split(out, count)):
                    _DISPATCH.segment = i
                    mine = slice(i * members, (i + 1) * members)
                    _DISPATCH.run(
                        "rescale-fused", switch_and_fold, ops_per_element=fold_ops,
                        reads=(*lasts[mine], *heads[mine]), writes=(block,),
                    )
        return [
            RNSPoly(kept_moduli, block, poly._fmt, pool=poly.pool)
            for poly, block in zip(polys, np.split(out, count))
        ]

    # -- conversions ---------------------------------------------------------

    def limb_arrays(self) -> list[np.ndarray]:
        """Return the raw residue arrays of every limb (zero-copy views)."""
        return list(self.data)

    def to_int_coefficients(self, *, centered: bool = True) -> list[int]:
        """CRT-recombine the limbs into signed integer coefficients."""
        poly = self.to_coefficient()
        return poly.basis().compose(poly.limb_arrays(), centered=centered)

    def __len__(self) -> int:
        return self.ring_degree


__all__ = ["RNSPoly"]
