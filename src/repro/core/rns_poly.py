"""``RNSPoly``: the polynomial container of Figure 2.

An :class:`RNSPoly` is a degree-``N`` polynomial decomposed over an RNS
basis ``B = {q_0, ..., q_l}``.  Its storage is a single
:class:`~repro.core.limb_stack.LimbStack` -- one flat ``(num_limbs, N)``
device buffer (the §III-D flattened allocation strategy) -- and every
cross-limb operation (element-wise arithmetic, rescaling, limb dropping,
base-extension glue, CRT recomposition, NTT) is written here, once, as a
call of a :mod:`repro.core.modmath` ``stack_*`` kernel (or the stacked NTT
engine) on ``stack.data``: vectorized broadcast expressions with no
per-limb Python loop, matching the batched kernels of §III-F.

Per-limb access is a view, not a second arithmetic:
``poly.limb_arrays()[i]`` is row ``i`` of ``stack.data``, zero-copy.
(Which device holds which rows is :mod:`repro.cluster`'s model.)
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

from repro.core import modmath
from repro.core.automorphism import coeff_automorphism_map, eval_automorphism_map
from repro.core.dispatch import get_dispatcher
from repro.core.limb import LimbFormat
from repro.core.limb_stack import LimbStack
from repro.core.memory import MemoryPool
from repro.core.ntt import Fused, get_stacked_engine
from repro.core.rns import RNSBasis
from repro.gpu.kernel import MODADD_OPS, MODMUL_OPS

_DISPATCH = get_dispatcher()


@lru_cache(maxsize=128)  # one entry per rescaled basis (a toy bootstrap: 11)
def _rescale_inverses(moduli: tuple[int, ...]) -> tuple[int, ...]:
    """``(q_l^{-1} mod q_i)`` for every limb kept by a rescale (cached)."""
    q_last = moduli[-1]
    return tuple(modmath.inv_mod(q_last % q, q) for q in moduli[:-1])


class RNSPoly:
    """A polynomial in ``Z_Q[X]/(X^N + 1)`` stored as a flat limb stack.

    Parameters
    ----------
    ring_degree:
        Polynomial degree bound ``N``.
    moduli:
        The RNS basis primes ``q_0 ... q_l`` currently attached to the
        polynomial (shrinks as levels are consumed).
    fmt:
        Representation shared by all limbs (format is tracked per
        polynomial, which is what lets every cross-limb kernel batch).
    pool:
        Memory pool charged for the flat allocation.

    The constructor returns the zero polynomial; build one from data with
    :meth:`from_int_coefficients`, :meth:`from_limb_arrays` or
    :meth:`from_stack`.
    """

    def __init__(
        self,
        ring_degree: int,
        moduli: Sequence[int],
        *,
        fmt: LimbFormat = LimbFormat.COEFFICIENT,
        pool: MemoryPool | None = None,
    ) -> None:
        self.ring_degree = ring_degree
        self.moduli = list(int(q) for q in moduli)
        self._fmt = fmt
        self._stack = LimbStack.zeros(ring_degree, self.moduli, pool=pool)

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_stack(cls, stack: LimbStack, fmt: LimbFormat) -> "RNSPoly":
        """Adopt an existing limb stack without copying (internal fast path)."""
        poly = object.__new__(cls)
        poly.ring_degree = stack.ring_degree
        poly.moduli = list(stack.moduli)
        poly._fmt = fmt
        poly._stack = stack
        return poly

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
        poly = cls.from_stack(LimbStack(moduli, rows), LimbFormat.COEFFICIENT)
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
    ) -> "RNSPoly":
        """Build a poly from raw per-limb residue arrays."""
        stack = LimbStack.from_rows(moduli, arrays)
        if stack.ring_degree != ring_degree:
            raise ValueError("limb data length does not match ring degree")
        return cls.from_stack(stack, fmt)

    def copy(self) -> "RNSPoly":
        """Return a deep copy (charged to the same memory pool)."""
        return RNSPoly.from_stack(self._stack.copy(), self._fmt)

    # -- basic accessors -----------------------------------------------------

    @property
    def stack(self) -> LimbStack:
        """The flat ``(num_limbs, N)`` limb-stack storage."""
        return self._stack

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
        """Number of same-basis polynomials fused member-major in the stack.

        A fused stack (:meth:`LimbStack.fuse` of same-shape members) tiles
        one basis ``B`` times, and a basis never repeats a prime, so the
        first modulus occurs once per member; 1 for a plain polynomial.
        Every cross-limb pipeline (key switching, rescale, limb dropping)
        reads the member count from here.
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
        data = self._stack.data
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
        data = self._stack.data
        tiled = np.concatenate([data] * members)
        _DISPATCH.link((data,), tiled)
        return self._wrap(
            LimbStack(self.moduli * members, tiled, pool=self._stack.pool)
        )

    def basis(self) -> RNSBasis:
        """Return the :class:`RNSBasis` for the current moduli."""
        return RNSBasis(self.moduli)

    def footprint_bytes(self) -> int:
        """Return the memory footprint of the polynomial."""
        return self._stack.footprint_bytes()

    # -- representation ------------------------------------------------------

    def to_evaluation(self) -> "RNSPoly":
        """Return the polynomial with every limb in evaluation format.

        All limbs are transformed in one stacked NTT call.
        """
        if self._fmt is LimbFormat.EVALUATION:
            return self.copy()
        engine = get_stacked_engine(self.ring_degree, tuple(self.moduli))
        return self._adopt(engine.forward(self._stack.data), LimbFormat.EVALUATION)

    def to_coefficient(self) -> "RNSPoly":
        """Return the polynomial with every limb in coefficient format."""
        if self._fmt is LimbFormat.COEFFICIENT:
            return self.copy()
        engine = get_stacked_engine(self.ring_degree, tuple(self.moduli))
        return self._adopt(engine.inverse(self._stack.data), LimbFormat.COEFFICIENT)

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

    def _wrap(self, stack: LimbStack, fmt: LimbFormat | None = None) -> "RNSPoly":
        return RNSPoly.from_stack(stack, self._fmt if fmt is None else fmt)

    def _adopt(self, data: np.ndarray, fmt: LimbFormat | None = None) -> "RNSPoly":
        """A polynomial over this one's basis and pool holding kernel output ``data``."""
        return self._wrap(LimbStack(self.moduli, data, pool=self._stack.pool), fmt)

    def add(self, other: "RNSPoly") -> "RNSPoly":
        """Return the element-wise sum (same basis and format required)."""
        self._check_compatible(other)
        stack = self._stack
        return self._adopt(
            modmath.stack_add_mod(stack.data, other._stack.data, stack.moduli_col)
        )

    def sub(self, other: "RNSPoly") -> "RNSPoly":
        """Return the element-wise difference."""
        self._check_compatible(other)
        stack = self._stack
        return self._adopt(
            modmath.stack_sub_mod(stack.data, other._stack.data, stack.moduli_col)
        )

    def negate(self) -> "RNSPoly":
        """Return the negated polynomial."""
        stack = self._stack
        return self._adopt(modmath.stack_neg_mod(stack.data, stack.moduli_col))

    def multiply(self, other: "RNSPoly") -> "RNSPoly":
        """Return the element-wise (evaluation-domain) product."""
        self._check_compatible(other)
        if self._fmt is not LimbFormat.EVALUATION:
            raise ValueError("element-wise limb products require evaluation format")
        stack = self._stack
        return self._adopt(
            modmath.stack_mul_mod(stack.data, other._stack.data, stack.moduli_col)
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
            [(a._stack.data, b._stack.data) for a, b in pairs],
            first._stack.moduli_col,
        ))

    def multiply_scalar(self, scalar: int | Sequence[int]) -> "RNSPoly":
        """Multiply by an integer constant, or by one constant per limb."""
        stack = self._stack
        return self._adopt(modmath.stack_scalar_mod(
            stack.data, self._scalars_per_limb(scalar), stack.moduli_col
        ))

    def add_scalar(self, scalar: int | Sequence[int]) -> "RNSPoly":
        """Add an integer constant (or one constant per limb).

        In coefficient format the constant is added to the degree-0
        coefficient; in evaluation format a constant polynomial evaluates
        to the same value everywhere, so it is added to every element.
        """
        scalars = self._scalars_per_limb(scalar)
        stack = self._stack
        if self._fmt is LimbFormat.EVALUATION:
            add = modmath.stack_add_scalar_mod
        else:
            add = modmath.stack_add_scalar_at
        return self._adopt(add(stack.data, scalars, stack.moduli_col))

    def automorphism(self, exponent: int) -> "RNSPoly":
        """Apply the Galois automorphism ``X -> X^exponent`` to every limb."""
        return RNSPoly.automorphism_many([self], exponent)[0]

    @staticmethod
    def automorphism_many(polys: Sequence["RNSPoly"], exponent: int) -> list["RNSPoly"]:
        """Apply ``X -> X^exponent`` to same-basis polynomials in one launch.

        The format never changes.  In evaluation format the automorphism
        only permutes the evaluation points: one :func:`numpy.take` per
        stack with the cached ``eval_automorphism_map`` index -- no
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
            [p._stack.data for p in polys], index, sign, first._stack.moduli_col
        )
        return [p._adopt(out) for p, out in zip(polys, outs)]

    # -- level management ----------------------------------------------------

    def keep_limbs(self, count: int) -> "RNSPoly":
        """Return the polynomial truncated to its first ``count`` limbs.

        Keeping every limb returns ``self`` and a plain polynomial's head
        is a zero-copy window (polynomials are immutable once built); on a
        fused stack every member keeps its first ``count`` limbs, which is
        a gather.
        """
        members = self.members
        per = len(self.moduli) // members
        if not 1 <= count <= per:
            raise ValueError(f"cannot keep {count} of {per} limbs")
        if count == per:
            return self
        if members == 1:
            return self._wrap(self._stack.head(count))
        return self._wrap(self._stack.take(
            [m * per + j for m in range(members) for j in range(count)]
        ))

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
        ``(B·L, N)`` stack -- the member count is read off the operands)
        share every transform: the switched last limbs and the NTT passes
        of all ``P·B`` member polynomials are concatenated row-wise into
        single stacked calls, cutting the per-call overhead without
        changing any residue -- the per-row math is exactly
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
            poly._wrap(LimbStack(kept_moduli, block, pool=poly._stack.pool))
            for poly, block in zip(polys, np.split(out, count))
        ]

    # -- conversions ---------------------------------------------------------

    def limb_arrays(self) -> list[np.ndarray]:
        """Return the raw residue arrays of every limb (zero-copy views)."""
        return list(self._stack.data)

    def to_int_coefficients(self, *, centered: bool = True) -> list[int]:
        """CRT-recombine the limbs into signed integer coefficients."""
        poly = self.to_coefficient()
        return poly.basis().compose(poly.limb_arrays(), centered=centered)

    def __len__(self) -> int:
        return self.ring_degree


__all__ = ["RNSPoly"]
