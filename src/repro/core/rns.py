"""Residue Number System (RNS) bases and fast base conversion.

CKKS ciphertext moduli are hundreds to thousands of bits wide; the RNS
technique (Cheon et al. [35]) represents every coefficient by its residues
modulo a basis of word-sized primes ``B = {q_0, ..., q_l}`` so all
arithmetic stays within machine words.  Three ingredients live here:

* :class:`RNSBasis` -- a prime basis with its CRT constants
  (``Q``, ``q̂_i = Q/q_i``, ``q̂_i^{-1} mod q_i``) and the recombination of
  residues into integer coefficients (:meth:`RNSBasis.compose`).
* :class:`BaseConverter` -- the fast base conversion of Equation 1 of the
  paper, the core of ModUp / ModDown / Rescale.  It is implemented, as the
  paper describes, as a modular matrix-vector product preceded by a
  limb-wise scaling, with the partial dot products accumulated exactly
  (the 128-bit accumulator of §III-F.3) and reduced only once per output
  element.
* digit-decomposition helpers used by hybrid key switching (the ``dnum``
  partition of the basis).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core import modmath
from repro.core.dispatch import DISPATCH

#: The largest int64: a composed coefficient up to it in magnitude is a word.
_INT64_MAX = (1 << 63) - 1


@dataclass(frozen=True)
class RNSBasis:
    """A basis of coprime word-sized moduli with precomputed CRT constants."""

    moduli: tuple[int, ...]
    modulus: int = field(init=False)
    q_hat: tuple[int, ...] = field(init=False)
    q_hat_inv: tuple[int, ...] = field(init=False)
    #: ``garner_inv[m - 1] = (q_m^{-1} mod q_{m-1}, ..., q_m^{-1} mod q_0)``,
    #: the constants of :meth:`compose`'s step at ``q_m``; a prefix basis's
    #: table is a prefix of this one.
    garner_inv: tuple[tuple[int, ...], ...] = field(init=False, repr=False)

    def __init__(self, moduli: Sequence[int]) -> None:
        moduli = tuple(int(q) for q in moduli)
        if not moduli:
            raise ValueError("an RNS basis needs at least one modulus")
        if len(set(moduli)) != len(moduli):
            raise ValueError("RNS moduli must be distinct")
        product = 1
        for q in moduli:
            product *= q
        q_hat = tuple(product // q for q in moduli)
        q_hat_inv = tuple(
            modmath.inv_mod(h % q, q) for h, q in zip(q_hat, moduli)
        )
        object.__setattr__(self, "moduli", moduli)
        object.__setattr__(self, "modulus", product)
        object.__setattr__(self, "q_hat", q_hat)
        object.__setattr__(self, "q_hat_inv", q_hat_inv)
        object.__setattr__(self, "garner_inv", tuple(
            tuple(modmath.inv_mod(q % p, p) for p in reversed(moduli[:m]))
            for m, q in enumerate(moduli) if m
        ))

    def __len__(self) -> int:
        return len(self.moduli)

    def __iter__(self):
        return iter(self.moduli)

    # -- conversions between residue vectors and integers --------------------

    def compose(self, limbs: Sequence[np.ndarray]) -> np.ndarray:
        """Recombine per-limb residue rows (or one ``(L, N)`` stack) into
        signed integer coefficients in ``(-Q/2, Q/2]``, the convention CKKS
        decoding expects.

        Garner's mixed-radix digits ``x = v_0 + v_1·q_l + v_2·q_l·q_{l-1} +
        ...`` come from the stack's own modular subtract and constant
        multiply, one row block per step, from the top modulus ``q_l`` down:
        then the step at ``q_m`` works on the rows ``q_{m-1}, ..., q_0`` at
        every level, and the constant tables the modular arithmetic caches
        per row set number one per modulus of the chain, not one per level
        and step.  A value below ``2**63`` in magnitude is read off its low
        digits in machine words: its high digits are all zero (positive) or
        all ``q_i - 1`` (negative, read from the digit complement
        ``Q - 1 - x``).  The result is an int64 array when every coefficient
        fits one, and an object array of Python integers for an exact chain
        (a modulus at or above 2**62) or a coefficient past int64.
        """
        if len(limbs) != len(self.moduli):
            raise ValueError("limb count does not match basis size")
        col = modmath.moduli_column(self.moduli)
        digits = np.array(modmath.coerce_stack(np.asarray(limbs), col)[::-1])
        col = col[::-1]
        with DISPATCH.suppressed():
            for j, inverses in enumerate(reversed(self.garner_inv)):
                rest, tail = col[j + 1 :], digits[j + 1 :]
                modmath.stack_sub_mod(
                    tail, modmath.lift_residues(digits[j], rest), rest, out=tail
                )
                modmath.stack_scalar_mod(tail, inverses, rest, out=tail)
        weights = [1]
        for q in self.moduli[:0:-1]:
            weights.append(weights[-1] * q)
        if digits.dtype != np.object_:
            words = self._int64_words(digits, weights, col)
            if words is not None:
                return words
        total = 0
        for row, weight in zip(digits, weights):
            total = total + modmath.object_row(row) * weight
        return np.where(total > self.modulus >> 1, total - self.modulus, total)

    def _int64_words(self, digits: np.ndarray, weights: list[int],
                     col: np.ndarray) -> np.ndarray | None:
        """The centred value of uint64 mixed-radix ``digits`` (weights
        ``W_i``) as int64, or None when a coefficient does not fit a word."""
        big_q, half = self.modulus, self.modulus >> 1
        # Digits below k are whole words of a value below 2**63; digit k is
        # partial, and every digit above it must be zero.
        k = sum(1 for w in weights if w <= _INT64_MAX) - 1

        def at_most(rows: np.ndarray, bound: int):
            """(mask of values <= bound, the values mod 2**64)."""
            low = sum(row * np.uint64(w) for row, w in zip(rows[:k], weights))
            fits = rows[k] <= (np.uint64(bound) - low) // np.uint64(weights[k])
            fits &= ~rows[k + 1 :].any(axis=0)
            return fits, low + rows[k] * np.uint64(weights[k])

        positive, value = at_most(digits, min(_INT64_MAX, half))
        # x > Q/2 is x - Q = -(y + 1) = ~y for the complement y = Q - 1 - x.
        negative, complement = at_most(
            (col - np.uint64(1)) - digits, min(_INT64_MAX, big_q - 2 - half)
        )
        if not (positive | negative).all():
            return None
        return np.where(positive, value, ~complement).view(np.int64)


class BaseConverter:
    """Fast (approximate) base conversion ``Conv_{B' -> B}`` of Equation 1.

    Given residues of ``x`` under the input basis ``B'``, produces residues
    under the output basis ``B`` of a value congruent to ``x`` up to a small
    multiple ``α·Q_{B'}`` with ``0 <= α < |B'|`` -- the standard HPS
    approximation whose error CKKS absorbs into its noise.  The computation
    is exactly the matrix-matrix product the paper describes: a limb-wise
    scaling ``x_i · q̂_i^{-1} mod q_i`` followed by accumulation against the
    precomputed ``[q̂_i]_{p_k}`` table with one final reduction per output
    element.
    """

    def __init__(self, source: RNSBasis, target: RNSBasis) -> None:
        overlap = set(source.moduli) & set(target.moduli)
        if overlap:
            raise ValueError(f"source and target bases overlap: {sorted(overlap)}")
        self.source = source
        self.target = target
        # [q̂_i]_{p_k} table, indexed [k][i] as in Equation 1 (plus any
        # correction column a subclass weighs in, see ``_weights``).
        self.q_hat_mod_target = [
            [w % p for w in self._weights()] for p in target.moduli
        ]
        self.q_hat_inv = list(source.q_hat_inv)
        # Stacked tables for the batched (limb-stack) conversion path.
        self._source_col = modmath.moduli_column(source.moduli)
        self._target_col = modmath.moduli_column(target.moduli)
        exact = self._exact = np.object_ in (
            self._source_col.dtype, self._target_col.dtype
        )
        table_dtype = np.object_ if exact else np.uint64
        #: (|target|, |source|) matrix of [q̂_i]_{p_k} from Equation 1.
        self._q_hat_matrix = np.array(self.q_hat_mod_target, dtype=table_dtype)
        self._q_hat_inv_col = np.array(
            [inv % q for inv, q in zip(self.q_hat_inv, source.moduli)],
            dtype=table_dtype,
        ).reshape(-1, 1)

    def _weights(self) -> list[int]:
        """The integers the scaled source rows are weighed with: ``q̂_i``."""
        return list(self.source.q_hat)

    def _terms(self, scaled):
        """The rows the accumulation multiplies with the table's columns."""
        return scaled

    def convert_stack(
        self, stack: np.ndarray, *, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Batched base conversion of a canonical ``(|source|, N)`` stack.

        One launch over one member (:meth:`convert_members`); with ``out=``
        the converted rows land directly in the caller's buffer.
        """
        return self.convert_members((np.asarray(stack),), out)

    def convert_members(
        self,
        sources: Sequence[np.ndarray],
        out: np.ndarray | None = None,
        *,
        limb_major: bool = False,
    ) -> np.ndarray:
        """Convert one ``(|source|, N)`` block per member of a fused stack.

        One launch (one ``baseconv`` event reading every member's block)
        over ``len(sources)`` members.  ``out`` receives ``|target|`` rows
        per member in the consumer's layout, so ModUp/ModDown need no
        staging copy between conversion and the transform that follows:
        member after member, or -- ``limb_major`` -- each converted limb
        once per member, the layout in which a stacked NTT walks runs of one
        modulus (ModUp).  ``out`` may be the exact (Python-integer) stack of
        a chain this converter's word-sized target is a sub-basis of.
        """
        sources = tuple(sources)
        count, width = len(sources), len(self.target)
        if out is None:
            out = np.empty((count * width, sources[0].shape[-1]), self._target_col.dtype)
        words = out
        if out.dtype != self._target_col.dtype:
            words = np.empty(out.shape, dtype=self._target_col.dtype)
        with DISPATCH.suppressed():
            for m, source in enumerate(sources):
                self._convert_rows(
                    np.asarray(source),
                    words[m::count] if limb_major
                    else words[m * width : (m + 1) * width],
                )
        if words is not out:
            out[...] = modmath.object_row(words)
        if DISPATCH.recording:

            def replay(reads, writes, _conv=self, _limb_major=limb_major):
                _conv.convert_members(reads, writes[0], limb_major=_limb_major)

            DISPATCH.base_conversion(
                "baseconv",
                len(self.source),
                width,
                reads=sources,
                writes=(out,),
                cols=count * out.shape[-1],
                replay=replay,
            )
        return out

    def _convert_rows(self, source_stack: np.ndarray, out: np.ndarray) -> None:
        """Equation 1 on one member's rows, into ``out`` (any row stride).

        On word moduli the whole computation is two word-kernel calls: the
        limb-wise scaling (a per-row constant product) and the wide
        accumulator of §III-F.3 (:func:`repro.core.modmath.matrix_dot_mod`),
        which reads each scaled row and each ``[q̂_i]_{p_k}`` column in
        place and reduces once per output element.  The scaled rows are
        canonical modulo the *source* moduli, which may be wider than the
        target's, so the accumulation is told their bound.
        """
        if not self._exact:
            stack = modmath.coerce_stack(source_stack, self._source_col)
            scaled = modmath.stack_mul_mod(stack, self._q_hat_inv_col, self._source_col)
            modmath.matrix_dot_mod(
                self._q_hat_matrix, self._terms(scaled), self._target_col,
                out=out, bound=max(self.source.moduli),
            )
        else:
            scaled = self._terms(np.array([
                modmath.object_row(row) * inv % q
                for row, inv, q in zip(source_stack, self.q_hat_inv, self.source.moduli)
            ]))
            length = source_stack.shape[1]
            for k, p in enumerate(self.target.moduli):
                acc = np.zeros(length, dtype=object)
                for term, weight in zip(scaled, self.q_hat_mod_target[k]):
                    acc = acc + term * weight
                out[k] = acc % p


class RoundingConverter(BaseConverter):
    """Exactly rounded base conversion (Halevi-Polyakov-Shoup, ePrint 2018/117).

    Produces the residues over the target of the *centred* representative
    ``[x]_M`` of ``x`` modulo the source modulus ``M`` -- no ``α·M``
    overshoot.  Equation 1's sum ``Σ_j y_j·q̂_j`` with the scaled source
    rows ``y_j = [x_j·q̂_j^{-1}]_{m_j}`` equals ``[x]_M + v·M`` for
    ``v = ⌊Σ_j y_j/m_j⌉``, so ``v`` is one more term of the same
    accumulation, weighed with ``-M``: the launch estimates it in float64
    from the scaled rows (exact Python integers on an exact chain) and the
    table carries ``[-M]_{p_k}`` as one more column.  The float estimate
    can round the wrong way only where ``x/M`` lies within about
    ``|source|·2**-52`` of a half-integer.
    """

    def __init__(self, source: RNSBasis, target: RNSBasis) -> None:
        super().__init__(source, target)
        self._reciprocals = np.array([1.0 / m for m in source.moduli])

    def _weights(self) -> list[int]:
        return [*self.source.q_hat, -self.source.modulus]

    def _terms(self, scaled):
        if scaled.dtype == np.object_:
            # Exact: round(Σ y_j·q̂_j / M), M odd, so no tie to break.
            total = sum(y * h for y, h in zip(scaled, self.source.q_hat))
            big_m = self.source.modulus
            rounded = (2 * total + big_m) // (2 * big_m)
            return np.concatenate([scaled, rounded[None, :]])
        estimate = np.rint(self._reciprocals @ scaled.astype(np.float64))
        return np.concatenate([scaled, estimate.astype(np.uint64)[None, :]])


def partition_digits(moduli: Sequence[int], dnum: int) -> list[list[int]]:
    """Split a basis into ``dnum`` contiguous digits for hybrid key switching.

    The first digits receive ``ceil(len/dnum)`` moduli so that every digit
    is non-empty whenever ``len(moduli) >= 1``.
    """
    moduli = list(moduli)
    if dnum <= 0:
        raise ValueError("dnum must be positive")
    per_digit = -(-len(moduli) // dnum)  # ceil division
    digits = []
    for start in range(0, len(moduli), per_digit):
        digits.append(moduli[start : start + per_digit])
    return digits


__all__ = [
    "RNSBasis",
    "BaseConverter",
    "RoundingConverter",
    "partition_digits",
]
