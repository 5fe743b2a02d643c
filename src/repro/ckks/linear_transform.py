"""Homomorphic linear transforms (ciphertext-vector x plaintext-matrix).

The CoeffToSlot and SlotToCoeff stages of bootstrapping are homomorphic
DFTs.  FIDESlib (like OpenFHE) factors each into ``L`` sparse matrices
[40], [44] and evaluates every factor with the Baby-Step Giant-Step (BSGS)
algorithm of Bossuat et al. [42]: the matrix is decomposed into its
generalized diagonals, baby-step rotations of the input are produced once
with the hoisted-rotation optimisation, and each giant step combines its
plaintext multiplications in one fused dot product.  The giant steps end
in one merged tail (the giant half of Bossuat et al.'s double hoisting):
each rotated inner product's key switch stops in the extended basis
``Q_l ∪ P``, the accumulators sum there, and one ModDown divides the sum
by ``P·q_l`` (:meth:`~repro.ckks.evaluator.Evaluator.rotated_sum`) instead
of a ModDown per giant step and a rescale.

:class:`LinearTransform` implements that algorithm for an arbitrary
``slots x slots`` complex matrix.  :func:`dft_factors` builds the factors:
the decoding matrix is ``E0 = G_L ⋯ G_1 · P``, the radix-2 "special FFT"
over the rotation group (Chen-Chillotti-Song, ePrint 2018/1043) with ``P``
the bit-reversal permutation.  A factor of ``r`` butterfly stages has at
most ``2^(r+1) - 1`` nonzero diagonals (31 and 16 at 256 slots, against 256
for ``E0``).  ``P`` is never evaluated: CoeffToSlot stops at ``P·E0⁻¹``,
so the slots hold the coefficients in bit-reversed order between the two
halves, and ApproxModEval, which works slot by slot, does not see the order.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from repro.ckks.ciphertext import Ciphertext, Plaintext
from repro.ckks.context import Context
from repro.ckks.encoding import rotation_group
from repro.ckks.evaluator import Evaluator
from repro.core.limb import LimbFormat
from repro.core.rns_poly import RNSPoly


def dft_levels(slots: int) -> int:
    """Sparse factors, one level each, that a homomorphic DFT over ``slots`` uses.

    The level budget of [40], [44]: 1 up to 16 slots, 2 up to 512, 3 beyond.
    Both the bootstrap and its closed form
    (:class:`repro.perf.workloads.BootstrapWorkload`) read it here.
    """
    return max(1, min(3, math.ceil(math.log2(2 * slots) / 5)))


def _butterflies(rows: np.ndarray, half: int, ring_degree: int,
                 inverse: bool) -> np.ndarray:
    """Apply one radix-2 stage of the special FFT to the rows of ``rows``.

    The stage maps each pair ``(u, v)`` of rows ``half`` apart to
    ``(u + ψ_j·v, u − ψ_j·v)``, ``ψ_j = exp(2πi·(5^j mod 8·half)/(8·half))``
    for ``j`` the pair's position in its block; ``inverse`` undoes it.
    """
    exponents = rotation_group(ring_degree)[:half] % (8 * half)
    psi = np.exp(2j * np.pi * exponents / (8 * half))[:, None]
    pairs = rows.reshape(-1, 2, half, rows.shape[-1])
    u, v = pairs[:, 0], pairs[:, 1]
    if inverse:
        out = ((u + v) / 2, (u - v) * psi.conj() / 2)
    else:
        out = (u + psi * v, u - psi * v)
    return np.stack(out, axis=1).reshape(rows.shape)


def dft_factors(ring_degree: int, inverse: bool = False) -> list[np.ndarray]:
    """Return the sparse factors of the slot DFT in the order they apply.

    ``E0 = G_L ⋯ G_1 · P``, with ``E0[j, t] = ζ^(5^j·t)`` (``ζ = exp(iπ/N)``,
    ``t < N/2``) the matrix with ``σ(m) = E0 · (m_lo + i·m_hi)`` for a real
    polynomial ``m``, ``P`` the bit-reversal permutation and ``L =``
    :func:`dft_levels`.  The ``log2(N/2)`` butterfly stages split into ``L``
    runs whose lengths differ by at most one, the longer runs last, and
    ``G_i`` is the product of run ``i``.  The list is ``[G_1, …, G_L]``, or
    with ``inverse`` ``[G_L⁻¹, …, G_1⁻¹]``, each built from its stages'
    inverse butterflies.
    """
    slots = ring_degree // 2
    stages = slots.bit_length() - 1
    levels = dft_levels(slots)
    bounds = [stages * i // levels for i in range(levels + 1)]
    factors = []
    for low, high in zip(bounds, bounds[1:]):
        halves = [1 << s for s in range(low, high)]
        factor = np.eye(slots, dtype=np.complex128)
        for half in (halves[::-1] if inverse else halves):
            factor = _butterflies(factor, half, ring_degree, inverse)
        factors.append(factor)
    return factors[::-1] if inverse else factors


def _fewest_rotations(offsets: np.ndarray, slots: int) -> int:
    """Return the baby-step count, a power of two up to the (power-of-two)
    ``slots``, that needs the fewest baby plus giant rotations over the
    nonzero diagonal ``offsets``; a tie goes to more baby steps, which share
    one hoisted ModUp."""
    def rotations(baby: int) -> int:
        return (np.count_nonzero(np.unique(offsets % baby))
                + np.count_nonzero(np.unique(offsets // baby)))

    return min((1 << e for e in reversed(range(slots.bit_length()))), key=rotations)


def _check_baby_steps(value, slots: int) -> int:
    """Reject a baby-step count that is no integer ``>= 1`` dividing ``slots``."""
    try:
        if isinstance(value, bool):
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise TypeError(f"baby_steps must be an integer, got {value!r}") from None
    if value < 1:
        raise ValueError(f"baby_steps must be >= 1, got {value}")
    if slots % value:
        raise ValueError(f"baby_steps={value} must divide the slot count {slots}")
    return value


class LinearTransform:
    """BSGS evaluation of ``slots x slots`` plaintext matrices.

    Parameters
    ----------
    context:
        The CKKS context (the matrix must be ``N/2 x N/2``).
    matrix:
        Complex matrix applied to the slot vector.
    baby_steps:
        Number of baby steps ``n1``; defaults to the power-of-two divisor of
        the slot count that needs the fewest rotations over the matrix's
        nonzero diagonals (``ceil(sqrt(slots))`` rounded up to a power of
        two for a dense matrix).
    """

    def __init__(self, context: Context, matrix: np.ndarray,
                 baby_steps: int | None = None) -> None:
        slots = context.slots
        matrix = np.asarray(matrix, dtype=np.complex128)
        if matrix.shape != (slots, slots):
            raise ValueError(f"matrix must be {slots}x{slots}, got {matrix.shape}")
        if not np.all(np.isfinite(matrix)):
            raise ValueError("the transform matrix must be finite (no NaN or inf)")
        # Generalized diagonals diag_k[j] = M[j, (j + k) mod slots]; diagonal
        # k is zero when none of its entries exceeds 1e-12 of the largest
        # entry of M, so the test does not depend on the matrix's scale.
        indices = np.arange(slots)
        diagonals = matrix[indices, (indices[None, :] + indices[:, None]) % slots]
        magnitude = np.abs(diagonals).max(axis=1)
        offsets = np.flatnonzero(magnitude > 1e-12 * magnitude.max())
        if baby_steps is None:
            baby_steps = _fewest_rotations(offsets, slots)
        self.context = context
        self.slots = slots
        self.baby_steps = _check_baby_steps(baby_steps, slots)
        self.giant_steps = slots // self.baby_steps
        # Each diagonal pre-rotated by -giant*n1 so each giant step needs a
        # single output rotation; giant -> baby -> diagonal, zero diagonals
        # left out.
        self._diagonals: dict[int, dict[int, np.ndarray]] = {}
        for k in offsets.tolist():
            giant, baby = divmod(k, self.baby_steps)
            rotated = np.roll(diagonals[k], giant * self.baby_steps)
            self._diagonals.setdefault(giant, {})[baby] = rotated
        # Encoded diagonal plaintexts, one set per limb count (so at most one
        # per level of the chain), built on first use: bootstrapping applies
        # the same transform to many ciphertexts at one level, and each
        # encode is a full limb-stack build.  Two threads may both build a
        # missing set; the sets are equal, so either one is kept.
        self._encoded: dict[int, dict[int, dict[int, Plaintext]]] = {}

    # -- rotation-key requirements --------------------------------------------

    def required_rotations(self) -> list[int]:
        """Return the rotation steps the evaluator needs keys for."""
        steps = {baby for babies in self._diagonals.values() for baby in babies}
        steps.update(giant * self.baby_steps for giant in self._diagonals)
        steps.discard(0)
        return sorted(steps)

    # -- evaluation ------------------------------------------------------------

    def apply(self, evaluator: Evaluator, ct: Ciphertext) -> Ciphertext:
        """Return the ciphertext whose slots are ``matrix @ slots(ct)``.

        Consumes exactly one multiplicative level.  Baby-step rotations are
        produced with the hoisted-rotation routine, and each giant step is
        one fused plaintext dot product (§III-F.5); the giant steps' rotated
        sum ends in one merged ModDown-rescale
        (:meth:`~repro.ckks.evaluator.Evaluator.rotated_sum`), which takes
        the inner products one at a time.  Plaintext diagonals are encoded
        once per level, at the scale that takes a message on that level's
        ladder scale to the next level's after that division; an input off
        the ladder keeps its offset.
        """
        if ct.level < 1:
            raise ValueError("linear transform needs at least one spare level")
        if not self._diagonals:
            raise ValueError("the transform matrix is identically zero")
        rotations = self._baby_rotations(evaluator, ct)
        encoded = self._encoded_diagonals(ct.limb_count)
        return evaluator.rotated_sum(
            (evaluator.dot_product_plain(
                [rotations[baby] for baby in plaintexts], list(plaintexts.values()),
                rescale=False,
            ), giant * self.baby_steps)
            for giant, plaintexts in encoded.items()
        )

    def _baby_rotations(self, evaluator: Evaluator, ct: Ciphertext) -> dict[int, Ciphertext]:
        steps = sorted({baby for babies in self._diagonals.values() for baby in babies})
        nonzero = [s for s in steps if s != 0]
        rotations = evaluator.hoisted_rotations(ct, nonzero) if nonzero else {}
        rotations[0] = ct
        return rotations

    def _encoded_diagonals(self, limb_count: int) -> dict[int, dict[int, Plaintext]]:
        encoded = self._encoded.get(limb_count)
        if encoded is None:
            level = limb_count - 1
            scale = self.context.rescale_factor(
                level - 1, self.context.scale_at(level), self.context.scale_at(level - 1))
            encoded = {
                giant: {baby: self._encode_diagonal(diag, limb_count, scale)
                        for baby, diag in babies.items()}
                for giant, babies in self._diagonals.items()
            }
            self._encoded[limb_count] = encoded
        return encoded

    def _encode_diagonal(self, diagonal: np.ndarray, limb_count: int,
                         scale: float) -> Plaintext:
        coefficients = self.context.encoder.encode_diagonal(diagonal, scale)
        poly = RNSPoly.from_int_coefficients(
            self.context.ring_degree,
            self.context.moduli_at(limb_count),
            coefficients,
            fmt=LimbFormat.EVALUATION,
        )
        return Plaintext(poly=poly, scale=scale, slots=self.slots)


__all__ = ["LinearTransform", "dft_factors", "dft_levels"]
