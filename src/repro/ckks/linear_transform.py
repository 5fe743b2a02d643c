"""Homomorphic linear transforms (ciphertext-vector x plaintext-matrix).

The CoeffToSlot and SlotToCoeff stages of bootstrapping are homomorphic
multiplications by fixed DFT-derived matrices.  FIDESlib (like OpenFHE)
evaluates them with the Baby-Step Giant-Step (BSGS) algorithm of
Bossuat et al. [42]: the matrix is decomposed into its generalized
diagonals, baby-step rotations of the input are produced once with the
hoisted-rotation optimisation, and each giant step combines ``n1``
plaintext multiplications -- one fused dot product.  The giant steps end
in one merged tail (the giant half of Bossuat et al.'s double hoisting):
each rotated inner product's key switch stops in the extended basis
``Q_l ∪ P``, the accumulators sum there, and one ModDown divides the sum
by ``P·q_l`` (:meth:`~repro.ckks.evaluator.Evaluator.rotated_sum`) instead
of a ModDown per giant step and a rescale.

:class:`LinearTransform` implements that algorithm for an arbitrary
``slots x slots`` complex matrix; :func:`coeff_to_slot_matrix` and
:func:`slot_to_coeff_matrix` build the (scaled) DFT matrices used by
:mod:`repro.ckks.bootstrap`.
"""

from __future__ import annotations

import math
import operator
from collections import OrderedDict

import numpy as np

from repro.ckks.ciphertext import Ciphertext, Plaintext
from repro.ckks.context import Context
from repro.ckks.encoding import rotation_group
from repro.ckks.evaluator import Evaluator
from repro.core.limb import LimbFormat
from repro.core.rns_poly import RNSPoly


def decoding_matrix(ring_degree: int) -> np.ndarray:
    """Return ``E0``: the slots-from-lower-coefficients decoding matrix.

    ``E0[j, t] = ζ^{5^j * t}`` with ``ζ = exp(iπ/N)`` and ``t < N/2``.  The
    full canonical embedding of a real polynomial ``m`` satisfies
    ``σ(m) = E0 · (m_lo + i·m_hi)``, which is the identity CoeffToSlot and
    SlotToCoeff exploit.
    """
    n = ring_degree
    slots = n // 2
    group = rotation_group(n)
    zeta = np.exp(1j * np.pi / n)
    exponents = np.outer(group, np.arange(slots))
    return zeta ** (exponents % (2 * n))


def coeff_to_slot_matrix(ring_degree: int, scale_factor: float) -> np.ndarray:
    """Return ``scale_factor * E0^{-1}`` used by CoeffToSlot."""
    e0 = decoding_matrix(ring_degree)
    return scale_factor * np.linalg.inv(e0)


def slot_to_coeff_matrix(ring_degree: int, scale_factor: float) -> np.ndarray:
    """Return ``scale_factor * E0`` used by SlotToCoeff."""
    return scale_factor * decoding_matrix(ring_degree)


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
        Number of baby steps ``n1``; defaults to ``ceil(sqrt(slots))``
        rounded to a divisor of the slot count.
    """

    #: Encoded diagonal sets kept per transform (a bootstrap uses one).
    ENCODED_SETS = 2

    def __init__(self, context: Context, matrix: np.ndarray,
                 baby_steps: int | None = None) -> None:
        slots = context.slots
        matrix = np.asarray(matrix, dtype=np.complex128)
        if matrix.shape != (slots, slots):
            raise ValueError(f"matrix must be {slots}x{slots}, got {matrix.shape}")
        if not np.all(np.isfinite(matrix)):
            raise ValueError("the transform matrix must be finite (no NaN or inf)")
        if baby_steps is None:
            baby_steps = 1 << math.ceil(math.log2(max(1, math.isqrt(slots))))
        self.context = context
        self.matrix = matrix
        self.slots = slots
        self.baby_steps = _check_baby_steps(baby_steps, slots)
        self.giant_steps = slots // self.baby_steps
        # Generalized diagonals diag_k[j] = M[j, (j + k) mod slots], pre-rotated
        # by -giant*n1 so each giant step needs a single output rotation;
        # giant -> baby -> diagonal, zero diagonals left out.
        self._diagonals: dict[int, dict[int, np.ndarray]] = {}
        indices = np.arange(slots)
        for giant in range(self.giant_steps):
            for baby in range(self.baby_steps):
                k = giant * self.baby_steps + baby
                diag = matrix[indices, (indices + k) % slots]
                if not np.any(np.abs(diag) > 1e-12):
                    continue
                rotated = np.roll(diag, giant * self.baby_steps)
                self._diagonals.setdefault(giant, {})[baby] = rotated
        # Encoded diagonal plaintexts, one set per (limb_count, scale), the
        # least recently used dropped past ``ENCODED_SETS``: bootstrapping
        # applies the same transform to many ciphertexts at one level, and
        # each encode is a full limb-stack build.
        self._encoded: OrderedDict[tuple[int, float], dict] = OrderedDict()

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
        at the scale that restores the context's scale ladder after that
        division.
        """
        if ct.level < 1:
            raise ValueError("linear transform needs at least one spare level")
        if not self._diagonals:
            raise ValueError("the transform matrix is identically zero")
        rotations = self._baby_rotations(evaluator, ct)
        encoded = self._encoded_diagonals(ct.limb_count, self._plaintext_scale(ct))
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

    def _plaintext_scale(self, ct: Ciphertext) -> float:
        q = ct.moduli[-1]
        target = self.context.scale_at(ct.level - 1)
        return q * target / ct.scale

    def _encoded_diagonals(self, limb_count: int,
                           scale: float) -> dict[int, dict[int, Plaintext]]:
        key = (limb_count, scale)
        encoded = self._encoded.get(key)
        if encoded is not None:
            self._encoded.move_to_end(key)
            return encoded
        encoded = {
            giant: {baby: self._encode_diagonal(diag, limb_count, scale)
                    for baby, diag in babies.items()}
            for giant, babies in self._diagonals.items()
        }
        self._encoded[key] = encoded
        if len(self._encoded) > self.ENCODED_SETS:
            self._encoded.popitem(last=False)
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


__all__ = [
    "LinearTransform",
    "decoding_matrix",
    "coeff_to_slot_matrix",
    "slot_to_coeff_matrix",
]
