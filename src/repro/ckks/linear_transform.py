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
``slots x slots`` complex matrix, and for periodic layouts: a ``p_out x
p_in`` matrix maps a slot vector that repeats every ``p_in`` slots to one
that repeats every ``p_out``, with at most ``p_in`` diagonals, and may plan
its rotations on the keys a caller already holds (a rotation of a
``p``-periodic vector by ``r`` is one by ``r + j·p``).  The sparse bootstrap
runs its one-factor DFTs that way over :func:`subring_dft`.
:func:`dft_factors` builds the full-slot factors:
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


def subring_dft(slots: int) -> np.ndarray:
    """The dense special DFT of a sparse packing of ``slots`` values.

    A message of ``s = slots`` values replicated over the ``N/2`` slots is a
    polynomial of ``Z[X^(N/2s)]``: ``2s`` coefficients ``c_k`` at
    ``X^(k·N/2s)``.  Its slots repeat every ``s`` and equal
    ``E·(c_lo + i·c_hi)`` with ``E[j, k] = ζ^(5^j·k)``, ``ζ = exp(iπ/2s)``,
    ``j, k < s``: the ``E0`` of the ring of degree ``2s``, whose inverse is
    ``E^H / s``.
    """
    exponents = np.outer(rotation_group(2 * slots), np.arange(slots)) % (4 * slots)
    return np.exp(2j * np.pi * exponents / (4 * slots))


def _representative(step: int, period: int, slots: int, keys) -> int | None:
    """The rotation that moves a ``period``-periodic slot vector by ``step``:
    ``step`` itself when it is 0 or there is no key set, else the first
    ``step + j·period`` (mod ``slots``) that ``keys`` holds, or ``None`` when
    it holds none."""
    if keys is None or step == 0:
        return step
    return next(((step + j * period) % slots for j in range(slots // period)
                 if (step + j * period) % slots in keys), None)


def _check_baby_steps(value, period: int) -> int:
    """Reject a baby-step count that is no integer ``>= 1`` dividing ``period``."""
    try:
        if isinstance(value, bool):
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise TypeError(f"baby_steps must be an integer, got {value!r}") from None
    if value < 1:
        raise ValueError(f"baby_steps must be >= 1, got {value}")
    if period % value:
        raise ValueError(f"baby_steps={value} must divide the slot count {period}")
    return value


def _is_period(size: int, slots: int) -> bool:
    """Whether ``size`` is a power of two dividing ``slots``."""
    return 0 < size <= slots and slots % size == 0 and size & (size - 1) == 0


class LinearTransform:
    """BSGS evaluation of plaintext matrices on (periodic) slot vectors.

    A ``slots x slots`` matrix maps the full slot vector.  A ``p_out x
    p_in`` matrix, both powers of two dividing ``slots``, is a periodic
    layout: it maps a slot vector that repeats every ``p_in`` slots (a
    sparsely packed message, :mod:`repro.ckks.encoding`) to one that repeats
    every ``p_out``.  On a ``p_in``-periodic vector a rotation by ``r``
    equals one by ``r mod p_in``, so such a map has at most ``p_in``
    diagonals, ``d_k[j] = M[j mod p_out, (j + k) mod p_in]``, and a rotation
    may be served by any key for ``r + j·p`` (``p`` the period of the
    vector it rotates).

    Parameters
    ----------
    context:
        The CKKS context.
    matrix:
        Complex matrix applied to the slot vector (one period of each).
    baby_steps:
        Number of baby steps ``n1``; defaults to the power-of-two divisor of
        ``p_in`` that needs the fewest rotations over the matrix's nonzero
        diagonals (``ceil(sqrt(slots))`` rounded up to a power of two for a
        dense full matrix), a tie going to more baby steps, which share one
        hoisted ModUp.
    rotations:
        The rotation steps keys exist for (default: any step).  Only splits
        whose every rotation has a representative in it are considered, and
        each rotation uses that representative; :class:`ValueError` when no
        split qualifies.
    """

    def __init__(self, context: Context, matrix: np.ndarray,
                 baby_steps: int | None = None, rotations=None) -> None:
        slots = context.slots
        matrix = np.asarray(matrix, dtype=np.complex128)
        if matrix.ndim != 2 or not all(_is_period(n, slots) for n in matrix.shape):
            raise ValueError(
                f"matrix must be {slots}x{slots}, or p_out x p_in with powers of "
                f"two dividing {slots}, got {matrix.shape}")
        if not np.all(np.isfinite(matrix)):
            raise ValueError("the transform matrix must be finite (no NaN or inf)")
        period_out, period_in = matrix.shape
        # Generalized diagonals diag_k[j] = M[j mod p_out, (j + k) mod p_in];
        # diagonal k is zero when none of its entries exceeds 1e-12 of the
        # largest entry of M, so the test does not depend on the matrix's scale.
        indices = np.arange(slots)
        diagonals = matrix[indices % period_out,
                           (indices[None, :] + np.arange(period_in)[:, None]) % period_in]
        magnitude = np.abs(diagonals).max(axis=1)
        offsets = np.flatnonzero(magnitude > 1e-12 * magnitude.max())
        keys = None if rotations is None else {int(r) % slots for r in rotations}
        if baby_steps is None:
            candidates = [1 << e for e in reversed(range(period_in.bit_length()))]
        else:
            candidates = [_check_baby_steps(baby_steps, period_in)]
        plans = {}
        for baby in candidates:
            babies = {int(b): _representative(int(b), period_in, slots, keys)
                      for b in np.unique(offsets % baby)}
            # A giant step rotates a baby-step sum, which repeats every
            # max(p_in, p_out) slots.
            giants = {int(g): _representative(int(g) * baby, max(matrix.shape), slots, keys)
                      for g in np.unique(offsets // baby)}
            if None not in babies.values() and None not in giants.values():
                plans[baby] = (babies, giants)
        if not plans:
            raise ValueError("no baby-step split of this matrix uses only the given rotations")
        self.baby_steps = min(plans, key=lambda b: sum(
            sum(step != 0 for step in steps.values()) for steps in plans[b]))
        self._baby_rotation, self._giant_rotation = plans[self.baby_steps]
        self.context = context
        self.slots = slots
        self.giant_steps = period_in // self.baby_steps
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
        steps = {*self._baby_rotation.values(), *self._giant_rotation.values()}
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
            ), self._giant_rotation[giant])
            for giant, plaintexts in encoded.items()
        )

    def _baby_rotations(self, evaluator: Evaluator, ct: Ciphertext) -> dict[int, Ciphertext]:
        """``ct`` rotated by each baby step, keyed by the step mod ``p_in``."""
        steps = {baby: step for baby, step in sorted(self._baby_rotation.items()) if step}
        rotated = evaluator.hoisted_rotations(ct, list(steps.values())) if steps else {}
        rotations = {baby: rotated[step] for baby, step in steps.items()}
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


__all__ = ["LinearTransform", "dft_factors", "dft_levels", "subring_dft"]
