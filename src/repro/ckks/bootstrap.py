"""CKKS bootstrapping: ModRaise, CoeffToSlot, ApproxModEval, SlotToCoeff.

Bootstrapping refreshes an exhausted ciphertext (one remaining limb) into a
high-level ciphertext encrypting approximately the same message, following
the blueprint of Cheon et al. [38] with the improvements FIDESlib adopts
from OpenFHE: a Chebyshev/Paterson-Stockmeyer approximation of the scaled
sine (Han-Ki [37], Bossuat et al. [43]) and factored BSGS homomorphic DFTs
for the CoeffToSlot / SlotToCoeff linear transforms [40], [42], [44].

Outline (for input ciphertext ``ct`` at level 0, scale ``Δ0``, modulus
``q0``, encrypting the integer polynomial ``m``):

1. **ModRaise** -- reinterpret the level-0 residues over the full modulus
   ``Q``.  The underlying polynomial becomes ``t = m + q0·I`` with
   ``‖I‖_∞`` bounded by the sparse secret's Hamming weight.
2. **CoeffToSlot** -- homomorphic inverse DFT scaled by
   ``Δ0 / (2·q0·2^r)``, run as ``L`` sparse factors
   ``G_L⁻¹, …, G_1⁻¹`` (:func:`~repro.ckks.linear_transform.dft_factors`,
   one level each); together with a conjugation this yields two
   ciphertexts whose slots hold the lower and upper coefficient halves of
   ``t`` in bit-reversed order, scaled to the Chebyshev interval.
3. **ApproxModEval** -- evaluate ``cos(2π·y)`` via a Chebyshev series,
   apply ``r`` double-angle iterations, obtaining ``sin(2π·t/q0)`` which
   approximates ``2π·(t mod q0)/q0``.  The series
   (:func:`~repro.ckks.chebyshev.evaluate_chebyshev`) builds only the
   ``T_i`` its Paterson-Stockmeyer blocks read (``T_1 … T_4, T_6, T_8``
   for the even degree-30 cosine; ``T_16`` is squared from ``T_8`` where
   its product needs it) and plans its levels: each node is evaluated at
   the level its parent's product consumes it, so a remainder block, a
   giant step one level down and the double angles' ``×2`` and ``− 1``
   all end in a product's merged ModDown-rescale, and only the two
   quotient blocks rescale on their own.  The two halves are independent and
   of one shape, so they are fused (:meth:`Ciphertext.fuse`) and evaluated
   once at ``B=2`` -- one launch per operation for both, bit-identical per
   member (§III-F.1) -- and split again for SlotToCoeff.
4. **SlotToCoeff** -- homomorphic DFT scaled by ``q0/(2π·Δ)``, the
   factors ``G_1, …, G_L`` with the scale on ``G_L``, recombining both
   halves into a ciphertext encrypting ``m`` again, now with many levels
   left.  There is one chain, built with CoeffToSlot's, for ``Δ`` the
   context's encoding scale; an input at another scale ``Δ0`` keeps the
   chain and has its declared scale multiplied by ``Δ0/Δ``.  Each factor
   encodes its diagonals once per level, at that level's ladder scale.
   The bit-reversal permutation ``P`` of ``E0 = G_L ⋯ G_1 · P``
   cancels between the two DFTs, since ApproxModEval works slot by slot,
   so it is never evaluated.

A fused input of ``k`` ciphertexts bootstraps every member at once: ModRaise
lifts each member over its own copy of ``Q`` and ApproxModEval runs at
``B=2k``.  The functional backend runs this at reduced (insecure) ring
dimensions; the paper-scale cost is reproduced by :mod:`repro.perf`.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from repro.ckks.chebyshev import (
    chebyshev_coefficients,
    double_angle,
    evaluate_chebyshev,
)
from repro.ckks.ciphertext import Ciphertext
from repro.ckks.context import Context
from repro.ckks.evaluator import Evaluator
from repro.ckks.linear_transform import LinearTransform, dft_factors
from repro.core import modmath
from repro.core.dispatch import DISPATCH
from repro.core.limb import LimbFormat
from repro.core.rns_poly import RNSPoly


def _check_count(name: str, value, least: int) -> None:
    """Reject a :class:`BootstrapConfig` field that is no integer ``>= least``."""
    try:
        value = operator.index(value)
    except TypeError:
        raise TypeError(f"BootstrapConfig.{name} must be an integer, got {value!r}") from None
    if value < least:
        raise ValueError(f"BootstrapConfig.{name} must be >= {least}, got {value}")


@dataclass(frozen=True)
class BootstrapConfig:
    """Tunable parameters of the bootstrapping procedure."""

    #: Degree of the Chebyshev approximation of cos(2π y) on [-1, 1].
    chebyshev_degree: int = 30
    #: Number of double-angle iterations r; the admissible integer range is
    #: K ≈ 2^r - 1, so ``2^r`` must exceed the ModRaise overflow bound.
    #: Each iteration also amplifies arithmetic noise by up to 4x, so sparse
    #: secrets (small K) buy precision (the sparse-secret encapsulation of
    #: [43]).
    double_angle_iterations: int = 2

    def __post_init__(self) -> None:
        _check_count("chebyshev_degree", self.chebyshev_degree, 1)
        _check_count("double_angle_iterations", self.double_angle_iterations, 0)


class Bootstrapper:
    """Precomputes and runs the CKKS bootstrapping procedure."""

    def __init__(self, context: Context, evaluator: Evaluator,
                 config: BootstrapConfig | None = None) -> None:
        self.context = context
        self.evaluator = evaluator
        self.config = config or BootstrapConfig()
        weight = context.params.secret_hamming_weight
        bound = (weight + 1) / 2 + 1
        if bound > (1 << self.config.double_angle_iterations):
            raise ValueError(
                "secret Hamming weight too large for the configured double-angle "
                f"iterations: need 2^r > {bound:.0f}"
            )
        self._cos_coefficients = chebyshev_coefficients(
            lambda y: math.cos(2.0 * math.pi * y), self.config.chebyshev_degree
        )
        self._coeff_to_slot = tuple(
            LinearTransform(context, factor)
            for factor in dft_factors(context.ring_degree, inverse=True)
        )
        # SlotToCoeff's last factor carries q0/(2π·Δ) for a message encoded
        # at Δ = context.scale; slot_to_coeff relabels any other input scale.
        *head, last = dft_factors(context.ring_degree)
        factor = context.moduli[0] / (2.0 * math.pi * context.scale)
        self._slot_to_coeff = tuple(LinearTransform(context, matrix)
                                    for matrix in (*head, factor * last))

    # ------------------------------------------------------------------
    # key requirements
    # ------------------------------------------------------------------

    def required_rotations(self) -> list[int]:
        """Rotation steps for which keys must be generated before bootstrapping.

        ``G_i`` and ``G_i⁻¹`` have the same nonzero diagonals (a butterfly
        and its inverse pair the same slots), hence the same BSGS split, so
        the CoeffToSlot chain names every step SlotToCoeff needs too.
        """
        return sorted({step for transform in self._coeff_to_slot
                       for step in transform.required_rotations()})

    # ------------------------------------------------------------------
    # pipeline stages
    # ------------------------------------------------------------------

    def mod_raise(self, ct: Ciphertext) -> Ciphertext:
        """Reinterpret a level-0 ciphertext over the full modulus ``Q``.

        Each member of a fused ciphertext is raised over its own copy of
        the basis, so the result is fused like the input.
        """
        if ct.limb_count != 1:
            ct = self.evaluator.mod_reduce(ct, 1)
        moduli = self.context.moduli
        column = modmath.moduli_column(moduli)

        def raise_poly(poly: RNSPoly) -> RNSPoly:
            # Server work: transformed explicitly, so the NTT is recorded.
            members = poly.to_coefficient().split(ct.batch_size)
            rows = [
                modmath.lift_residues(member.compose(), column) for member in members
            ]
            return RNSPoly(
                moduli * ct.batch_size, np.concatenate(rows), LimbFormat.COEFFICIENT
            ).to_evaluation()

        with DISPATCH.scope("modraise"):
            return ct.with_polys(raise_poly(ct.c0), raise_poly(ct.c1))

    def coeff_to_slot(self, ct: Ciphertext) -> tuple[Ciphertext, Ciphertext]:
        """Return ciphertexts whose slots are the lower/upper coefficients of ``t``.

        The coefficients sit in bit-reversed slot order, the order
        :meth:`slot_to_coeff` takes them in.  Both outputs are scaled to the
        Chebyshev argument ``y = (t/q0 - 1/4) / 2^r`` expected by
        ApproxModEval.  The small overall factor ``Δ0 / (2·q0·2^r)`` is
        applied as a separate scalar multiplication (one extra level) so the
        encoded DFT diagonals keep full precision.
        """
        ev = self.evaluator
        q0 = self.context.moduli[0]
        prescale = ct.scale / (2.0 * q0 * (1 << self.config.double_angle_iterations))
        combined = ev.multiply_scalar(ct, prescale)
        for transform in self._coeff_to_slot:
            combined = transform.apply(ev, combined)
        conjugated = ev.conjugate(combined)
        ct_lower = ev.add(combined, conjugated)
        difference = ev.sub(combined, conjugated)
        ct_upper = ev.negate(ev.multiply_by_i(difference))
        shift = -0.25 / (1 << self.config.double_angle_iterations)
        return ev.add_scalar(ct_lower, shift), ev.add_scalar(ct_upper, shift)

    def approx_mod_eval(self, ct: Ciphertext) -> Ciphertext:
        """Evaluate ``sin(2π t/q0)`` from the scaled Chebyshev argument."""
        ev = self.evaluator
        series = evaluate_chebyshev(ev, ct, self._cos_coefficients)
        return double_angle(ev, series, self.config.double_angle_iterations)

    def slot_to_coeff(self, ct_lower: Ciphertext, ct_upper: Ciphertext,
                      original_scale: float) -> Ciphertext:
        """Recombine the two (bit-reversed) halves into a ciphertext encrypting ``m``.

        The chain decodes a message that was encoded at ``context.scale``;
        one encoded at ``original_scale`` comes out multiplied by
        ``original_scale / context.scale``, so that ratio multiplies the
        declared scale instead.
        """
        ev = self.evaluator
        combined = ev.add(ct_lower, ev.multiply_by_i(ct_upper))
        for transform in self._slot_to_coeff:
            combined = transform.apply(ev, combined)
        combined.scale *= original_scale / self.context.scale
        return combined

    # ------------------------------------------------------------------
    # full pipeline
    # ------------------------------------------------------------------

    def bootstrap(self, ct: Ciphertext) -> Ciphertext:
        """Refresh ``ct`` (Table I's ``Bootstrap`` primitive).

        The message is read at ``ct.scale`` whatever the input level
        (``mod_reduce`` keeps the scale).  A fused ``ct`` refreshes every
        member, bit-identical to bootstrapping each member alone.
        """
        raised = self.mod_raise(ct)
        lower, upper = self.coeff_to_slot(raised)
        # Both halves in one ApproxModEval at twice the batch width; the
        # fused rows are member-major, so each half is a zero-copy row window.
        both = self.approx_mod_eval(Ciphertext.fuse([lower, upper]))
        lower, upper = (
            half.with_polys(c0, c1, scale=both.scale)
            for half, c0, c1 in zip((lower, upper), both.c0.split(2), both.c1.split(2))
        )
        refreshed = self.slot_to_coeff(lower, upper, ct.scale)
        refreshed.encoded_length = ct.encoded_length
        refreshed.slots = ct.slots
        return refreshed


__all__ = ["Bootstrapper", "BootstrapConfig"]
