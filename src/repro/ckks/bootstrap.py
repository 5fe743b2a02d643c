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

**Sparse packing** (Cheon-Han-Kim-Kim-Song, ePrint 2018/153; OpenFHE's
``EvalBootstrap`` with ``numSlots < N/2``).  A message of ``n`` values is
replicated with period ``s = next_pow2(n)``, so ``m`` lies in the subring
``Z[X^(N/2s)]`` and has ``2s`` coefficients.  For ``s < N/2``
(:meth:`Bootstrapper.sparse_plan`; ``s`` of a fused input is its longest
member's) the bootstrap refreshes only those:

1. ModRaise as above.
2. The partial-sum trace, ``log2(N/2s)`` rotate-and-add steps by
   ``s, 2s, …, N/4``, projects ``t`` onto the subring times ``N/2s``; the
   CoeffToSlot prescale divides that gain out.  One factor
   ``[U; −iU]`` (``U`` the inverse ``s``-point special DFT,
   :func:`~repro.ckks.linear_transform.subring_dft`) on the periodic layout
   lands ``t_lo`` and ``t_hi`` in ``2s`` slots, and one conjugate-add makes
   them real.
3. One ApproxModEval at the input's batch width (``B=1`` for one
   ciphertext) on that packing.
4. One SlotToCoeff factor ``[E, iE]`` back.

That is ``dft_levels(s) = 1`` level per DFT, the closed form's schedule
(:class:`repro.perf.workloads.BootstrapWorkload`): 5 levels left at
``toy-bootstrap`` for 8 values against 3 on the full path.  Every rotation
is one :meth:`Bootstrapper.required_rotations` declares, so a plan that
would need another key, an unknown ``encoded_length`` and ``s = N/2`` run
the full path.

A fused input of ``k`` ciphertexts bootstraps every member at once: ModRaise
lifts each member over its own copy of ``Q`` and ApproxModEval runs at
``B=2k`` (``B=k`` sparse).  The functional backend runs this at reduced
(insecure) ring dimensions; the paper-scale cost is reproduced by
:mod:`repro.perf`.

**Precision.**  About 10 bits is the uint64 toy's ceiling: the sine's
relative error for a message ``δ = Δ·x/q0`` is about ``(2πδ)²/6``, and
``toy-bootstrap`` has ``q0/Δ = 2³¹/2²⁷ = 16`` because the uint64 plane caps
``q0`` below ``2³¹``.  A wider ratio needs the dword plane.
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
from repro.ckks.ciphertext import Ciphertext, member_lengths
from repro.ckks.context import Context
from repro.ckks.evaluator import Evaluator
from repro.ckks.linear_transform import (
    LinearTransform,
    dft_factors,
    dft_levels,
    subring_dft,
)
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
class SparsePlan:
    """The sparse path of a packing of ``slots`` values (``2·slots < N``).

    ``trace`` are the partial-sum rotations ``s, 2s, …, N/4``;
    ``coeff_to_slot`` maps the ``s``-periodic slots to the ``2s``
    coefficients, ``[U; −iU]`` with ``U`` the inverse of
    :func:`~repro.ckks.linear_transform.subring_dft`, and ``slot_to_coeff``
    maps them back, ``[E, iE]`` times ``q0/(2π·Δ)``.
    """

    slots: int
    trace: tuple[int, ...]
    coeff_to_slot: LinearTransform
    slot_to_coeff: LinearTransform


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
        self._decode_factor = context.moduli[0] / (2.0 * math.pi * context.scale)
        *head, last = dft_factors(context.ring_degree)
        self._slot_to_coeff = tuple(LinearTransform(context, matrix)
                                    for matrix in (*head, self._decode_factor * last))
        # One sparse plan per replication period, or None where the full path
        # runs; built on first use.  Two threads may both build a missing
        # plan; the plans are equal, so either one is kept.
        self._sparse: dict[int, SparsePlan | None] = {}

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
    # slot layout
    # ------------------------------------------------------------------

    def sparse_plan(self, ct: Ciphertext) -> SparsePlan | None:
        """The sparse path for ``ct``, or ``None`` where the full path runs.

        ``ct``'s replication period is ``s = next_pow2(longest member
        encoded_length)``.  The sparse path runs for ``s < N/2`` when one
        DFT factor covers it, the closed form's schedule
        (:func:`~repro.ckks.linear_transform.dft_levels` of ``s`` is 1),
        and every rotation it needs has a key among
        :meth:`required_rotations`.  An unknown length, ``s = N/2`` or a
        plan needing another key runs the full path.
        """
        lengths = member_lengths(ct)
        if None in lengths:
            return None
        period = 1 << (max(lengths) - 1).bit_length()
        if period >= self.context.slots:
            return None
        if period not in self._sparse:
            self._sparse[period] = self._build_sparse_plan(period)
        return self._sparse[period]

    def _build_sparse_plan(self, period: int) -> SparsePlan | None:
        slots = self.context.slots
        if dft_levels(period) > 1:
            return None
        keys = set(self.required_rotations())
        trace = tuple(period << i for i in range((slots // period).bit_length() - 1))
        if not keys.issuperset(trace):
            return None
        dft = subring_dft(period)
        inverse = dft.conj().T / period
        try:
            return SparsePlan(
                period, trace,
                LinearTransform(self.context, np.vstack([inverse, -1j * inverse]),
                                rotations=keys),
                LinearTransform(self.context,
                                self._decode_factor * np.hstack([dft, 1j * dft]),
                                rotations=keys),
            )
        except ValueError:  # a rotation no key serves
            return None

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

        On the full path the coefficients sit in bit-reversed slot order, the
        order :meth:`slot_to_coeff` takes them in.  On the sparse path
        (:meth:`sparse_plan`) the partial-sum trace first projects ``t`` onto
        the message's subring, then one factor lands its ``2s`` coefficients
        ``[t_lo; t_hi]`` as real values repeating every ``2s`` slots: the one
        packed ciphertext is returned as both halves.  Either way the outputs
        are scaled to the Chebyshev argument ``y = (t/q0 - 1/4) / 2^r``
        expected by ApproxModEval and keep ``ct``'s ``encoded_length``, the
        layout :meth:`slot_to_coeff` reads back.  The small overall factor
        ``Δ0 / (2·q0·2^r)`` (over ``N/2s`` too, the trace's gain) is applied
        as a separate scalar multiplication (one extra level) so the encoded
        DFT diagonals keep full precision.
        """
        ev = self.evaluator
        plan = self.sparse_plan(ct)
        q0 = self.context.moduli[0]
        prescale = ct.scale / (2.0 * q0 * (1 << self.config.double_angle_iterations))
        shift = -0.25 / (1 << self.config.double_angle_iterations)
        if plan is not None:
            traced = ct
            for step in plan.trace:
                traced = ev.add(traced, ev.rotate(traced, step))
            scaled = ev.multiply_scalar(traced, prescale * plan.slots / self.context.slots)
            combined = plan.coeff_to_slot.apply(ev, scaled)
            packed = ev.add_scalar(ev.add(combined, ev.conjugate(combined)), shift)
            packed.encoded_length = ct.encoded_length
            return packed, packed
        combined = ev.multiply_scalar(ct, prescale)
        for transform in self._coeff_to_slot:
            combined = transform.apply(ev, combined)
        conjugated = ev.conjugate(combined)
        ct_lower = ev.add(combined, conjugated)
        difference = ev.sub(combined, conjugated)
        ct_upper = ev.negate(ev.multiply_by_i(difference))
        halves = ev.add_scalar(ct_lower, shift), ev.add_scalar(ct_upper, shift)
        for half in halves:
            half.encoded_length = ct.encoded_length
        return halves

    def approx_mod_eval(self, ct: Ciphertext) -> Ciphertext:
        """Evaluate ``sin(2π t/q0)`` from the scaled Chebyshev argument."""
        ev = self.evaluator
        series = evaluate_chebyshev(ev, ct, self._cos_coefficients)
        return double_angle(ev, series, self.config.double_angle_iterations)

    def slot_to_coeff(self, ct_lower: Ciphertext, ct_upper: Ciphertext,
                      original_scale: float) -> Ciphertext:
        """Recombine the two (bit-reversed) halves into a ciphertext encrypting ``m``.

        The layout is ``ct_lower``'s (:meth:`sparse_plan` of its
        ``encoded_length``, which :meth:`coeff_to_slot` keeps): on the
        sparse path ``ct_lower`` is the packed ciphertext, one factor maps it
        back and ``ct_upper`` (the same packing) is not read.  The chain
        decodes a message that was encoded at ``context.scale``; one encoded
        at ``original_scale`` comes out multiplied by ``original_scale /
        context.scale``, so that ratio multiplies the declared scale instead.
        """
        ev = self.evaluator
        plan = self.sparse_plan(ct_lower)
        if plan is not None:
            combined = plan.slot_to_coeff.apply(ev, ct_lower)
        else:
            combined = ev.add(ct_lower, ev.multiply_by_i(ct_upper))
            for transform in self._slot_to_coeff:
                combined = transform.apply(ev, combined)
        combined.scale *= original_scale / self.context.scale
        combined.encoded_length = ct_lower.encoded_length
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
        if lower is upper:
            # The sparse packing: one ApproxModEval at the input's batch width.
            lower = upper = self.approx_mod_eval(lower)
        else:
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


__all__ = ["Bootstrapper", "BootstrapConfig", "SparsePlan"]
