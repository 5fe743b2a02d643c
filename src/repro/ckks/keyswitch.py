"""Hybrid key switching: digit decomposition, ModUp, ModDown.

``HMult`` and ``HRotate`` produce ciphertext components encrypted under a
different secret (``s^2`` or ``σ_k(s)``); key switching converts them back
to ``s`` using the hybrid technique of Han-Ki [37]:

1. **decompose** the polynomial into ``dnum`` digits of the RNS basis;
2. **ModUp** each digit from its own sub-basis to the full current basis
   plus the extension limbs ``P`` (a fast base conversion, Equation 1);
3. multiply each extended digit with the matching key-switching key
   component and accumulate (the "dot product fusion" of §III-F.5);
4. **ModDown** the accumulators by ``P``: an iNTT of the special limbs,
   another base conversion, and an NTT with the ``P^{-1}(x - Conv(x'))``
   step folded into it, as the paper folds it into its NTT kernels.
   :func:`apply_key` stops at the accumulators over ``Q_l ∪ P`` and its
   caller places the ModDown.  A rotation takes :func:`mod_down_many` and
   adds the result.  A rescaling HMult or HSquare takes the merged tail
   :func:`mod_down_rescale_many` instead of a ModDown, a relinearisation
   add and a rescale: it divides ``acc + P·d`` by ``P·q_l`` in one
   conversion from the ``α+1`` limbs ``{q_l} ∪ P`` to ``Q_{l-1}``, with one
   iNTT over ``α+1`` rows and one NTT over ``l`` rows per component.  That
   conversion is exactly rounded (:class:`~repro.core.rns.RoundingConverter`,
   Halevi-Polyakov-Shoup): it subtracts ``v·P·q_l`` for the float estimate
   ``v = ⌊Σ_j y_j/m_j⌉`` inside the same launch, so the result is
   ``round((acc + P·d)/(P·q_l))``.  The two-step tail rounds twice -- the
   ModDown's fast conversion leaves ``⌊acc/P⌋ − u`` with ``0 ≤ u < α``,
   and the rescale rounds that divided by ``q_l`` -- so the two agree
   except where a value lies within ``α/q_l`` of a rounding boundary, and
   on the test seeds they agree bit for bit.

The functions here operate on :class:`~repro.core.rns_poly.RNSPoly`
objects in evaluation format, the only format a server polynomial is in
(ModDown raises :class:`ValueError` on any other), and return polynomials
the caller adds to (or, for the merged tail, takes as) the ciphertext
components.  Every step is batched over
the polynomials' flat ``(L, N)`` arrays (``RNSPoly.data``): digit rows are
gathered and iNTT'd in one stacked call, the base conversion runs as one
``convert_stack`` matrix expression, and the converted limbs re-enter the
evaluation domain through one stacked NTT -- no per-limb Python loop.

Every function reads the member count off its operand
(:attr:`~repro.core.rns_poly.RNSPoly.members`): a fused ``(B·L, N)``
polynomial goes through the same pipeline with the stacked (i)NTT calls
covering all ``B·rows`` at once and the base conversions and
subtract/scale tails walking each member's row block in place, so the
result is bit-identical per member and a recorded trace keeps the
single-polynomial kernel structure at ``B×`` rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ckks.context import Context
from repro.ckks.keys import KeySwitchingKey
from repro.core import modmath
from repro.core.dispatch import DISPATCH
from repro.core.limb import LimbFormat
from repro.core.ntt import Fused, get_stacked_engine
from repro.core.rns_poly import RNSPoly
from repro.gpu.kernel import MODADD_OPS, MODMUL_OPS


@dataclass
class DecomposedPolynomial:
    """The ModUp'd digits of a polynomial, reusable across rotations.

    Hoisted rotations (§III-F.6) perform the expensive decompose + ModUp
    once and reuse the result for every rotation key; this dataclass is
    that reusable intermediate.  ``limb_count`` is per member: the digits
    of a fused polynomial are fused ``(B·(L+K), N)`` polynomials.
    """

    extended_digits: list[RNSPoly]
    limb_count: int


def decompose_and_mod_up(context: Context, poly: RNSPoly) -> DecomposedPolynomial:
    """Split ``poly`` into digits and raise each digit to the extended basis.

    ``poly`` must be in evaluation format over the first ``limb_count``
    ciphertext moduli (tiled once per member when fused).  Each returned
    digit polynomial is in evaluation format over ``{q_0..q_l} ∪ P``; the
    digit's own limbs are copied verbatim (no conversion error), the
    remaining limbs come from the fast base conversion.
    """
    with DISPATCH.scope("modup"):
        members = poly.members
        limb_count = poly.level_count // members
        n = context.ring_degree
        target_moduli = context.moduli_at(limb_count) + context.special_moduli
        target_col = modmath.moduli_column(target_moduli)
        extended = len(target_moduli)
        num_digits = context.active_digits(limb_count)
        # Digits partition the basis contiguously, so one stacked iNTT of the
        # whole polynomial hands every digit its coefficient-domain rows.
        poly_coeff = get_stacked_engine(n, tuple(poly.moduli)).inverse(poly.data)
        # Per-digit batched base conversions to the complementary basis ∪ P
        # (each digit needs its own Equation-1 tables), each writing its rows
        # straight into the fused NTT buffer.  A digit's block holds each
        # converted limb once per member, so the fused NTT walks runs of one
        # modulus sharing one twiddle row.
        converters = [
            context.modup_converter(limb_count, j) for j in range(num_digits)
        ]
        block_rows = [len(conv.target) * members for conv in converters]
        stacked = np.empty((sum(block_rows), n), dtype=target_col.dtype)
        spans, row, d0 = [], 0, 0
        for converter, rows in zip(converters, block_rows):
            # Digits are contiguous, so each member's digit rows are a
            # zero-copy slice of the stacked iNTT output: the recorded base
            # conversion reads the transform's buffer directly.
            d1 = d0 + len(converter.source)
            converter.convert_members(
                [poly_coeff[m * limb_count + d0 : m * limb_count + d1]
                 for m in range(members)],
                stacked[row : row + rows],
                limb_major=True,
            )
            spans.append((d0, d1, slice(row, row + rows)))
            row, d0 = row + rows, d1
        # ... then one fused stacked NTT returns every digit's converted rows
        # to the evaluation domain in a single in-place call, one launch per
        # digit.
        fused_moduli = tuple(
            q for conv in converters for q in conv.target.moduli
            for _ in range(members)
        )
        fused_eval = get_stacked_engine(n, fused_moduli).forward(
            stacked, consume=True, segments=block_rows
        )
        digits_out: list[RNSPoly] = []
        for d0, d1, block in spans:
            converted_eval = fused_eval[block]
            # Assemble each member's extended stack with contiguous row
            # copies: own rows verbatim, converted rows in target order (the
            # converter's target basis preserves it, with the digit's
            # complement split around its own span).  Every row is written
            # below, so an uninitialized buffer is enough.
            stack = np.empty((members * extended, n), dtype=target_col.dtype)
            for m, own in enumerate(poly.member_rows(d0, d1)):
                member = stack[m * extended : (m + 1) * extended]
                raised = converted_eval[m::members]
                member[d0:d1] = modmath.coerce_stack(own, target_col)
                member[:d0] = raised[:d0]
                member[d1:] = raised[d0:]
            DISPATCH.link((converted_eval, poly.data), stack)
            digits_out.append(RNSPoly(
                target_moduli * members, stack, LimbFormat.EVALUATION, pool=poly.pool
            ))
        return DecomposedPolynomial(extended_digits=digits_out, limb_count=limb_count)


def mod_down(context: Context, poly: RNSPoly) -> RNSPoly:
    """Divide an extended-basis polynomial by ``P`` and drop the special limbs.

    Computes ``P^{-1} * (x_i - Conv_{P->Q_l}(x_P))`` per ciphertext limb,
    the sequence FIDESlib fuses into its NTT kernels (ModDown fusion), as
    a stacked iNTT, one batched base conversion and a stacked NTT that
    carries the fold.  ``poly`` must be in evaluation format.
    """
    return mod_down_many(context, [poly])[0]


def mod_down_many(context: Context, polys: list[RNSPoly]) -> list[RNSPoly]:
    """ModDown several same-basis polynomials with fused stacked kernels.

    The two key-switching accumulators (times every member of a fused
    batch) share their iNTT and NTT passes by concatenating rows into
    single stacked calls; the per-row math is exactly :func:`mod_down`.
    """
    if not polys:
        return []
    first = polys[0]
    for poly in polys[1:]:
        first._check_compatible(poly)
    first.require_evaluation("ModDown")
    members = first.members
    count = len(polys)
    special_count = len(context.special_moduli)
    limb_count = first.level_count // members - special_count
    if limb_count < 1:
        raise ValueError("polynomial does not carry special limbs to remove")
    n = context.ring_degree
    special_moduli = tuple(first.moduli[limb_count : limb_count + special_count])
    converter = context.moddown_converter(limb_count)
    target_moduli = tuple(context.moduli_at(limb_count))
    target_col = modmath.moduli_column(target_moduli)
    # The ``P^{-1}(x - Conv(x'))`` tail folds each member's head limbs into
    # its converted rows in place (fused into the NTT: the ModDown fusion).
    heads = [rows for p in polys for rows in p.member_rows(0, limb_count)]
    fold = modmath.head_fold(context.p_inv_mod_q[:limb_count], target_col)
    fold_ops = MODMUL_OPS + MODADD_OPS
    # Per component: iNTT of the special limbs, the P -> Q_l conversion, an
    # NTT over the ciphertext limbs with the fold.  The c0/c1 chains touch
    # disjoint rows of the fused buffers, so they stay parallel in the DAG
    # (the §III-F.1 overlap the stream scheduler exploits).
    with DISPATCH.scope("moddown"), DISPATCH.interleaved():
        # The N^-1 scaling folds into the conversion's q-hat^-1 constants.
        special_rows = get_stacked_engine(n, special_moduli * (members * count)).inverse(
            sources=[rows for p in polys for rows in p.member_rows(limb_count)],
            segments=[members * special_count] * count, fused_ops_per_element=0.0,
        )
        specials = np.split(special_rows, members * count)
        out = np.empty((count * members * limb_count, n), dtype=target_col.dtype)
        for i, block in enumerate(np.split(out, count)):
            DISPATCH.segment = i
            converter.convert_members(specials[i * members : (i + 1) * members], block)
        out = get_stacked_engine(n, target_moduli * (members * count)).forward(
            out, consume=True, segments=[members * limb_count] * count,
            epilogue=Fused("moddown-tail", fold_ops, heads, fold),
        )
    return [
        RNSPoly(target_moduli * members, block, LimbFormat.EVALUATION, pool=poly.pool)
        for poly, block in zip(polys, np.split(out, count))
    ]


def mod_down_rescale_many(context: Context, accs: list[RNSPoly],
                          addends: list[RNSPoly], *, multiplier: int = 1) -> list[RNSPoly]:
    """ModDown and rescale in one: ``round((acc + P·d) / (P·q_l))`` over ``Q_{l-1}``.

    ``accs`` are key-switch accumulators over ``Q_l ∪ P`` and ``addends``
    the matching polynomials ``d`` over ``Q_l`` (a product's ``d0``,
    ``d1``).  Per component, one iNTT of the ``α+1`` rows ``{q_l} ∪ P``
    (the ``q_l`` row becomes ``acc_l + P·d_l`` in its prologue), one
    exactly rounded conversion of their centred value to ``Q_{l-1}``
    (:class:`~repro.core.rns.RoundingConverter`) and one NTT over the
    ``l`` rows of ``Q_{l-1}`` whose epilogue folds
    ``(acc_i − x_i)·(P·q_l)^{-1} + d_i·q_l^{-1}`` -- the ``P·d_i`` term
    enters as ``d_i·q_l^{-1}``, so no ``P·d`` buffer is built.  It replaces
    :func:`mod_down_many`, the add of ``d`` and the rescale that follow it:
    the value is the same division, rounded once instead of twice.

    A ``multiplier`` scales both epilogue constants, so the result is
    ``multiplier·round(...)`` mod each ``q_i`` -- the residues of a
    separate ``×multiplier`` launch, at no cost (``chebyshev``'s
    ``2·T_m² − 1``).
    """
    first = accs[0]
    for poly in accs[1:]:
        first._check_compatible(poly)
    for poly in addends[1:]:
        addends[0]._check_compatible(poly)
    first.require_evaluation("ModDown")
    members = first.members
    count = len(accs)
    special_count = len(context.special_moduli)
    limb_count = first.level_count // members - special_count
    if limb_count < 2:
        raise ValueError("cannot rescale a level-0 ciphertext")
    n = context.ring_degree
    width = special_count + 1
    source_moduli = tuple(first.moduli[limb_count - 1 : limb_count + special_count])
    q_last = source_moduli[0]
    # The q_l row in the source stack's word type (Python integers when a
    # special modulus is past 2**62).
    last_col = modmath.moduli_column(source_moduli)[:1]
    converter = context.moddown_rescale_converter(limb_count)
    target_moduli = tuple(context.moduli_at(limb_count - 1))
    target_col = modmath.moduli_column(target_moduli)

    def head(reads, writes):
        # Each member's {q_l} ∪ P rows, in the transform's layout, with
        # ``P·d_l`` added to the q_l row.
        for k, (rows, last) in enumerate(zip(reads[0::2], reads[1::2])):
            block = writes[0][k * width : (k + 1) * width]
            np.copyto(block, rows, casting="unsafe")
            top = block[:1]
            modmath.stack_add_mod(top, modmath.stack_scalar_mod(
                modmath.coerce_stack(last, last_col), [context.p_modulus], last_col,
            ), last_col, out=top)

    # Prologue and epilogue read, per component and member, a block of the
    # accumulator and the matching block of the addend.
    sources = [
        block
        for acc, d in zip(accs, addends)
        for pair in zip(acc.member_rows(limb_count - 1), d.member_rows(-1))
        for block in pair
    ]
    heads = [
        block
        for acc, d in zip(accs, addends)
        for pair in zip(acc.member_rows(0, limb_count - 1), d.member_rows(0, -1))
        for block in pair
    ]
    pq_inv = [modmath.inv_mod(context.p_modulus * q_last % q, q) * multiplier % q
              for q in target_moduli]
    q_last_inv = [modmath.inv_mod(q_last % q, q) * multiplier % q for q in target_moduli]
    fold = modmath.head_fold(pq_inv, target_col, q_last_inv)
    with DISPATCH.scope("moddown"), DISPATCH.interleaved():
        # The head's multiply-add touches one row of the α+1; N^-1 folds
        # into the conversion's constants, as in ModDown.
        source_rows = get_stacked_engine(n, source_moduli * (members * count)).inverse(
            segments=[members * width] * count,
            prologue=Fused("moddown-rescale-head", MODMUL_OPS + MODADD_OPS, sources, head),
            fused_ops_per_element=(MODMUL_OPS + MODADD_OPS) / width,
        )
        blocks = np.split(source_rows, members * count)
        out = np.empty((count * members * (limb_count - 1), n), dtype=target_col.dtype)
        for i, block in enumerate(np.split(out, count)):
            DISPATCH.segment = i
            converter.convert_members(blocks[i * members : (i + 1) * members], block)
        out = get_stacked_engine(n, target_moduli * (members * count)).forward(
            out, consume=True, segments=[members * (limb_count - 1)] * count,
            epilogue=Fused("moddown-rescale-tail", 2.0 * (MODMUL_OPS + MODADD_OPS),
                           heads, fold),
        )
    return [
        RNSPoly(target_moduli * members, block, LimbFormat.EVALUATION, pool=poly.pool)
        for poly, block in zip(accs, np.split(out, count))
    ]


def apply_key(
    context: Context,
    decomposed: DecomposedPolynomial,
    key: KeySwitchingKey,
    *,
    automorphism_exponent: int | None = None,
) -> tuple[RNSPoly, RNSPoly]:
    """Multiply ModUp'd digits with a key-switching key, left in ``Q_l ∪ P``.

    When ``automorphism_exponent`` is given, the automorphism is applied to
    every extended digit before the key multiplication -- this is the
    hoisted-rotation path, where the decomposition is shared across many
    rotation keys.  The digits are in evaluation format, so that is one
    gather of the ``dnum`` extended stacks (a single ``Automorph`` launch)
    and no transform: a hoisted step costs the gather, the inner product
    and its caller's ModDown.

    Returns the two accumulators over the extended basis; the caller
    places the ModDown (:func:`mod_down_many`, or
    :func:`mod_down_rescale_many` where a rescale follows).
    """
    template = decomposed.extended_digits[0]
    col = template.moduli_col
    digit_polys = decomposed.extended_digits
    if automorphism_exponent is not None:
        # One Automorph launch gathers every extended digit.
        digit_polys = RNSPoly.automorphism_many(
            digit_polys, automorphism_exponent
        )
    digits = [poly.data for poly in digit_polys]
    # Below the top level only some key rows are active, and they are
    # read where they lie: each window pairs a row range of the digits
    # with the key rows it meets (a tiled fused key is one window).
    keys = [
        context.key_digit_stacks(key, j, decomposed.limb_count, template.members)
        for j in range(len(digits))
    ]
    windows = context.key_row_windows(decomposed.limb_count, template.members)
    # Dot-product fusion (§III-F.5): each accumulator is one wide
    # multiply-accumulate with a single reduction instead of a reduced
    # product and a reduced add per digit, and the GPU launches both as
    # one inner-product kernel.
    acc_data = [np.empty(digits[0].shape, dtype=col.dtype) for _ in range(2)]
    with DISPATCH.launch("ks-inner-product"):
        for rows, key_rows in windows:
            for component, acc in enumerate(acc_data):
                modmath.stack_dot_mod(
                    [(d[rows], k[component][key_rows]) for d, k in zip(digits, keys)],
                    col[rows], out=acc[rows],
                )
    acc0, acc1 = (
        RNSPoly(template.moduli, data, LimbFormat.EVALUATION, pool=template.pool)
        for data in acc_data
    )
    return acc0, acc1


def key_switch(
    context: Context, poly: RNSPoly, key: KeySwitchingKey
) -> tuple[RNSPoly, RNSPoly]:
    """Full key switch of ``poly`` (decompose, ModUp, key multiply, ModDown)."""
    decomposed = decompose_and_mod_up(context, poly)
    with DISPATCH.scope("keyswitch"):
        delta0, delta1 = mod_down_many(context, list(apply_key(context, decomposed, key)))
    return delta0, delta1


__all__ = [
    "DecomposedPolynomial",
    "decompose_and_mod_up",
    "mod_down",
    "mod_down_many",
    "mod_down_rescale_many",
    "apply_key",
    "key_switch",
]
