"""Hybrid key switching: digit decomposition, ModUp, ModDown.

``HMult`` and ``HRotate`` produce ciphertext components encrypted under a
different secret (``s^2`` or ``σ_k(s)``); key switching converts them back
to ``s`` using the hybrid technique of Han-Ki [37]:

1. **decompose** the polynomial into ``dnum`` digits of the RNS basis;
2. **ModUp** each digit from its own sub-basis to the full current basis
   plus the extension limbs ``P`` (a fast base conversion, Equation 1);
3. multiply each extended digit with the matching key-switching key
   component and accumulate (the "dot product fusion" of §III-F.5);
4. **ModDown** the accumulators by ``P`` (another base conversion followed
   by the fused ``P^{-1}(x - Conv(x'))`` step the paper folds into its NTT
   kernels).

The functions here operate on :class:`~repro.core.rns_poly.RNSPoly`
objects in evaluation format and return deltas that the caller adds to the
ciphertext components.  Every step is batched over the polynomials' flat
``(L, N)`` arrays (``RNSPoly.data``): digit rows are
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
from repro.core.dispatch import get_dispatcher
from repro.core.limb import LimbFormat
from repro.core.ntt import Fused, get_stacked_engine
from repro.core.rns_poly import RNSPoly
from repro.gpu.kernel import MODADD_OPS, MODMUL_OPS

_DISPATCH = get_dispatcher()


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
    with _DISPATCH.scope("modup"):
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
            _DISPATCH.link((converted_eval, poly.data), stack)
            digits_out.append(RNSPoly(
                target_moduli * members, stack, LimbFormat.EVALUATION, pool=poly.pool
            ))
        return DecomposedPolynomial(extended_digits=digits_out, limb_count=limb_count)


def mod_down(context: Context, poly: RNSPoly) -> RNSPoly:
    """Divide an extended-basis polynomial by ``P`` and drop the special limbs.

    Computes ``P^{-1} * (x_i - Conv_{P->Q_l}(x_P))`` per ciphertext limb,
    the sequence FIDESlib fuses into its NTT kernels (ModDown fusion), as
    three batched stack expressions plus two stacked (i)NTT calls.
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
    members = first.members
    count = len(polys)
    special_count = len(context.special_moduli)
    limb_count = first.level_count // members - special_count
    if limb_count < 1:
        raise ValueError("polynomial does not carry special limbs to remove")
    n = context.ring_degree
    is_eval = first.fmt is LimbFormat.EVALUATION
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
    with _DISPATCH.scope("moddown"), _DISPATCH.interleaved():
        specials = [rows for p in polys for rows in p.member_rows(limb_count)]
        if is_eval:
            # The N^-1 scaling folds into the conversion's q-hat^-1 constants.
            special_rows = get_stacked_engine(
                n, special_moduli * (members * count)
            ).inverse(sources=specials, segments=[members * special_count] * count,
                      fused_ops_per_element=0.0)
            specials = np.split(special_rows, members * count)
        out = np.empty((count * members * limb_count, n), dtype=target_col.dtype)
        for i, block in enumerate(np.split(out, count)):
            _DISPATCH.segment = i
            converter.convert_members(specials[i * members : (i + 1) * members], block)
            if not is_eval:
                _DISPATCH.run(
                    "moddown-fused", fold, ops_per_element=fold_ops,
                    reads=(block, *heads[i * members : (i + 1) * members]),
                    writes=(block,),
                )
        if is_eval:
            out = get_stacked_engine(n, target_moduli * (members * count)).forward(
                out, consume=True, segments=[members * limb_count] * count,
                epilogue=Fused("moddown-tail", fold_ops, heads, fold),
            )
    return [
        RNSPoly(target_moduli * members, block, poly.fmt, pool=poly.pool)
        for poly, block in zip(polys, np.split(out, count))
    ]


def apply_key(
    context: Context,
    decomposed: DecomposedPolynomial,
    key: KeySwitchingKey,
    *,
    automorphism_exponent: int | None = None,
) -> tuple[RNSPoly, RNSPoly]:
    """Multiply ModUp'd digits with a key-switching key and ModDown the result.

    When ``automorphism_exponent`` is given, the automorphism is applied to
    every extended digit before the key multiplication -- this is the
    hoisted-rotation path, where the decomposition is shared across many
    rotation keys.  The digits are in evaluation format, so that is one
    gather of the ``dnum`` extended stacks (a single ``Automorph`` launch)
    and no transform: a hoisted step costs the gather, the inner product
    and the ModDown.

    Returns the pair ``(delta_c0, delta_c1)`` over the ciphertext basis.
    """
    with _DISPATCH.scope("keyswitch"):
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
        # one inner-product kernel.  The key is the constant side: on a
        # dword chain its Shoup companion rides along with every key stack.
        acc_data = [np.empty(digits[0].shape, dtype=col.dtype) for _ in range(2)]
        with _DISPATCH.launch("ks-inner-product"):
            for rows, key_rows in windows:
                for component, acc in enumerate(acc_data):
                    modmath.stack_dot_mod(
                        [(d[rows], *(y[key_rows] for y in k[component]))
                         for d, k in zip(digits, keys)],
                        col[rows], out=acc[rows],
                    )
        accs = [
            RNSPoly(template.moduli, data, LimbFormat.EVALUATION, pool=template.pool)
            for data in acc_data
        ]
        delta0, delta1 = mod_down_many(context, accs)
        return delta0, delta1


def key_switch(
    context: Context, poly: RNSPoly, key: KeySwitchingKey
) -> tuple[RNSPoly, RNSPoly]:
    """Full key switch of ``poly`` (decompose, ModUp, key multiply, ModDown)."""
    decomposed = decompose_and_mod_up(context, poly)
    return apply_key(context, decomposed, key)


__all__ = [
    "DecomposedPolynomial",
    "decompose_and_mod_up",
    "mod_down",
    "mod_down_many",
    "apply_key",
    "key_switch",
]
