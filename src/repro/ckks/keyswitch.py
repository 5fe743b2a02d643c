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
ciphertext components.  Every step is batched over the flat
:class:`~repro.core.limb_stack.LimbStack` data plane: digit rows are
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
from repro.core.dispatch import gather_rows, get_dispatcher
from repro.core.limb import LimbFormat
from repro.core.limb_stack import LimbStack
from repro.core.ntt import (
    get_stacked_engine,
    record_staged_transform,
    transform_in_place,
)
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
        poly_coeff = get_stacked_engine(n, tuple(poly.moduli)).inverse(poly.stack.data)
        # Per-digit batched base conversions to the complementary basis ∪ P
        # (each digit needs its own Equation-1 tables), each writing its rows
        # straight into the fused NTT buffer (layout-aware: no per-block
        # vstack staging copy, no provenance links to stitch across one).
        # A digit's block holds each converted limb once per member, so the
        # fused NTT walks runs of one modulus sharing one twiddle row.
        digit_spans: list[tuple[int, int]] = []
        converters = []
        fused_moduli: list[int] = []
        for digit_index in range(num_digits):
            digit_indices = [
                i for i in context.digit_limb_indices(digit_index) if i < limb_count
            ]
            digit_spans.append((digit_indices[0], digit_indices[-1] + 1))
            converter = context.modup_converter(limb_count, digit_index)
            converters.append(converter)
            for q in converter.target.moduli:
                fused_moduli.extend([q] * members)
        block_rows = [len(conv.target) * members for conv in converters]
        stacked = np.empty((sum(block_rows), n), dtype=target_col.dtype)
        row = 0
        for (d0, d1), converter, rows in zip(digit_spans, converters, block_rows):
            # Each member's digit rows are a zero-copy slice of the stacked
            # iNTT output (digits are contiguous), so the recorded base
            # conversion reads the transform's buffer directly.
            sources = tuple(
                poly_coeff[m * limb_count + d0 : m * limb_count + d1]
                for m in range(members)
            )
            block = stacked[row : row + rows]
            # Exact chain, machine-word digit target: convert into a word
            # staging block, then lift to Python integers (the link
            # stitches the dependency edge across the copy).
            converted = block
            if converter._target_col.dtype != block.dtype:
                converted = np.empty(block.shape, dtype=np.uint64)

            def convert(reads, writes, _conv=converter):
                for m, source in enumerate(reads):
                    _conv.convert_stack(source, out=writes[0][m::len(reads)])

            with _DISPATCH.suppressed():
                convert(sources, (converted,))
            if _DISPATCH.recording:
                _DISPATCH.base_conversion(
                    "baseconv", d1 - d0, len(converter.target),
                    reads=sources, writes=(converted,), cols=members * n,
                    replay=convert,
                )
            if converted is not block:
                block[...] = modmath.coerce_stack(converted, target_col)
                _DISPATCH.link((converted,), block)
            row += rows
        # ... then one fused stacked NTT returns every digit's converted rows
        # to the evaluation domain in a single in-place call; the trace
        # records it at GPU launch granularity, one kernel per digit.
        fused_eval = get_stacked_engine(n, tuple(fused_moduli)).forward(
            stacked,
            consume=True,
            segments=block_rows,
        )
        digits_out: list[RNSPoly] = []
        row_offset = 0
        for (d0, d1), rows in zip(digit_spans, block_rows):
            converted_eval = fused_eval[row_offset : row_offset + rows]
            row_offset += rows
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
            _DISPATCH.link((converted_eval, poly.stack.data), stack)
            digits_out.append(
                RNSPoly.from_stack(
                    LimbStack(target_moduli * members, stack,
                              pool=poly.stack.pool),
                    LimbFormat.EVALUATION,
                )
            )
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
        if poly.moduli != first.moduli or poly.fmt is not first.fmt:
            raise ValueError("fused mod_down requires matching bases and formats")
    members = first.members
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
    p_inv = tuple(context.p_inv_mod_q[:limb_count])
    # Rows one polynomial contributes to the fused special / output buffers.
    special_rows_each = members * special_count
    out_rows_each = members * limb_count

    def convert(reads, writes):
        # Each member's P -> Q_l conversion writes its rows directly into
        # the member-major layout the tail consumes.
        for r in range(len(reads[0]) // special_count):
            converter.convert_stack(
                reads[0][r * special_count : (r + 1) * special_count],
                out=writes[0][r * limb_count : (r + 1) * limb_count],
            )

    def fold_heads(heads, block):
        # The ``P^{-1}(x - Conv(x'))`` tail folds each member's head limbs
        # into its rows of ``block`` in place (no heads vstack, no separate
        # diff/result temporaries).
        for m, head in enumerate(heads):
            seg = block[m * limb_count : (m + 1) * limb_count]
            head = modmath.coerce_stack(head, target_col)
            modmath.stack_sub_mod(head, seg, target_col, out=seg)
            modmath.stack_scalar_mod(seg, p_inv, target_col, out=seg)

    with _DISPATCH.scope("moddown"), _DISPATCH.suppressed():
        special_rows = np.concatenate(
            [rows for p in polys for rows in p.member_rows(limb_count)]
        )
        for i, p in enumerate(polys):
            # Keep the dependency chain intact across the staging copy (the
            # coefficient-format path has no recorded iNTT to carry it).
            _DISPATCH.link(
                p.member_rows(limb_count),
                special_rows[i * special_rows_each : (i + 1) * special_rows_each],
            )
        if is_eval:
            special_rows = get_stacked_engine(
                n, special_moduli * (members * len(polys))
            ).inverse(special_rows, consume=True)
        out = np.empty((out_rows_each * len(polys), n), dtype=target_col.dtype)
        convert((special_rows,), (out,))
        if is_eval:
            out = get_stacked_engine(
                n, target_moduli * (members * len(polys))
            ).forward(out, consume=True)
        for i, p in enumerate(polys):
            fold_heads(
                p.member_rows(0, limb_count),
                out[i * out_rows_each : (i + 1) * out_rows_each],
            )
    # Execution-plane record, per component, at GPU launch granularity:
    # iNTT of the special limbs, the P -> Q_l base conversion, and an NTT
    # over the ciphertext limbs with the ``P^{-1}(x - Conv(x'))`` step
    # fused in (the ModDown fusion, §III-F.5).
    if _DISPATCH.recording:
        staged = is_eval and _DISPATCH.stage_granular
        component_special_moduli = special_moduli * members
        component_moduli = target_moduli * members

        def intt_replay(reads, writes):
            transform_in_place(
                n, component_special_moduli, reads, writes[0], forward=False
            )

        def tail_replay(reads, writes):
            gather_rows(reads[:1], writes[0])
            fold_heads(reads[1:], writes[0])

        def ntt_tail_replay(reads, writes):
            transform_in_place(
                n, component_moduli, reads[:1], writes[0], forward=True
            )
            fold_heads(reads[1:], writes[0])

        with _DISPATCH.scope("moddown"):
            # Per-component slices: the c0/c1 pipelines touch disjoint rows
            # of the fused buffers, so they stay parallel in the DAG (the
            # §III-F.1 overlap the stream scheduler exploits).
            for i, poly in enumerate(polys):
                component_out = out[i * out_rows_each : (i + 1) * out_rows_each]
                component_special = special_rows[
                    i * special_rows_each : (i + 1) * special_rows_each
                ]
                specials = poly.member_rows(limb_count)
                tail_reads = (component_out,) + poly.member_rows(0, limb_count)
                # Under stage-granular recording the two transforms expand
                # into per-stage launch runs (the unfused GPU baseline) and
                # the ``P^{-1}(x - Conv(x'))`` arithmetic becomes its own
                # elementwise launch after the NTT stages.
                if is_eval and not (staged and record_staged_transform(
                    "intt", n, component_special_moduli, specials, component_special,
                )):
                    _DISPATCH.transform(
                        "intt", special_rows_each, reads=specials,
                        writes=(component_special,), cols=n,
                        replay=intt_replay,
                    )
                _DISPATCH.base_conversion(
                    "baseconv", special_count, limb_count,
                    reads=(component_special,), writes=(component_out,),
                    cols=members * n, replay=convert,
                )
                if not is_eval:
                    _DISPATCH.elementwise(
                        "moddown-fused", reads=tail_reads,
                        writes=(component_out,),
                        ops_per_element=MODMUL_OPS + MODADD_OPS,
                        replay=tail_replay,
                    )
                elif staged and record_staged_transform(
                    "ntt", n, component_moduli, (component_out,), component_out,
                ):
                    _DISPATCH.elementwise(
                        "moddown-tail", reads=tail_reads,
                        writes=(component_out,),
                        ops_per_element=MODMUL_OPS + MODADD_OPS,
                        replay=tail_replay,
                    )
                else:
                    _DISPATCH.transform(
                        "ntt", out_rows_each, reads=tail_reads,
                        writes=(component_out,), cols=n,
                        fused_ops_per_element=MODMUL_OPS + MODADD_OPS,
                        replay=ntt_tail_replay,
                    )
    return [
        RNSPoly.from_stack(
            LimbStack(
                target_moduli * members,
                out[i * out_rows_each : (i + 1) * out_rows_each],
                pool=poly.stack.pool,
            ),
            poly.fmt,
        )
        for i, poly in enumerate(polys)
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
        col = template.stack.moduli_col
        digit_polys = decomposed.extended_digits
        if automorphism_exponent is not None:
            # One Automorph launch gathers every extended digit.
            digit_polys = RNSPoly.automorphism_many(
                digit_polys, automorphism_exponent
            )
        digits = [poly.stack.data for poly in digit_polys]
        digit_count = len(digits)
        # Below the top level only some key rows are active, and they are
        # read where they lie: each window pairs a row range of the digits
        # with the key rows it meets (a tiled fused key is one window).
        keys = [
            context.key_digit_stacks(key, j, decomposed.limb_count, template.members)
            for j in range(digit_count)
        ]
        windows = context.key_row_windows(decomposed.limb_count, template.members)
        staged = _DISPATCH.stage_granular and digit_count > 1
        if staged and len(windows) > 1:
            # The per-digit launches below read whole stacks: join the rows.
            keys = [
                tuple(np.concatenate([k[rows] for _, rows in windows]) for k in pair)
                for pair in keys
            ]
            windows = [(slice(None), slice(None))]
        # Dot-product fusion (§III-F.5): each accumulator is one wide
        # multiply-accumulate with a single reduction instead of a reduced
        # product and a reduced add per digit.  The GPU launches this as a
        # single inner-product kernel producing both accumulators, which is
        # how the execution plane records it.
        acc_data = [np.empty(digits[0].shape, dtype=col.dtype) for _ in range(2)]
        with _DISPATCH.suppressed() if staged else _DISPATCH.launch("ks-inner-product"):
            for rows, key_rows in windows:
                for component, acc in enumerate(acc_data):
                    modmath.stack_dot_mod(
                        [(d[rows], k[component][key_rows])
                         for d, k in zip(digits, keys)],
                        col[rows], out=acc[rows],
                    )
        accs = [
            RNSPoly.from_stack(
                LimbStack(template.moduli, data, pool=template.stack.pool),
                LimbFormat.EVALUATION,
            )
            for data in acc_data
        ]
        if staged:
            # Unfused baseline: without the dot-product fusion each
            # accumulator is one reduced product plus a reduced
            # multiply-accumulate launch per further digit, every partial
            # sum a global-memory round trip.  Each run is registered as a
            # fusion group replaying the single wide inner-product kernel.

            def mul_replay(reads, writes):
                modmath.stack_mul_mod(reads[0], reads[1], col, out=writes[0])

            def fma_replay(reads, writes):
                prod = modmath.stack_mul_mod(reads[1], reads[2], col)
                modmath.stack_add_mod(reads[0], prod, col, out=writes[0])

            def dot_replay(reads, writes):
                # Member reads in order: (digit0, key0), then
                # (acc, digit_j, key_j) per further digit.
                dot_pairs = [(reads[0], reads[1])] + [
                    (reads[3 * j], reads[3 * j + 1])
                    for j in range(1, digit_count)
                ]
                modmath.stack_dot_mod(dot_pairs, col, out=writes[0])

            for component, acc in enumerate(acc_data):
                _DISPATCH.elementwise(
                    "ks-mul",
                    reads=(digits[0], keys[0][component]),
                    writes=(acc,),
                    ops_per_element=MODMUL_OPS,
                    replay=mul_replay,
                )
                for j in range(1, digit_count):
                    _DISPATCH.elementwise(
                        "ks-mul-add",
                        reads=(acc, digits[j], keys[j][component]),
                        writes=(acc,),
                        ops_per_element=MODMUL_OPS + MODADD_OPS,
                        replay=fma_replay,
                    )
                _DISPATCH.fusion_group(digit_count, dot_replay)
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
