"""The server-side CKKS evaluator: every primitive of Table I.

``Evaluator`` implements the homomorphic operations FIDESlib runs on the
GPU -- HAdd, PtAdd, ScalarAdd, HMult, PtMult, ScalarMult, HSquare,
Rescale, HRotate, HConjugate and the hoisted-rotation routine -- on top of
the :mod:`repro.core` polynomial substrate and the hybrid key switching of
:mod:`repro.ckks.keyswitch`.

Scale management follows the per-level scale ladder computed by the
context (Kim et al. [36]): ciphertexts at the same level always carry the
same scaling factor, so additions are exact, and plaintext/scalar
multiplications encode their operand at the scale that restores the ladder
after the following rescale.

Every operation takes the member count from its operand: a fused
ciphertext (:meth:`~repro.ckks.ciphertext.Ciphertext.fuse`) runs the same
kernels over ``(B·L, N)`` stacks -- one launch per operation for the whole
batch, bit-identical per member to evaluating the members one at a time --
and records the same kernel structure at ``B×`` the rows and bytes under a
``batch{B}/`` scope prefix.  Plaintext and scalar operands broadcast to
every member; ciphertext operands must hold equally many members.

The evaluator *is* the functional
:class:`~repro.api.backend.EvaluationBackend`: a
:class:`~repro.api.vector.CipherVector` operator calls the method below
that does the work, with no forwarding layer in between.  Plaintext
operands arrive pre-encoded (:class:`~repro.ckks.ciphertext.Plaintext`) or
as raw value arrays, which are encoded at the ladder-restoring scale
(:meth:`Evaluator.encode_for`).
"""

from __future__ import annotations

from typing import Sequence

from repro.ckks.ciphertext import (
    Ciphertext,
    Plaintext,
    adjust_is_noop,
    check_dot_operands,
    check_finite_scalar,
    check_plain_scale,
    check_scalar_rescale,
    match_for_product,
    match_for_sum,
)
from repro.ckks.context import Context
from repro.ckks.encryption import Encryptor, encode
from repro.ckks.keys import KeySet, KeySwitchingKey
from repro.ckks.keyswitch import apply_key, decompose_and_mod_up, key_switch
from repro.core import modmath
from repro.core.automorphism import conjugation_exponent, rotation_to_exponent
from repro.core.dispatch import get_dispatcher
from repro.core.limb import LimbFormat
from repro.core.rns_poly import RNSPoly

#: Execution-plane dispatcher: the evaluator tags operation scopes so a
#: recorded trace segments into hmult/modup/moddown/rescale regions, and
#: groups the kernels of one site (both components, the tensor product)
#: into the one launch FIDESlib makes of them (``Dispatcher.launch``).
_DISPATCH = get_dispatcher()


class Evaluator:
    """Applies homomorphic operations using a context and evaluation keys.

    Handles are :class:`Ciphertext` objects.  An optional encryptor makes
    the evaluator a source of fresh ciphertexts, so whole applications (the
    :mod:`repro.apps` workloads) can be written against the backend alone.
    """

    name = "functional"

    def __init__(self, context: Context, keys: KeySet, *,
                 encryptor: Encryptor | None = None) -> None:
        self.context = context
        self.params = context.params
        self.keys = keys
        self.encryptor = encryptor

    @staticmethod
    def _scope(ct: Ciphertext, name: str):
        """Operation scope; a fused operand tags it ``batch{B}/name``."""
        if ct.batch_size > 1:
            name = f"batch{ct.batch_size}/{name}"
        return _DISPATCH.scope(name)

    @staticmethod
    def _on_both(ct: Ciphertext, tag: str, fn, *, scale: float | None = None) -> Ciphertext:
        """Apply ``fn`` to both components in one launch."""
        with _DISPATCH.launch(tag):
            return ct.with_polys(fn(ct.c0), fn(ct.c1), scale=scale)

    # ------------------------------------------------------------------
    # ciphertext sources, fuse / split
    # ------------------------------------------------------------------

    def encrypt(self, values, *, scale: float | None = None,
                level: int | None = None) -> Ciphertext:
        """Encode and encrypt fresh values (requires an encryptor)."""
        if self.encryptor is None:
            raise RuntimeError(
                "this Evaluator has no encryptor; construct it with "
                "encryptor=... or encrypt through the session/client instead"
            )
        limb_count = None if level is None else level + 1
        return self.encryptor.encrypt_values(values, scale=scale, limb_count=limb_count)

    def encrypt_batch(self, value_rows: Sequence, *, scale: float | None = None,
                      level: int | None = None) -> Ciphertext:
        """Encrypt one vector per row and fuse them into one ciphertext."""
        return Ciphertext.fuse(
            [self.encrypt(row, scale=scale, level=level) for row in value_rows]
        )

    #: The backend protocol's names for :meth:`Ciphertext.fuse` / ``split``.
    batch_from = staticmethod(Ciphertext.fuse)
    batch_split = staticmethod(Ciphertext.split)

    # ------------------------------------------------------------------
    # level and scale management
    # ------------------------------------------------------------------

    def rescale(self, ct: Ciphertext) -> Ciphertext:
        """Drop the last limb, dividing the message scale by its prime.

        Both components of every member go through one fused stacked
        rescale, sharing the switch-modulus broadcast and NTT passes.
        """
        if ct.limb_count < 2:
            raise ValueError("cannot rescale a level-0 ciphertext")
        q_last = ct.moduli[-1]
        with self._scope(ct, "rescale"):
            c0, c1 = RNSPoly.rescale_last_many([ct.c0, ct.c1])
        return ct.with_polys(c0, c1, scale=ct.scale / q_last)

    def mod_reduce(self, ct: Ciphertext, limb_count: int) -> Ciphertext:
        """Drop limbs without rescaling (message and scale unchanged)."""
        if limb_count > ct.limb_count:
            raise ValueError("cannot mod-reduce to a larger limb count")
        return ct.with_polys(
            ct.c0.keep_limbs(limb_count),
            ct.c1.keep_limbs(limb_count),
        )

    def adjust(self, ct: Ciphertext, target_level: int,
               target_scale: float | None = None) -> Ciphertext:
        """Bring ``ct`` to ``target_level`` with the requested scale.

        Uses a scalar multiplication folded with a rescale so the output
        scale matches ``target_scale`` (default: the ladder scale of the
        target level) to within rounding error.
        """
        if target_scale is None:
            target_scale = self.context.scale_at(target_level)
        if adjust_is_noop(ct, target_level, target_scale):
            return ct.with_polys(ct.c0, ct.c1)
        with self._scope(ct, "at_level"):
            reduced = self.mod_reduce(ct, target_level + 2)
            q = reduced.moduli[-1]
            weight = max(1, int(round(q * target_scale / reduced.scale)))
            adjusted = self._on_both(
                reduced, "scalarmult", lambda c: c.multiply_scalar(weight),
                scale=reduced.scale * weight,
            )
            rescaled = self.rescale(adjusted)
        rescaled.scale = target_scale
        return rescaled

    #: The backend protocol's name (it passes no scale: the ladder's applies).
    at_level = adjust

    # ------------------------------------------------------------------
    # additions (HAdd, PtAdd, ScalarAdd)
    # ------------------------------------------------------------------

    def add(self, ct1: Ciphertext, ct2: Ciphertext) -> Ciphertext:
        """Homomorphic ciphertext addition (``HAdd``)."""
        return self._sum(ct1, ct2, "hadd", RNSPoly.add)

    def sub(self, ct1: Ciphertext, ct2: Ciphertext) -> Ciphertext:
        """Homomorphic ciphertext subtraction."""
        return self._sum(ct1, ct2, "hsub", RNSPoly.sub)

    def _sum(self, ct1: Ciphertext, ct2: Ciphertext, tag: str, op) -> Ciphertext:
        with self._scope(ct1, "hadd"):
            a, b = match_for_sum(ct1, ct2, self.adjust)
            with _DISPATCH.launch(tag):
                return a.with_polys(op(a.c0, b.c0), op(a.c1, b.c1))

    def negate(self, ct: Ciphertext) -> Ciphertext:
        """Homomorphic negation."""
        with self._scope(ct, "negate"):
            return self._on_both(ct, "negate", RNSPoly.negate)

    def _as_plaintext(self, ct: Ciphertext, values, *, for_multiplication: bool) -> Plaintext:
        """A plaintext operand as given, or raw values encoded to suit ``ct``."""
        if isinstance(values, Plaintext):
            return values
        return self.encode_for(ct, values, for_multiplication=for_multiplication)

    def add_plain(self, ct: Ciphertext, values) -> Ciphertext:
        """Plaintext addition (``PtAdd``) of a :class:`Plaintext` or raw values."""
        return self._plain_sum(ct, values, RNSPoly.add)

    def sub_plain(self, ct: Ciphertext, values) -> Ciphertext:
        """Plaintext subtraction of a :class:`Plaintext` or raw values."""
        return self._plain_sum(ct, values, RNSPoly.sub)

    def _plain_sum(self, ct: Ciphertext, values, op) -> Ciphertext:
        pt = self._as_plaintext(ct, values, for_multiplication=False)
        check_plain_scale(ct, pt.scale)
        with self._scope(ct, "ptadd"):
            # Only c0 changes: c1 is the operand's own (immutable) polynomial.
            return ct.with_polys(op(ct.c0, self._plain_operand(ct, pt)), ct.c1)

    @staticmethod
    def _plain_operand(ct: Ciphertext, pt: Plaintext) -> RNSPoly:
        """Restrict a plaintext to the ciphertext basis, in evaluation format.

        Limbs are dropped (a window, not a copy) before the format
        conversion so the stacked NTT only transforms the rows that survive;
        a plaintext already over the ciphertext's basis in evaluation format
        (a cached diagonal, a fresh encoding) is used as it is.
        """
        poly = pt.poly.keep_limbs(ct.limb_count)
        if poly.fmt is not LimbFormat.EVALUATION:
            poly = poly.to_evaluation()
        # One plaintext broadcasts to every member of a fused ciphertext.
        return poly.tile(ct.batch_size)

    def add_scalar(self, ct: Ciphertext, value: float) -> Ciphertext:
        """Constant addition (``ScalarAdd``): adds ``value`` to every slot."""
        integer = int(round(check_finite_scalar("add_scalar", value) * ct.scale))
        with self._scope(ct, "scalaradd"):
            return ct.with_polys(ct.c0.add_scalar(integer), ct.c1)

    def sub_scalar(self, ct: Ciphertext, value: float) -> Ciphertext:
        """Constant subtraction."""
        return self.add_scalar(ct, -float(value))

    # ------------------------------------------------------------------
    # multiplications (HMult, PtMult, ScalarMult, HSquare)
    # ------------------------------------------------------------------

    def multiply_plain(self, ct: Ciphertext, values, *, rescale: bool = True) -> Ciphertext:
        """Plaintext multiplication (``PtMult``) by a :class:`Plaintext` or raw values."""
        pt = self._as_plaintext(ct, values, for_multiplication=True)
        with self._scope(ct, "ptmult"):
            poly = self._plain_operand(ct, pt)
            result = self._on_both(
                ct, "ptmult", lambda c: c.multiply(poly), scale=ct.scale * pt.scale
            )
            return self.rescale(result) if rescale else result

    def multiply_scalar(self, ct: Ciphertext, value: float, *, rescale: bool = True,
                        scalar_scale: float | None = None) -> Ciphertext:
        """Constant multiplication (``ScalarMult``).

        The constant is encoded at the scale that restores the ladder after
        the rescale, so chained operations keep exact per-level scales.
        """
        value = check_finite_scalar("multiply_scalar", value)
        if rescale:
            check_scalar_rescale(ct)
        if scalar_scale is None:
            if rescale:
                q = ct.moduli[-1]
                scalar_scale = q * self.context.scale_at(ct.level - 1) / ct.scale
            else:
                scalar_scale = self.context.scale
        integer = int(round(value * scalar_scale))
        with self._scope(ct, "scalarmult"):
            result = self._on_both(
                ct, "scalarmult", lambda c: c.multiply_scalar(integer),
                scale=ct.scale * scalar_scale,
            )
            if rescale:
                result = self.rescale(result)
                result.scale = self.context.scale_at(ct.level - 1) * 1.0
        return result

    def multiply_scalar_int(self, ct: Ciphertext, value: int) -> Ciphertext:
        """Multiply by a small integer without changing the scale."""
        with self._scope(ct, "scalarmult"):
            return self._on_both(
                ct, "scalarmult", lambda c: c.multiply_scalar(int(value))
            )

    def multiply(self, ct1: Ciphertext, ct2: Ciphertext, *, rescale: bool = True,
                 relinearize: bool = True) -> Ciphertext:
        """Homomorphic multiplication (``HMult``) with relinearisation."""
        with self._scope(ct1, "hmult"):
            a, b = match_for_product(ct1, ct2, self.adjust)
            # The GPU launches the whole tensor product as one fused kernel
            # (4 products + 2 additions per element).
            with _DISPATCH.launch("tensor"):
                d0 = a.c0.multiply(b.c0)
                # Dot-product fusion (§III-F.5): one wide accumulation for the
                # cross term instead of two reduced products plus a reduced add.
                d1 = RNSPoly.multiply_accumulate([(a.c0, b.c1), (a.c1, b.c0)])
                d2 = a.c1.multiply(b.c1)
            result = self._relinearize(a, d0, d1, d2, a.scale * b.scale) if relinearize else \
                a.with_polys(d0, d1, scale=a.scale * b.scale)
            return self.rescale(result) if rescale else result

    def square(self, ct: Ciphertext, *, rescale: bool = True) -> Ciphertext:
        """Homomorphic squaring (``HSquare``), cheaper than a general HMult."""
        with self._scope(ct, "hsquare"):
            with _DISPATCH.launch("square-tensor"):
                d0 = ct.c0.multiply(ct.c0)
                d1 = ct.c0.multiply(ct.c1)
                # 2·c0·c1: the product is still private to this launch, so
                # it doubles in place instead of through a fourth buffer.
                data = d1.data
                modmath.stack_add_mod(data, data, d1.moduli_col, out=data)
                d2 = ct.c1.multiply(ct.c1)
            result = self._relinearize(ct, d0, d1, d2, ct.scale * ct.scale)
            return self.rescale(result) if rescale else result

    def _relinearize(self, template: Ciphertext, d0: RNSPoly, d1: RNSPoly,
                     d2: RNSPoly, scale: float) -> Ciphertext:
        delta0, delta1 = key_switch(self.context, d2, self.keys.relinearization_key)
        # Both component additions are one fused GPU launch.
        with _DISPATCH.launch("relin-add"):
            c0 = d0.add(delta0)
            c1 = d1.add(delta1)
        return template.with_polys(c0, c1, scale=scale)

    def multiply_by_monomial(self, ct: Ciphertext, power: int) -> Ciphertext:
        """Multiply by ``X^power`` (no scale change).

        ``power = N/2`` multiplies every slot by the imaginary unit ``i``,
        which the bootstrapping transforms use to recombine the real and
        imaginary coefficient halves without consuming a level.
        """
        n = self.context.ring_degree
        power = power % (2 * n)
        sign = 1
        if power >= n:
            power -= n
            sign = -1
        coefficients = [0] * n
        coefficients[power] = sign
        monomial = RNSPoly.from_int_coefficients(
            n, ct.moduli, coefficients, fmt=LimbFormat.EVALUATION
        ).tile(ct.batch_size)
        with self._scope(ct, "monomial"):
            return self._on_both(ct, "monomial", lambda c: c.multiply(monomial))

    def multiply_by_i(self, ct: Ciphertext) -> Ciphertext:
        """Multiply every slot by the imaginary unit ``i``."""
        return self.multiply_by_monomial(ct, self.context.ring_degree // 2)

    # ------------------------------------------------------------------
    # rotations (HRotate, HConjugate, hoisting)
    # ------------------------------------------------------------------

    def rotate(self, ct: Ciphertext, steps: int) -> Ciphertext:
        """Rotate the message vector left by ``steps`` slots (``HRotate``)."""
        if steps % ct.slots == 0:
            return ct.with_polys(ct.c0, ct.c1)
        key = self.keys.rotation_key(steps, self.context.slots)
        exponent = rotation_to_exponent(self.context.ring_degree, steps)
        with self._scope(ct, "hrotate"):
            return self._apply_automorphism(ct, exponent, key)

    def conjugate(self, ct: Ciphertext) -> Ciphertext:
        """Conjugate the message vector (``HConjugate``)."""
        if self.keys.conjugation_key is None:
            raise KeyError("no conjugation key was generated")
        exponent = conjugation_exponent(self.context.ring_degree)
        with self._scope(ct, "hconjugate"):
            return self._apply_automorphism(ct, exponent, self.keys.conjugation_key)

    def _apply_automorphism(self, ct: Ciphertext, exponent: int,
                            key: KeySwitchingKey) -> Ciphertext:
        # Both components are permuted by one Automorph launch.
        rotated_c0, rotated_c1 = RNSPoly.automorphism_many([ct.c0, ct.c1], exponent)
        delta0, delta1 = key_switch(self.context, rotated_c1, key)
        return ct.with_polys(rotated_c0.add(delta0), delta1)

    def hoisted_rotations(self, ct: Ciphertext, steps: Sequence[int]) -> dict[int, Ciphertext]:
        """Rotate one ciphertext by many step counts, sharing the ModUp.

        Implements the hoisting optimisation of Halevi-Shoup [39]
        (§III-F.6): the digit decomposition and base extension of ``c1``
        are computed once and reused for every rotation key.  Each step
        then gathers the extended digits (one ``Automorph`` launch, no
        transform -- the digits are in evaluation format), runs the inner
        product and ModDown, and gathers ``c0``; the result is keyed by
        the requested steps, and a step is served by any loaded key with
        the same residue mod ``slots``.
        """
        results: dict[int, Ciphertext] = {}
        with self._scope(ct, "hoisted"):
            decomposed = decompose_and_mod_up(self.context, ct.c1)
            for step in steps:
                step = int(step)
                if step % ct.slots == 0:
                    results[step] = ct.with_polys(ct.c0, ct.c1)
                    continue
                key = self.keys.rotation_key(step, self.context.slots)
                exponent = rotation_to_exponent(self.context.ring_degree, step)
                delta0, delta1 = apply_key(
                    self.context, decomposed, key, automorphism_exponent=exponent
                )
                rotated_c0 = ct.c0.automorphism(exponent)
                results[step] = ct.with_polys(rotated_c0.add(delta0), delta1)
        return results

    # ------------------------------------------------------------------
    # convenience
    # ------------------------------------------------------------------

    def encode_for(self, ct: Ciphertext, values, *, for_multiplication: bool = True) -> Plaintext:
        """Encode values so the plaintext composes cleanly with ``ct``.

        For multiplication the plaintext is encoded at the scale that
        restores the ladder after the following rescale; for addition it is
        encoded at the ciphertext's own scale.
        """
        if for_multiplication and ct.level >= 1:
            q = ct.moduli[-1]
            scale = q * self.context.scale_at(ct.level - 1) / ct.scale
        else:
            scale = ct.scale
        return encode(self.context, values, scale=scale, limb_count=ct.limb_count)

    def dot_product_plain(self, cts: Sequence[Ciphertext], plaintexts: Sequence,
                          *, rescale: bool = True) -> Ciphertext:
        """Fused weighted sum ``Σ ct_i ⊙ pt_i`` (the dot-product fusion of §III-F.5).

        Each ``pt_i`` is a :class:`Plaintext` or a raw value row.
        """
        check_dot_operands(cts, plaintexts)
        acc = self.multiply_plain(cts[0], plaintexts[0], rescale=False)
        for ct, pt in zip(cts[1:], plaintexts[1:]):
            acc = self.add(acc, self.multiply_plain(ct, pt, rescale=False))
        return self.rescale(acc) if rescale else acc

    def describe(self) -> dict:
        """Backend self-description (the :class:`EvaluationBackend` report)."""
        return {
            "backend": self.name,
            "parameter_set": self.params.describe(),
            "encryptor": self.encryptor is not None,
        }


__all__ = ["Evaluator"]
