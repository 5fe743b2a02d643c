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
every member; ciphertext operands must hold equally many members.  A
result that combines operands slot by slot carries the longest operand's
``encoded_length``, or ``None`` (every slot) when one is unknown
(:func:`~repro.ckks.ciphertext.longest_length`): its slots repeat with that
operand's period.

The evaluator *is* the functional
:class:`~repro.api.backend.EvaluationBackend`: a
:class:`~repro.api.vector.CipherVector` operator calls the method below
that does the work, with no forwarding layer in between.  Plaintext
operands arrive pre-encoded (:class:`~repro.ckks.ciphertext.Plaintext`) or
as raw value arrays, which are encoded at the ladder-restoring scale
(:meth:`Evaluator.encode_for`).
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from repro.ckks.ciphertext import (
    Ciphertext,
    Plaintext,
    adjust_is_noop,
    check_dot_operands,
    check_finite_scalar,
    check_mod_reduce,
    check_plain_scale,
    check_product_rescale,
    check_product_sum,
    check_same_batch,
    check_scalar_rescale,
    check_sum,
    check_sum_scales,
    longest_length,
    match_for_dot,
    match_for_product,
    match_for_sum,
)
from repro.ckks.context import Context
from repro.ckks.encryption import Encryptor, encode
from repro.ckks.keys import KeySet, KeySwitchingKey
from repro.ckks.keyswitch import (
    apply_key,
    decompose_and_mod_up,
    key_switch,
    mod_down_many,
    mod_down_rescale_many,
)
from repro.core import modmath
from repro.core.automorphism import conjugation_exponent, rotation_to_exponent
from repro.core.dispatch import DISPATCH
from repro.core.limb import LimbFormat
from repro.core.rns_poly import RNSPoly


def _plus(total: RNSPoly | None, poly: RNSPoly) -> RNSPoly:
    """A running sum: ``poly`` starts it, later terms add to it."""
    return poly if total is None else total.add(poly)


def _longest(result: Ciphertext, *operands) -> Ciphertext:
    """``result`` carrying the longest ``encoded_length`` of ``operands``
    (:func:`~repro.ckks.ciphertext.longest_length`)."""
    result.encoded_length = longest_length(*(op.encoded_length for op in operands))
    return result


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

    @property
    def moduli(self) -> list[int]:
        """The chain this backend tracks, ``q_0 … q_L`` (the context's)."""
        return self.context.moduli

    @property
    def scale_ladder(self) -> list[float]:
        """The scale of each level on this backend's chain (the context's)."""
        return self.context.scale_ladder

    @staticmethod
    def _scope(ct: Ciphertext, name: str):
        """Operation scope; a fused operand tags it ``batch{B}/name``."""
        if ct.batch_size > 1:
            name = f"batch{ct.batch_size}/{name}"
        return DISPATCH.scope(name)

    @staticmethod
    def _on_both(ct: Ciphertext, tag: str, fn, *, scale: float | None = None) -> Ciphertext:
        """Apply ``fn`` to both components in one launch."""
        with DISPATCH.launch(tag):
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
        """Drop limbs without rescaling (message and scale unchanged).

        Exact while the decrypted ``|m·Δ + e|`` is below half the remaining
        modulus (:func:`~repro.ckks.context.reply_limbs`).  Keeping every
        limb is a new handle over the same polynomials and a plain operand
        keeps a row window; a fused operand gathers each component (every
        member's head rows), in a ``modreduce`` scope.
        """
        check_mod_reduce(ct, limb_count)
        with self._scope(ct, "modreduce"):
            return self._mod_reduce(ct, limb_count)

    @staticmethod
    def _mod_reduce(ct: Ciphertext, limb_count: int) -> Ciphertext:
        """:meth:`mod_reduce` in the caller's scope."""
        return ct.with_polys(
            ct.c0.keep_limbs(limb_count),
            ct.c1.keep_limbs(limb_count),
        )

    def adjust(self, ct: Ciphertext, target_level: int,
               target_scale: float | None = None) -> Ciphertext:
        """Bring ``ct`` to ``target_level`` with the requested scale.

        One :meth:`weighted_sum` of ``ct`` alone: its weight is folded with
        the rescale so the output scale matches ``target_scale`` (default:
        the ladder scale of the target level) to within rounding error.
        """
        if target_scale is None:
            target_scale = self.context.scale_at(target_level)
        if adjust_is_noop(ct, target_level, target_scale):
            return ct.with_polys(ct.c0, ct.c1)
        with self._scope(ct, "at_level"):
            return self._weighted_sum([(ct, 1.0)], [1.0], target_level, target_scale)

    def weighted_sum(self, terms: Sequence[tuple[Ciphertext, float]], level: int,
                     scale: float | None = None, constant: float = 0.0) -> Ciphertext:
        """Return ``Σ c_i·ct_i + constant`` at ``level`` after one rescale.

        Each ``(ct_i, c_i)`` term is mod-reduced to ``level + 2`` limbs and
        multiplied by the integer weight ``round(c_i·q·scale/s_i)``
        (:meth:`~repro.ckks.context.Context.rescale_factor`, ``q`` the prime
        the rescale drops, ``s_i`` the term's scale), and the constant is
        added as ``round(constant·q·scale)``, all in one launch (tagged
        ``scalarmult`` for one term and no constant, ``scalardot``
        otherwise).  The rescale then lands the sum on ``scale`` (default:
        the ladder scale of ``level``) whatever the terms' scales: the
        scale-invariant evaluation of Bossuat et al. (Eurocrypt 2021).  A
        term taken whole (coefficient 1, as ``adjust`` passes it) keeps a
        weight of at least 1, so a far-off target cannot zero it.  Terms
        are checked before any work
        (:func:`~repro.ckks.ciphertext.check_sum`), and the call opens its
        own ``scalardot`` scope (``adjust`` and ``multiply_scalar`` run the
        same sum in theirs).
        """
        terms = list(terms)
        coefficients = check_sum(
            "weighted_sum",
            [(f"weighted_sum term {i}", ct, c) for i, (ct, c) in enumerate(terms)],
            level, constant)
        with self._scope(terms[0][0], "scalardot"):
            result = self._weighted_sum(terms, coefficients, level, scale, constant)
        return _longest(result, *(ct for ct, _ in terms))

    def _weighted_sum(self, terms: list[tuple[Ciphertext, float]],
                      coefficients: list[float], level: int,
                      scale: float | None = None, constant: float = 0.0) -> Ciphertext:
        """:meth:`weighted_sum` of checked terms, in the caller's scope."""
        if scale is None:
            scale = self.context.scale_at(level)
        factor = self.context.rescale_factor
        reduced = [self._mod_reduce(ct, level + 2) for ct, _ in terms]
        weights = [int(round(c * factor(level, ct.scale, scale)))
                   for (ct, _), c in zip(terms, coefficients)]
        weights = [max(1, w) if c == 1 else w for c, w in zip(coefficients, weights)]
        c0 = c1 = None
        with DISPATCH.launch("scalarmult" if len(terms) == 1 and not constant
                             else "scalardot"):
            for ct, weight in zip(reduced, weights):
                c0 = _plus(c0, ct.c0.multiply_scalar(weight))
                c1 = _plus(c1, ct.c1.multiply_scalar(weight))
            if constant:
                c0 = c0.add_scalar(int(round(constant * factor(level, 1.0, scale))))
        result = self.rescale(reduced[0].with_polys(c0, c1))
        result.scale = scale
        return result

    def product_sum(self, a: Ciphertext, b: Ciphertext, level: int,
                    addends: Sequence[tuple[Ciphertext, float]] = (),
                    multiplier: int = 1, constant: float = 0.0) -> Ciphertext:
        """Return ``multiplier·a·b + Σ c_i·ct_i + constant`` at ``level`` as
        one HMult (an HSquare when ``a is b``), rounded once.

        ``a``, ``b`` and each addend are mod-reduced to ``level + 2`` limbs;
        the addends join the tensor with integer weights
        ``round(c_i·s_a·s_b/(multiplier·s_i))``, and the product's merged
        ModDown-rescale divides everything by ``P·q`` once
        (:meth:`_product`).  The result sits at the product's scale
        ``s_a·s_b/q``.  ``multiplier`` is a nonzero integer.  The operands
        are checked before any work
        (:func:`~repro.ckks.ciphertext.check_sum`), and the call opens its
        own ``hmult``/``hsquare`` scope.
        """
        addends = list(addends)
        coefficients = check_product_sum(a, b, level, addends, multiplier, constant)
        square = a is b
        with self._scope(a, "hsquare" if square else "hmult"):
            a = self._mod_reduce(a, level + 2)
            b = a if square else self._mod_reduce(b, level + 2)
            landing = a.scale * b.scale / a.moduli[-1]
            factor = self.context.rescale_factor
            weighted = [(self._mod_reduce(ct, level + 2),
                         int(round(c * factor(level, ct.scale, landing / multiplier))))
                        for (ct, _), c in zip(addends, coefficients)]
            result = self._product(a, b, square, weighted, multiplier,
                                   int(round(constant * landing)))
        return _longest(result, a, b, *(ct for ct, _ in addends))

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
            with DISPATCH.launch(tag):
                return _longest(a.with_polys(op(a.c0, b.c0), op(a.c1, b.c1)), a, b)

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
            return _longest(ct.with_polys(op(ct.c0, self._plain_operand(ct, pt)), ct.c1),
                            ct, pt)

    @staticmethod
    def _plain_operand(ct: Ciphertext, pt: Plaintext) -> RNSPoly:
        """Restrict a plaintext to the ciphertext basis with a row window
        (a cached diagonal or fresh encoding already over it is used as is)."""
        # One plaintext broadcasts to every member of a fused ciphertext.
        return pt.poly.keep_limbs(ct.limb_count).tile(ct.batch_size)

    def add_scalar(self, ct: Ciphertext, value: float) -> Ciphertext:
        """Constant addition (``ScalarAdd``): adds ``value`` to every slot."""
        integer = int(round(check_finite_scalar("add_scalar", value) * ct.scale))
        with self._scope(ct, "scalaradd"):
            return ct.with_polys(ct.c0.add_scalar(integer), ct.c1)

    # ------------------------------------------------------------------
    # multiplications (HMult, PtMult, ScalarMult, HSquare)
    # ------------------------------------------------------------------

    def multiply_plain(self, ct: Ciphertext, values, *, rescale: bool = True) -> Ciphertext:
        """Plaintext multiplication (``PtMult``) by a :class:`Plaintext` or raw values."""
        pt = self._as_plaintext(ct, values, for_multiplication=True)
        with self._scope(ct, "ptmult"):
            poly = self._plain_operand(ct, pt)
            result = _longest(self._on_both(
                ct, "ptmult", lambda c: c.multiply(poly), scale=ct.scale * pt.scale
            ), ct, pt)
            return self.rescale(result) if rescale else result

    def multiply_scalar(self, ct: Ciphertext, value: float) -> Ciphertext:
        """Constant multiplication (``ScalarMult``): a one-term
        :meth:`weighted_sum`, so the result sits on the ladder one level
        down and chained operations keep exact per-level scales."""
        value = check_finite_scalar("multiply_scalar", value)
        check_scalar_rescale(ct)
        with self._scope(ct, "scalarmult"):
            return self._weighted_sum([(ct, value)], [value], ct.level - 1)

    def multiply(self, ct1: Ciphertext, ct2: Ciphertext) -> Ciphertext:
        """Homomorphic multiplication (``HMult``) with relinearisation and
        rescale.

        The product ends in one merged tail: the relinearisation key
        switch's accumulators ``acc`` and the tensor's ``d0``, ``d1`` are
        divided by ``P·q_l`` in one exactly rounded ModDown
        (:func:`~repro.ckks.keyswitch.mod_down_rescale_many`), so the result
        is ``round((acc + P·d)/(P·q_l))`` one level down, with no separate
        rescale.  A raw-scale ciphertext comes from
        ``multiply_plain(..., rescale=False)``.
        """
        check_product_rescale(ct1, ct2)
        with self._scope(ct1, "hmult"):
            a, b = match_for_product(ct1, ct2, self.adjust)
            return _longest(self._product(a, b, square=False), a, b)

    def square(self, ct: Ciphertext) -> Ciphertext:
        """Homomorphic squaring (``HSquare``), cheaper than a general HMult.

        Three tensor products instead of four, then the same tail as
        :meth:`multiply`: one merged ModDown-rescale.
        """
        check_product_rescale(ct)
        with self._scope(ct, "hsquare"):
            return self._product(ct, ct, square=True)

    def _product(self, a: Ciphertext, b: Ciphertext, square: bool,
                 addends: Sequence[tuple[Ciphertext, int]] = (),
                 multiplier: int = 1, constant: int = 0) -> Ciphertext:
        """``multiplier·(a·b + Σ w·r)/q_l + constant`` over ``Q_{l-1}``, one
        rounding: the tensor of ``a`` and ``b`` at one level (three products
        for a ``square``), relinearised in the merged ModDown-rescale.

        Each addend ``r`` (at ``a``'s limbs) enters the tensor's ``d0``,
        ``d1`` times its integer weight ``w`` in the tensor's launch.  The
        ``multiplier`` scales the tail's constants
        (:func:`~repro.ckks.keyswitch.mod_down_rescale_many`), and the
        constant joins ``d0`` as ``q_l·constant/multiplier`` (mod
        ``Q_{l-1}``, ``0`` mod ``q_l``): a multiple of ``q_l`` leaves the
        tail's rounding alone, so the result is exactly ``constant`` more,
        the residues of a separate ``×multiplier`` and constant add.  With
        no addend, multiplier or constant it is HMult's launches alone.
        """
        q_last = a.moduli[-1]
        with DISPATCH.launch("square-tensor" if square else "tensor"):
            if square:
                d0 = a.c0.multiply(a.c0)
                d1 = a.c0.multiply(a.c1)
                # 2·c0·c1: the product is still private to this launch, so
                # it doubles in place instead of through a fourth buffer.
                data = d1.data
                modmath.stack_add_mod(data, data, d1.moduli_col, out=data)
                d2 = a.c1.multiply(a.c1)
            else:
                # The GPU launches the whole tensor product as one fused
                # kernel (4 products + 2 additions per element).
                d0 = a.c0.multiply(b.c0)
                # Dot-product fusion (§III-F.5): one wide accumulation for the
                # cross term instead of two reduced products plus a reduced add.
                d1 = RNSPoly.multiply_accumulate([(a.c0, b.c1), (a.c1, b.c0)])
                d2 = a.c1.multiply(b.c1)
            for ct, weight in addends:
                d0 = d0.add(ct.c0.multiply_scalar(weight))
                d1 = d1.add(ct.c1.multiply_scalar(weight))
            if constant:
                below = math.prod(a.moduli[:-1])
                d0 = d0.add_scalar(q_last * constant * pow(multiplier, -1, below))
        decomposed = decompose_and_mod_up(self.context, d2)
        with DISPATCH.scope("keyswitch"):
            accs = apply_key(self.context, decomposed, self.keys.relinearization_key)
            c0, c1 = mod_down_rescale_many(self.context, list(accs), [d0, d1],
                                           multiplier=multiplier)
        return a.with_polys(c0, c1, scale=a.scale * b.scale / q_last)

    def rotated_sum(self, terms: Iterable[tuple[Ciphertext, int]]) -> Ciphertext:
        """Return ``Σ rotate(ct_j, s_j)`` rescaled, ending in one merged ModDown.

        The giant half of double hoisting (Bossuat et al., Eurocrypt 2021):
        a rotated term's key switch stops at its accumulators over
        ``Q_l ∪ P`` (:func:`~repro.ckks.keyswitch.apply_key` on the ModUp'd
        ``c1``, the automorphism applied to the digits), which sum there
        into ``A``; its gathered ``σ(c0)``, and both components of an
        unrotated term, sum over ``Q_l`` into ``D``.  One
        :func:`~repro.ckks.keyswitch.mod_down_rescale_many` then returns
        ``round((A + P·D)/(P·q_l))`` one level down, where a rotation per
        term would pay a ModDown each and the sum a separate rescale.  With
        no rotated term this is ``rescale(D)``.

        ``terms`` yields ``(ciphertext, step)`` pairs at one level, scale
        and member count; it is consumed lazily, so only the running sums
        stay live.
        """
        first = a0 = a1 = d0 = d1 = None
        for ct, step in terms:
            if first is None:
                check_product_rescale(ct)
                first = ct
                length = ct.encoded_length
            else:
                length = longest_length(length, ct.encoded_length)
                check_same_batch(first, ct)
                if ct.level != first.level:
                    raise ValueError(
                        f"rotated_sum terms must share one level, got "
                        f"{first.level} and {ct.level}"
                    )
                check_sum_scales(first.scale, ct.scale)
            if step % ct.slots == 0:
                with self._scope(ct, "hadd"), DISPATCH.launch("hadd"):
                    d0, d1 = _plus(d0, ct.c0), _plus(d1, ct.c1)
                continue
            with self._scope(ct, "hrotate"):
                key = self.keys.rotation_key(step, self.context.slots)
                exponent = rotation_to_exponent(self.context.ring_degree, step)
                decomposed = decompose_and_mod_up(self.context, ct.c1)
                with DISPATCH.scope("keyswitch"):
                    acc0, acc1 = apply_key(self.context, decomposed, key,
                                           automorphism_exponent=exponent)
                rotated_c0 = ct.c0.automorphism(exponent)
                with DISPATCH.launch("hadd"):
                    a0, a1 = _plus(a0, acc0), _plus(a1, acc1)
                    d0 = _plus(d0, rotated_c0)
        if first is None:
            raise ValueError("rotated_sum needs at least one term")
        if d1 is None:
            d1 = RNSPoly.zeros(d0.ring_degree, d0.moduli, fmt=LimbFormat.EVALUATION,
                               pool=d0.pool)
        if a0 is None:
            result = self.rescale(first.with_polys(d0, d1))
        else:
            with self._scope(first, "keyswitch"):
                c0, c1 = mod_down_rescale_many(self.context, [a0, a1], [d0, d1])
            result = first.with_polys(c0, c1, scale=first.scale / first.moduli[-1])
        result.encoded_length = length
        return result

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
        with self._scope(ct, "monomial"):
            monomial = RNSPoly.from_int_coefficients(
                n, ct.moduli, coefficients, fmt=LimbFormat.EVALUATION
            ).tile(ct.batch_size)
            result = self._on_both(ct, "monomial", lambda c: c.multiply(monomial))
        # X^power lies in Z[X^g], g = gcd(power, N/2): its slots repeat every N/(2g).
        result.encoded_length = longest_length(ct.encoded_length,
                                               n // (2 * math.gcd(power, n // 2)))
        return result

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
        the same residue mod ``slots``.  The ModUp runs at the first step
        that rotates, so a call whose every step is ``≡ 0 mod slots``
        launches nothing.
        """
        results: dict[int, Ciphertext] = {}
        decomposed = None
        with self._scope(ct, "hoisted"):
            for step in steps:
                step = int(step)
                if step % ct.slots == 0:
                    results[step] = ct.with_polys(ct.c0, ct.c1)
                    continue
                key = self.keys.rotation_key(step, self.context.slots)
                if decomposed is None:
                    decomposed = decompose_and_mod_up(self.context, ct.c1)
                exponent = rotation_to_exponent(self.context.ring_degree, step)
                with DISPATCH.scope("keyswitch"):
                    delta0, delta1 = mod_down_many(self.context, list(apply_key(
                        self.context, decomposed, key, automorphism_exponent=exponent
                    )))
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
            scale = self.context.rescale_factor(
                ct.level - 1, ct.scale, self.context.scale_at(ct.level - 1))
        else:
            scale = ct.scale
        return encode(self.context, values, scale=scale, limb_count=ct.limb_count)

    def dot_product_plain(self, cts: Sequence[Ciphertext], plaintexts: Sequence,
                          *, rescale: bool = True) -> Ciphertext:
        """Fused weighted sum ``Σ ct_i ⊙ pt_i`` (the dot-product fusion of §III-F.5).

        Each ``pt_i`` is a :class:`Plaintext` or a raw value row.  Both
        components accumulate their products in one launch with one
        reduction (:meth:`RNSPoly.multiply_accumulate`) instead of a reduced
        product and a reduced add per term; modular sums are exact, so the
        residues are those of the ``multiply_plain``/``add`` chain.  The
        terms meet like ``add`` operands (:func:`match_for_dot`).
        """
        check_dot_operands(cts, plaintexts)
        pts = [self._as_plaintext(ct, pt, for_multiplication=True)
               for ct, pt in zip(cts, plaintexts)]
        cts, scale = match_for_dot(cts, [pt.scale for pt in pts], self.adjust)
        with self._scope(cts[0], "ptdot"):
            with DISPATCH.launch("ptdot"):
                plain = [self._plain_operand(ct, pt) for ct, pt in zip(cts, pts)]
                c0 = RNSPoly.multiply_accumulate(list(zip([ct.c0 for ct in cts], plain)))
                c1 = RNSPoly.multiply_accumulate(list(zip([ct.c1 for ct in cts], plain)))
            result = _longest(cts[0].with_polys(c0, c1, scale=scale), *cts, *pts)
        return self.rescale(result) if rescale else result

    def describe(self) -> dict:
        """Backend self-description (the :class:`EvaluationBackend` report)."""
        return {
            "backend": self.name,
            "parameter_set": self.params.describe(),
            "encryptor": self.encryptor is not None,
        }


__all__ = ["Evaluator"]
