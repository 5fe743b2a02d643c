"""``Plaintext`` and ``Ciphertext`` containers.

These mirror the FIDESlib classes of Figure 2: thin wrappers around one
(:class:`Plaintext`) or two (:class:`Ciphertext`) :class:`~repro.core.rns_poly.RNSPoly`
objects plus the metadata CKKS needs to track -- the scaling factor, the
number of meaningful message slots and a static noise-budget estimate that
travels back to the client through the adapter layer (§III-B).

**Polynomials are in evaluation format.**  Both containers refuse any
other with a :class:`ValueError`: a coefficient frame is converted once, at
the adapter boundary (:mod:`repro.openfhe.adapter`), and no kernel
downstream decides the format again.

A ciphertext is a batch of ``batch_size`` members (1 unless it came out of
:meth:`Ciphertext.fuse`): ``B`` same-shape ciphertexts whose limb stacks
are laid member-major into ``(B·L, N)`` component buffers, so every
cross-limb kernel of the evaluator launches once per operation for the
whole batch -- the §III-F.1 launch-overhead lever applied across requests
rather than across limbs.

**Polynomials are immutable once built.**  Nothing writes into the residue
stack of a polynomial a :class:`Plaintext` or :class:`Ciphertext` holds:
an operation builds new polynomials for what it changes and *shares* what
it does not.  That is what lets the evaluator return ``ct.c1`` itself from
a ``ScalarAdd``, read a plaintext or a switching key where it lies, drop
limbs with a row window, and answer a no-op with a new handle over the same
polynomials (``ct.with_polys(ct.c0, ct.c1)``).  Metadata (``scale``,
``noise_bits``, ``encoded_length``) is per handle and freely assignable;
code that must write residues copies the polynomial first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.core.rns_poly import RNSPoly

#: Relative scale mismatch tolerated before two operands are rejected.
_SCALE_TOLERANCE = 1e-6


def scales_match(scale_a: float, scale_b: float) -> bool:
    """Return True when two scales are equal up to ``_SCALE_TOLERANCE`` (relative).

    Shared by the evaluator and the symbolic cost-model backend of
    :mod:`repro.api` so both reject mismatched scales identically.
    """
    return math.isclose(scale_a, scale_b, rel_tol=_SCALE_TOLERANCE)


def check_same_batch(a, b) -> None:
    """Reject a binary operation between handles of different member counts."""
    if a.batch_size != b.batch_size:
        raise ValueError(
            f"batch sizes differ ({a.batch_size} vs {b.batch_size}): member "
            f"i of one operand meets member i of the other, so fuse equally "
            f"many ciphertexts on both sides (or split() and pair them up)"
        )


def adjust_is_noop(handle, target_level: int, target_scale: float) -> bool:
    """The ``adjust`` pre-check: True when ``handle`` already sits at the
    target; raises when it is unreachable (a higher level, or the same
    level at a different scale)."""
    if target_level > handle.level:
        raise ValueError("cannot adjust to a higher level")
    if target_level < handle.level:
        return False
    if not scales_match(handle.scale, target_scale):
        raise ValueError(
            f"cannot change scale in place ({handle.scale:.6g} vs {target_scale:.6g})"
        )
    return True


def match_for_sum(a, b, adjust) -> tuple:
    """Bring two handles to a common level and scale for addition.

    ``adjust(handle, level, scale)`` is the backend's own way down: real
    arithmetic on the evaluator, closed-form emission on the cost model.
    """
    check_same_batch(a, b)
    if a.level == b.level:
        check_sum_scales(a.scale, b.scale)
        return a, b
    if a.level > b.level:
        return adjust(a, b.level, b.scale), b
    return a, adjust(b, a.level, a.scale)


def check_sum_scales(scale_a: float, scale_b: float) -> None:
    """Reject two addends at one level whose scales differ."""
    if not scales_match(scale_a, scale_b):
        raise ValueError(
            f"scale mismatch at equal level: {scale_a:.6g} vs {scale_b:.6g}"
        )


def match_for_product(a, b, adjust) -> tuple:
    """Bring two handles to a common level (at its ladder scale) for a product."""
    check_same_batch(a, b)
    if a.level == b.level:
        return a, b
    if a.level > b.level:
        return adjust(a, b.level), b
    return a, adjust(b, a.level)


def match_for_dot(handles: Sequence, plain_scales: Sequence[float], adjust) -> tuple:
    """Bring the terms of ``Σ handle_i ⊙ pt_i`` to one level and product scale.

    The terms meet like ``add`` operands: a handle above the lowest level
    is adjusted down to it at the scale that gives its product the common
    scale, and products whose scales differ are rejected.  Returns the
    handles and the common product scale.
    """
    level = min(h.level for h in handles)
    lowest = next(i for i, h in enumerate(handles) if h.level == level)
    scale = handles[lowest].scale * plain_scales[lowest]
    handles = [h if h.level == level else adjust(h, level, scale / s)
               for h, s in zip(handles, plain_scales)]
    for h, s in zip(handles, plain_scales):
        check_same_batch(handles[0], h)
        check_sum_scales(scale, h.scale * s)
    return handles, scale


def check_plain_scale(handle, plain_scale: float) -> None:
    """Reject a plaintext addend encoded at another scale than ``handle``."""
    if not scales_match(handle.scale, plain_scale):
        raise ValueError(
            f"plaintext scale {plain_scale:.6g} does not match ciphertext "
            f"{handle.scale:.6g}"
        )


def check_scalar_rescale(handle) -> None:
    """Reject ``multiply_scalar`` of a level-0 handle (it rescales)."""
    if handle.level == 0:
        raise ValueError(
            "multiply_scalar on a level-0 ciphertext: there is "
            "no limb left to drop, so the result scale cannot be restored "
            "to the ladder; bootstrap the ciphertext first"
        )


def check_product_rescale(*handles) -> None:
    """Reject a rescaling HMult/HSquare with a level-0 operand, before any
    work: the product would have no limb to drop."""
    if min(h.level for h in handles) == 0:
        raise ValueError("cannot rescale a level-0 ciphertext")


def check_mod_reduce(handle, limb_count) -> None:
    """Reject a mod-reduce to no limbs or to more limbs than ``handle`` has."""
    if not 1 <= limb_count <= handle.limb_count:
        raise ValueError(
            f"cannot mod-reduce a {handle.limb_count}-limb ciphertext to "
            f"{limb_count} limbs: keep 1 to {handle.limb_count}"
        )


def check_finite_scalar(operation: str, value) -> float:
    """Reject a scalar operand with no fixed-point encoding (``inf``, ``nan``)."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{operation} needs a finite scalar, got {value!r}")
    return value


def check_sum(operation: str, terms: Sequence[tuple], level: int,
              constant: float) -> list[float]:
    """The checks a weighted sum and a product sum make before any work,
    on both backends: there is a term, every named ``(name, handle,
    coefficient)`` operand sits at ``level + 1`` or above and holds as many
    members as the first, and every coefficient and the constant are
    finite.  Returns the coefficients as floats, or raises ``ValueError``
    naming the operand."""
    if not terms:
        raise ValueError(f"{operation} needs at least one term")
    if level < 0:
        raise ValueError(f"{operation} cannot land below level 0, got {level}")
    check_finite_scalar(f"{operation}'s constant", constant)
    coefficients = []
    for name, handle, coefficient in terms:
        coefficients.append(check_finite_scalar(name, coefficient))
        if handle.level < level + 1:
            raise ValueError(f"{name} is at level {handle.level}, below level {level} + 1")
        try:
            check_same_batch(terms[0][1], handle)
        except ValueError as error:
            raise ValueError(f"{name}: {error}") from None
    return coefficients


def check_product_sum(a, b, level: int, addends: Sequence[tuple], multiplier,
                      constant: float) -> list[float]:
    """:func:`check_sum` of a product sum's operands and addends, and its
    multiplier a nonzero integer.  Returns the addends' coefficients."""
    if isinstance(multiplier, bool) or not isinstance(multiplier, int) or not multiplier:
        raise ValueError(f"product_sum's multiplier must be a nonzero integer, "
                         f"got {multiplier!r}")
    return check_sum(
        "product_sum",
        [("product_sum's a", a, 1.0), ("product_sum's b", b, 1.0)]
        + [(f"product_sum addend {i}", h, c) for i, (h, c) in enumerate(addends)],
        level, constant)[2:]


def check_dot_operands(handles: Sequence, plaintexts: Sequence) -> None:
    """Reject an empty or unequally long ``dot_product_plain`` operand pair."""
    if not handles:
        raise ValueError(
            "dot_product_plain needs at least one ciphertext/plaintext pair; "
            "got an empty ciphertext sequence"
        )
    if len(handles) != len(plaintexts):
        raise ValueError(
            f"dot_product_plain needs equally many ciphertexts and plaintexts; "
            f"got {len(handles)} ciphertexts and {len(plaintexts)} plaintexts"
        )


def check_fusable(handles: Sequence) -> None:
    """Reject handles that cannot share one fused ``(B·L, N)`` shape.

    Duck-typed on ``level``/``scale`` so real and symbolic ciphertexts
    refuse mixed batches with the same message.
    """
    if not handles:
        raise ValueError("a ciphertext batch needs at least one member")
    levels = sorted({h.level for h in handles})
    if len(levels) > 1:
        raise ValueError(
            f"cannot batch ciphertexts at mixed levels {levels}: the fused "
            f"(B*L, N) buffer needs one common shape; bring the members to "
            f"one level first (e.g. Evaluator.adjust / CipherVector.at_level)"
        )
    first = handles[0]
    for h in handles[1:]:
        if not scales_match(h.scale, first.scale):
            raise ValueError(
                f"cannot batch ciphertexts at mixed scales "
                f"({h.scale:.6g} vs {first.scale:.6g})"
            )


def member_lengths(handle) -> tuple:
    """Per-member ``encoded_length`` of a (possibly fused) handle."""
    if handle.batch_size == 1:
        return (handle.encoded_length,)
    return tuple(handle.encoded_length)


def fused_lengths(handles: Sequence):
    """``encoded_length`` of the fusion of ``handles``: one entry per member."""
    lengths = tuple(n for h in handles for n in member_lengths(h))
    return lengths if len(lengths) > 1 else lengths[0]


def longest_length(*lengths):
    """``encoded_length`` of a slot-wise combination of operands of these
    lengths: the longest, or ``None`` (every slot) when one is unknown.

    A message of ``n`` values repeats with period ``next_pow2(n)``, so the
    result repeats with the longest operand's period.  A fused operand's
    length is a tuple, combined member by member; a single length (a
    plaintext) broadcasts to every member.
    """
    width = max((len(n) for n in lengths if isinstance(n, tuple)), default=0)
    if not width:
        return None if None in lengths else max(lengths)
    columns = zip(*(n if isinstance(n, tuple) else (n,) * width for n in lengths))
    return tuple(longest_length(*column) for column in columns)


@dataclass
class Plaintext:
    """An encoded (unencrypted) CKKS message; ``poly`` is immutable once
    built (module docstring), so operations read it in place."""

    poly: RNSPoly
    scale: float
    slots: int
    encoded_length: int | None = None

    def __post_init__(self) -> None:
        self.poly.require_evaluation("Plaintext.poly")

    @property
    def limb_count(self) -> int:
        """Number of RNS limbs the plaintext is defined over."""
        return self.poly.level_count

    @property
    def level(self) -> int:
        """Remaining multiplicative depth (limb count minus one)."""
        return self.limb_count - 1


@dataclass
class Ciphertext:
    """A two-component RLWE ciphertext ``(c0, c1)`` with CKKS metadata.

    ``c0``/``c1`` may hold ``batch_size`` member ciphertexts fused
    member-major (see :meth:`fuse`); all members share one level and
    scale -- the invariants that let every kernel batch.  A fused
    ciphertext carries one ``encoded_length`` per member as a tuple.
    ``c0``/``c1`` are immutable once built (module docstring): two
    ciphertexts may share a component, or both.
    """

    c0: RNSPoly
    c1: RNSPoly
    scale: float
    slots: int
    noise_bits: float = 0.0
    encoded_length: int | tuple | None = None

    def __post_init__(self) -> None:
        self.c0.require_evaluation("Ciphertext.c0")
        self.c1.require_evaluation("Ciphertext.c1")
        if self.c0.moduli != self.c1.moduli:
            raise ValueError("ciphertext components use different RNS bases")
        if self.c0.ring_degree != self.c1.ring_degree:
            raise ValueError("ciphertext components use different ring degrees")

    # -- fuse / split -----------------------------------------------------------

    @classmethod
    def fuse(cls, cts: Sequence["Ciphertext"]) -> "Ciphertext":
        """Fuse same-shape ciphertexts into one batch (two pool allocations).

        All members must share the ring degree, RNS basis (hence level),
        slot count and scale; a mixed-level batch is rejected
        with a descriptive error because the fused moduli column -- and
        with it every batched kernel -- requires one shape.

        When the fused ``2·B·L·N`` footprint would exceed the members'
        :class:`~repro.core.memory.MemoryPool` budget,
        :meth:`RNSPoly.fuse_many` raises
        :class:`~repro.core.memory.FusedFootprintError` *before* copying
        any rows (the serving plane's batching policy consumes this to cap
        bucket drain sizes).
        """
        cts = list(cts)
        check_fusable(cts)
        first = cts[0]
        for ct in cts[1:]:
            if ct.ring_degree != first.ring_degree:
                raise ValueError("batched ciphertexts must share one ring degree")
            if ct.moduli != first.moduli:
                raise ValueError("batched ciphertexts must share one RNS basis")
            if ct.slots != first.slots:
                raise ValueError("batched ciphertexts must share one slot count")
        lengths = fused_lengths(cts)
        c0, c1 = RNSPoly.fuse_many([[ct.c0 for ct in cts], [ct.c1 for ct in cts]])
        return cls(c0, c1, first.scale, first.slots,
                   max(ct.noise_bits for ct in cts), lengths)

    def split(self) -> list["Ciphertext"]:
        """Return the member ciphertexts as zero-copy views of the batch.

        Views share the fused buffers (no copy, no pool charge) and keep
        them alive and charged.
        """
        return [
            Ciphertext(v0, v1, self.scale, self.slots, self.noise_bits, length)
            for v0, v1, length in zip(
                self.c0.split(self.batch_size),
                self.c1.split(self.batch_size),
                member_lengths(self),
            )
        ]

    # -- metadata -------------------------------------------------------------

    @property
    def batch_size(self) -> int:
        """Number of member ciphertexts fused into the component stacks."""
        return self.c0.members

    def __len__(self) -> int:
        return self.batch_size

    @property
    def ring_degree(self) -> int:
        """Polynomial degree bound ``N``."""
        return self.c0.ring_degree

    @property
    def limb_count(self) -> int:
        """Per-member limb count (``ℓ + 1`` in the paper's notation)."""
        return self.c0.level_count // self.batch_size

    @property
    def level(self) -> int:
        """Remaining multiplicative depth ``ℓ`` (common to every member)."""
        return self.limb_count - 1

    @property
    def moduli(self) -> list[int]:
        """The per-member RNS moduli currently attached to the ciphertext."""
        return list(self.c0.moduli[: self.limb_count])

    def footprint_bytes(self) -> int:
        """Device-memory footprint of the ciphertext (``2·B·L·N`` elements)."""
        return self.c0.footprint_bytes() + self.c1.footprint_bytes()

    # -- structural helpers ---------------------------------------------------

    def with_polys(self, c0: RNSPoly, c1: RNSPoly, *, scale: float | None = None,
                   noise_bits: float | None = None) -> "Ciphertext":
        """Return a ciphertext reusing this one's metadata with new polynomials."""
        return Ciphertext(
            c0,
            c1,
            self.scale if scale is None else scale,
            self.slots,
            self.noise_bits if noise_bits is None else noise_bits,
            self.encoded_length,
        )


__all__ = [
    "Plaintext",
    "Ciphertext",
    "scales_match",
    "check_product_sum",
    "check_same_batch",
    "check_sum",
    "adjust_is_noop",
    "match_for_sum",
    "check_sum_scales",
    "match_for_product",
    "match_for_dot",
    "check_plain_scale",
    "check_product_rescale",
    "check_scalar_rescale",
    "check_finite_scalar",
    "check_mod_reduce",
    "check_dot_operands",
    "check_fusable",
    "member_lengths",
    "fused_lengths",
    "longest_length",
]
