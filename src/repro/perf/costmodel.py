"""Decomposition of CKKS operations into kernel-level work.

This module is the bridge between the CKKS algorithms (what work has to
happen, derived from the same formulas the functional implementation in
:mod:`repro.ckks` executes) and the GPU/CPU execution models (how long
that work takes).  Every public method returns an :class:`OperationCost`:
the list of kernels a GPU backend would launch, from which byte and
operation totals for the CPU baselines are also derived.
:attr:`CKKSOperationCosts.OPERATIONS` is the one table from the paper's
operation names (Table I / Table V) to those builders; the three library
models and the LR workload index it through
:meth:`CKKSOperationCosts.operation`.

Backend-specific behaviour is expressed through constructor knobs:

* ``limb_batch`` -- how many limbs each element-wise/NTT kernel processes
  (FIDESlib's limb batching, §III-F.1).  ``None`` means "all limbs in a
  single kernel", which is the Phantom/OpenFHE behaviour.
* ``fusion`` -- whether the Rescale/ModDown/HMult/dot-product fusions of
  §III-F.5 are applied (they remove intermediate reads and writes).
* ``ntt_compute_factor`` -- relative arithmetic cost of the NTT butterfly
  (used to model Phantom's radix-8 formulation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.ckks.params import CKKSParameters
from repro.core.dispatch import KernelTrace
from repro.gpu.kernel import (
    BASECONV_MAC_OPS,
    BUTTERFLY_OPS,
    ELEMENT_BYTES,
    MODADD_OPS,
    MODMUL_OPS,
    Kernel,
    base_conversion_kernel,
    default_working_set,
    elementwise_kernel,
    ntt_kernel,
)


@dataclass
class OperationCost:
    """Kernel-level description of one CKKS operation."""

    name: str
    kernels: list[Kernel] = field(default_factory=list)

    @property
    def bytes_moved(self) -> float:
        """Total bytes read plus written."""
        return sum(k.bytes_moved for k in self.kernels)

    @property
    def int_ops(self) -> float:
        """Total integer operations."""
        return sum(k.int_ops for k in self.kernels)

    @property
    def kernel_count(self) -> int:
        """Number of kernel launches."""
        return int(round(sum(k.launches for k in self.kernels)))

    def extend(self, other: "OperationCost") -> None:
        """Append another operation's kernels (used to compose workloads)."""
        self.kernels.extend(other.kernels)

    def scaled(self, repetitions: float) -> "OperationCost":
        """Return this cost repeated ``repetitions`` times."""
        repeated = OperationCost(name=f"{self.name} x{repetitions:g}")
        repeated.kernels = [k.scaled(repetitions) for k in self.kernels]
        return repeated

    def as_trace(self) -> KernelTrace:
        """These kernels as a dependency-free trace, ready to be priced."""
        trace = KernelTrace()
        for kernel in self.kernels:
            trace.append(kernel)
        return trace


class CKKSOperationCosts:
    """Builds :class:`OperationCost` objects for every CKKS primitive."""

    def __init__(
        self,
        params: CKKSParameters,
        *,
        limb_batch: int | None = None,
        fusion: bool = True,
        ntt_compute_factor: float = 1.0,
        fusion_penalty: float = 1.0,
        ntt_twiddle_traffic: bool = False,
    ) -> None:
        self.params = params
        self.n = params.ring_degree
        self.limb_batch = limb_batch
        self.fusion = fusion
        self.ntt_compute_factor = ntt_compute_factor
        self.fusion_penalty = fusion_penalty
        #: When True the NTT kernels stream the full twiddle-factor vectors
        #: from memory instead of computing them "on the fly" (§III-F.4);
        #: used to model the Phantom baseline.
        self.ntt_twiddle_traffic = ntt_twiddle_traffic

    # ------------------------------------------------------------------
    # kernel builders
    # ------------------------------------------------------------------

    def _batches(self, limbs: int) -> list[int]:
        """Split ``limbs`` into per-kernel batches according to limb batching."""
        if limbs <= 0:
            return []
        if self.limb_batch is None or self.limb_batch >= limbs:
            return [limbs]
        full, rest = divmod(limbs, self.limb_batch)
        batches = [self.limb_batch] * full
        if rest:
            batches.append(rest)
        return batches

    def elementwise_kernels(
        self,
        tag: str,
        limbs: int,
        *,
        polys_read: float,
        polys_written: float,
        ops_per_element: float,
        reuse: float = 1.0,
    ) -> list[Kernel]:
        """Element-wise kernels over ``limbs`` limbs (split per limb batch).

        Built through the shared :func:`repro.gpu.kernel.elementwise_kernel`
        formula, the same one the execution-plane dispatcher uses when it
        records kernels from the live data plane.
        """
        kernels = []
        for index, batch in enumerate(self._batches(limbs)):
            kernels.append(
                elementwise_kernel(
                    tag,
                    batch,
                    self.n,
                    polys_read=polys_read,
                    polys_written=polys_written,
                    ops_per_element=ops_per_element,
                    reuse=reuse,
                    working_set_bytes=default_working_set(
                        batch, self.n, polys=polys_read + polys_written),
                    stream=index,
                )
            )
        return kernels

    def ntt_kernels(
        self,
        limbs: int,
        *,
        tag: str = "ntt",
        fused_elementwise_polys: float = 0.0,
        fused_ops_per_element: float = 0.0,
    ) -> list[Kernel]:
        """Hierarchical NTT kernels (4 memory accesses per element, Fig. 3).

        When fusion is enabled, fused element-wise pre/post processing adds
        arithmetic but no additional memory traffic; with fusion disabled
        the same processing is charged as separate element-wise kernels.
        """
        kernels = []
        for index, batch in enumerate(self._batches(limbs)):
            elements = batch * self.n
            extra_bytes = 0.0
            if self.ntt_twiddle_traffic:
                # Streaming the precomputed twiddle vectors from memory
                # instead of recomputing them on the fly (§III-F.4).
                extra_bytes += elements * ELEMENT_BYTES
            fused_ops = 0.0
            if self.fusion:
                fused_ops = fused_ops_per_element
            elif fused_elementwise_polys:
                extra_bytes += (
                    fused_elementwise_polys * elements * ELEMENT_BYTES * self.fusion_penalty
                )
            kernels.append(
                ntt_kernel(
                    tag,
                    batch,
                    self.n,
                    butterfly_ops=BUTTERFLY_OPS,
                    compute_factor=self.ntt_compute_factor,
                    fused_ops_per_element=fused_ops,
                    extra_bytes_read=extra_bytes,
                    working_set_bytes=default_working_set(batch, self.n),
                    stream=index,
                )
            )
        return kernels

    def base_conversion_kernels(
        self, source_limbs: int, target_limbs: int, *, tag: str = "baseconv"
    ) -> list[Kernel]:
        """Fast base conversion (Equation 1): the compute-bound kernel of §III-F.3."""
        if source_limbs <= 0 or target_limbs <= 0:
            return []
        return [
            base_conversion_kernel(
                tag,
                source_limbs,
                target_limbs,
                self.n,
                mac_ops=BASECONV_MAC_OPS,
            )
        ]

    def automorphism_kernels(self, limbs: int, polys: int = 2, *, tag: str = "automorph") -> list[Kernel]:
        """Coefficient permutation kernels for HRotate/HConjugate."""
        return self.elementwise_kernels(
            tag, limbs, polys_read=float(polys), polys_written=float(polys),
            ops_per_element=polys * 2.0,
        )

    # ------------------------------------------------------------------
    # primitive operations (Table I / Table V)
    # ------------------------------------------------------------------

    def hadd(self, limbs: int, operands: int = 2) -> OperationCost:
        """HAdd: element-wise addition of two ciphertexts, reading the
        ``operands`` distinct ones (``x + x`` reads its operand once)."""
        cost = OperationCost("HAdd")
        cost.kernels = self.elementwise_kernels(
            "hadd", limbs, polys_read=2.0 * operands, polys_written=2.0,
            ops_per_element=2.0 * MODADD_OPS,
        )
        return cost

    def negate(self, limbs: int) -> OperationCost:
        """Negate: element-wise negation of both ciphertext components."""
        cost = OperationCost("Negate")
        cost.kernels = self.elementwise_kernels(
            "negate", limbs, polys_read=2.0, polys_written=2.0, ops_per_element=1.0,
        )
        return cost

    def ptadd(self, limbs: int) -> OperationCost:
        """PtAdd: addition of a plaintext into a ciphertext (in place)."""
        cost = OperationCost("PtAdd")
        cost.kernels = self.elementwise_kernels(
            "ptadd", limbs, polys_read=2.0, polys_written=1.0,
            ops_per_element=MODADD_OPS,
        )
        return cost

    def scalar_add(self, limbs: int) -> OperationCost:
        """ScalarAdd: addition of a broadcast constant (c0 only)."""
        cost = OperationCost("ScalarAdd")
        cost.kernels = self.elementwise_kernels(
            "scalaradd", limbs, polys_read=1.0, polys_written=1.0,
            ops_per_element=MODADD_OPS,
        )
        return cost

    def ptmult(self, limbs: int) -> OperationCost:
        """PtMult: plaintext-ciphertext multiplication."""
        cost = OperationCost("PtMult")
        cost.kernels = self.elementwise_kernels(
            "ptmult", limbs, polys_read=3.0, polys_written=2.0,
            ops_per_element=2.0 * MODMUL_OPS,
        )
        return cost

    def ptdot(self, limbs: int, terms: int) -> OperationCost:
        """PtDot: the fused ``Σ ct_i ⊙ pt_i`` of ``terms`` plaintext products.

        One launch reads every term's two components and its plaintext and
        accumulates both components with one reduction each (the
        dot-product fusion of §III-F.5, as in the key inner product).
        """
        cost = OperationCost("PtDot")
        cost.kernels = self.elementwise_kernels(
            "ptdot", limbs, polys_read=3.0 * terms,
            polys_written=2.0 if self.fusion else 2.0 * terms * self.fusion_penalty,
            ops_per_element=terms * 2.0 * (MODMUL_OPS + MODADD_OPS),
        )
        return cost

    def scalar_mult(self, limbs: int) -> OperationCost:
        """ScalarMult as the modelled libraries run it: multiplication by a
        broadcast constant.

        Includes the per-limb constant preparation pass that makes the
        routine more expensive than PtMult's element-wise product alone in
        the paper's measurements.  It prices the library tables (Table V,
        the bootstrap and logistic-regression workloads); this repo's
        evaluator and its twin run a ScalarMult as a one-term
        :meth:`weighted_sum`, which has no such pass.
        """
        cost = OperationCost("ScalarMult")
        cost.kernels = self.elementwise_kernels(
            "scalarmult", limbs, polys_read=2.0, polys_written=2.0,
            ops_per_element=2.0 * MODMUL_OPS + MODADD_OPS,
        )
        cost.kernels += self.elementwise_kernels(
            "scalar-encode", limbs, polys_read=1.0, polys_written=1.0,
            ops_per_element=MODMUL_OPS,
        )
        return cost

    def weighted_sum(self, limbs: int, terms: int, operands: int,
                     constant: bool) -> OperationCost:
        """A weighted sum's launch before its rescale: ``Σ w_i·ct_i + K``.

        One launch (``scalarmult`` for one term and no constant,
        ``scalardot`` otherwise) reads the ``operands`` distinct ciphertexts
        and writes what the data plane's launch records -- each weighted
        component, each partial sum and the constant's sum on ``c0``.  An
        integer weight is one word per limb, so there is no scalar-encode
        pass.
        """
        cost = OperationCost("WeightedSum")
        cost.kernels = self.elementwise_kernels(
            "scalarmult" if terms == 1 and not constant else "scalardot", limbs,
            polys_read=2.0 * operands,
            polys_written=2.0 * (2 * terms - 1) + constant,
            ops_per_element=terms * 2.0 * MODMUL_OPS
            + (terms - 1) * 2.0 * MODADD_OPS + constant * MODADD_OPS,
        )
        return cost

    def limb_copy(self, limbs: int) -> OperationCost:
        """A gather of ``limbs`` rows into a fresh stack: a fused operand's
        mod-reduce keeps each member's head rows, one launch per component."""
        cost = OperationCost("LimbCopy")
        cost.kernels = self.elementwise_kernels(
            "limb-copy", limbs, polys_read=1.0, polys_written=1.0, ops_per_element=0.0,
        )
        return cost

    def rescale(self, limbs: int) -> OperationCost:
        """Rescale: divide by the last prime and drop its limb.

        Per polynomial: one iNTT of the dropped limb plus an NTT of the
        switched limb fused with the subtract/scale step on every remaining
        limb (the "Rescale fusion").
        """
        cost = OperationCost("Rescale")
        remaining = max(1, limbs - 1)
        for _ in range(2):  # both ciphertext components
            cost.kernels += self.ntt_kernels(1, tag="rescale-intt")
            cost.kernels += self.ntt_kernels(
                remaining,
                tag="rescale-ntt",
                fused_elementwise_polys=2.0,
                fused_ops_per_element=MODMUL_OPS + MODADD_OPS,
            )
        return cost

    def key_switch(self, limbs: int) -> OperationCost:
        """Hybrid key switching of one polynomial at ``limbs`` active limbs."""
        cost = OperationCost("KeySwitch")
        cost.kernels += self._key_switch_up(limbs)
        special = self.params.special_limb_count
        # ModDown of both accumulated components.
        for _ in range(2):
            cost.kernels += self.ntt_kernels(special, tag="moddown-intt")
            cost.kernels += self.base_conversion_kernels(special, limbs, tag="moddown-conv")
            cost.kernels += self.ntt_kernels(
                limbs, tag="moddown-ntt",
                fused_elementwise_polys=2.0,
                fused_ops_per_element=MODMUL_OPS + MODADD_OPS,
            )
        return cost

    def _key_switch_up(self, limbs: int) -> list[Kernel]:
        """A key switch up to its two accumulators over ``Q_l ∪ P``: the
        digit iNTT, each digit's ModUp and the key inner product."""
        params = self.params
        alpha = params.digit_size
        digits = math.ceil(limbs / alpha)
        extended = limbs + params.special_limb_count
        # iNTT of the input polynomial (fused into the tensor step for HMult).
        kernels = self.ntt_kernels(limbs, tag="ks-intt",
                                   fused_elementwise_polys=1.0,
                                   fused_ops_per_element=MODMUL_OPS)
        for digit in range(digits):
            digit_limbs = min(alpha, limbs - digit * alpha)
            target = extended - digit_limbs
            kernels += self.base_conversion_kernels(digit_limbs, target, tag="modup")
            kernels += self.ntt_kernels(target, tag="modup-ntt",
                                        fused_elementwise_polys=2.0,
                                        fused_ops_per_element=MODMUL_OPS)
        # Key inner product (dot-product fusion saves intermediate writes).
        writes = 2.0 if self.fusion else 2.0 * digits * self.fusion_penalty
        kernels += self.elementwise_kernels(
            "ks-inner-product", extended,
            polys_read=3.0 * digits,
            polys_written=writes,
            ops_per_element=digits * 2.0 * (MODMUL_OPS + MODADD_OPS),
        )
        return kernels

    def _tensor(self, limbs: int, *, square: bool, operands: int | None = None,
                addends: int = 0, constant: bool = False) -> list[Kernel]:
        """HMult's tensor product (HSquare's needs 3 products instead of 4).

        A product sum's launch also reads its ``operands`` distinct
        ciphertexts (``a`` and ``b``, or ``a`` alone for a square, plus the
        addends that are neither), and for each addend writes its weighted
        components and their sums with ``d0``/``d1``; a constant is one more
        sum on ``d0`` -- the writes the data plane's launch records.
        """
        if operands is None:
            operands = 1 if square else 2
        products = 3.0 * MODMUL_OPS + MODADD_OPS if square else \
            4.0 * MODMUL_OPS + 2.0 * MODADD_OPS
        return self.elementwise_kernels(
            "square-tensor" if square else "tensor", limbs,
            polys_read=2.0 * operands, polys_written=3.0 + 4.0 * addends + constant,
            ops_per_element=products + addends * 2.0 * (MODMUL_OPS + MODADD_OPS)
            + constant * MODADD_OPS,
        )

    def hmult(self, limbs: int, *, include_rescale: bool = False) -> OperationCost:
        """HMult: tensor product, relinearisation key switch and final add.

        ``include_rescale`` appends FIDESlib's separate rescale (Tables V,
        VII); this repo's data plane merges it into the ModDown instead
        (:meth:`product_rescale`).
        """
        cost = OperationCost("HMult")
        cost.kernels += self._tensor(limbs, square=False)
        cost.extend(self.key_switch(limbs))
        cost.kernels += self._relin_add(limbs)
        if include_rescale:
            cost.extend(self.rescale(limbs))
        return cost

    def hsquare(self, limbs: int) -> OperationCost:
        """HSquare: cheaper tensor step (3 products instead of 4)."""
        cost = OperationCost("HSquare")
        cost.kernels += self._tensor(limbs, square=True)
        cost.extend(self.key_switch(limbs))
        cost.kernels += self._relin_add(limbs)
        return cost

    def _relin_add(self, limbs: int) -> list[Kernel]:
        return self.elementwise_kernels(
            "relin-add", limbs, polys_read=4.0, polys_written=2.0,
            ops_per_element=2.0 * MODADD_OPS,
        )

    def product_rescale(self, limbs: int, *, square: bool = False,
                        operands: int | None = None, addends: int = 0,
                        constant: bool = False) -> OperationCost:
        """HMult (or HSquare) + rescale with one merged ModDown-rescale tail.

        The stream this repo's data plane launches: the relinearisation
        key switch stops at its accumulators over ``Q_l ∪ P``, and per
        component one iNTT of the ``α+1`` rows ``{q_l} ∪ P`` (adding
        ``P·d_l`` to the ``q_l`` row on the way in), one exactly rounded
        conversion to ``Q_{l-1}`` and one NTT over ``l`` rows with the
        fold of the accumulator and the tensor's ``d_i`` divide by
        ``P·q_l`` -- no relinearisation add and no separate rescale.  A
        product sum's addends and constant ride in the tensor launch
        (:meth:`_tensor`); its multiplier only scales the tail's constants.
        """
        special = self.params.special_limb_count
        mul_add = MODMUL_OPS + MODADD_OPS
        cost = OperationCost("HSquare+Rescale" if square else "HMult+Rescale")
        cost.kernels += self._tensor(limbs, square=square, operands=operands,
                                     addends=addends, constant=constant)
        cost.kernels += self._key_switch_up(limbs)
        for _ in range(2):  # both ciphertext components
            cost.kernels += self.ntt_kernels(
                special + 1, tag="moddown-rescale-intt",
                fused_elementwise_polys=1.0,
                fused_ops_per_element=mul_add / (special + 1),
            )
            cost.kernels += self.base_conversion_kernels(
                special + 1, limbs - 1, tag="moddown-rescale-conv"
            )
            cost.kernels += self.ntt_kernels(
                limbs - 1, tag="moddown-rescale-ntt",
                fused_elementwise_polys=3.0,
                fused_ops_per_element=2.0 * mul_add,
            )
        return cost

    def hrotate(self, limbs: int) -> OperationCost:
        """HRotate / HConjugate: automorphism plus key switching."""
        cost = OperationCost("HRotate")
        cost.kernels += self.automorphism_kernels(limbs, polys=2)
        cost.extend(self.key_switch(limbs))
        cost.kernels += self.elementwise_kernels(
            "rotate-add", limbs, polys_read=2.0, polys_written=1.0,
            ops_per_element=MODADD_OPS,
        )
        return cost

    def hoisted_rotations(self, limbs: int, rotation_count: int) -> OperationCost:
        """HoistedRotate: one decomposition shared by many rotations (§III-F.6)."""
        params = self.params
        alpha = params.digit_size
        special = params.special_limb_count
        digits = math.ceil(limbs / alpha)
        extended = limbs + special
        cost = OperationCost(f"HoistedRotate x{rotation_count}")
        # Shared decompose + ModUp.
        cost.kernels += self.ntt_kernels(limbs, tag="hoist-intt")
        for digit in range(digits):
            digit_limbs = min(alpha, limbs - digit * alpha)
            target = extended - digit_limbs
            cost.kernels += self.base_conversion_kernels(digit_limbs, target, tag="hoist-modup")
            cost.kernels += self.ntt_kernels(target, tag="hoist-modup-ntt")
        # Per-rotation work: automorphism of extended digits, key product, ModDown.
        for _ in range(rotation_count):
            cost.kernels += self.automorphism_kernels(extended * digits, polys=1,
                                                      tag="hoist-automorph")
            cost.kernels += self.elementwise_kernels(
                "hoist-inner-product", extended,
                polys_read=3.0 * digits, polys_written=2.0,
                ops_per_element=digits * 2.0 * (MODMUL_OPS + MODADD_OPS),
            )
            for _ in range(2):
                cost.kernels += self.ntt_kernels(special, tag="hoist-moddown-intt")
                cost.kernels += self.base_conversion_kernels(special, limbs, tag="hoist-moddown")
                cost.kernels += self.ntt_kernels(limbs, tag="hoist-moddown-ntt",
                                                 fused_elementwise_polys=2.0,
                                                 fused_ops_per_element=MODMUL_OPS)
            cost.kernels += self.automorphism_kernels(limbs, polys=1, tag="hoist-c0")
            cost.kernels += self.elementwise_kernels(
                "hoist-add", limbs, polys_read=2.0, polys_written=1.0,
                ops_per_element=MODADD_OPS,
            )
        return cost

    def ptmult_rescale(self, limbs: int) -> OperationCost:
        """The PtMult + Rescale sequence of Figure 5."""
        cost = OperationCost("PtMult+Rescale")
        cost.extend(self.ptmult(limbs))
        cost.extend(self.rescale(limbs))
        return cost

    def ntt_microbenchmark(self, limbs: int, *, inverse: bool = False) -> OperationCost:
        """A standalone batch of (i)NTTs over ``limbs`` limbs (Figure 4)."""
        tag = "intt" if inverse else "ntt"
        cost = OperationCost(tag.upper())
        cost.kernels = self.ntt_kernels(limbs, tag=tag)
        return cost

    #: Paper operation name (Table I / Table V) -> builder, written once.
    OPERATIONS = {
        "ScalarAdd": scalar_add,
        "PtAdd": ptadd,
        "HAdd": hadd,
        "ScalarMult": scalar_mult,
        "PtMult": ptmult,
        "HMult": hmult,
        "HSquare": hsquare,
        "Rescale": rescale,
        "HRotate": hrotate,
        "HConjugate": hrotate,
        "HoistedRotate": lambda self, limbs, rotations=2: self.hoisted_rotations(
            limbs, rotations
        ),
        "NTT": ntt_microbenchmark,
        "iNTT": lambda self, limbs: self.ntt_microbenchmark(limbs, inverse=True),
        "PtMultRescale": ptmult_rescale,
        "KeySwitch": key_switch,
    }

    def operation(self, name: str, limbs: int, **kwargs) -> OperationCost:
        """Build the paper operation ``name`` at ``limbs`` active limbs."""
        if name not in self.OPERATIONS:
            raise ValueError(f"unknown operation {name!r}")
        return self.OPERATIONS[name](self, limbs, **kwargs)


__all__ = ["OperationCost", "CKKSOperationCosts", "ELEMENT_BYTES"]
