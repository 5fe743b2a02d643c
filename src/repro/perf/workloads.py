"""Composite workloads: bootstrapping and logistic regression.

Tables VI and VII of the paper evaluate composite workloads rather than
single primitives.  The classes here express those workloads as sequences
of CKKS operations (with the level schedule bootstrapping and LR actually
follow), build them against any backend's
:class:`~repro.perf.costmodel.CKKSOperationCosts`, and report modelled
times per backend.  The same structures are exercised functionally (at
reduced parameters) by :mod:`repro.apps`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.ckks.linear_transform import dft_levels
from repro.ckks.params import CKKSParameters
from repro.perf.costmodel import CKKSOperationCosts, OperationCost


@dataclass
class BootstrapWorkload:
    """The CKKS bootstrapping pipeline at a given slot count (Table VI).

    The cost structure follows :class:`repro.ckks.bootstrap.Bootstrapper`:
    ModRaise, a BSGS CoeffToSlot (with partial sums for sparse packing),
    two ApproxModEval evaluations (Chebyshev Paterson-Stockmeyer plus
    double-angle iterations), and a BSGS SlotToCoeff.
    """

    params: CKKSParameters
    slots: int
    chebyshev_degree: int = 44
    double_angle_iterations: int = 3
    level_budget: int | None = None

    def __post_init__(self) -> None:
        if self.slots < 1 or self.slots > self.params.slots:
            raise ValueError(f"slots must lie in [1, {self.params.slots}]")
        if self.slots & (self.slots - 1):
            raise ValueError("slots must be a power of two")

    # -- level schedule -------------------------------------------------------

    @property
    def transform_levels(self) -> int:
        """Levels each homomorphic DFT consumes (sparse block decomposition).

        Following [40], [44] the DFT plaintext matrix is split into
        ``level_budget`` sparser block matrices; sparse packings need fewer
        blocks, which is why the paper's Table VI reports more remaining
        levels for small slot counts.  The default is the rule the
        functional bootstrap factors its DFTs by.
        """
        if self.level_budget is not None:
            return self.level_budget
        return dft_levels(self.slots)

    @property
    def chebyshev_depth(self) -> int:
        """Levels consumed by the Paterson-Stockmeyer Chebyshev evaluation."""
        return math.ceil(math.log2(self.chebyshev_degree + 1)) + 1

    @property
    def depth_consumed(self) -> int:
        """Total levels one bootstrap consumes."""
        return (
            1  # CoeffToSlot pre-scaling
            + 2 * self.transform_levels
            + self.chebyshev_depth
            + self.double_angle_iterations
        )

    @property
    def remaining_levels(self) -> int:
        """Levels available for computation after bootstrapping."""
        return max(0, self.params.mult_depth - self.depth_consumed)

    # -- structure ------------------------------------------------------------

    def _transform_stages(self) -> list[int]:
        """Number of generalized diagonals per factored-DFT stage."""
        stages = self.transform_levels
        radix = max(2, round((2 * self.slots) ** (1.0 / stages)))
        return [2 * radix - 1] * stages

    def _linear_transform(self, costs: CKKSOperationCosts, limbs: int) -> OperationCost:
        """One factored homomorphic DFT (CoeffToSlot or SlotToCoeff).

        Each stage is a BSGS multiplication by a sparse block matrix with
        ``~2*radix`` generalized diagonals; baby-step rotations are hoisted
        (§III-F.6) and the accumulation uses the dot-product fusion.  Each
        giant step is priced as a full rotation with its own ModDown, and
        the stage as one rescale, on purpose: that is FIDESlib's algorithm,
        which Table VI times.  The repo's ``LinearTransform.apply`` ends
        its giant steps in one merged ModDown-rescale instead
        (``Evaluator.rotated_sum``), which this closed form does not model.
        """
        cost = OperationCost("LinearTransform")
        stage_limbs = limbs
        for diagonals in self._transform_stages():
            baby = max(1, 1 << math.ceil(math.log2(max(1, math.isqrt(diagonals)))))
            giant = max(1, math.ceil(diagonals / baby))
            if baby > 1:
                cost.extend(costs.hoisted_rotations(stage_limbs, baby - 1))
            cost.extend(costs.ptmult(stage_limbs).scaled(float(diagonals)))
            cost.extend(costs.hadd(stage_limbs).scaled(float(max(0, diagonals - giant))))
            for _ in range(giant - 1):
                cost.extend(costs.hrotate(stage_limbs))
            cost.extend(costs.rescale(stage_limbs))
            stage_limbs = max(2, stage_limbs - 1)
        return cost

    def _eval_mod(self, costs: CKKSOperationCosts, limbs: int) -> OperationCost:
        """One ApproxModEval (Chebyshev PS + double angle) on one ciphertext."""
        degree = self.chebyshev_degree
        baby = 1 << max(1, math.ceil(math.log2(math.sqrt(degree + 1))))
        giants = max(1, math.ceil(math.log2(max(2, (degree + 1) / baby))))
        blocks = math.ceil((degree + 1) / baby)
        cost = OperationCost("ApproxModEval")
        cost.extend(costs.hsquare(limbs).scaled(float(baby - 1)))        # baby steps
        cost.extend(costs.hsquare(limbs).scaled(float(giants)))          # giant steps
        cost.extend(costs.hmult(limbs).scaled(float(blocks)))            # PS recombination
        cost.extend(costs.scalar_mult(limbs).scaled(float(degree)))      # coefficients
        cost.extend(costs.hadd(limbs).scaled(float(degree)))
        cost.extend(costs.hsquare(limbs).scaled(float(self.double_angle_iterations)))
        cost.extend(costs.scalar_add(limbs).scaled(float(self.double_angle_iterations + 2)))
        return cost

    def build(self, costs: CKKSOperationCosts) -> OperationCost:
        """Build the full bootstrap cost against a backend's cost builder."""
        params = self.params
        full = params.limb_count
        cost = OperationCost(f"Bootstrap[{self.slots} slots]")
        # ModRaise: base-extend both components from q0 to the full basis.
        for _ in range(2):
            cost.kernels += costs.base_conversion_kernels(1, full, tag="modraise")
            cost.kernels += costs.ntt_kernels(full, tag="modraise-ntt")
        # Sparse packing: replicate message across N/2 slots (partial sums).
        sparse_factor = params.slots // self.slots
        partial_sum_rotations = int(math.log2(sparse_factor)) if sparse_factor > 1 else 0
        limbs_c2s = full - 1
        for _ in range(partial_sum_rotations):
            cost.extend(costs.hrotate(limbs_c2s))
            cost.extend(costs.hadd(limbs_c2s))
        # CoeffToSlot (+ conjugation split into the two halves).
        cost.extend(costs.scalar_mult(full))
        cost.extend(self._linear_transform(costs, limbs_c2s))
        limbs_after_c2s = max(2, full - 1 - self.transform_levels)
        cost.extend(costs.hrotate(limbs_after_c2s))           # conjugation
        cost.extend(costs.hadd(limbs_after_c2s).scaled(2.0))
        # ApproxModEval on both halves.
        limbs_mod = max(2, limbs_after_c2s - self.chebyshev_depth // 2)
        cost.extend(self._eval_mod(costs, limbs_mod).scaled(2.0))
        # SlotToCoeff.
        limbs_s2c = max(2, self.remaining_levels + self.transform_levels)
        cost.extend(costs.hadd(limbs_s2c))
        cost.extend(self._linear_transform(costs, limbs_s2c))
        return cost

    # -- reporting ------------------------------------------------------------

    def amortized_time_us(self, total_time_s: float) -> float:
        """Amortised time per slot-level in microseconds (Table VI metric)."""
        work_items = self.slots * max(1, self.remaining_levels)
        return total_time_s * 1e6 / work_items


@dataclass
class LogisticRegressionWorkload:
    """Encrypted logistic-regression training iteration (Table VII).

    Mirrors the mini-batch gradient-descent iteration of Han et al. [51]
    as implemented functionally in
    :mod:`repro.apps.logistic_regression`: an inner product between the
    packed sample matrix and the weight vector (rotations + multiplies), a
    degree-3 polynomial sigmoid, the gradient aggregation across the
    mini-batch, and the weight update.  ``bootstrap_every_iteration``
    matches the paper's configuration.
    """

    params: CKKSParameters
    batch_samples: int = 1024
    features: int = 32
    bootstrap_slots: int = 32768
    working_limbs: int | None = None

    def iteration_operations(self) -> dict[str, float]:
        """Operation counts of one training iteration (no bootstrap)."""
        feature_rotations = int(math.log2(self.features))
        batch_rotations = int(math.log2(max(2, self.batch_samples // self.features)))
        return {
            "HMult": 4.0,              # X·w, sigmoid square/cube, gradient product
            "HRotate": float(feature_rotations + batch_rotations + 4),
            "PtMult": 4.0,             # masks and learning-rate application
            "HAdd": float(feature_rotations + batch_rotations + 4),
            "ScalarMult": 2.0,
            "ScalarAdd": 2.0,
            "Rescale": 3.0,
        }

    def build_iteration(self, costs: CKKSOperationCosts) -> OperationCost:
        """Cost of one LR iteration without bootstrapping.

        The iteration runs on the levels left after the per-iteration
        bootstrap, so the default working limb count is the bootstrap's
        ``remaining_levels``.
        """
        if self.working_limbs is not None:
            limbs = self.working_limbs
        else:
            limbs = max(
                6, BootstrapWorkload(self.params, self.bootstrap_slots).remaining_levels
            )
        cost = OperationCost("LR iteration")
        for op, count in self.iteration_operations().items():
            cost.extend(costs.operation(op, limbs).scaled(count))
        return cost

    def build_iteration_with_bootstrap(self, costs: CKKSOperationCosts) -> OperationCost:
        """Cost of one LR iteration followed by a bootstrap (paper setting)."""
        cost = self.build_iteration(costs)
        bootstrap = BootstrapWorkload(self.params, self.bootstrap_slots)
        cost.extend(bootstrap.build(costs))
        return cost


__all__ = ["BootstrapWorkload", "LogisticRegressionWorkload"]
