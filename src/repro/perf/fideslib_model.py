"""FIDESlib execution plan on the GPU model.

Maps CKKS operations to kernel sequences with every optimisation the paper
describes enabled: kernel fusion (§III-F.5), limb batching with
multi-stream execution (§III-F.1), the radix-2 hierarchical NTT
(§III-F.4) and hoisted rotations (§III-F.6).  The limb batch is a tunable
parameter exactly as in the library; :meth:`best_limb_batch` sweeps it the
way Figure 7 does and returns the fastest configuration for the platform.
"""

from __future__ import annotations

from functools import lru_cache

from repro.ckks.params import CKKSParameters
from repro.gpu.platforms import ComputePlatform
from repro.perf.costmodel import CKKSOperationCosts, OperationCost
from repro.perf.trace_model import TraceCostModel, TraceReport


class FIDESlibModel:
    """Performance model of FIDESlib on a given GPU platform."""

    #: Operations exposed by the library (Figure 1 API functionality).
    SUPPORTED_OPERATIONS = (
        "ScalarAdd", "PtAdd", "HAdd", "ScalarMult", "PtMult", "HMult",
        "HSquare", "Rescale", "HRotate", "HConjugate", "HoistedRotate",
        "NTT", "iNTT", "PtMultRescale", "KeySwitch", "Bootstrap",
    )

    def __init__(
        self,
        platform: ComputePlatform,
        params: CKKSParameters,
        *,
        limb_batch: int | None = None,
        streams: int | None = None,
    ) -> None:
        self.platform = platform
        self.params = params
        self.limb_batch = limb_batch if limb_batch is not None else params.limb_batch
        #: FIDESlib's calibrated stream count and efficiencies are the
        #: TraceCostModel defaults.
        self.pricer = TraceCostModel(platform, streams=streams)
        self.costs = CKKSOperationCosts(params, limb_batch=self.limb_batch, fusion=True)

    # ------------------------------------------------------------------

    def supports(self, operation: str) -> bool:
        """True when FIDESlib implements ``operation`` (it implements all)."""
        return operation in self.SUPPORTED_OPERATIONS

    def operation_cost(self, operation: str, limbs: int | None = None, **kwargs) -> OperationCost:
        """Return the kernel decomposition of ``operation``."""
        limbs = self.params.limb_count if limbs is None else limbs
        return self.costs.operation(operation, limbs, **kwargs)

    def execute(self, cost: OperationCost) -> TraceReport:
        """Price a prepared cost object's kernels on the GPU model."""
        return self.pricer.price(cost.as_trace())

    def time_operation(self, operation: str, limbs: int | None = None, **kwargs) -> float:
        """Return the modelled execution time (seconds) of one operation."""
        return self.execute(self.operation_cost(operation, limbs, **kwargs)).makespan

    # ------------------------------------------------------------------

    def with_limb_batch(self, limb_batch: int) -> "FIDESlibModel":
        """Return a copy of this model using a different limb batch."""
        return FIDESlibModel(
            self.platform, self.params, limb_batch=limb_batch,
            streams=self.pricer.streams,
        )

    def best_limb_batch(self, candidates: tuple[int, ...] = (1, 2, 3, 4, 6, 8, 10, 12),
                        *, operation: str = "HMult", limbs: int | None = None) -> int:
        """Sweep the limb-batch parameter (Figure 7) and return the fastest."""
        best_batch, best_time = None, float("inf")
        for batch in candidates:
            model = self.with_limb_batch(batch)
            elapsed = model.time_operation(operation, limbs)
            if elapsed < best_time:
                best_batch, best_time = batch, elapsed
        return best_batch


@lru_cache(maxsize=256)  # one entry per (platform, parameter set) swept
def _cached_best_batch(platform_name: str, log_n: int, depth: int, scale: int, dnum: int) -> int:
    from repro.gpu.platforms import PLATFORMS_BY_NAME
    from repro.ckks.params import paper_parameter_set

    params = paper_parameter_set(log_n, depth, scale, dnum)
    model = FIDESlibModel(PLATFORMS_BY_NAME[platform_name], params)
    return model.best_limb_batch()


def best_limb_batch_for(platform: ComputePlatform, params: CKKSParameters) -> int:
    """Cached Figure 7-style sweep used by the figure benches."""
    log_n = params.ring_degree.bit_length() - 1
    return _cached_best_batch(platform.name, log_n, params.mult_depth,
                              params.scale_bits, params.dnum)


__all__ = ["FIDESlibModel", "best_limb_batch_for"]
