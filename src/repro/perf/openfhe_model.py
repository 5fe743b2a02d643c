"""OpenFHE CPU baselines: single-threaded and HEXL/AVX-512 with 24 threads.

The paper's Table V/VI/VII baselines run OpenFHE on an AMD Ryzen 9 7900,
either single-threaded ("OpenFHE (Baseline)") or with Intel HEXL and 24
threads ("OpenFHE (Intel HEXL, 24 threads)").  The model reuses the same
operation decomposition as the GPU backends (the algorithms are
identical), and converts operation counts and data volume into time with a
small number of calibrated constants:

* the baseline retires a fraction of an operation per cycle on one core
  (modular arithmetic expands to many scalar instructions);
* the HEXL build gets a vector speedup on the arithmetic and a modest
  effective parallel speedup -- the paper itself observes that OpenFHE's
  multi-backend abstraction keeps the 24-thread HEXL build within 1-3.5x
  of the single-threaded baseline on most primitives;
* both are additionally bounded by DRAM bandwidth and pay a fixed
  per-operation software overhead (allocation and layer dispatch).
"""

from __future__ import annotations

from repro.ckks.params import CKKSParameters
from repro.gpu.platforms import CPU_RYZEN_9_7900, ComputePlatform
from repro.perf.calibration import CPU_CALIBRATION
from repro.perf.costmodel import CKKSOperationCosts, OperationCost


class OpenFHEModel:
    """Performance model of the OpenFHE CPU library."""

    VARIANTS = ("baseline", "hexl")
    SUPPORTED_OPERATIONS = (
        "ScalarAdd", "PtAdd", "HAdd", "ScalarMult", "PtMult", "HMult",
        "HSquare", "Rescale", "HRotate", "HConjugate", "HoistedRotate",
        "NTT", "iNTT", "PtMultRescale", "KeySwitch", "Bootstrap",
    )

    def __init__(
        self,
        params: CKKSParameters,
        *,
        variant: str = "baseline",
        platform: ComputePlatform = CPU_RYZEN_9_7900,
    ) -> None:
        if variant not in self.VARIANTS:
            raise ValueError(f"variant must be one of {self.VARIANTS}")
        self.params = params
        self.variant = variant
        self.platform = platform
        self.costs = CKKSOperationCosts(params, limb_batch=None, fusion=False)

    # ------------------------------------------------------------------

    def supports(self, operation: str) -> bool:
        """OpenFHE implements the full CKKS API including bootstrapping."""
        return operation in self.SUPPORTED_OPERATIONS

    def operation_cost(self, operation: str, limbs: int | None = None, **kwargs) -> OperationCost:
        """Return the operation decomposition (shared with the GPU models)."""
        limbs = self.params.limb_count if limbs is None else limbs
        return self.costs.operation(operation, limbs, **kwargs)

    def time_cost(self, cost: OperationCost) -> float:
        """Convert an operation decomposition into CPU time (seconds)."""
        cal = CPU_CALIBRATION
        cycles_per_s = self.platform.frequency_ghz * 1e9
        if self.variant == "baseline":
            compute = cost.int_ops / (cycles_per_s * cal.baseline_ops_per_cycle)
            memory = cost.bytes_moved / (self.platform.bandwidth_bytes_per_s * 0.25)
            overhead = cal.baseline_op_overhead
        else:
            throughput = (
                cycles_per_s
                * cal.baseline_ops_per_cycle
                * cal.hexl_parallel_speedup
                * cal.hexl_vector_speedup
            )
            compute = cost.int_ops / throughput
            memory = cost.bytes_moved / (
                self.platform.bandwidth_bytes_per_s * cal.hexl_bandwidth_efficiency
            )
            overhead = cal.hexl_op_overhead
        return max(compute, memory) + overhead

    def time_operation(self, operation: str, limbs: int | None = None, **kwargs) -> float:
        """Return the modelled execution time (seconds) of one operation."""
        return self.time_cost(self.operation_cost(operation, limbs, **kwargs))


__all__ = ["OpenFHEModel"]
