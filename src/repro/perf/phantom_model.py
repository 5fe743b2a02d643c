"""Phantom execution plan on the GPU model (the open-source GPU baseline).

Phantom [15] is the leading open-source GPU CKKS library the paper
compares against.  Its published design differs from FIDESlib in the ways
Table VIII and §V spell out, and those differences are what this model
encodes:

* radix-8 NTT formulation (more arithmetic per butterfly than the radix-2
  scheme the paper found to minimise compute);
* no kernel fusion -- element-wise pre/post-processing around NTT kernels
  is separate traffic;
* monolithic kernels over all limbs on a single stream -- no limb
  batching, so large working sets spill the L2 cache and kernel-launch
  overhead is serialised;
* missing functionality: no ScalarAdd, ScalarMult, HSquare, hoisted
  rotations or bootstrapping (reported as ``N/A`` in Table V).
"""

from __future__ import annotations

from repro.ckks.params import CKKSParameters
from repro.gpu.platforms import ComputePlatform
from repro.perf.calibration import GPU_CALIBRATION
from repro.perf.costmodel import CKKSOperationCosts, OperationCost
from repro.perf.trace_model import TraceCostModel, TraceReport


class UnsupportedOperation(NotImplementedError):
    """Raised when a baseline library does not implement an operation."""


class PhantomModel:
    """Performance model of the Phantom library on a given GPU platform."""

    SUPPORTED_OPERATIONS = (
        "PtAdd", "HAdd", "PtMult", "HMult", "Rescale", "HRotate",
        "HConjugate", "NTT", "iNTT", "PtMultRescale", "KeySwitch",
    )
    UNSUPPORTED_OPERATIONS = (
        "ScalarAdd", "ScalarMult", "HSquare", "HoistedRotate", "Bootstrap",
    )

    def __init__(self, platform: ComputePlatform, params: CKKSParameters) -> None:
        self.platform = platform
        self.params = params
        self.pricer = TraceCostModel(platform, streams=GPU_CALIBRATION.phantom_streams)
        self.costs = CKKSOperationCosts(
            params,
            limb_batch=None,  # monolithic kernels over every limb
            fusion=False,
            ntt_compute_factor=GPU_CALIBRATION.phantom_ntt_compute_penalty,
            fusion_penalty=GPU_CALIBRATION.phantom_fusion_penalty,
            ntt_twiddle_traffic=True,
        )

    def supports(self, operation: str) -> bool:
        """True when Phantom implements ``operation``."""
        return operation in self.SUPPORTED_OPERATIONS

    def operation_cost(self, operation: str, limbs: int | None = None, **kwargs) -> OperationCost:
        """Return the kernel decomposition, raising for unsupported ops."""
        if not self.supports(operation):
            raise UnsupportedOperation(
                f"Phantom does not implement {operation} (Table V reports N/A)"
            )
        limbs = self.params.limb_count if limbs is None else limbs
        return self.costs.operation(operation, limbs, **kwargs)

    def execute(self, cost: OperationCost) -> TraceReport:
        """Price a prepared cost object's kernels on the GPU model."""
        return self.pricer.price(cost.as_trace())

    def time_operation(self, operation: str, limbs: int | None = None, **kwargs) -> float:
        """Return the modelled execution time (seconds) of one operation."""
        return self.execute(self.operation_cost(operation, limbs, **kwargs)).makespan


__all__ = ["PhantomModel", "UnsupportedOperation"]
