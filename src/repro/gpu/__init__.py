"""GPU execution-model substrate.

The paper evaluates FIDESlib on four NVIDIA GPUs (Table IV).  This
reproduction has no physical GPUs, so this subpackage provides the
substitute documented in DESIGN.md: an analytical + event-based execution
model with the quantities that determine FHE performance on real
hardware -- memory bandwidth, L2 capacity and reuse, integer throughput,
kernel-launch overhead and stream overlap.

* :mod:`repro.gpu.platforms` -- the Table IV platform specifications.
* :mod:`repro.gpu.cache` -- the last-level-cache reuse model.
* :mod:`repro.gpu.kernel` -- kernel descriptors and their cost model.
* :mod:`repro.gpu.stream` -- CUDA-stream-style scheduling (launch overhead
  hiding, per-stream serialisation).

The pieces are combined in exactly one place,
:meth:`repro.perf.trace_model.TraceCostModel.price` (kernel list →
``KernelCostModel`` timings → ``StreamScheduler`` timeline).
"""

from repro.gpu.platforms import (
    ComputePlatform,
    CPU_RYZEN_9_7900,
    GPU_RTX_4060TI,
    GPU_RTX_4090,
    GPU_RTX_A4500,
    GPU_V100,
    ALL_GPUS,
    ALL_PLATFORMS,
)
from repro.gpu.kernel import Kernel, KernelCostModel
from repro.gpu.stream import ScheduledKernel, ScheduleResult, StreamScheduler

__all__ = [
    "ComputePlatform",
    "CPU_RYZEN_9_7900",
    "GPU_RTX_4060TI",
    "GPU_RTX_4090",
    "GPU_RTX_A4500",
    "GPU_V100",
    "ALL_GPUS",
    "ALL_PLATFORMS",
    "Kernel",
    "KernelCostModel",
    "StreamScheduler",
    "ScheduleResult",
    "ScheduledKernel",
]
