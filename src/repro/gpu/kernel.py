"""Kernel descriptors, shared kernel formulas and the per-kernel cost model.

Every CKKS operation is decomposed into a sequence of :class:`Kernel`
descriptors -- the same granularity at which FIDESlib launches CUDA
kernels.  A kernel is characterised by how many bytes it reads and writes,
how many integer operations it performs, the working set it keeps hot, and
which CUDA stream it is issued to.

Two producers build these descriptors, each for a question the other
cannot answer, and both hand them to the same consumer
(:class:`repro.perf.trace_model.TraceCostModel`, the one place a kernel
list becomes seconds):

* :mod:`repro.core.dispatch` -- the execution plane records the kernels
  the *real* data plane launches, with shapes taken from the live arrays.
  It answers "what did this program actually run", and only exists at
  parameter sets small enough to execute in Python.
* :mod:`repro.perf.costmodel` -- the closed-form decomposition of each
  CKKS primitive as FIDESlib, Phantom or OpenFHE launch it (limb batching,
  fusion, radix-8 penalties).  It answers "what would library X run at the
  paper's [2^16, 29, 59, 4]", where nothing can execute; the symbolic
  :class:`repro.api.backend.CostModelBackend` emits these kernels onto the
  same dispatcher seam the data plane records through.

The free functions :func:`elementwise_kernel`, :func:`ntt_kernel` and
:func:`base_conversion_kernel` are the shared byte/op conventions: both
producers call them, so a recorded trace and the closed form of the same
operation differ only where the executed kernel *structure* differs --
the drift :func:`repro.perf.calibration.reconcile_trace` measures and
``tests/test_dispatch_trace.py::TestReconciliation`` pins per operation.

The roofline-style cost model charges
``max(compute_time, memory_time)`` per kernel, where memory time uses the
cache-aware effective bandwidth of :class:`repro.gpu.cache.CacheModel`.
Kernel-launch overhead is accounted by the stream scheduler, not here,
because limb batching and multi-stream execution amortise it (§III-F.1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from repro.gpu.cache import CacheModel
from repro.gpu.platforms import ComputePlatform

#: Bytes per residue element (64-bit limbs).
ELEMENT_BYTES = 8

# Table III integer-operation counts of the modular primitives.  These are
# the canonical values shared by the cost model's ArithmeticCosts defaults
# (:mod:`repro.perf.calibration`) and the execution-plane dispatcher, so
# the two kernel producers cannot drift apart silently.
#: int ops of one modular multiplication with Barrett reduction.
MODMUL_OPS = 6.0
#: int ops of one Shoup (constant-operand) modular multiplication.
SHOUP_MUL_OPS = 5.0
#: int ops of one modular addition/subtraction.
MODADD_OPS = 2.0
#: int ops of one NTT butterfly (Shoup multiply + add + sub).
BUTTERFLY_OPS = 9.0
#: int ops of one multiply-accumulate in the base-conversion kernel.
BASECONV_MAC_OPS = 4.0

#: Default multiplier of :func:`default_working_set` (how many limb-batches
#: of intermediate buffers the in-flight streams keep resident, §III-F.1).
WORKING_SET_FACTOR = 8.0


@dataclass
class Kernel:
    """One device kernel launch (or ``launches`` identical launches).

    Repeated identical launches are represented by a single descriptor with
    ``launches > 1`` and aggregated byte/op volumes; the roofline time of
    the aggregate equals the sum of the individual times, while the
    working-set size (which determines cache behaviour) stays that of a
    single launch.
    """

    name: str
    bytes_read: float
    bytes_written: float
    int_ops: float
    working_set_bytes: float = 0.0
    reuse: float = 1.0
    stream: int = 0
    fused: int = 1  # number of logical operations fused into this launch
    launches: float = 1.0

    @property
    def bytes_moved(self) -> float:
        """Total bytes transferred by the kernel."""
        return self.bytes_read + self.bytes_written

    def scaled(self, factor: float) -> "Kernel":
        """Return a copy representing ``factor`` times as many launches."""
        return replace(
            self,
            bytes_read=self.bytes_read * factor,
            bytes_written=self.bytes_written * factor,
            int_ops=self.int_ops * factor,
            launches=self.launches * factor,
        )

    def batched(self, members: int) -> "Kernel":
        """Return a copy covering ``members`` fused ciphertexts per launch.

        A kernel over a fused ``(B·L, N)`` stack moves ``B×`` the bytes,
        does ``B×`` the integer operations and keeps ``B×`` the working set
        hot at an *unchanged* launch count -- the throughput-plane contract
        that drops per-op launch overhead from ``O(B)`` to ``O(1)``.
        """
        return replace(
            self,
            bytes_read=self.bytes_read * members,
            bytes_written=self.bytes_written * members,
            int_ops=self.int_ops * members,
            working_set_bytes=self.working_set_bytes * members,
        )


@dataclass
class KernelTiming:
    """Timing breakdown of a single kernel."""

    kernel: Kernel
    compute_time: float
    memory_time: float

    @property
    def execution_time(self) -> float:
        """Roofline execution time (excluding launch overhead)."""
        return max(self.compute_time, self.memory_time)

    @property
    def bound(self) -> str:
        """Whether the kernel is compute- or memory-bound."""
        return "compute" if self.compute_time >= self.memory_time else "memory"


# ---------------------------------------------------------------------------
# Shared kernel formulas (single source of truth for both producers)
# ---------------------------------------------------------------------------


def default_working_set(
    batch_limbs: float,
    n: int,
    *,
    polys: float = 2.0,
    factor: float = WORKING_SET_FACTOR,
) -> float:
    """Bytes of data the in-flight kernels keep hot in the L2 cache."""
    return factor * max(1.0, min(polys / 2.0, 2.0)) * batch_limbs * n * ELEMENT_BYTES


def elementwise_kernel(
    tag: str,
    limbs: int,
    n: int,
    *,
    polys_read: float,
    polys_written: float,
    ops_per_element: float,
    reuse: float = 1.0,
    working_set_bytes: float | None = None,
    stream: int = 0,
    launches: float = 1.0,
) -> Kernel:
    """One element-wise kernel over a ``(limbs, n)`` residue stack."""
    elements = limbs * n
    if working_set_bytes is None:
        working_set_bytes = default_working_set(limbs, n, polys=polys_read + polys_written)
    return Kernel(
        name=f"{tag}[{limbs}]",
        bytes_read=polys_read * elements * ELEMENT_BYTES,
        bytes_written=polys_written * elements * ELEMENT_BYTES,
        int_ops=ops_per_element * elements,
        working_set_bytes=working_set_bytes,
        reuse=max(reuse, 1.5),
        stream=stream,
        launches=launches,
    )


def ntt_kernel(
    tag: str,
    limbs: int,
    n: int,
    *,
    butterfly_ops: float = BUTTERFLY_OPS,
    compute_factor: float = 1.0,
    fused_ops_per_element: float = 0.0,
    extra_bytes_read: float = 0.0,
    working_set_bytes: float | None = None,
    stream: int = 0,
) -> Kernel:
    """One hierarchical (i)NTT kernel (4 memory accesses per element, Fig. 3).

    ``fused_ops_per_element`` is the arithmetic of element-wise pre/post
    processing folded into the transform (the §III-F.5 fusions); it adds
    int ops but no memory traffic.  ``extra_bytes_read`` charges streamed
    twiddle vectors or unfused element-wise traffic.
    """
    elements = limbs * n
    butterflies = limbs * (n / 2) * math.log2(n)
    if working_set_bytes is None:
        working_set_bytes = default_working_set(limbs, n)
    return Kernel(
        name=f"{tag}[{limbs}]",
        bytes_read=2.0 * elements * ELEMENT_BYTES + extra_bytes_read,
        bytes_written=2.0 * elements * ELEMENT_BYTES,
        int_ops=butterflies * butterfly_ops * compute_factor + fused_ops_per_element * elements,
        working_set_bytes=working_set_bytes,
        reuse=2.0,
        stream=stream,
    )


def base_conversion_kernel(
    tag: str,
    source_limbs: int,
    target_limbs: int,
    n: int,
    *,
    mac_ops: float = BASECONV_MAC_OPS,
    working_set_bytes: float | None = None,
) -> Kernel:
    """One fast-base-conversion kernel (Equation 1, the §III-F.3 kernel)."""
    if working_set_bytes is None:
        working_set_bytes = (source_limbs + target_limbs) * n * ELEMENT_BYTES
    return Kernel(
        name=f"{tag}[{source_limbs}->{target_limbs}]",
        bytes_read=source_limbs * n * ELEMENT_BYTES,
        bytes_written=target_limbs * n * ELEMENT_BYTES,
        int_ops=source_limbs * target_limbs * n * mac_ops,
        working_set_bytes=working_set_bytes,
        reuse=float(max(2, target_limbs)),
    )


@dataclass
class KernelCostModel:
    """Roofline cost model for a compute platform."""

    platform: ComputePlatform
    compute_efficiency: float = 0.5
    bandwidth_efficiency: float = 0.85
    cache: CacheModel = field(default=None)

    def __post_init__(self) -> None:
        if self.cache is None:
            self.cache = CacheModel(self.platform)

    def time_kernel(self, kernel: Kernel) -> KernelTiming:
        """Return the roofline timing of one kernel."""
        compute = kernel.int_ops / (self.platform.int_ops_per_s * self.compute_efficiency)
        working_set = kernel.working_set_bytes or kernel.bytes_moved
        bandwidth = self.cache.effective_bandwidth(working_set, kernel.reuse)
        memory = kernel.bytes_moved / (bandwidth * self.bandwidth_efficiency)
        return KernelTiming(kernel=kernel, compute_time=compute, memory_time=memory)

    def time_kernels(self, kernels: list[Kernel]) -> list[KernelTiming]:
        """Time a list of kernels individually."""
        return [self.time_kernel(k) for k in kernels]


__all__ = [
    "Kernel",
    "KernelTiming",
    "KernelCostModel",
    "ELEMENT_BYTES",
    "MODMUL_OPS",
    "SHOUP_MUL_OPS",
    "MODADD_OPS",
    "BUTTERFLY_OPS",
    "BASECONV_MAC_OPS",
    "WORKING_SET_FACTOR",
    "default_working_set",
    "elementwise_kernel",
    "ntt_kernel",
    "base_conversion_kernel",
]
