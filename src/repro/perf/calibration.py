"""Calibration constants and the trace-vs-model reconciliation report.

The execution model's structural parameters (bytes moved, operation
counts, kernel decomposition, cache behaviour) come from the algorithm
descriptions in the paper and from the functional implementation in
:mod:`repro.ckks`.  The constants here are the remaining free parameters
-- roofline efficiencies and backend-specific overheads (the Table III
arithmetic counts live in :mod:`repro.gpu.kernel`) -- chosen once so that the reproduced
Table V/VI headline numbers land in the right range on the RTX 4090 and
Ryzen 9 7900.  They are *not* tuned per experiment; every table and figure
uses the same constants, so the trends (the paper's "shape") emerge from
the model structure rather than from per-point fitting.

Since the execution-plane refactor there are *two* producers of kernel
decompositions: the hand-built :mod:`repro.perf.costmodel` workload math
and the traces recorded from the real data plane by
:mod:`repro.core.dispatch`.  :func:`reconcile_trace` cross-validates them
-- kernel counts, bytes and int ops, per kernel kind -- and reports the
deltas, so drift between what the model charges and what the code
actually executes fails loudly instead of silently skewing every figure.

Each constant below carries its calibration rationale in its comment.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class GPUModelCalibration:
    """Roofline and scheduling constants for the GPU backends."""

    compute_efficiency: float = 0.35
    bandwidth_efficiency: float = 0.80
    #: Streams used by FIDESlib's limb-batched execution.
    fideslib_streams: int = 8
    #: Phantom issues its kernels on a single stream.
    phantom_streams: int = 1
    #: Extra data volume Phantom pays because element-wise steps are not
    #: fused into its NTT kernels (Rescale/ModDown/HMult fusions, §III-F.5).
    phantom_fusion_penalty: float = 1.15
    #: Extra arithmetic per butterfly of Phantom's radix-8 NTT relative to
    #: the radix-2 formulation the paper found cheaper.
    phantom_ntt_compute_penalty: float = 1.12


@dataclass(frozen=True)
class CPUModelCalibration:
    """Constants of the OpenFHE CPU baselines."""

    #: Modular-arithmetic operations retired per cycle by one core running
    #: the generic (non-HEXL) OpenFHE backend.
    baseline_ops_per_cycle: float = 1.10
    #: Effective parallel speedup of the 24-thread HEXL configuration
    #: (OpenFHE's abstraction layers and allocator serialise most of the
    #: gain, which is why the paper measures only 2-3.5x on large ops).
    hexl_parallel_speedup: float = 2.2
    #: Additional vector speedup HEXL provides on NTT/element-wise compute.
    hexl_vector_speedup: float = 1.2
    #: Fraction of peak DRAM bandwidth the multithreaded run achieves.
    hexl_bandwidth_efficiency: float = 0.35
    #: Fixed per-operation software overhead (allocation, layer dispatch),
    #: in seconds, for the baseline and HEXL configurations.
    baseline_op_overhead: float = 8.0e-4
    hexl_op_overhead: float = 1.0e-4


GPU_CALIBRATION = GPUModelCalibration()
CPU_CALIBRATION = CPUModelCalibration()


# ---------------------------------------------------------------------------
# Trace-vs-costmodel reconciliation
# ---------------------------------------------------------------------------

#: Kernel kinds the reconciliation aggregates over.  Classification is by
#: kernel-name substring so both producers' tag vocabularies map onto the
#: same buckets (``rescale-intt`` and ``intt`` are both inverse NTTs,
#: ``modup``/``moddown-conv``/``baseconv`` are all Equation-1 kernels).
KERNEL_KINDS = ("intt", "ntt", "baseconv", "automorphism", "copy", "elementwise")


def kernel_kind(name: str) -> str:
    """Classify a kernel name into one of :data:`KERNEL_KINDS`."""
    base = name.split("[", 1)[0]
    if "intt" in base:
        return "intt"
    if "ntt" in base:
        return "ntt"
    # Equation-1 kernels carry a "[source->target]" shape suffix.
    if "baseconv" in base or "->" in name:
        return "baseconv"
    if "automorph" in base:
        return "automorphism"
    if "copy" in base:
        return "copy"
    return "elementwise"


@dataclass
class KindDelta:
    """Per-kind totals of the trace and the model side by side."""

    kind: str
    trace_kernels: float = 0.0
    model_kernels: float = 0.0
    trace_bytes: float = 0.0
    model_bytes: float = 0.0
    trace_int_ops: float = 0.0
    model_int_ops: float = 0.0


def _relative_delta(measured: float, reference: float) -> float:
    baseline = max(abs(reference), abs(measured))
    if baseline == 0:
        return 0.0
    return abs(measured - reference) / baseline


@dataclass
class TraceReconciliation:
    """Deltas between a recorded trace and a hand-built operation cost."""

    name: str
    kinds: list[KindDelta] = field(default_factory=list)

    @property
    def kernel_count_trace(self) -> float:
        """Total kernel launches recorded in the trace."""
        return sum(k.trace_kernels for k in self.kinds)

    @property
    def kernel_count_model(self) -> float:
        """Total kernel launches the cost model charges."""
        return sum(k.model_kernels for k in self.kinds)

    @property
    def bytes_trace(self) -> float:
        """Total bytes moved according to the trace."""
        return sum(k.trace_bytes for k in self.kinds)

    @property
    def bytes_model(self) -> float:
        """Total bytes moved according to the cost model."""
        return sum(k.model_bytes for k in self.kinds)

    @property
    def int_ops_trace(self) -> float:
        """Total integer operations according to the trace."""
        return sum(k.trace_int_ops for k in self.kinds)

    @property
    def int_ops_model(self) -> float:
        """Total integer operations according to the cost model."""
        return sum(k.model_int_ops for k in self.kinds)

    @property
    def kernel_count_delta(self) -> float:
        """Relative kernel-count divergence (0.0 = exact agreement)."""
        return _relative_delta(self.kernel_count_trace, self.kernel_count_model)

    @property
    def bytes_delta(self) -> float:
        """Relative bytes-moved divergence."""
        return _relative_delta(self.bytes_trace, self.bytes_model)

    @property
    def int_ops_delta(self) -> float:
        """Relative integer-operation divergence."""
        return _relative_delta(self.int_ops_trace, self.int_ops_model)

    def within(self, *, kernel_tolerance: float = 0.05,
               bytes_tolerance: float = 0.05) -> bool:
        """True when kernel counts and bytes agree within the tolerances."""
        return (
            self.kernel_count_delta <= kernel_tolerance
            and self.bytes_delta <= bytes_tolerance
        )

    def describe(self) -> str:
        """Human-readable delta report (one line per kernel kind)."""
        lines = [
            f"== trace vs cost model: {self.name} ==",
            f"kernels: trace={self.kernel_count_trace:g} "
            f"model={self.kernel_count_model:g} "
            f"delta={self.kernel_count_delta:.2%}",
            f"bytes:   trace={self.bytes_trace:.4g} "
            f"model={self.bytes_model:.4g} delta={self.bytes_delta:.2%}",
            f"int ops: trace={self.int_ops_trace:.4g} "
            f"model={self.int_ops_model:.4g} delta={self.int_ops_delta:.2%}",
        ]
        for kind in self.kinds:
            lines.append(
                f"  {kind.kind:<12} kernels {kind.trace_kernels:g}/"
                f"{kind.model_kernels:g}  bytes {kind.trace_bytes:.4g}/"
                f"{kind.model_bytes:.4g}"
            )
        return "\n".join(lines)


def reconcile_trace(trace, cost, *, name: str | None = None) -> TraceReconciliation:
    """Cross-validate a recorded trace against a hand-built operation cost.

    ``trace`` is anything exposing ``kernels()`` (a
    :class:`repro.core.dispatch.KernelTrace`) or an iterable of
    :class:`repro.gpu.kernel.Kernel`; ``cost`` is an
    :class:`repro.perf.costmodel.OperationCost` (or any object with a
    ``kernels`` attribute).  Build the cost with ``limb_batch=None`` to
    compare against traces recorded from the all-limbs-per-kernel data
    plane.
    """
    trace_kernels = trace.kernels() if hasattr(trace, "kernels") and callable(
        getattr(trace, "kernels")
    ) else list(trace)
    model_kernels = cost.kernels if hasattr(cost, "kernels") else list(cost)
    by_kind = {kind: KindDelta(kind) for kind in KERNEL_KINDS}
    for kernel in trace_kernels:
        entry = by_kind[kernel_kind(kernel.name)]
        entry.trace_kernels += kernel.launches
        entry.trace_bytes += kernel.bytes_moved
        entry.trace_int_ops += kernel.int_ops
    for kernel in model_kernels:
        entry = by_kind[kernel_kind(kernel.name)]
        entry.model_kernels += kernel.launches
        entry.model_bytes += kernel.bytes_moved
        entry.model_int_ops += kernel.int_ops
    kinds = [
        entry for entry in by_kind.values()
        if entry.trace_kernels or entry.model_kernels
    ]
    return TraceReconciliation(
        name=name if name is not None else getattr(cost, "name", "operation"),
        kinds=kinds,
    )


__all__ = [
    "GPUModelCalibration",
    "CPUModelCalibration",
    "GPU_CALIBRATION",
    "CPU_CALIBRATION",
    "KERNEL_KINDS",
    "kernel_kind",
    "KindDelta",
    "TraceReconciliation",
    "reconcile_trace",
]
