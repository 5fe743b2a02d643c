"""The one kernels → seconds path: price a kernel stream on the GPU model.

:meth:`TraceCostModel.price` is the only place in ``src/`` (outside
:mod:`repro.gpu` itself) that builds a roofline
:class:`repro.gpu.kernel.KernelCostModel` and a dependency-aware
:class:`repro.gpu.stream.StreamScheduler` -- launch-overhead hiding across
streams (§III-F.1) included.  Everything that wants modeled seconds hands
it a :class:`repro.core.dispatch.KernelTrace`::

    recorded data plane   session.trace() / TracingBackend / Server drains
    symbolic programs     CostModelBackend emits closed-form kernels onto
                          the same dispatcher seam, so the above observe it
    paper-scale models    FIDESlibModel / PhantomModel.execute(cost) price
                          OperationCost.as_trace()
                │
                ▼
    TraceCostModel.price(trace) -> TraceReport (makespan, schedule)
                │
                ▼
    repro.obs.rollup.ScopeRollup.add_report(trace, report)
        the per-scope table (hmult / modup / moddown / rescale ...),
        attributed from the schedule timeline so launch overhead is
        carried too and the rows close against the makespan

Fused traces price transparently: :func:`repro.core.fusion.fuse_trace`
replaces each merged chain with a single kernel carrying the *summed*
``int_ops`` of its members but only the chain-*endpoint* bytes (interior
producer/consumer round trips subtracted), so pricing the fused trace
against the original quantifies exactly the launch overhead and global
memory traffic the fusion pass removed -- no special casing here.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpu.kernel import KernelCostModel
from repro.gpu.platforms import ComputePlatform
from repro.gpu.stream import ScheduleResult, StreamScheduler
from repro.perf.calibration import GPU_CALIBRATION


@dataclass
class TraceReport:
    """Priced and scheduled view of one recorded kernel trace."""

    platform: str
    streams: int
    schedule: ScheduleResult

    @property
    def makespan(self) -> float:
        """End-to-end simulated time of the trace (seconds)."""
        return self.schedule.makespan

    @property
    def execution_time(self) -> float:
        """Device busy time (sum of kernel execution times)."""
        return self.schedule.execution_time

    @property
    def launch_time(self) -> float:
        """Total CPU-side launch overhead."""
        return self.schedule.launch_time

    @property
    def kernel_count(self) -> int:
        """Number of kernel launches in the trace."""
        return self.schedule.kernel_count

    def summary(self) -> dict:
        """Machine-readable summary (used by the benchmark artifacts)."""
        return {
            "platform": self.platform,
            "streams": self.streams,
            "makespan_s": self.makespan,
            "execution_s": self.execution_time,
            "launch_s": self.launch_time,
            "launch_hidden_s": self.schedule.launch_hidden,
            "kernel_count": self.kernel_count,
        }


class TraceCostModel:
    """Prices a recorded :class:`~repro.core.dispatch.KernelTrace`.

    Calibration defaults match the FIDESlib GPU model
    (:data:`repro.perf.calibration.GPU_CALIBRATION`), so a priced trace is
    directly comparable with :class:`repro.perf.fideslib_model.FIDESlibModel`
    numbers for the same operation.
    """

    def __init__(
        self,
        platform: ComputePlatform,
        *,
        streams: int | None = None,
        compute_efficiency: float | None = None,
        bandwidth_efficiency: float | None = None,
    ) -> None:
        self.platform = platform
        self.streams = streams if streams is not None else GPU_CALIBRATION.fideslib_streams
        self.cost_model = KernelCostModel(
            platform,
            compute_efficiency=(
                compute_efficiency
                if compute_efficiency is not None
                else GPU_CALIBRATION.compute_efficiency
            ),
            bandwidth_efficiency=(
                bandwidth_efficiency
                if bandwidth_efficiency is not None
                else GPU_CALIBRATION.bandwidth_efficiency
            ),
        )

    def price(self, trace, *, streams: int | None = None) -> TraceReport:
        """Time and schedule a kernel trace."""
        streams = streams if streams is not None else self.streams
        timings = self.cost_model.time_kernels(trace.kernels())
        scheduler = StreamScheduler(self.platform, streams=streams)
        schedule = scheduler.schedule(timings, dependencies=trace.dependencies())
        return TraceReport(
            platform=self.platform.name, streams=streams, schedule=schedule
        )

    def makespan(self, trace, *, streams: int | None = None) -> float:
        """Shortcut: the simulated end-to-end time of a trace (seconds)."""
        return self.price(trace, streams=streams).makespan


__all__ = ["TraceCostModel", "TraceReport"]
