"""Dependency-aware multi-stream kernel scheduling on one device.

§III-F.1 of the paper: FIDESlib runs independent per-limb(-batch) kernels
asynchronously in separate CUDA streams so that (a) small working sets
keep L2 locality and (b) the CPU-side kernel-launch overhead is hidden
behind device execution.  With a single stream (the Phantom baseline) the
launch overhead of every kernel sits on the critical path of fast GPUs.

The scheduler is an event-based simulation of exactly that trade-off:

* the device can only execute one kernel's worth of *work* at a time
  (kernel times already assume whole-device utilisation), so the device
  busy time is the sum of kernel execution times;
* the CPU issues launches serially, one every ``launch_overhead_us`` per
  launch, and each stream holds at most one in-flight kernel: a launch
  into a stream waits until that stream's previous kernel has completed
  (with one stream the CPU therefore serialises launch → execute → launch,
  which is the behaviour the paper attributes to the non-batched
  baseline);
* a greedy ready-kernel scheduler walks the dependency DAG (when one is
  supplied, e.g. from a recorded
  :class:`repro.core.dispatch.KernelTrace`): at every step the
  lowest-index kernel whose dependencies have all been issued is launched
  into the stream that lets it start earliest;
* a dependency *within* a stream is enforced by the stream's FIFO order
  for free, but a dependency on a kernel in a *different* stream requires
  host-side synchronisation: the CPU cannot issue the launch until that
  dependency has finished.  This is what makes the DAG bind: dependent
  kernel chains pay their launch overhead on the critical path no matter
  how many streams exist, while independent kernels (the per-limb batches
  of §III-F.1) spread across streams and hide it -- exactly the paper's
  claim that only *independent* kernels benefit from multi-stream
  execution.  The scheduler therefore prefers placing a kernel on the
  stream where its latest dependency ran.

The timeline summary reduces to the closed-form numbers in the
degenerate cases that pin it:

* ``streams == 1``: the makespan is exactly
  ``total_launch + total_execution`` (every kernel pays its launch
  latency on the critical path), so ``launch_hidden == 0``;
* ``streams > 1`` with independent kernels and execution-bound work: the
  makespan is exactly ``launch + total_execution`` -- the steady-state
  pipeline bound ``max(execution, launch_time) + launch`` -- and in the
  launch-bound regime it converges to ``total_launch``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Sequence

from repro.gpu.kernel import KernelTiming
from repro.gpu.platforms import ComputePlatform


@dataclass(frozen=True)
class ScheduledKernel:
    """Per-kernel start/end times of one simulated launch."""

    index: int
    name: str
    stream: int
    launch_start: float
    launch_end: float
    start: float
    end: float

    @property
    def execution_time(self) -> float:
        """Device execution time of this kernel."""
        return self.end - self.start


@dataclass
class ScheduleResult:
    """Outcome of scheduling a kernel sequence."""

    makespan: float
    execution_time: float
    launch_time: float
    launch_hidden: float
    kernel_count: int
    timeline: tuple[ScheduledKernel, ...] = field(default_factory=tuple)

    @property
    def launch_bound(self) -> bool:
        """True when kernel-launch overhead dominates the makespan."""
        return self.launch_time > self.execution_time

    def stream_timelines(self) -> dict[int, list[ScheduledKernel]]:
        """Per-stream execution timelines, each sorted by start time."""
        streams: dict[int, list[ScheduledKernel]] = {}
        for slot in self.timeline:
            streams.setdefault(slot.stream, []).append(slot)
        for slots in streams.values():
            slots.sort(key=lambda slot: slot.start)
        return streams


class StreamScheduler:
    """Schedules kernel timings onto the streams of one device."""

    def __init__(self, platform: ComputePlatform, streams: int = 1) -> None:
        if streams < 1:
            raise ValueError("at least one stream is required")
        self.platform = platform
        self.streams = streams

    def schedule(
        self,
        timings: list[KernelTiming],
        dependencies: Sequence[Sequence[int]] | None = None,
    ) -> ScheduleResult:
        """Simulate executing ``timings`` on this device.

        ``dependencies`` optionally gives, per kernel, the indices of
        earlier kernels that must finish before it may execute (the
        dependency DAG of a recorded trace).  Without it every kernel is
        treated as independent and issued in list order.
        """
        launch_of = self.platform.launch_overhead_us * 1e-6
        count = len(timings)
        execution = 0.0
        total_launch = 0.0
        for t in timings:
            execution += t.execution_time
            total_launch += t.kernel.launches * launch_of
        launch_count = sum(t.kernel.launches for t in timings)
        if not timings:
            return ScheduleResult(0.0, 0.0, 0.0, 0.0, 0)

        deps: list[tuple[int, ...]] = (
            [tuple(d) for d in dependencies]
            if dependencies is not None
            else [()] * count
        )
        if len(deps) != count:
            raise ValueError(
                f"dependency list length {len(deps)} does not match "
                f"{count} kernels"
            )
        for index, kernel_deps in enumerate(deps):
            if any(d >= index or d < 0 for d in kernel_deps):
                raise ValueError(
                    f"kernel {index} depends on {kernel_deps}; dependencies "
                    f"must reference earlier kernels"
                )

        # Greedy ready-kernel scheduling over the DAG: lowest trace index
        # among the kernels whose dependencies have all been issued.
        dependents: list[list[int]] = [[] for _ in range(count)]
        missing = [0] * count
        for index, kernel_deps in enumerate(deps):
            missing[index] = len(kernel_deps)
            for d in kernel_deps:
                dependents[d].append(index)
        ready = [i for i in range(count) if missing[i] == 0]
        heapq.heapify(ready)

        cpu_free = 0.0
        device_free = 0.0
        stream_free = [0.0] * self.streams
        finish = [0.0] * count
        stream_of = [0] * count
        timeline: list[ScheduledKernel] = []
        issued = 0
        while ready:
            index = heapq.heappop(ready)
            timing = timings[index]
            kernel = timing.kernel
            dep_ready = max((finish[d] for d in deps[index]), default=0.0)
            # Pick the stream with the earliest possible launch: same-stream
            # dependencies ride the stream FIFO, cross-stream dependencies
            # stall the host thread until they finish.
            stream = 0
            launch_start = float("inf")
            for candidate in range(self.streams):
                cross_wait = max(
                    (finish[d] for d in deps[index] if stream_of[d] != candidate),
                    default=0.0,
                )
                candidate_start = max(cpu_free, stream_free[candidate], cross_wait)
                if candidate_start < launch_start:
                    stream = candidate
                    launch_start = candidate_start
            launch_end = launch_start + kernel.launches * launch_of
            cpu_free = launch_end
            start = max(launch_end, device_free, dep_ready)
            end = start + timing.execution_time
            stream_free[stream] = end
            device_free = end
            finish[index] = end
            stream_of[index] = stream
            timeline.append(
                ScheduledKernel(
                    index=index,
                    name=kernel.name,
                    stream=stream,
                    launch_start=launch_start,
                    launch_end=launch_end,
                    start=start,
                    end=end,
                )
            )
            issued += 1
            for dependent in dependents[index]:
                missing[dependent] -= 1
                if missing[dependent] == 0:
                    heapq.heappush(ready, dependent)
        if issued != count:
            raise ValueError("dependency graph contains a cycle")

        makespan = max(slot.end for slot in timeline)
        return ScheduleResult(
            makespan=makespan,
            execution_time=execution,
            launch_time=total_launch,
            # Launch overhead that did not extend the makespan (zero on a
            # single stream, where nothing overlaps).
            launch_hidden=max(0.0, total_launch + execution - makespan),
            kernel_count=int(round(launch_count)),
            timeline=tuple(timeline),
        )


__all__ = ["StreamScheduler", "ScheduleResult", "ScheduledKernel"]
