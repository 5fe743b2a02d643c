"""Recorded-arrival replay: drive a server through a traffic trace.

Chaos testing needs load that looks like production -- bursts, lulls,
diurnal swings -- but replays *identically* in CI.  Everything here is
seeded and runs on the server's simulated clock, so one
``(arrival seed, fault seed)`` pair pins the entire run: the same
requests arrive at the same times, the same fault events fire, the same
drains degrade, and the same responses come back bit-for-bit.

Arrival generators (all return a sorted ``numpy`` array of absolute
simulated timestamps):

* :func:`poisson_arrivals` -- memoryless open-loop traffic at a fixed
  rate (exponential gaps);
* :func:`burst_arrivals` -- ``bursts`` near-simultaneous clumps spaced
  ``burst_gap`` apart (the admission controller's stress case);
* :func:`diurnal_arrivals` -- a sinusoidally-modulated Poisson process
  (time-rescaled through the numerically-inverted cumulative intensity),
  the day/night load curve.

:class:`ReplayDriver` feeds a trace through one
:class:`~repro.serve.executor.Server`: before each arrival it services
every pending drain whose policy timeout falls due (so no request ever
waits past its deadline just because the trace was quiet), then advances
the clock to the arrival and submits.  After the last arrival it drains
the server dry and returns a :class:`ReplayReport`: the server's own
:class:`~repro.serve.metrics.ServeMetrics` (availability, shed rate,
retry/degradation counts, p95 latency -- read, not copied) plus the two
figures only the responses can give, the typed-error tally and the
deadline-violation count the acceptance gate pins at zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.serve.executor import Server
from repro.serve.metrics import ServeMetrics
from repro.serve.request import OpProgram, Request


def poisson_arrivals(count: int, *, rate: float, seed: int,
                     start: float = 0.0) -> np.ndarray:
    """``count`` Poisson arrivals at ``rate`` requests per simulated second."""
    if count < 1:
        raise ValueError("an arrival trace needs at least one request")
    if rate <= 0:
        raise ValueError("the arrival rate must be positive")
    rng = np.random.default_rng(seed)
    return float(start) + np.cumsum(rng.exponential(1.0 / rate, int(count)))


def burst_arrivals(count: int, *, bursts: int, burst_gap: float,
                   jitter: float = 1e-5, seed: int = 0,
                   start: float = 0.0) -> np.ndarray:
    """``count`` arrivals in ``bursts`` clumps spaced ``burst_gap`` apart.

    Within a burst the arrivals land at seeded offsets inside ``jitter``
    simulated seconds -- effectively simultaneous relative to any
    realistic ``max_wait``, which is exactly what exercises admission
    control and the fused-batch policy at once.
    """
    if count < 1:
        raise ValueError("an arrival trace needs at least one request")
    if bursts < 1:
        raise ValueError("at least one burst is required")
    if burst_gap <= 0:
        raise ValueError("bursts must be spaced a positive gap apart")
    rng = np.random.default_rng(seed)
    base, extra = divmod(int(count), int(bursts))
    times: list[float] = []
    for burst in range(int(bursts)):
        size = base + (1 if burst < extra else 0)
        if size == 0:
            continue
        offsets = np.sort(rng.uniform(0.0, jitter, size))
        times.extend(float(start) + burst * float(burst_gap) + offsets)
    return np.asarray(times)


def diurnal_arrivals(count: int, *, period: float, seed: int,
                     peak_ratio: float = 4.0, start: float = 0.0) -> np.ndarray:
    """``count`` arrivals over one ``period`` with a day/night intensity swing.

    The intensity is ``1 + (peak_ratio - 1)·(1 + sin)/2`` (so the peak is
    ``peak_ratio`` times the trough); arrivals are drawn by time-rescaling
    uniform variates through the numerically-inverted cumulative
    intensity, which keeps the whole trace a pure function of the seed.
    """
    if count < 1:
        raise ValueError("an arrival trace needs at least one request")
    if period <= 0:
        raise ValueError("the diurnal period must be positive")
    if peak_ratio < 1.0:
        raise ValueError("peak_ratio is peak/trough intensity, at least 1.0")
    rng = np.random.default_rng(seed)
    grid = np.linspace(0.0, float(period), 4097)
    intensity = 1.0 + (peak_ratio - 1.0) * 0.5 * (
        1.0 + np.sin(2.0 * np.pi * grid / period)
    )
    cumulative = np.concatenate(([0.0], np.cumsum(
        0.5 * (intensity[1:] + intensity[:-1]) * np.diff(grid)
    )))
    cumulative /= cumulative[-1]
    quantiles = np.sort(rng.random(int(count)))
    return float(start) + np.interp(quantiles, cumulative, grid)


@dataclass
class ReplayReport:
    """Availability/robustness readout of one replayed trace."""

    #: The replayed server's metrics -- every count is read from here.
    metrics: ServeMetrics
    #: Responses per typed error class name (empty on a clean run).
    error_kinds: dict[str, int]
    #: OK responses dispatched strictly after their deadline -- the
    #: acceptance invariant pins this at zero.
    deadline_violations: int

    def summary(self) -> dict:
        """Machine-readable report (benchmark artifacts embed this)."""
        return {
            **self.metrics.summary(),
            "error_kinds": dict(sorted(self.error_kinds.items())),
            "deadline_violations": self.deadline_violations,
        }


class ReplayDriver:
    """Feeds an arrival trace through one server on the simulated clock.

    ``vector_factory`` is called with the arrival index and must return a
    fresh input for that request (a :class:`~repro.api.vector.CipherVector`
    or raw backend handle).  ``deadline_offset``, when set, gives every
    request the absolute deadline ``arrival + deadline_offset``.

    Between arrivals the driver services every pending policy timeout
    that falls due -- the same loop :meth:`Server.drain` runs, stopped at
    the next arrival -- so a lull in the trace never silently parks
    queued requests past their deadlines.  All submitted requests are
    kept on :attr:`requests` for response-level assertions (bit-identity,
    deadline checks).
    """

    def __init__(self, server: Server, program: OpProgram,
                 vector_factory: Callable[[int], object], *,
                 deadline_offset: float | None = None) -> None:
        self.server = server
        self.program = program
        self.vector_factory = vector_factory
        self.deadline_offset = (
            None if deadline_offset is None else float(deadline_offset)
        )
        self.requests: list[Request] = []

    def run(self, arrivals: Sequence[float]) -> ReplayReport:
        """Replay the trace to completion and report."""
        server = self.server
        for index, arrival in enumerate(arrivals):
            arrival = float(arrival)
            # Service every drain obligation that falls due before this
            # arrival (partial batches whose wait budget expires mid-lull).
            while server.pending:
                timeout = server.next_timeout()
                if timeout is None or timeout > arrival:
                    break
                server.clock.advance_to(timeout)
                server.poll()
            server.clock.advance_to(arrival)
            deadline = (
                None if self.deadline_offset is None
                else arrival + self.deadline_offset
            )
            self.requests.append(
                server.submit(self.program, self.vector_factory(index),
                              deadline=deadline)
            )
        server.drain()
        return self.report()

    def report(self) -> ReplayReport:
        """The server's metrics plus what only the responses can tell."""
        error_kinds: dict[str, int] = {}
        deadline_violations = 0
        for request in self.requests:
            response = request.response()
            if response.ok:
                if (request.deadline is not None
                        and response.dispatch_time > request.deadline):
                    deadline_violations += 1
            else:
                kind = response.error_kind
                error_kinds[kind] = error_kinds.get(kind, 0) + 1
        return ReplayReport(
            self.server.metrics, error_kinds, deadline_violations
        )


__all__ = [
    "ReplayDriver",
    "ReplayReport",
    "poisson_arrivals",
    "burst_arrivals",
    "diurnal_arrivals",
]
