"""Deterministic fault injection for the serving plane.

Module map
----------

``FaultEvent``
    One scheduled fault: an ``"oom"`` window (fused allocations denied for
    ``duration`` simulated seconds, and -- when the injector is installed
    on a :class:`~repro.core.memory.MemoryPool` -- pool charges of at
    least ``min_bytes`` denied) or a one-shot ``"transient"`` drain
    failure (armed at ``time``, fired at the next drain attempt).
``FaultPlan``
    An immutable, time-sorted schedule of events.  :meth:`FaultPlan.generate`
    derives a plan from a seed -- OOM windows covering a target fraction of
    the timeline and ``transients`` one-shot failures at seeded times -- so
    the same seed always yields the identical plan (the chaos-replay
    determinism the tests and ``benchmarks/bench_faults.py`` pin).
``FaultInjector``
    The runtime: the :class:`~repro.serve.executor.Server` advances it on
    the simulated clock and it fires due events, keeping per-kind fire
    counts and the most recent :data:`LOG_LIMIT` entries of the
    deterministic event :attr:`~FaultInjector.log`.  Injection hooks:

    * :meth:`~FaultInjector.check_fuse` -- consulted by
      :class:`~repro.serve.executor.BatchExecutor` before every fused
      allocation; raises :class:`InjectedOOM` (a
      :class:`~repro.core.memory.FusedFootprintError`) inside an OOM
      window, which triggers the executor's degradation cascade
      (``B -> B/2 -> ... -> singleton``).
    * :meth:`~FaultInjector.check_drain` -- consulted at every drain
      attempt; fires pending transients as
      :class:`~repro.serve.errors.TransientFault`, which the server
      retries with backoff.
    * ``MemoryPool.charge_hook`` -- installed via ``attach(pool=...)``;
      denies real pool charges during OOM windows with a bare
      :class:`~repro.core.memory.OutOfDeviceMemory` (also retried).

Everything runs on the caller-driven simulated clock, so a chaos replay
is bit-reproducible in CI: same seed, same request stream, same event
log, same responses.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.core.memory import FusedFootprintError, MemoryPool, OutOfDeviceMemory
from repro.serve.errors import TransientFault

#: The two fault kinds a plan can schedule.
FAULT_OOM = "oom"
FAULT_TRANSIENT = "transient"

_FAULT_KINDS = frozenset({FAULT_OOM, FAULT_TRANSIENT})

#: Entries :attr:`FaultInjector.log` keeps (the most recent ones).
LOG_LIMIT = 4096


class InjectedOOM(FusedFootprintError):
    """An injected fused-allocation denial (degrades, never fails, a drain)."""


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault on the simulated clock."""

    time: float
    kind: str
    #: OOM window length in simulated seconds (``oom`` events only).
    duration: float = 0.0
    #: Smallest pool charge the OOM window denies (``oom`` + pool hook).
    min_bytes: int = 0

    def __post_init__(self) -> None:
        if self.kind not in _FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{sorted(_FAULT_KINDS)}"
            )
        # Written so NaN fails too (every comparison with NaN is False).
        if not self.time >= 0:
            raise ValueError("fault times are simulated seconds >= 0")
        if not self.duration >= 0:
            raise ValueError("fault durations cannot be negative")

    def sort_key(self) -> tuple:
        """Total deterministic ordering (time first, then structure)."""
        return (self.time, self.kind, self.duration, self.min_bytes)


class FaultPlan:
    """An immutable, time-sorted schedule of :class:`FaultEvent`\\ s."""

    def __init__(self, events: Iterable[FaultEvent] = ()) -> None:
        self.events: tuple[FaultEvent, ...] = tuple(
            sorted(events, key=FaultEvent.sort_key)
        )

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def __eq__(self, other) -> bool:
        return isinstance(other, FaultPlan) and self.events == other.events

    def __repr__(self) -> str:
        kinds: dict[str, int] = {}
        for event in self.events:
            kinds[event.kind] = kinds.get(event.kind, 0) + 1
        return f"FaultPlan({kinds})"

    @classmethod
    def generate(
        cls,
        seed: int,
        *,
        duration: float,
        oom_fraction: float = 0.0,
        oom_window: float | None = None,
        oom_min_bytes: int = 0,
        transients: int = 0,
    ) -> "FaultPlan":
        """Derive a plan from a seed (same seed => identical plan).

        ``oom_fraction`` is the fraction of the ``duration`` timeline
        covered by OOM windows (each ``oom_window`` long, default
        ``duration / 20``) placed at seeded offsets; ``transients``
        one-shot drain failures are armed at seeded times.
        """
        if not duration > 0:
            raise ValueError("a fault plan needs a positive timeline duration")
        if not 0.0 <= oom_fraction <= 1.0:
            raise ValueError("oom_fraction is a timeline fraction in [0, 1]")
        rng = np.random.default_rng(seed)
        events: list[FaultEvent] = []
        if oom_fraction > 0.0:
            window = duration / 20.0 if oom_window is None else float(oom_window)
            window = min(window, duration)
            count = max(1, int(round(oom_fraction * duration / window)))
            span = max(duration - window, 0.0)
            for start in np.sort(rng.uniform(0.0, span, count)):
                events.append(FaultEvent(float(start), FAULT_OOM,
                                         duration=window,
                                         min_bytes=int(oom_min_bytes)))
        if transients:
            for time in np.sort(rng.uniform(0.0, duration, int(transients))):
                events.append(FaultEvent(float(time), FAULT_TRANSIENT))
        return cls(events)

    def describe(self) -> dict:
        """Machine-readable plan summary (benchmark artifacts)."""
        kinds: dict[str, int] = {}
        for event in self.events:
            kinds[event.kind] = kinds.get(event.kind, 0) + 1
        return {
            "events": len(self.events),
            "by_kind": dict(sorted(kinds.items())),
            "first_time": self.events[0].time if self.events else None,
            "last_time": self.events[-1].time if self.events else None,
        }


class FaultInjector:
    """Fires a :class:`FaultPlan` as simulated time advances.

    One injector serves one :class:`~repro.serve.executor.Server` (the
    server attaches its clock at construction).  The :attr:`log` records
    every fired event and every injection -- ``("oom-window", start,
    until)``, ``("transient-armed", time)``, ``("fuse-denied", now,
    batch)``, ``("transient-fired", now, batch)``, ``("pool-oom", now,
    nbytes)`` -- and is byte-for-byte reproducible for the same plan and
    request stream (the seeded-chaos determinism contract).  It keeps the
    last :data:`LOG_LIMIT` entries; :attr:`fired` counts every entry ever
    logged, by kind.  State stays bounded over any plan length: expired
    OOM windows are dropped as the clock passes them.
    """

    def __init__(self, plan: FaultPlan | Iterable[FaultEvent], *,
                 clock=None, pool: MemoryPool | None = None) -> None:
        self.plan = plan if isinstance(plan, FaultPlan) else FaultPlan(plan)
        self.clock = clock
        self.pool: MemoryPool | None = None
        self._cursor = 0
        #: Fired OOM windows not yet over, as ``(start, until, min_bytes)``.
        self._windows: list[tuple[float, float, int]] = []
        #: Latest time passed to :meth:`advance` (windows over by then are gone).
        self._advanced_to = 0.0
        #: Armed one-shot transients (arm times, FIFO).
        self._transients: deque[float] = deque()
        #: Deterministic event log, newest :data:`LOG_LIMIT` entries.
        self.log: deque[tuple] = deque(maxlen=LOG_LIMIT)
        #: Log entries ever appended, by kind (``entry[0]``).
        self.fired: dict[str, int] = {}
        if pool is not None:
            self.install_pool_hook(pool)

    # -- wiring --------------------------------------------------------------

    def attach(self, *, clock=None, pool: MemoryPool | None = None) -> "FaultInjector":
        """Bind the runtime surfaces faults act on; returns ``self``."""
        if clock is not None:
            self.clock = clock
        if pool is not None:
            self.install_pool_hook(pool)
        return self

    def install_pool_hook(self, pool: MemoryPool) -> None:
        """Deny pool charges during OOM windows (``MemoryPool.charge_hook``)."""
        pool.charge_hook = self._charge_hook
        self.pool = pool

    def _record(self, entry: tuple) -> None:
        self.log.append(entry)
        self.fired[entry[0]] = self.fired.get(entry[0], 0) + 1

    # -- clock-driven event firing -------------------------------------------

    def advance(self, now: float) -> None:
        """Fire every scheduled event with ``time <= now`` (in plan order)."""
        events = self.plan.events
        while self._cursor < len(events) and events[self._cursor].time <= now:
            event = events[self._cursor]
            self._cursor += 1
            if event.kind == FAULT_OOM:
                until = event.time + event.duration
                self._windows.append((event.time, until, event.min_bytes))
                self._record(("oom-window", event.time, until))
            else:  # transient
                self._transients.append(event.time)
                self._record(("transient-armed", event.time))
        if now > self._advanced_to:
            self._advanced_to = now
            self._windows = [w for w in self._windows if w[1] > now]

    def oom_active(self, now: float, nbytes: int | None = None) -> bool:
        """Whether an OOM window covers ``now`` (and ``nbytes``, if given)."""
        windows = self._windows
        if now < self._advanced_to:
            # The server drains every bucket of one poll at the poll's
            # start time, even after another bucket's retry backoff moved
            # the clock on; such a query may need windows already dropped,
            # so rebuild them from the plan (exact, and only after a retry).
            windows = [
                (event.time, event.time + event.duration, event.min_bytes)
                for event in self.plan.events[:self._cursor]
                if event.kind == FAULT_OOM
            ]
        for start, until, min_bytes in windows:
            if start <= now < until and (nbytes is None or nbytes >= min_bytes):
                return True
        return False

    # -- injection hooks -----------------------------------------------------

    def check_fuse(self, now: float, batch_size: int) -> None:
        """Deny a fused ``B >= 2`` allocation inside an OOM window.

        Raises :class:`InjectedOOM`, a
        :class:`~repro.core.memory.FusedFootprintError`, so the executor's
        degradation cascade handles it exactly like a real footprint miss.
        """
        if batch_size > 1 and self.oom_active(now):
            self._record(("fuse-denied", now, batch_size))
            raise InjectedOOM(
                f"injected OOM window active at t={now:.6g}: fused "
                f"B={batch_size} allocation denied"
            )

    def check_drain(self, now: float, batch_size: int) -> None:
        """Fire one armed transient per drain attempt (FIFO by arm time)."""
        if self._transients and self._transients[0] <= now:
            armed = self._transients.popleft()
            self._record(("transient-fired", now, batch_size))
            raise TransientFault(
                f"injected transient drain failure (armed t={armed:.6g}, "
                f"fired t={now:.6g})"
            )

    def _charge_hook(self, pool: MemoryPool, nbytes: int, tag: str) -> None:
        now = self.clock.now() if self.clock is not None else 0.0
        if self.oom_active(now, nbytes):
            self._record(("pool-oom", now, int(nbytes)))
            raise OutOfDeviceMemory(
                f"injected device OOM at t={now:.6g}: charge of {nbytes} "
                f"bytes ({tag or 'untagged'}) denied"
            )


__all__ = [
    "FAULT_OOM",
    "FAULT_TRANSIENT",
    "LOG_LIMIT",
    "FaultEvent",
    "FaultPlan",
    "FaultInjector",
    "InjectedOOM",
]
