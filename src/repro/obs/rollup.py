"""Per-scope profiling rollups: where the time and bytes actually go.

The paper's profiling methodology attributes GPU time to CKKS operations
(HMult, ModUp, key-switch inner product, ModDown, rescale, ...); the
execution plane already tags every recorded kernel with an operation
scope.  :class:`ScopeRollup` folds either signal into one table:

* **modeled** -- from a priced trace: each
  :class:`~repro.gpu.stream.ScheduledKernel` slot of the schedule
  timeline contributes its execution interval *plus* its launch interval
  to the slot's leaf scope.  On a single-stream schedule the scheduler's
  closed form (makespan = total launch + execution) makes the attributed
  total reconcile with the :class:`~repro.perf.trace_model.TraceCostModel`
  makespan exactly -- :meth:`ScopeRollup.reconciliation` reports the
  relative gap, which the acceptance criteria pin at <= 1%.
* **eager wall clock** -- :class:`WallClockProfiler` plugs into
  :meth:`repro.core.dispatch.Dispatcher.profiling` and accumulates
  *exclusive* ``perf_counter`` time per scope while the real data plane
  executes (no trace needed).

Use :func:`rollup_trace` for the one-shot "price this trace and show me
the table" path; :class:`~repro.obs.Observability` accumulates rollups
across every drain of a serving run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter


@dataclass
class ScopeRow:
    """Accumulated attribution of one leaf scope (hmult, modup, ...)."""

    scope: str
    kernels: int = 0
    bytes_moved: float = 0.0
    int_ops: float = 0.0
    #: Modeled device-execution seconds (schedule slot intervals).
    execution_s: float = 0.0
    #: Modeled host launch seconds (launch slot intervals).
    launch_s: float = 0.0
    #: Eager wall-clock seconds (exclusive, from WallClockProfiler).
    wall_s: float = 0.0

    @property
    def modeled_s(self) -> float:
        """Total modeled seconds attributed to this scope."""
        return self.execution_s + self.launch_s

    def to_json(self) -> dict:
        return {
            "scope": self.scope,
            "kernels": self.kernels,
            "bytes_moved": self.bytes_moved,
            "int_ops": self.int_ops,
            "execution_s": self.execution_s,
            "launch_s": self.launch_s,
            "modeled_s": self.modeled_s,
            "wall_s": self.wall_s,
        }


class ScopeRollup:
    """Time and bytes attributed by scope tag, across any number of traces."""

    def __init__(self) -> None:
        self.rows: dict[str, ScopeRow] = {}
        #: Sum of the makespans of every priced trace folded in -- the
        #: figure the attributed modeled total must reconcile with.
        self.makespan_total: float = 0.0

    def _row(self, scope: str) -> ScopeRow:
        row = self.rows.get(scope)
        if row is None:
            row = self.rows[scope] = ScopeRow(scope)
        return row

    def add_report(self, trace, report) -> None:
        """Fold one priced trace (``TraceCostModel.price`` output) in.

        Attribution walks the schedule timeline: each slot's execution and
        launch intervals land on the leaf scope
        (:attr:`~repro.core.dispatch.TraceEvent.leaf`) of the trace event
        the slot's ``index`` points back to, so launch overhead is
        attributed too and the totals close against the makespan.
        """
        events = trace.events
        for slot in report.schedule.timeline:
            event = events[slot.index]
            row = self._row(event.leaf or slot.name)
            row.execution_s += slot.end - slot.start
            row.launch_s += slot.launch_end - slot.launch_start
            row.kernels += int(round(event.kernel.launches))
            row.bytes_moved += event.kernel.bytes_moved
            row.int_ops += event.kernel.int_ops
        self.makespan_total += report.makespan

    def add_wall(self, scope: str, seconds: float) -> None:
        """Fold eager wall-clock seconds into one scope row."""
        self._row(scope).wall_s += float(seconds)

    # -- readouts ------------------------------------------------------------

    @property
    def modeled_total(self) -> float:
        """Sum of modeled seconds attributed across all rows."""
        return sum(row.modeled_s for row in self.rows.values())

    @property
    def wall_total(self) -> float:
        return sum(row.wall_s for row in self.rows.values())

    def reconciliation(self) -> float:
        """Relative gap between attributed modeled time and the makespans.

        Zero on single-stream schedules (the scheduler's closed form);
        the acceptance criteria gate this at <= 1% for serve drains.
        """
        if self.makespan_total <= 0.0:
            return 0.0
        return abs(self.modeled_total - self.makespan_total) / self.makespan_total

    def sorted_rows(self) -> list[ScopeRow]:
        """Rows heaviest-first (modeled time, then wall time, then name)."""
        return sorted(
            self.rows.values(),
            key=lambda row: (-row.modeled_s, -row.wall_s, row.scope),
        )

    def to_json(self) -> dict:
        """Deterministic JSON form (rows sorted by scope name)."""
        return {
            "rows": [
                self.rows[scope].to_json() for scope in sorted(self.rows)
            ],
            "modeled_total_s": self.modeled_total,
            "makespan_total_s": self.makespan_total,
            "reconciliation": self.reconciliation(),
            "wall_total_s": self.wall_total,
        }

    def to_text(self) -> str:
        """Fixed-width table, heaviest scope first."""
        headers = ("scope", "kernels", "bytes", "exec_ms", "launch_ms",
                   "modeled_ms", "share", "wall_ms")
        rows = []
        total = self.modeled_total
        wall_total = self.wall_total
        for row in self.sorted_rows():
            if total > 0:
                share = row.modeled_s / total
            elif wall_total > 0:
                share = row.wall_s / wall_total
            else:
                share = 0.0
            rows.append((
                row.scope or "(unscoped)",
                str(row.kernels),
                f"{row.bytes_moved:.3g}",
                f"{row.execution_s * 1e3:.4f}",
                f"{row.launch_s * 1e3:.4f}",
                f"{row.modeled_s * 1e3:.4f}",
                f"{share * 100.0:.1f}%",
                f"{row.wall_s * 1e3:.3f}",
            ))
        widths = [
            max(len(headers[i]), *(len(r[i]) for r in rows)) if rows
            else len(headers[i])
            for i in range(len(headers))
        ]
        lines = [
            "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
            "  ".join("-" * widths[i] for i in range(len(headers))),
        ]
        for r in rows:
            lines.append("  ".join(r[i].ljust(widths[i]) for i in range(len(r))))
        lines.append(
            f"total modeled {total * 1e3:.4f} ms over "
            f"{self.makespan_total * 1e3:.4f} ms of makespan "
            f"(reconciliation gap {self.reconciliation() * 100.0:.3f}%)"
        )
        return "\n".join(lines)


class WallClockProfiler:
    """Attributes eager ``perf_counter`` time to dispatcher scopes.

    Installed with :meth:`repro.core.dispatch.Dispatcher.profiling`; the
    dispatcher's scope guards call :meth:`enter` / :meth:`exit` around
    every tagged operation.  Time is *exclusive*: a parent scope is not
    double-charged for its children (``hmult`` excludes the nested
    ``keyswitch``), so the per-scope totals sum to the profiled region's
    scoped time.
    """

    def __init__(self) -> None:
        self.exclusive: dict[str, float] = {}
        self.inclusive: dict[str, float] = {}
        self._stack: list[list] = []  # [name, start, child_seconds]

    def enter(self, name: str) -> None:
        self._stack.append([name, perf_counter(), 0.0])

    def exit(self, name: str) -> None:
        record = self._stack.pop()
        elapsed = perf_counter() - record[1]
        self.exclusive[name] = (
            self.exclusive.get(name, 0.0) + elapsed - record[2]
        )
        self.inclusive[name] = self.inclusive.get(name, 0.0) + elapsed
        if self._stack:
            self._stack[-1][2] += elapsed

    def fold_into(self, rollup: ScopeRollup) -> None:
        """Add the exclusive per-scope seconds to a rollup's wall column."""
        for name in sorted(self.exclusive):
            rollup.add_wall(name, self.exclusive[name])


def rollup_trace(trace, model, *, streams: int = 1) -> ScopeRollup:
    """Price ``trace`` with ``model`` and return its per-scope rollup.

    The one-shot path: ``print(rollup_trace(trace, TraceCostModel(
    GPU_RTX_4090)).to_text())``.
    """
    rollup = ScopeRollup()
    rollup.add_report(trace, model.price(trace, streams=streams))
    return rollup


__all__ = ["ScopeRollup", "ScopeRow", "WallClockProfiler", "rollup_trace"]
