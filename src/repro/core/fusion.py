"""The executable trace IR at work: replay it, expand it, price its fusions.

Module map (where this sits in the execution plane)
---------------------------------------------------

::

    repro.core.dispatch.KernelTrace (executable=True)
        the recorded stream: per-event ViewSpecs (buffer token + element
        interval), replay thunks and unfused forms -- the trace IR
                |
                +--> TraceProgram(trace)           (this module)
                |    the one replayer: re-runs the recorded stream against
                |    its own buffers; verify() asserts bit-identity with
                |    the recorded eager execution
                |
                +--> expand_stages(trace)          (this module)
                |    the unfused GPU baseline as a formula over the fused
                |    stream: every uint64 (i)NTT becomes its prologue,
                |    log2 N butterfly-stage, N^-1 scale and epilogue
                |    launches, every multi-pair key-switch inner product its
                |    ks-mul / ks-mul-add runs -- plain elementwise events
                |    with no replay, for pricing and for fuse_trace
                v
    repro.core.fusion.fuse_trace          (this module)
        walks the recorded byte intervals, proves which producer ->
        consumer pairs are legal to fuse, and greedily merges maximal
        chains of elementwise kernels into mega-kernels
                |
                +--> FusionResult.fused_trace : a rebuilt KernelTrace in
                     which each chain is ONE kernel (launches=1, summed
                     int_ops, chain-external endpoint bytes only) --
                     priced by repro.perf.trace_model.TraceCostModel and
                     schedulable like any recorded trace

A fused chain is priced, not run: ``TraceProgram`` replays the record only
as recorded, and an expanded trace prices but has no replay.

Legality (proved from the recorded producer/consumer byte ranges)
-----------------------------------------------------------------

A producer ``P`` may fuse with a consumer ``C`` when all of:

* both are elementwise kernels;
* every write view ``W`` of ``P`` meets the remaining conditions with the
  *same* ``C`` (a one-launch site writes both ciphertext components; it
  fuses only when one consumer takes both);
* ``C`` is the *only* event that ever reads ``W``, and reads it as the
  identical interval and shape (overlapping-but-not-equal is illegal --
  a partial read needs the materialised buffer);
* no event between ``P`` and ``C`` writes any byte of ``W`` (no
  interleaved writer clobbers the intermediate);
* after ``C``, nothing touches ``W`` -- unless ``C`` itself rewrites the
  identical interval in place (the rescale/ModDown tails), in which case
  ``W`` holds the chain output and later readers are fine.

Chains extend greedily (``P -> C -> C' ...``) while each new tail keeps
every earlier member's *other* operands unclobbered by the events the
member is moved past -- a mega-kernel is issued at the tail's position,
so an interleaved writer to any member's read operand vetoes the
extension.

Pricing of a fused kernel is symbolic, mirroring what a single launched
mega-kernel would do: ``int_ops`` is the sum over members (arithmetic is
conserved), while each internal edge's intermediate traffic -- the
producer's write of ``W`` and the consumer's read of it -- is dropped
from the byte counts, leaving only the chain-external endpoint bytes.
Fusion therefore never increases ``bytes_moved`` and always conserves
``int_ops`` (asserted on the expanded HMult+rescale trace by
``tests/test_fusion.py::TestExpandStages``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from repro.core.dispatch import (
    DISPATCH,
    KernelTrace,
    TraceEvent,
    ViewSpec,
    _launch_kernel,
    _rows,
)
from repro.gpu.kernel import ELEMENT_BYTES, Kernel


def _overlaps(view: ViewSpec, token: int, lo: int, hi: int) -> bool:
    """True when ``view`` touches any element of ``[lo, hi)`` on ``token``."""
    return (
        view.token == token
        and view.offset < hi
        and lo < view.offset + view.size
    )


def _producer_eligible(event: TraceEvent) -> bool:
    """Can ``event`` head a fusion edge (its writes are all intermediates)?"""
    return (
        event.kind == "elementwise"
        and len(event.write_views) > 0
        and all(view.size > 0 for view in event.write_views)
    )


@dataclass(frozen=True)
class FusedChain:
    """One merged producer chain: original event indices plus savings."""

    members: tuple[int, ...]
    kernels: tuple[str, ...]
    #: bytes of intermediate traffic eliminated (read + write sides).
    saved_bytes: float

    def __len__(self) -> int:
        return len(self.members)


class _Fuser:
    """One fusion pass over an executable trace (shared analysis state)."""

    def __init__(self, trace: KernelTrace) -> None:
        if not trace.executable:
            raise ValueError(
                "fusion needs an executable trace; record with "
                "record(executable=True) / session.trace(executable=True)"
            )
        self.trace = trace
        self.events = trace.events
        # token -> [(event_index, is_write, view)] in program order.
        self._accesses: dict[int, list[tuple[int, bool, ViewSpec]]] = {}
        for event in self.events:
            for view in event.read_views:
                self._accesses.setdefault(view.token, []).append(
                    (event.index, False, view)
                )
            for view in event.write_views:
                self._accesses.setdefault(view.token, []).append(
                    (event.index, True, view)
                )

    # -- edge legality -------------------------------------------------------

    def successor(self, producer: TraceEvent) -> int | None:
        """The unique legal fusion consumer of ``producer``, if any."""
        if not _producer_eligible(producer):
            return None
        consumers = {self._consumer(producer, w) for w in producer.write_views}
        return consumers.pop() if len(consumers) == 1 else None

    def _consumer(self, producer: TraceEvent, w: ViewSpec) -> int | None:
        """The event ``producer``'s write ``w`` may legally fuse into, if any."""
        lo, hi = w.offset, w.offset + w.size
        later = [
            (index, is_write, view)
            for index, is_write, view in self._accesses.get(w.token, [])
            if index > producer.index and _overlaps(view, w.token, lo, hi)
        ]
        readers = sorted({index for index, is_write, _ in later if not is_write})
        if not readers:
            return None  # dead intermediate: nothing to fuse into
        consumer_index = readers[0]
        consumer = self.events[consumer_index]
        if consumer.kind != "elementwise":
            return None
        in_place = False
        for index, is_write, view in later:
            if index > consumer_index:
                continue  # post-consumer accesses are judged below
            exact = (
                view.offset == lo
                and view.offset + view.size == hi
                and view.shape == w.shape
            )
            if not is_write:
                # The consumer must cover the produced interval exactly
                # (same interval, same shape) -- a partial read needs the
                # materialised buffer.
                if not exact:
                    return None
            elif index < consumer_index:
                return None  # interleaved writer clobbers the intermediate
            elif not exact:
                return None  # partial in-place rewrite needs the buffer
            else:
                in_place = True
        # After the consumer, the intermediate must be dead -- unless the
        # consumer rewrote the identical interval in place, in which case
        # it holds the chain output and later readers are fine.
        if not in_place and any(i > consumer_index for i, _, _ in later):
            return None
        return consumer_index

    def _extension_safe(self, members: list[int], new_tail: int) -> bool:
        """Moving ``members`` down to ``new_tail``: operands unclobbered?

        The chain's mega-kernel is issued at the tail's position, so every
        event between the current tail and ``new_tail`` runs *before*
        members that originally preceded it.  Any such event writing a
        byte one of the members reads would change what the member sees.
        """
        window = range(members[-1] + 1, new_tail)
        if not window:
            return True
        member_reads = [
            view for m in members for view in self.events[m].read_views
        ]
        for index in window:
            for wv in self.events[index].write_views:
                wlo, whi = wv.offset, wv.offset + wv.size
                for rv in member_reads:
                    if _overlaps(rv, wv.token, wlo, whi):
                        return False
        return True

    # -- greedy chain construction -------------------------------------------

    def chains(self) -> list[FusedChain]:
        """Maximal legal chains, greedily grown in program order."""
        used: set[int] = set()
        chains: list[FusedChain] = []
        for head in range(len(self.events)):
            if head in used:
                continue
            members = [head]
            while True:
                tail = self.events[members[-1]]
                nxt = self.successor(tail)
                if (
                    nxt is None
                    or nxt in used
                    or not self._extension_safe(members, nxt)
                ):
                    break
                members.append(nxt)
                if not _producer_eligible(self.events[nxt]):
                    break  # consumer with external writes ends the chain
            if len(members) < 2:
                continue
            used.update(members)
            saved = sum(
                2.0 * view.size * ELEMENT_BYTES
                for m in members[:-1]
                for view in self.events[m].write_views
            )
            chains.append(
                FusedChain(
                    members=tuple(members),
                    kernels=tuple(
                        self.events[m].kernel.name for m in members
                    ),
                    saved_bytes=saved,
                )
            )
        return chains


def _fused_kernel(events: list[TraceEvent], chain: FusedChain) -> Kernel:
    """Price one chain as a single launched mega-kernel."""
    members = [events[m] for m in chain.members]
    bytes_read = sum(e.kernel.bytes_read for e in members)
    bytes_written = sum(e.kernel.bytes_written for e in members)
    # Each internal edge drops the producer's write and the consumer's
    # read of the intermediate; only endpoint bytes remain.
    edge_bytes = chain.saved_bytes / 2.0
    bytes_read = max(0.0, bytes_read - edge_bytes)
    bytes_written = max(0.0, bytes_written - edge_bytes)
    names = chain.kernels
    if len(names) > 4:
        label = f"{names[0]}+..+{names[-1]}|{len(names)}"
    else:
        label = "+".join(names)
    return Kernel(
        name=f"fused({label})",
        bytes_read=bytes_read,
        bytes_written=bytes_written,
        int_ops=sum(e.kernel.int_ops for e in members),
        working_set_bytes=max(e.kernel.working_set_bytes for e in members),
        reuse=max(e.kernel.reuse for e in members),
        stream=members[0].kernel.stream,
        fused=sum(e.kernel.fused for e in members),
        launches=1.0,
    )


@dataclass
class FusionResult:
    """Outcome of one fusion pass: the rewritten trace plus its chains."""

    trace: KernelTrace
    chains: list[FusedChain]
    fused_trace: KernelTrace = field(repr=False, default=None)

    @property
    def events_before(self) -> int:
        return len(self.trace.events)

    @property
    def events_after(self) -> int:
        return len(self.fused_trace.events)

    @property
    def saved_bytes(self) -> float:
        return sum(chain.saved_bytes for chain in self.chains)

    def summary(self) -> dict:
        """Machine-readable fusion statistics (benchmark artifacts)."""
        return {
            "events_before": self.events_before,
            "events_after": self.events_after,
            "chains": len(self.chains),
            "fused_events": sum(len(c) for c in self.chains),
            "longest_chain": max((len(c) for c in self.chains), default=0),
            "int_ops_before": self.trace.int_ops,
            "int_ops_after": self.fused_trace.int_ops,
            "bytes_moved_before": self.trace.bytes_moved,
            "bytes_moved_after": self.fused_trace.bytes_moved,
            "saved_bytes": self.saved_bytes,
        }


def fuse_trace(trace: KernelTrace) -> FusionResult:
    """Run the fusion pass over an executable trace.

    Returns a :class:`FusionResult` whose ``fused_trace`` is a plain
    (priceable, schedulable) :class:`KernelTrace` with each legal chain
    collapsed to one kernel.
    """
    fuser = _Fuser(trace)
    chains = fuser.chains()
    events = trace.events
    member_to_chain: dict[int, FusedChain] = {}
    for chain in chains:
        for m in chain.members:
            member_to_chain[m] = chain
    fused = KernelTrace()
    new_index: dict[int, int] = {}

    def _remap(deps: tuple[int, ...]) -> list[int]:
        mapped: set[int] = set()
        for dep in deps:
            target = new_index.get(dep)
            if target is not None:
                mapped.add(target)
        return sorted(mapped)

    for event in events:
        chain = member_to_chain.get(event.index)
        if chain is None:
            appended = fused.append(
                replace(event.kernel), scope=event.scope,
                deps=_remap(event.deps),
            )
            new_index[event.index] = appended.index
        elif event.index == chain.members[-1]:
            # The whole chain lands at its tail's position; external
            # dependencies are the union of member deps outside the chain.
            deps: set[int] = set()
            for m in chain.members:
                deps.update(_remap(events[m].deps))
            appended = fused.append(
                _fused_kernel(events, chain),
                scope=events[chain.members[0]].scope,
                deps=sorted(deps),
            )
            for m in chain.members:
                new_index[m] = appended.index
        # mid-chain members emit nothing; their new_index is assigned when
        # the tail lands (forward deps from later events remap to it).
    return FusionResult(trace=trace, chains=chains, fused_trace=fused)


def expand_stages(trace: KernelTrace) -> KernelTrace:
    """The per-stage stream of an executable fused trace: the unfused baseline.

    Every event that carries an unfused form (``TraceEvent.unfused``: a
    uint64 (i)NTT, a key-switch inner product over more than one digit)
    becomes those launches, each a plain ``elementwise`` event with no
    replay, priced by :func:`repro.gpu.kernel.elementwise_kernel`; every
    other event is re-added as recorded.  Events are re-added against views
    rebuilt from the trace's pinned allocations, under the same buffer
    tokens, with the trace's ``link`` calls replayed where they were issued,
    so :meth:`KernelTrace.add` derives the dependency edges a recording of
    the unfused stream would.  :func:`fuse_trace` prices the result;
    :class:`TraceProgram` rejects it (the stage launches have no replay).
    """
    if not trace.executable:
        raise ValueError(
            "expand_stages needs an executable trace; record with "
            "record(executable=True) / session.trace(executable=True)"
        )
    bases = trace._bases
    expanded = KernelTrace(executable=True)
    for base in bases.values():  # in token order: the tokens carry over
        expanded._buffer(base)
    links = iter(trace._links)
    link = next(links, None)
    for event in trace.events:
        while link is not None and link[0] <= event.index:
            _, sources, destination = link
            expanded.link([s.within(bases[s.token]) for s in sources],
                          destination.within(bases[destination.token]))
            link = next(links, None)
        operands = tuple(
            [view.within(bases[view.token]) for view in views]
            for views in (event.read_views, event.write_views)
        )
        reads, writes = operands
        if not event.unfused:
            expanded.add(event.kernel, scope=event.scope, reads=reads,
                         writes=writes, kind=event.kind, replay=event.replay)
            continue
        for tag, ops, sources, targets in event.unfused:
            launch_reads = [operands[side][i] for side, i in sources]
            launch_writes = [writes[i] for i in targets]
            expanded.add(
                _launch_kernel(tag, _rows(launch_writes[0]), launch_reads,
                               launch_writes, ops),
                scope=event.scope, reads=launch_reads, writes=launch_writes,
                kind="elementwise",
            )
    return expanded


class TraceProgram:
    """The executable-trace replayer: a recorded stream as a program.

    Built from an executable :class:`KernelTrace`, a program owns one
    buffer per recorded allocation and a *flat* list of ``(replay, reads,
    writes)`` steps whose views are reconstructed once against those
    buffers -- so :meth:`run` is a bare loop over thunks with zero
    per-step allocation, wrapper-object or bookkeeping cost.  Buffer
    policy:

    * allocations the trace only ever reads (input ciphertexts, key
      stacks, moduli/twiddle columns) bind directly to the live recorded
      arrays -- zero copy, zero seeding;
    * allocations read before their first write (in-place updates,
      consume-transforms) are re-seeded on every :meth:`run` from the
      snapshot the trace took at the token's first recorded read --
      later writes inside the recorded region cannot corrupt the seed;
    * everything else (intermediates, outputs) is allocated once and
      overwritten in place on every run.

    The stream replays exactly as recorded.  :meth:`verify` re-runs the
    program and asserts every byte interval the trace wrote is
    bit-identical to the live arrays the eager execution produced -- the
    check that a record's declared byte ranges are honest.  Call it before
    the recorded arrays are mutated further.
    """

    def __init__(self, trace: KernelTrace) -> None:
        if not trace.executable:
            raise ValueError(
                "TraceProgram needs an executable trace; record with "
                "record(executable=True)"
            )
        events = trace.events
        missing = [e.kernel.name for e in events if e.replay is None]
        if missing:
            raise ValueError(
                f"trace contains {len(missing)} non-replayable events "
                f"(no replay thunk): {sorted(set(missing))}"
            )
        self.trace = trace
        # Classify tokens by their first access, in recorded order.
        written: set[int] = set()
        read_first: set[int] = set()
        intervals: dict[int, list[list[int]]] = {}
        for event in events:
            read_first.update({view.token for view in event.read_views} - written)
            for view in event.write_views:
                written.add(view.token)
                # Final-state verify intervals: a write supersedes the
                # earlier intervals it fully covers.
                lo, hi = view.offset, view.offset + view.size
                spans = intervals.setdefault(view.token, [])
                spans[:] = [s for s in spans if not (lo <= s[0] and s[1] <= hi)]
                spans.append([lo, hi])
        self._written_intervals = intervals
        self._buffers: dict[int, np.ndarray] = {}
        for token in read_first | written:
            base = trace._bases[token]
            self._buffers[token] = np.empty_like(base) if token in written else base
        # The trace's first-read snapshots, not the live arrays (which the
        # recorded region may have overwritten).
        self._seeds = {token: trace._seeds[token] for token in read_first & written}
        self._steps: list[tuple[Callable, tuple, tuple]] = [
            (event.replay, tuple(map(self.view, event.read_views)),
             tuple(map(self.view, event.write_views)))
            for event in events
        ]

    def view(self, spec: ViewSpec) -> np.ndarray:
        """Rebuild one recorded view against this program's buffers."""
        return spec.within(self._buffers[spec.token])

    def run(self) -> None:
        """Re-execute the stream against the program's buffers."""
        for token, seed in self._seeds.items():
            np.copyto(self._buffers[token], seed)
        with DISPATCH.suppressed():
            for replay, reads, writes in self._steps:
                replay(reads, writes)

    def output(self, array: np.ndarray) -> np.ndarray:
        """The program buffer holding the replayed value of ``array``.

        ``array`` must be an allocation (or view into one) a recorded
        kernel touched; the returned view covers the same element range in
        the program's buffer.  Looking ``array`` up registers nothing with
        the trace.
        """
        spec = self.trace._view_of(array)
        if spec is None or spec.token not in self._buffers:
            raise KeyError("array was not observed by the trace")
        return self.view(spec)

    def verify(self) -> None:
        """Run and assert bit-identity with the recorded eager execution."""
        self.run()
        for token, spans in self._written_intervals.items():
            live = self.trace._bases[token].reshape(-1)
            replayed = self._buffers[token].reshape(-1)
            for lo, hi in spans:
                if not np.array_equal(replayed[lo:hi], live[lo:hi]):
                    raise AssertionError(
                        f"replay diverges from eager execution in buffer "
                        f"{token}, elements [{lo}, {hi})"
                    )


__all__ = [
    "FusedChain", "FusionResult", "TraceProgram", "expand_stages", "fuse_trace",
]
