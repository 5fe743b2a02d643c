"""The execution plane: kernel-trace dispatch from the real data plane.

Module map (kernel producers → dispatcher → trace → the one pricing path)
------------------------------------------------------------------------

::

    repro.core.modmath ───┐  stack_* kernels auto-emit on execution
                          │  (stack_take: the row copy of copy / take)
    repro.core.ntt ───────┤  StackedNTTEngine: one (i)NTT launch per segment,
                          │  with the prologue/epilogue fused into it
    repro.core.rns ───────┤  BaseConverter.convert_stack / convert_members
    repro.ckks.keyswitch ─┤  scopes only (modup, keyswitch, moddown): the
    repro.ckks.evaluator ─┤  pipelines call the self-recording kernels above
    repro.api.backend ────┘  CostModelBackend: the closed-form kernels of
                │            repro.perf.costmodel, emitted in the same
                │            operation scopes (symbolic programs)
                ▼
    repro.core.dispatch.Dispatcher      (this module)
        eager execution as before; optionally records every batched
        data-plane operation as a repro.gpu.kernel.Kernel descriptor
        with real shapes, an operation-scope tag and data-dependency
        edges (which limb-stack buffer each kernel reads/writes)
                │
                ▼
    repro.core.dispatch.KernelTrace
        the recorded kernel stream: Kernel descriptors + dependency DAG
                │
                ▼
    repro.perf.trace_model.TraceCostModel.price
        the only kernels → seconds path: roofline timing
        (repro.gpu.kernel.KernelCostModel) + dependency-aware
        multi-stream scheduling (repro.gpu.stream.StreamScheduler)
                │
                ▼
    repro.obs.rollup.ScopeRollup
        the only per-scope table (leaf rule: TraceEvent.leaf)

:func:`repro.perf.calibration.reconcile_trace` sits beside the pipeline:
it compares a recorded trace with the closed-form
:class:`repro.perf.costmodel.CKKSOperationCosts` kernels of the same
operation and reports where the two producers disagree.

Every batched data-plane operation routes through the module-level
:data:`DISPATCH`.  Execution stays eager and bit-identical whether or not
a trace is being recorded: the dispatcher only *observes*.  Recording is
enabled with::

    with DISPATCH.record() as trace:
        ct3 = evaluator.multiply(ct1, ct2)
    trace.kernel_count            # kernels the GPU backend would launch
    trace.dependencies()          # DAG edges for the stream scheduler

**One runtime per thread.**  The dispatcher's recording state is the
numeric plane's only mutable state -- every cache holds read-only tables,
and a kernel's temporaries are its own -- and :class:`Dispatcher` is a
:class:`threading.local`: each thread records only its own kernels, so
threads may run numeric work at once.

Kernels are recorded at **GPU launch granularity**, not NumPy expression
granularity: a stacked NTT is one kernel per limb batch even though it
executes as ``log2 N`` broadcast expressions, and the fused key-switching
routines emit the per-digit / per-component kernels a GPU backend would
launch (with shapes taken from the live arrays).

**One site, one launch.**  A call site that is one GPU launch made of
several building-block kernels (both ciphertext components, the tensor
product, the key inner product) wraps them in ``with
dispatcher.launch(tag):``.  Under a recording the block's leaf
``elementwise`` emissions are collected and, on exit, recorded as **one**
``elementwise`` event named ``tag``: it reads the distinct operand views no
earlier member produced, writes the distinct views written, sums the
members' integer operations and replays their replays in order -- a
composite's replay *is* its eager computation, written once.  A transform
or base conversion inside a group is an error; a nested group joins the
outer one.

**A fused transform is one engine call.**  The §III-F.5 fusions fold
element-wise work *into* the (i)NTT kernels, so ModUp, ModDown and rescale
hand that work to the engine call as its ``prologue``/``epilogue`` operand
(:class:`repro.core.ntt.Fused`) and the engine records the launch -- one
fused ``ntt``/``intt`` event per segment -- so nothing is described a
second time at the call site.  A stacked call covers every segment (both
ciphertext components) at once while a GPU issues each segment's chain on
its own, so such a pipeline runs inside :meth:`Dispatcher.interleaved`,
which lands its events segment by segment.

Dependencies are derived from buffer identity at byte-interval
granularity: views resolve to their owning allocation plus the byte range
they cover, and each kernel's dependency set is the set of last writers
of every range it touches.  Two kernels touching *disjoint* slices of one
fused allocation (e.g. the per-component halves of a fused ModDown
output) therefore stay independent in the DAG, while a kernel reading a
row of a stack another kernel wrote is correctly ordered after it.
Buffers are tracked through weak references, so recording never extends
the lifetime of the arrays it observes.  :meth:`Dispatcher.link`
propagates writer information across pure data movement (``vstack``
copies, scatter assembly) that is not modelled as a kernel.

Executable traces (the trace IR)
--------------------------------

``record(executable=True)`` promotes the trace from a costing artifact to
an executable IR.  Every emitter call site that records passes a
``replay`` thunk with signature ``replay(reads, writes) -> None`` that
recomputes the kernel's declared writes from its declared reads -- the
data plane never asks which kind of trace is live; :meth:`KernelTrace.add`
is the one place that knows, keeping the thunk and capturing each
read/write as a :class:`ViewSpec` (``(buffer token, element offset,
shape)`` into the owning allocation, the same byte-interval machinery the
dependency edges already use) on an executable trace and dropping both on
a plain one.  Executable traces hold strong references to every observed
allocation; plain traces stay weak and pin neither closures nor arrays.
:mod:`repro.core.fusion` consumes this IR: its ``TraceProgram`` re-runs
the recorded stream as recorded and ``verify()`` asserts the replay
bit-identical to the eager execution; ``fuse_trace`` prices its fusions.

**One recorded stream: the fused one.**  The unfused GPU baseline the
paper's stage and kernel fusions are priced against is a formula over it,
not a second recording: an event whose launch a GPU without those fusions
would split (a uint64 transform into its ``log2 N`` butterfly stages, a
key-switch inner product into per-pair multiply-adds) carries that split as
plain data (``TraceEvent.unfused``), and an executable trace logs its
:meth:`KernelTrace.link` calls, so :func:`repro.core.fusion.expand_stages`
can re-add the per-stage stream with the edges a recording would derive.
"""

from __future__ import annotations

import threading
import weakref
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterator, Sequence

import numpy as np

try:  # NumPy >= 2.0
    from numpy.lib.array_utils import byte_bounds as _byte_bounds
except ImportError:  # pragma: no cover - NumPy 1.x
    _byte_bounds = np.byte_bounds

from repro.gpu.kernel import (
    Kernel,
    base_conversion_kernel,
    elementwise_kernel,
    ntt_kernel,
)


@dataclass(frozen=True)
class ViewSpec:
    """One recorded array access: a contiguous view into an allocation.

    ``token`` names the owning allocation in the trace's buffer table,
    ``offset`` is the element offset of the view's first element within
    that allocation, and ``shape`` is the view's shape.  Together they let
    :class:`repro.core.fusion.TraceProgram` rebuild the exact view against
    a *fresh* buffer
    (``fresh.reshape(-1)[offset:offset+size].reshape(shape)``).
    """

    token: int
    offset: int
    shape: tuple[int, ...]

    @property
    def size(self) -> int:
        size = 1
        for dim in self.shape:
            size *= dim
        return size

    def within(self, base: np.ndarray) -> np.ndarray:
        """This view rebuilt against ``base`` (its allocation, or a copy)."""
        flat = base.reshape(-1)
        return flat[self.offset : self.offset + self.size].reshape(self.shape)


@dataclass(frozen=True)
class TraceEvent:
    """One recorded kernel launch with its provenance.

    ``reads``/``writes`` are buffer tokens (indices into the trace's
    buffer table); ``deps`` are indices of earlier events that must
    complete before this kernel may execute (last-writer edges).

    On executable traces, ``read_views``/``write_views`` pin down the
    exact array slices the kernel touched and ``replay`` recomputes the
    writes from the reads (``replay(reads, writes)``); ``kind`` classifies
    the emitter (``elementwise``/``gather``/``transform``/``baseconv``), which
    is what the fusion pass keys legality on.  ``unfused`` is the launch as
    an unfused GPU makes it, in plain data: one ``(tag, ops_per_element,
    sources, targets)`` element-wise launch after another, a source being
    ``(0, i)``, the event's ``i``-th read, or ``(1, i)``, its ``i``-th write,
    and a target a write index (:func:`repro.core.fusion.expand_stages`).
    """

    index: int
    kernel: Kernel
    scope: str
    reads: tuple[int, ...]
    writes: tuple[int, ...]
    deps: tuple[int, ...]
    kind: str = ""
    read_views: tuple[ViewSpec, ...] = ()
    write_views: tuple[ViewSpec, ...] = ()
    replay: Callable[[tuple, tuple], None] | None = None
    unfused: tuple = ()

    @property
    def leaf(self) -> str:
        """Innermost scope component (``hmult/keyswitch/moddown`` → ``moddown``)."""
        return self.scope.rsplit("/", 1)[-1]


@dataclass
class _BufferState:
    """Last-writer records of one live allocation (byte intervals).

    ``ref`` is a generation tag: a weak reference to the exact allocation
    this state was created for.  Python reuses addresses, so a dict keyed
    on ``id(array)`` alone can hand a *new* allocation the stale
    last-writer intervals of a freed one whose ``weakref.finalize``
    callback has not run yet (e.g. the old array was trapped in a
    garbage-collection cycle).  Comparing ``ref()`` against the live array
    detects the reuse and discards the stale state.
    """

    token: int
    base_lo: int
    ref: "weakref.ref | None" = None
    #: ``[lo, hi, event_index]`` write records, relative byte intervals.
    writes: list[list[int]] = field(default_factory=list)


class KernelTrace:
    """The kernel stream recorded from one or more data-plane executions.

    A trace is append-only; buffer identity and last-writer state live on
    the trace itself, so a single trace can accumulate several recorded
    regions (``session.trace(trace)`` appends to ``trace``) with dependency
    edges intact across them.  Buffers are held through weak references only: when the
    data plane drops an array, its tracking state is discarded, so traced
    workloads do not accumulate dead intermediates.

    ``executable=True`` additionally captures, per event, the exact
    read/write views (:class:`ViewSpec`) and the call site's ``replay``
    thunk, and pins every observed allocation with a strong reference so
    :class:`repro.core.fusion.TraceProgram` can rebuild and re-run the
    stream later.
    """

    def __init__(self, *, executable: bool = False) -> None:
        self.events: list[TraceEvent] = []
        self.executable = executable
        self._buffers: dict[int, _BufferState] = {}
        self._next_token: int = 0
        #: token -> owning allocation (strong refs, executable traces only).
        self._bases: dict[int, np.ndarray] = {}
        #: token -> snapshot taken at the token's first *read* access,
        #: before any recorded write (executable traces only).  Replay
        #: needs the value the region started from; the live array may be
        #: overwritten later inside the recorded region itself.
        self._seeds: dict[int, np.ndarray] = {}
        self._written_tokens: set[int] = set()
        #: ``(events recorded before it, source spans, destination span)``
        #: per effective :meth:`link`, in issue order (executable traces
        #: only): a span is a flat ``ViewSpec`` of the bytes linked.
        self._links: list[tuple[int, tuple[ViewSpec, ...], ViewSpec]] = []

    # -- recording (called through the Dispatcher) ---------------------------

    def _known(self, base: np.ndarray) -> _BufferState | None:
        """The tracking state of allocation ``base``; ``None`` if it has none."""
        state = self._buffers.get(id(base))
        if state is not None and (state.ref is None or state.ref() is not base):
            # Generation mismatch: the allocation this state was created
            # for died and a new one reused its id before the finalize
            # callback ran.  Inheriting its last-writer intervals would
            # fabricate dependency edges, so it is not this one's.
            return None
        return state

    def _buffer(self, array: np.ndarray) -> tuple[_BufferState, tuple[int, int]]:
        """Resolve an array to its allocation state and relative byte range."""
        base = _allocation(array)
        key = id(base)
        state = self._known(base)
        if state is None:
            base_lo, _ = _byte_bounds(base)
            state = _BufferState(
                token=self._next_token, base_lo=base_lo, ref=weakref.ref(base)
            )
            self._next_token += 1
            self._buffers[key] = state
            # Drop the tracking state when the allocation dies, so a later
            # allocation reusing the id cannot inherit stale writers (and
            # the trace never pins data-plane memory).
            weakref.finalize(base, self._buffers.pop, key, None)
        if self.executable:
            self._bases.setdefault(state.token, base)
        lo, hi = _byte_bounds(np.asarray(array))
        return state, (lo - state.base_lo, hi - state.base_lo)

    def _view_of(self, array: np.ndarray) -> ViewSpec | None:
        """``array`` as a view into an allocation the trace knows, if it
        knows it -- a lookup that registers nothing."""
        state = self._known(_allocation(array))
        if state is None:
            return None
        lo, _ = _byte_bounds(np.asarray(array))
        return self._view_spec(array, state, lo - state.base_lo)

    def _view_spec(self, array: np.ndarray, state: _BufferState,
                   lo: int) -> ViewSpec:
        """Capture one access as a (token, element offset, shape) view."""
        arr = np.asarray(array)
        if not arr.flags.c_contiguous:
            raise ValueError(
                f"executable traces require contiguous kernel operands; got "
                f"shape {arr.shape} with strides {arr.strides}"
            )
        return ViewSpec(
            token=state.token, offset=lo // arr.itemsize, shape=arr.shape
        )

    @staticmethod
    def _overlapping_writers(state: _BufferState, lo: int, hi: int) -> Iterator[int]:
        for record in state.writes:
            if record[0] < hi and lo < record[1]:
                yield record[2]

    def add(
        self,
        kernel: Kernel,
        *,
        scope: str = "",
        reads: Sequence[np.ndarray] = (),
        writes: Sequence[np.ndarray] = (),
        kind: str = "",
        replay: Callable[[tuple, tuple], None] | None = None,
        unfused: tuple = (),
    ) -> TraceEvent:
        """Append one kernel, deriving dependency edges from byte intervals.

        ``kind``/``replay``/``unfused`` populate the executable IR (ignored
        on plain traces).
        """
        index = len(self.events)
        deps: set[int] = set()
        read_tokens: dict[int, None] = {}
        read_views: list[ViewSpec] = []
        write_spans: list[tuple[_BufferState, int, int]] = []
        write_tokens: dict[int, None] = {}
        write_views: list[ViewSpec] = []
        executable = self.executable
        for array in reads:
            state, (lo, hi) = self._buffer(array)
            read_tokens.setdefault(state.token)
            deps.update(self._overlapping_writers(state, lo, hi))
            if executable:
                read_views.append(self._view_spec(array, state, lo))
                if (
                    state.token not in self._written_tokens
                    and state.token not in self._seeds
                ):
                    # First access is a read: snapshot the starting value
                    # now -- later events may overwrite it in place.
                    self._seeds[state.token] = self._bases[state.token].copy()
        for array in writes:
            state, (lo, hi) = self._buffer(array)
            write_tokens.setdefault(state.token)
            deps.update(self._overlapping_writers(state, lo, hi))
            write_spans.append((state, lo, hi))
            if executable:
                write_views.append(self._view_spec(array, state, lo))
                self._written_tokens.add(state.token)
        for state, lo, hi in write_spans:
            # The new record supersedes any it fully covers; partially
            # overlapped older records stay (conservative).
            state.writes = [
                r for r in state.writes if not (lo <= r[0] and r[1] <= hi)
            ]
            state.writes.append([lo, hi, index])
        deps.discard(index)
        event = TraceEvent(
            index=index,
            kernel=kernel,
            scope=scope,
            reads=tuple(read_tokens),
            writes=tuple(write_tokens),
            deps=tuple(sorted(deps)),
            kind=kind,
            read_views=tuple(read_views),
            write_views=tuple(write_views),
            replay=replay if executable else None,
            unfused=unfused if executable else (),
        )
        self.events.append(event)
        return event

    def append(
        self,
        kernel: Kernel,
        *,
        scope: str = "",
        deps: Sequence[int] = (),
    ) -> TraceEvent:
        """Append one kernel with explicit dependency edges (no buffers).

        This is the entry point for kernels that exist only as descriptors
        -- :meth:`repro.perf.costmodel.OperationCost.as_trace` turns a
        closed-form kernel list into a trace this way -- where dependencies
        are known as event indices rather than live arrays.  ``deps`` must
        reference earlier events.
        """
        index = len(self.events)
        if any(d >= index or d < 0 for d in deps):
            raise ValueError(
                f"event {index} cannot depend on {tuple(deps)}; dependencies "
                f"must reference earlier events"
            )
        event = TraceEvent(
            index=index,
            kernel=kernel,
            scope=scope,
            reads=(),
            writes=(),
            deps=tuple(sorted(set(deps))),
        )
        self.events.append(event)
        return event

    def link(self, sources: Sequence[np.ndarray], destination: np.ndarray) -> None:
        """Propagate writer provenance through unrecorded data movement.

        Pure copies (``vstack``, fancy-indexed gathers, scatter assembly)
        are memory layout changes the kernel model folds into the
        neighbouring kernels; ``link`` keeps the dependency chain intact
        across them by making ``destination`` inherit the newest writer of
        ``sources``.
        """
        writers, spans = [], []
        for source in sources:
            state, (lo, hi) = self._buffer(source)
            writers.extend(self._overlapping_writers(state, lo, hi))
            spans.append((state, lo, hi))
        if not writers:
            return
        state, (lo, hi) = self._buffer(destination)
        state.writes = [r for r in state.writes if not (lo <= r[0] and r[1] <= hi)]
        state.writes.append([lo, hi, max(writers)])
        if self.executable:
            self._links.append((
                len(self.events),
                tuple(self._span(*span) for span in spans),
                self._span(state, lo, hi),
            ))

    def _span(self, state: _BufferState, lo: int, hi: int) -> ViewSpec:
        """Relative bytes ``[lo, hi)`` of a pinned allocation as a flat view."""
        itemsize = self._bases[state.token].itemsize
        return ViewSpec(state.token, lo // itemsize, ((hi - lo) // itemsize,))

    # -- views ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def kernels(self) -> list[Kernel]:
        """The recorded kernels in launch order."""
        return [event.kernel for event in self.events]

    def dependencies(self) -> list[tuple[int, ...]]:
        """Per-kernel dependency edges (indices of earlier kernels)."""
        return [event.deps for event in self.events]

    @property
    def kernel_count(self) -> int:
        """Total kernel launches recorded."""
        return int(round(sum(event.kernel.launches for event in self.events)))

    @property
    def bytes_moved(self) -> float:
        """Total bytes read plus written across the trace."""
        return sum(event.kernel.bytes_moved for event in self.events)

    @property
    def int_ops(self) -> float:
        """Total integer operations across the trace."""
        return sum(event.kernel.int_ops for event in self.events)

    def scopes(self) -> list[str]:
        """Distinct scope paths in first-appearance order."""
        seen: dict[str, None] = {}
        for event in self.events:
            seen.setdefault(event.scope, None)
        return list(seen)

    def leaf_segments(self) -> dict[str, list[TraceEvent]]:
        """Group events by the innermost scope component (hmult, modup, ...)."""
        segments: dict[str, list[TraceEvent]] = {}
        for event in self.events:
            segments.setdefault(event.leaf, []).append(event)
        return segments

    def summary(self) -> dict:
        """Aggregate totals plus per-leaf-scope kernel counts."""
        return {
            "kernel_count": self.kernel_count,
            "bytes_moved": self.bytes_moved,
            "int_ops": self.int_ops,
            "scopes": {
                leaf: len(events)
                for leaf, events in self.leaf_segments().items()
            },
        }


class _NullContext:
    """Shared reusable no-op context manager (the untraced hot path)."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_CONTEXT = _NullContext()


def _allocation(array: np.ndarray) -> np.ndarray:
    """The array owning the memory ``array`` views (itself, if it owns it)."""
    base = array
    while isinstance(getattr(base, "base", None), np.ndarray):
        base = base.base
    return base


def _rows(array) -> int:
    """Limb rows of an operand: stacks are (rows, N), a 1-D array is one row."""
    shape = np.shape(array)
    return int(shape[0]) if len(shape) >= 2 else 1


def _launch_kernel(tag: str, rows: int, reads, writes, ops_per_element: float,
                   reuse: float = 1.0) -> Kernel:
    """One element-wise launch over ``rows`` x the first write's last axis.

    Poly-equivalents come from the operand sizes, so broadcast columns and
    row operands are charged their real (tiny) traffic.
    """
    cols = int(np.shape(writes[0])[-1])
    elements = max(1, rows * cols)
    return elementwise_kernel(
        tag,
        rows,
        cols,
        polys_read=sum(np.asarray(a).size for a in reads) / elements,
        polys_written=sum(np.asarray(a).size for a in writes) / elements,
        ops_per_element=ops_per_element,
        reuse=reuse,
    )


def _view_key(array) -> tuple:
    """Identity of one operand view: the bytes it spans and its shape."""
    return (*_byte_bounds(np.asarray(array)), np.shape(array))


def gather_rows(sources: Sequence[np.ndarray], out: np.ndarray) -> None:
    """Copy row blocks into consecutive rows of ``out`` (replay helper).

    A kernel over a fused ``(B·L, N)`` stack reads one row block per
    member; its replay stages them member-major into the write view.  A
    block that already aliases its slot (an in-place recording) is left
    untouched.  Rows of an exact (Python-integer) chain land in the word
    stack of a sub-basis below 2**62 as they are: canonical residues cast
    exactly.
    """
    row = 0
    for source in sources:
        slot = out[row : row + len(source)]
        if not np.shares_memory(source, slot):
            np.copyto(slot, source, casting="unsafe")
        row += len(source)


class _ScopeGuard:
    """Pushes/pops one scope name on the dispatcher (tracing/profiling)."""

    __slots__ = ("_dispatcher", "_name")

    def __init__(self, dispatcher: "Dispatcher", name: str) -> None:
        self._dispatcher = dispatcher
        self._name = name

    def __enter__(self) -> None:
        self._dispatcher._scopes.append(self._name)
        profiler = self._dispatcher._profiler
        if profiler is not None:
            profiler.enter(self._name)

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._dispatcher._scopes.pop()
        profiler = self._dispatcher._profiler
        if profiler is not None:
            profiler.exit(self._name)
        return False


class _SuppressGuard:
    """Increments/decrements the suppression depth (tracing only)."""

    __slots__ = ("_dispatcher",)

    def __init__(self, dispatcher: "Dispatcher") -> None:
        self._dispatcher = dispatcher

    def __enter__(self) -> None:
        self._dispatcher._suppress += 1

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._dispatcher._suppress -= 1
        return False


class Dispatcher(threading.local):
    """Routes batched data-plane operations, optionally recording a trace.

    The data plane calls the typed emitters (:meth:`elementwise`,
    :meth:`transform`, :meth:`base_conversion`) at every
    batched operation.  With no active trace they return immediately, and
    :meth:`scope`/:meth:`launch`/:meth:`suppressed` hand out a shared no-op
    context, so the untraced hot path pays one attribute check per kernel
    and allocates nothing per operation.  ``__init__`` runs once per thread
    (a :class:`threading.local`), so no state here is shared.
    """

    def __init__(self) -> None:
        self._trace: KernelTrace | None = None
        self._scopes: list[str] = []
        self._suppress: int = 0
        #: Member emissions of the open :meth:`launch` group, else ``None``.
        self._group: list[tuple] | None = None
        #: ``(segment, trace addition)`` held inside :meth:`interleaved`.
        self._held: list[tuple[int, Callable[[], None]]] | None = None
        #: The segment (component) the emitting kernel is recording; its
        #: per-segment loop sets it, :meth:`interleaved` orders by it.
        self.segment: int = 0
        #: Optional scope profiler (``enter(name)``/``exit(name)``) the
        #: observability plane installs via :meth:`profiling`; ``None``
        #: keeps :meth:`scope` on the shared null context.
        self._profiler = None

    # -- state ---------------------------------------------------------------

    @property
    def recording(self) -> bool:
        """True when a trace is active and emission is not suppressed.

        Call sites guard emitter calls on this so the untraced hot path
        skips even the argument packing (see the modmath stack kernels).
        """
        return self._trace is not None and self._suppress == 0

    @contextmanager
    def record(
        self,
        trace: KernelTrace | None = None,
        *,
        executable: bool = False,
    ) -> Iterator[KernelTrace]:
        """Record every dispatched kernel in the with-block into a trace.

        Nested ``record`` blocks are allowed; the innermost trace wins.
        Passing an existing trace appends to it (dependency state carries
        across recorded regions) and the trace's own ``executable`` flag
        governs -- asking for ``executable=True`` on a plain trace is an
        error.  ``executable=True`` records the executable IR (view specs,
        replay thunks and unfused forms; see
        :class:`repro.core.fusion.TraceProgram`).
        """
        if trace is None:
            trace = KernelTrace(executable=executable)
        elif executable and not trace.executable:
            raise ValueError(
                "record(trace, executable=True) was given a plain trace: it "
                "would record no replay thunks; pass a "
                "KernelTrace(executable=True) (or none, to get a fresh one)"
            )
        previous = self._trace
        self._trace = trace
        try:
            yield trace
        finally:
            self._trace = previous

    def scope(self, name: str):
        """Tag kernels emitted in the with-block with an operation scope.

        With no active trace (and no profiler) this is a zero-allocation
        no-op: scope names only matter to recorded kernels, so a recording
        started *inside* an already-open scope block does not see that
        outer name (recording regions wrap whole operations in practice).
        """
        if self._trace is None and self._profiler is None:
            return _NULL_CONTEXT
        return _ScopeGuard(self, name)

    @contextmanager
    def profiling(self, profiler) -> Iterator[object]:
        """Route scope enter/exit through ``profiler`` in the with-block.

        ``profiler`` needs ``enter(name)`` / ``exit(name)`` methods (see
        :class:`repro.obs.rollup.WallClockProfiler`): every
        :meth:`scope` block then reports its eager wall-clock interval,
        with or without an active trace.  Nested blocks restore the
        previous profiler; execution is unchanged (profiling observes).
        """
        previous = self._profiler
        self._profiler = profiler
        try:
            yield profiler
        finally:
            self._profiler = previous

    def suppressed(self):
        """Silence emission inside a composite kernel's implementation.

        Zero-allocation no-op when no trace is active (suppression only
        gates emission, and emission is already off).
        """
        if self._trace is None:
            return _NULL_CONTEXT
        return _SuppressGuard(self)

    def launch(self, tag: str):
        """Record the elementwise kernels of the with-block as one launch
        named ``tag`` (module docstring).  The shared no-op context when
        nothing records; inside an open group the block joins it."""
        if self._trace is None or self._suppress or self._group is not None:
            return _NULL_CONTEXT
        return self._collect(tag)

    @contextmanager
    def _collect(self, tag: str) -> Iterator[None]:
        self._group = []
        try:
            yield
        finally:
            members, self._group = self._group, None
        if members:
            self._record_group(tag, members)

    def interleaved(self):
        """Land the with-block's launches on the trace segment by segment.

        A pipeline of stacked calls (iNTT, base conversion, NTT over both
        ciphertext components) executes call by call, but a GPU issues each
        component's chain on its own and the trace is in issue order.  In
        the block an emission is held under the :attr:`segment` its kernel
        set and added (dependency edges derived) on exit, segments in order.
        """
        if self._trace is None or self._suppress or self._held is not None:
            return _NULL_CONTEXT
        return self._interleave()

    @contextmanager
    def _interleave(self) -> Iterator[None]:
        self._held = []
        try:
            yield
        finally:
            held, self._held = self._held, None
        for _, add in sorted(held, key=lambda entry: entry[0]):  # stable
            add()

    def _land(self, add: Callable[[], None]) -> None:
        """Run a trace addition now, or hold it for :meth:`interleaved`."""
        if self._held is None:
            add()
        else:
            self._held.append((self.segment, add))

    def _scope_path(self) -> str:
        return "/".join(self._scopes)

    # -- emitters ------------------------------------------------------------

    def emit(
        self,
        kernel: Kernel,
        *,
        reads: Sequence[np.ndarray] = (),
        writes: Sequence[np.ndarray] = (),
        kind: str = "",
        replay: Callable[[tuple, tuple], None] | None = None,
    ) -> None:
        """Record a pre-built kernel descriptor."""
        if self._trace is None or self._suppress:
            return
        self._add(kernel, kind, reads=reads, writes=writes, replay=replay)

    def elementwise(
        self,
        tag: str,
        *,
        reads: Sequence[np.ndarray],
        writes: Sequence[np.ndarray],
        ops_per_element: float,
        reuse: float = 1.0,
        replay: Callable[[tuple, tuple], None] | None = None,
        kind: str = "elementwise",
        unfused: tuple = (),
    ) -> None:
        """Record one element-wise kernel; shapes come from the live arrays.

        ``kind="gather"`` records a permutation (the Galois ``Automorph``
        kernel): it streams its operands once and is charged the same way,
        but thread ``i`` reads element ``π(i)``, so it is no per-element
        map and :func:`repro.core.fusion.fuse_trace` never chains it.
        ``unfused`` is the kernel's unfused form (:class:`TraceEvent`).
        """
        if self._trace is None or self._suppress:
            return
        rows = _rows(writes[0])
        if self._group is not None and kind == "elementwise":
            elements = rows * int(np.shape(writes[0])[-1])
            self._group.append((tuple(reads), tuple(writes),
                                ops_per_element * elements, replay, unfused))
            return
        self._add(_launch_kernel(tag, rows, reads, writes, ops_per_element, reuse),
                  kind, reads=reads, writes=writes, replay=replay, unfused=unfused)

    def transform(
        self,
        tag: str,
        rows: int,
        *,
        reads: Sequence[np.ndarray],
        writes: Sequence[np.ndarray],
        cols: int | None = None,
        fused_ops_per_element: float = 0.0,
        replay: Callable[[tuple, tuple], None] | None = None,
        unfused: tuple = (),
    ) -> None:
        """Record one (i)NTT kernel over ``rows`` limbs."""
        if self._trace is None or self._suppress:
            return
        if cols is None:
            cols = int(np.asarray(writes[0]).shape[-1])
        kernel = ntt_kernel(
            tag, rows, cols, fused_ops_per_element=fused_ops_per_element
        )
        self._add(kernel, "transform", reads=reads, writes=writes, replay=replay,
                  unfused=unfused)

    def base_conversion(
        self,
        tag: str,
        source_limbs: int,
        target_limbs: int,
        *,
        reads: Sequence[np.ndarray],
        writes: Sequence[np.ndarray],
        cols: int | None = None,
        replay: Callable[[tuple, tuple], None] | None = None,
    ) -> None:
        """Record one fast-base-conversion kernel (Equation 1)."""
        if self._trace is None or self._suppress:
            return
        if cols is None:
            cols = int(np.asarray(writes[0]).shape[-1])
        kernel = base_conversion_kernel(tag, source_limbs, target_limbs, cols)
        self._add(kernel, "baseconv", reads=reads, writes=writes, replay=replay)

    def _add(self, kernel: Kernel, kind: str, **accesses) -> None:
        """The one way onto the trace (a launch group takes elementwise only)."""
        if self._group is not None:
            raise RuntimeError(
                f"{kernel.name!r} ({kind}) was emitted inside a launch group: "
                f"only per-element kernels merge into one launch"
            )
        self._land(partial(
            self._trace.add, kernel, scope=self._scope_path(), kind=kind,
            **accesses,
        ))

    def _record_group(self, tag: str, members: list[tuple]) -> None:
        """Record a closed :meth:`launch` group as one elementwise event."""
        # View key -> (slot, array), in first-use order.  A member operand
        # is (0, i), the group's i-th read, or (1, i), its i-th write: an
        # earlier member produced it.
        reads: dict[tuple, tuple] = {}
        writes: dict[tuple, tuple] = {}
        steps = []
        # The group's unfused form is its members', in group slots -- when
        # every member has one; otherwise the group stays one launch.
        unfused = []
        for member_reads, member_writes, _, member_replay, member_unfused in members:
            sources = tuple(
                (1, writes[key][0]) if key in writes
                else (0, reads.setdefault(key, (len(reads), array))[0])
                for key, array in ((_view_key(a), a) for a in member_reads)
            )
            targets = tuple(
                writes.setdefault(key, (len(writes), array))[0]
                for key, array in ((_view_key(a), a) for a in member_writes)
            )
            steps.append((member_replay, sources, targets))
            slots = (sources, tuple((1, i) for i in targets))
            unfused.extend(
                (name, ops, tuple(slots[side][i] for side, i in reading),
                 tuple(targets[i] for i in writing))
                for name, ops, reading, writing in member_unfused
            )

        def replay(group_reads, group_writes):
            operands = (group_reads, group_writes)
            for member_replay, sources, targets in steps:
                member_replay(
                    tuple(operands[side][i] for side, i in sources),
                    tuple(group_writes[i] for i in targets),
                )

        written = [array for _, array in writes.values()]
        # The grid is what lands in the first output's allocation: row
        # windows of one accumulator add up, the three outputs of a tensor
        # product share one grid.
        first = _allocation(written[0])
        rows = sum(_rows(a) for a in written if _allocation(a) is first)
        elements = max(1, rows * int(np.shape(written[0])[-1]))
        group_reads = [array for _, array in reads.values()]
        self._add(
            _launch_kernel(tag, rows, group_reads, written,
                           sum(member[2] for member in members) / elements),
            "elementwise", reads=group_reads, writes=written,
            replay=replay if all(member[3] for member in members) else None,
            unfused=tuple(unfused) if all(member[4] for member in members) else (),
        )

    def link(self, sources: Sequence[np.ndarray], destination: np.ndarray) -> None:
        """Forward provenance across unrecorded data movement (see trace)."""
        if self._trace is None:
            return
        self._trace.link(sources, destination)


#: The dispatcher every data-plane call site routes through: one runtime
#: (recording state) per thread.
DISPATCH = Dispatcher()


__all__ = [
    "DISPATCH",
    "Dispatcher",
    "KernelTrace",
    "TraceEvent",
    "ViewSpec",
    "gather_rows",
]
