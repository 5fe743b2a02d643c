"""Per-layer measurement: spans, module self time, dispatcher readers, kernels.

Everything here runs only in the ``--trace 1`` run; end-to-end metrics
always come from the untraced run.  The passes are kept apart so they do
not perturb each other:

1. **spans** -- ``SpanRecorder`` around each public call the workload
   makes (``{name, group, start, end, parent, request_id}``, in memory,
   dumped at exit); a span's self time is its duration minus its children.
2. **modules** -- one ``cProfile`` run, ``tottime`` grouped by defining
   module under ``repro/``; built-ins and foreign Python code are charged
   to their callers' modules through the ``callers`` table, so the shares
   sum to the profiled total.
3. **dispatcher** -- the library's own public readers: ``session.trace()``
   (kernel counts, computed bytes, integer ops), ``TraceCostModel`` for the
   *modeled* column, ``session.observability().profile()`` for exclusive
   wall seconds per operation scope, and the default memory pool.
4. **kernels / evaluator / direct** -- direct calls on workload-shaped
   stacks and operands, and the workload's buckets run without the server.
"""

from __future__ import annotations

import cProfile
import gc
import math
import pstats
import statistics
import time
import traceback
from contextlib import contextmanager, nullcontext

import numpy as np

from clock import stamp
from repro.ckks.keyswitch import decompose_and_mod_up, key_switch, mod_down
from repro.core import modmath
from repro.core.memory import default_pool
from repro.core.ntt import get_stacked_engine
from repro.gpu.platforms import GPU_RTX_4090
from repro.perf.trace_model import TraceCostModel

from workloads import OP_MIX

#: Modules that get their own ``module.<name>.share`` row; every other
#: file (the rest of ``repro``, NumPy's Python layer, the standard library,
#: this harness) lands in ``other``.
MODULES = (
    "core.ntt", "core.modmath", "core.rns", "core.rns_poly", "core.limb_stack",
    "core.dispatch", "core.memory", "ckks.keyswitch", "ckks.evaluator",
    "ckks.batch", "ckks.keys", "ckks.encoding", "ckks.encryption",
    "ckks.bootstrap", "openfhe.serialization", "openfhe.adapter",
    "serve", "api", "obs",
)
#: Files folded into one row: whole packages, and the bootstrap pipeline.
MODULE_ALIASES = {
    "ckks.linear_transform": "ckks.bootstrap",
    "ckks.chebyshev": "ckks.bootstrap",
}
PACKAGE_ROWS = ("serve", "api", "obs")

#: Operation scopes reported on their own; the rest sum into ``scope.other_s``.
SCOPES = ("modup", "moddown", "keyswitch", "rescale", "hrotate")

#: Span names that become ``<name>_s`` metrics (seconds per iteration).
SPAN_LAYERS = (
    "encoding.encode", "encoding.decode", "encryption.encrypt",
    "encryption.decrypt", "adapter.export", "adapter.import",
    "serialization.serialize", "serialization.deserialize",
    "serve.submit", "serve.flush",
    "bootstrap.mod_raise", "bootstrap.coeff_to_slot",
    "bootstrap.approx_mod_eval", "bootstrap.slot_to_coeff",
)
GROUPS = ("client", "wire", "server")
#: Fixed repeats of the kernel pass, and the fewest of the direct pass
#: whatever its time budget: ``batch.fused_speedup`` and ``serve.overhead_s``
#: compare seconds-long walls, and a single repeat on a noisy box read 1.44x
#: where three read 1.00-1.07x.
KERNEL_REPEATS = 7
MIN_DIRECT_REPEATS = 3


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------


class NullSpans:
    """The untraced run's recorder: one shared no-op context."""

    enabled = False
    _null = nullcontext()

    def span(self, name, group=""):
        return self._null

    def iteration(self):
        return self._null


class SpanRecorder:
    """In-memory spans with parent links; one request id per iteration."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.request_id = -1

    @contextmanager
    def span(self, name, group=""):
        record = {
            "name": name, "group": group, "start": time.perf_counter(),
            "end": None, "parent": self._stack[-1] if self._stack else None,
            "request_id": self.request_id,
        }
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def iteration(self):
        """The root span of one iteration (a new request id)."""
        self.request_id += 1
        with self.span("iteration") as record:
            yield record

    def self_times(self) -> list[float]:
        """Duration of each span minus the part its children cover."""
        own = [s["end"] - s["start"] for s in self.spans]
        for span in self.spans:
            if span["parent"] is not None:
                own[span["parent"]] -= span["end"] - span["start"]
        return own

    def per_iteration(self, key: str) -> dict[str, list[float]]:
        """Self time summed per iteration, keyed by ``span[key]``."""
        sums: dict[str, dict[int, float]] = {}
        for span, own in zip(self.spans, self.self_times()):
            by_request = sums.setdefault(span[key], {})
            by_request[span["request_id"]] = by_request.get(span["request_id"], 0.0) + own
        return {name: list(by_request.values()) for name, by_request in sums.items()}

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def span_metrics(recorder: SpanRecorder) -> dict[str, tuple[float, int]]:
    """Layer seconds per iteration and the client/wire/server roll-up."""
    by_name = recorder.per_iteration("name")
    by_group = recorder.per_iteration("group")
    totals = recorder.durations("iteration")
    metrics = {}
    for name in SPAN_LAYERS:
        samples = by_name.get(name, [])
        metrics[f"{name}_s"] = (median(samples), len(samples))
    for group in GROUPS:
        samples = by_group.get(group, [])
        metrics[f"request.{group}_s"] = (median(samples), len(samples))
    # The root span's self time is what no layer span covers.
    unattributed = by_name.get("iteration", [])
    shares = [own / total for own, total in zip(unattributed, totals) if total > 0]
    metrics["request.unattributed_share"] = (median(shares), len(shares))
    return metrics


# ----------------------------------------------------------------------
# running iterations under an instrument
# ----------------------------------------------------------------------


def run_iterations(workload, spans, seconds: float, minimum: int = 1,
                   reference=None) -> list[float]:
    """Run iterations for ``seconds`` (at least ``minimum``); wall of each.

    The collector runs before and is off during each iteration.  An
    iteration that raises is a failed operation: it is counted on the
    workload, reported, and the loop goes on.

    With a ``reference`` (:mod:`calibration`) the reference kernel is timed
    before and after every iteration; the machine's slowdown over those
    samples is appended to ``reference.slowdowns`` and the part of the wall
    spent in the kernel (:mod:`clock`) to ``reference.kernel_s``, one of
    each per returned wall.
    """
    walls = []
    attempts = 0
    deadline = time.perf_counter() + seconds
    enabled = gc.isenabled()
    gc.disable()
    try:
        after = reference.samples() if reference else None
        while attempts < minimum or time.perf_counter() < deadline:
            attempts += 1
            gc.collect()
            before = after
            start = stamp()
            try:
                with spans.iteration():
                    output = workload.iteration(spans)
                end = stamp()
                if reference:
                    after = reference.samples()
                workload.collect(output)
            except Exception:  # the benchmark must report the failure, not die
                traceback.print_exc()
                workload.raised += 1
                continue
            workload.completed += 1
            walls.append(end[0] - start[0])
            if reference:
                reference.slowdowns.append(reference.slowdown(before + after))
                reference.kernel_s.append(end[1] - start[1])
    finally:
        if enabled:
            gc.enable()
    return walls


# ----------------------------------------------------------------------
# module pass
# ----------------------------------------------------------------------


def module_of(filename: str) -> str | None:
    """``core.ntt`` for ``.../repro/core/ntt.py``; None outside ``repro``."""
    marker = "/repro/"
    at = filename.rfind(marker)
    if at < 0 or not filename.endswith(".py"):
        return None
    parts = filename[at + len(marker):-3].split("/")
    if parts[0] in PACKAGE_ROWS:
        return parts[0]
    name = ".".join(parts[:2])
    name = MODULE_ALIASES.get(name, name)
    return name if name in MODULES else "other"


def module_shares(profile: cProfile.Profile) -> dict[str, float]:
    """Share of profiled self time per module; the shares sum to 1.

    A function under ``repro/`` keeps its own time.  Foreign code (C
    built-ins, NumPy's Python layer, the standard library) is charged to
    its callers: the first hop is exact (the ``callers`` table holds the
    callee's self time per caller), further hops split by the cumulative
    time each caller spent in the callee.
    """
    stats = pstats.Stats(profile).stats  # {func: (cc, nc, tt, ct, callers)}
    memo: dict[tuple, dict[str, float]] = {}

    def owners(func, depth) -> dict[str, float]:
        module = module_of(func[0])
        if module is not None:
            return {module: 1.0}
        if func not in memo:
            memo[func] = {"other": 1.0}  # cycle guard and fallback
            callers = stats[func][4] if func in stats else {}
            weight = sum(edge[3] for edge in callers.values())
            if depth < 16 and weight > 0.0:
                split: dict[str, float] = {}
                for caller, edge in callers.items():
                    for name, fraction in owners(caller, depth + 1).items():
                        split[name] = split.get(name, 0.0) + fraction * edge[3] / weight
                memo[func] = split
        return memo[func]

    seconds = dict.fromkeys((*MODULES, "other"), 0.0)
    for func, (_, _, own, _, callers) in stats.items():
        module = module_of(func[0])
        if module is not None:
            seconds[module] += own
        elif not callers:
            seconds["other"] += own
        else:
            for caller, edge in callers.items():
                for name, fraction in owners(caller, 1).items():
                    seconds[name] += edge[2] * fraction
    total = sum(seconds.values())
    return {name: (value / total if total else 0.0) for name, value in seconds.items()}


def module_pass(workload, spans, seconds: float) -> dict[str, tuple[float, int]]:
    profile = cProfile.Profile()
    profile.enable()
    try:
        count = len(run_iterations(workload, spans, seconds))
    finally:
        profile.disable()
    return {f"module.{name}.share": (share, count)
            for name, share in module_shares(profile).items()}


# ----------------------------------------------------------------------
# dispatcher pass
# ----------------------------------------------------------------------


def dispatcher_pass(workload, spans, seconds: float,
                    plain_s: float) -> dict[str, tuple[float, int]]:
    session = workload.session
    metrics: dict[str, float] = {}

    # One recorded iteration: counts repeat exactly, the wall gives the
    # recording overhead, the priced trace gives the modeled column.
    gc.collect()
    allocations = default_pool.allocation_count
    default_pool.reset_peak()
    with session.trace() as trace:
        recorded_s = sum(run_iterations(workload, spans, 0.0))
    metrics["memory.pool_peak_bytes"] = float(default_pool.peak_bytes)
    metrics["memory.pool_allocations"] = float(default_pool.allocation_count - allocations)
    metrics["dispatch.kernels"] = float(trace.kernel_count)
    metrics["dispatch.ntt_kernels"] = float(round(sum(
        event.kernel.launches for event in trace.events
        if "ntt" in event.kernel.name.lower()
    )))
    metrics["dispatch.bytes_moved"] = float(trace.bytes_moved)
    metrics["dispatch.int_ops"] = float(trace.int_ops)
    metrics["dispatch.record_overhead"] = recorded_s / plain_s
    makespan = TraceCostModel(GPU_RTX_4090).price(trace, streams=1).makespan
    metrics["gpu_model.makespan_s"] = float(makespan)
    metrics["gpu_model.measured_over_modeled"] = plain_s / makespan if makespan else 0.0
    sampled = {name: (value, 1) for name, value in metrics.items()}

    # Exclusive wall seconds per operation scope.
    obs = session.observability(watch_default_pool=False)
    with obs.profile() as profiler:
        walls = run_iterations(workload, spans, seconds)
    count = len(walls)
    exclusive = dict(profiler.exclusive)
    for scope in SCOPES:
        sampled[f"scope.{scope}_s"] = (exclusive.pop(scope, 0.0) / count, count)
    sampled["scope.other_s"] = (sum(exclusive.values()) / count, count)
    scoped = sum(profiler.exclusive.values())
    sampled["scope.unscoped_share"] = (max(0.0, 1.0 - scoped / sum(walls)), count)
    return sampled


# ----------------------------------------------------------------------
# kernel pass
# ----------------------------------------------------------------------


def timed(call, repeats: int) -> tuple[float, int]:
    """Median wall of ``call()`` over ``repeats`` runs (after one warm-up)."""
    call()
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        samples.append(time.perf_counter() - start)
    return median(samples), repeats


def kernel_pass(workload, repeats: int) -> dict[str, tuple[float, int]]:
    """Direct calls on stacks shaped like the workload's top-level operands."""
    session = workload.session
    context = session.context
    n = context.ring_degree
    operand = workload.mix_operands().a.handle
    poly = operand.c1
    moduli = tuple(poly.moduli)
    rows = len(moduli)
    stack = poly.stack.data
    col = poly.stack.moduli_col
    extended = tuple(moduli) + tuple(context.special_moduli)
    metrics: dict[str, tuple[float, int]] = {}

    engine = get_stacked_engine(n, moduli)
    coefficients = engine.inverse(stack)
    metrics["ntt.forward_s"] = timed(lambda: engine.forward(coefficients), repeats)
    metrics["ntt.inverse_s"] = timed(lambda: engine.inverse(stack), repeats)
    forward_s = metrics["ntt.forward_s"][0]
    metrics["ntt.ns_per_butterfly"] = (
        forward_s * 1e9 / (rows * (n // 2) * int(math.log2(n))), repeats
    )

    decomposed = decompose_and_mod_up(context, poly)
    extended_poly = decomposed.extended_digits[0]
    extended_engine = get_stacked_engine(n, extended)
    extended_coefficients = extended_engine.inverse(extended_poly.stack.data)
    metrics["ntt.forward_ext_s"] = timed(
        lambda: extended_engine.forward(extended_coefficients), repeats)

    fused_engine = get_stacked_engine(n, moduli * 8)
    fused = np.concatenate([coefficients] * 8, axis=0)
    metrics["ntt.forward_b8_s"] = timed(lambda: fused_engine.forward(fused), repeats)
    metrics["ntt.b8_row_slowdown"] = (
        metrics["ntt.forward_b8_s"][0] / (8.0 * forward_s), repeats
    )

    other = operand.c0.stack.data
    metrics["modmath.mul_s"] = timed(
        lambda: modmath.stack_mul_mod(stack, other, col), repeats)
    metrics["modmath.add_s"] = timed(
        lambda: modmath.stack_add_mod(stack, other, col), repeats)

    converter = context.modup_converter(rows, 0)
    digit = [i for i in context.digit_limb_indices(0) if i < rows]
    source = coefficients[digit[0]:digit[-1] + 1]
    metrics["rns.base_convert_s"] = timed(
        lambda: converter.convert_stack(source), repeats)

    relin = session.keys.relinearization_key
    metrics["keyswitch.modup_s"] = timed(
        lambda: decompose_and_mod_up(context, poly), repeats)
    metrics["keyswitch.moddown_s"] = timed(
        lambda: mod_down(context, extended_poly), repeats)
    metrics["keyswitch.key_switch_s"] = timed(
        lambda: key_switch(context, poly, relin), repeats)
    return metrics


# ----------------------------------------------------------------------
# evaluator pass
# ----------------------------------------------------------------------


def evaluator_pass(workload, seconds: float) -> dict[str, tuple[float, int]]:
    """The primitive mix, each operation timed on its own (median per call)."""
    operands = workload.mix_operands()
    recorder = SpanRecorder()
    operands.run(NullSpans())  # warm caches of the operand shapes
    deadline = time.perf_counter() + seconds
    runs = 0
    while runs < 1 or time.perf_counter() < deadline:
        gc.collect()
        operands.run(recorder)
        runs += 1
    metrics = {}
    for name, _ in OP_MIX:
        samples = recorder.durations(name)
        metrics[f"{name}_s"] = (median(samples), len(samples))
    hoisted = metrics["evaluator.rotate_many3_s"][0]
    metrics["evaluator.hoisting_gain"] = (
        3.0 * metrics["evaluator.hrotate_s"][0] / hoisted if hoisted else 0.0, runs
    )
    return metrics


# ----------------------------------------------------------------------
# direct pass: the iteration's server work without the serve layer
# ----------------------------------------------------------------------


def direct_pass(workload, seconds: float, minimum: int) -> dict[str, tuple[float, int]]:
    """``ckks.batch`` / ``core.limb_stack`` costs and the serve overhead.

    Each repeat submits and flushes the workload's buckets through the
    server, then runs them exactly as a drain would -- fuse, program on the
    fused batch, split (or the program on the single vector) -- and once
    more member by member.  ``serve.overhead_s`` is the served wall minus
    the same work done directly, paired within a repeat;
    ``batch.fused_speedup`` is the sequential loop over the fused path.
    All zeros for a workload that never reaches the serve layer.
    """
    names = ("batch.fuse_s", "batch.split_s", "batch.fused_program_s",
             "batch.sequential_program_s")
    buckets = workload.direct_buckets()
    if not buckets:
        return dict.fromkeys((*names, "batch.fused_speedup", "serve.overhead_s"), (0.0, 0))
    session, server = workload.session, workload.server
    samples = {name: [] for name in (*names, "overhead")}
    deadline = time.perf_counter() + seconds
    while len(samples["overhead"]) < minimum or time.perf_counter() < deadline:
        gc.collect()
        start = time.perf_counter()
        for program, vectors in buckets:
            for vector in vectors:
                server.submit(program, vector)
        server.flush()
        served = time.perf_counter() - start
        totals = dict.fromkeys(names, 0.0)
        direct = 0.0
        for program, vectors in buckets:
            t0 = time.perf_counter()
            if len(vectors) == 1:
                program(vectors[0])
                direct += time.perf_counter() - t0
                continue
            batch = session.batch(vectors)
            t1 = time.perf_counter()
            result = program(batch)
            t2 = time.perf_counter()
            result.split()
            t3 = time.perf_counter()
            for vector in vectors:
                program(vector)
            t4 = time.perf_counter()
            totals["batch.fuse_s"] += t1 - t0
            totals["batch.fused_program_s"] += t2 - t1
            totals["batch.split_s"] += t3 - t2
            totals["batch.sequential_program_s"] += t4 - t3
            direct += t3 - t0
        for name, value in totals.items():
            samples[name].append(value)
        samples["overhead"].append(served - direct)
    repeats = len(samples["overhead"])
    medians = {name: median(values) for name, values in samples.items()}
    fused = sum(medians[name] for name in names[:3])
    metrics = {name: (medians[name], repeats) for name in names}
    metrics["batch.fused_speedup"] = (
        medians["batch.sequential_program_s"] / fused if fused else 0.0, repeats)
    metrics["serve.overhead_s"] = (medians["overhead"], repeats)
    return metrics
