"""Quick benchmark runner: real timings of the hot-path kernels.

Runs in seconds (toy-scale parameters) and emits a machine-readable
``BENCH_quick.json`` artifact via :meth:`BenchmarkTable.to_json`.  CI runs
this as a smoke test so every change leaves a benchmark trail; locally it
is the fastest way to see whether a data-plane change moved the needle:

    PYTHONPATH=src python benchmarks/run_quick.py --output BENCH_quick.json
"""

from __future__ import annotations

import argparse
import platform
import subprocess
import time

import numpy as np

from repro.api import CKKSSession
from repro.bench.reporting import BenchmarkTable
from repro.ckks.params import CKKSParameters
from repro.core.dispatch import TraceProgram, get_dispatcher
from repro.core.fusion import fuse_trace
from repro.core.ntt import get_stacked_engine
from repro.gpu.memory import measure_allocation_strategies
from repro.gpu.platforms import GPU_RTX_4090
from repro.perf.trace_model import TraceCostModel

#: Version of the BENCH_quick.json schema.  Bump when rows/metadata change
#: shape so the CI artifact trajectory stays self-describing.
#: v3: cross-ciphertext batched-throughput rows (B in {1, 8}) -- modeled GPU
#: throughput from recorded traces (headline, CI-gated) plus the Python
#: data-plane wall clock of the same workload for transparency.
#: v4: device-count rows -- the B=8 batched trace member-sharded across
#: D in {1, 2, 4} modeled devices (the cluster plane), makespan per D.
#: v5: 59-bit double-word rows -- real timings of the paper-class 59-bit
#: parameter set on the dword backend, so the vectorized wide-modulus path
#: leaves a trail next to the 28-bit fast-path rows.
#: v6: fused-execution rows -- measured python wall clock of the fused
#: HMult+rescale program vs its per-stage-launch (unfused) trace replay,
#: both verified bit-identical to eager execution before timing.
#: v7: availability-under-faults row -- a seeded chaos replay (burst
#: arrivals through the serving plane under a FaultPlan of OOM windows and
#: transient drain failures) reporting availability, shed rate, retries
#: and degraded drains; the full-size gated run is bench_faults.py.
#: v8: instrumentation-overhead row -- HMult+rescale wall clock with the
#: observability seam present-but-disabled vs absent (the pre-obs
#: Dispatcher.scope patched back in), CI-gated at <= 5% overhead.
BENCH_SCHEMA_VERSION = 8

#: Device counts of the member-shard rows (the cluster plane).
DEVICE_COUNTS = (1, 2, 4)

#: Ring size of the batched-throughput headline (the acceptance pins 2^13).
BATCH_RING_LOG2 = 13

#: Batch sizes measured by the throughput rows.
BATCH_SIZES = (1, 8)


def git_sha() -> str:
    """The commit this artifact was produced from (``unknown`` off-repo)."""
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True, timeout=10,
        ).stdout.strip()
    except Exception:
        return "unknown"


def _time(fn, *, min_seconds: float = 0.2, repeats: int = 3) -> float:
    """Return the best per-call time of ``fn`` over a few timed batches."""
    fn()  # warm caches and twiddle tables
    best = float("inf")
    for _ in range(repeats):
        count = 0
        start = time.perf_counter()
        while time.perf_counter() - start < min_seconds / repeats:
            fn()
            count += 1
        best = min(best, (time.perf_counter() - start) / count)
    return best


def quick_params(ring_log2: int = 12, depth: int = 6) -> CKKSParameters:
    """The reduced parameter set the quick benchmarks run at."""
    return CKKSParameters(
        ring_degree=1 << ring_log2,
        mult_depth=depth,
        scale_bits=28,
        dnum=3,
        first_mod_bits=30,
        label=f"quick-{ring_log2}-{depth}",
    )


def paper_scale_params(ring_log2: int = 11, depth: int = 3) -> CKKSParameters:
    """A reduced paper-class 59-bit parameter set (dword backend).

    ``scale_bits=59`` / ``first_mod_bits=60`` put every modulus in the
    double-word range (2^31, 2^62), matching the paper's production
    parameter sets; the ring degree and depth are shrunk so the exact
    object-backend oracle stays timeable in CI.
    """
    return CKKSParameters(
        ring_degree=1 << ring_log2,
        mult_depth=depth,
        scale_bits=59,
        dnum=2,
        first_mod_bits=60,
        secret_hamming_weight=16,
        label=f"paper59-{ring_log2}-{depth}",
    )


def run_dword_rows(table: BenchmarkTable, *, ring_log2: int = 11,
                   depth: int = 3) -> None:
    """Time the hot path at the paper-class 59-bit set (dword backend).

    These rows are real wall-clock timings of the same kernels as the
    28-bit rows, but with every product emulated from 32-bit digits and
    reduced with improved Barrett / 64-bit Shoup.  The
    dword-vs-object speedup itself is gated in
    ``benchmarks/bench_paper_scale.py``; these rows track the absolute
    cost of the wide-modulus path release over release.
    """
    params = paper_scale_params(ring_log2, depth)
    session = CKKSSession.create(params, rotations=[1], seed=3, register_default=False)
    assert session.numeric_backend == "dword", session.numeric_backend
    rng = np.random.default_rng(0)
    ct_a = session.encrypt(rng.uniform(-1, 1, 16))
    ct_b = session.encrypt(rng.uniform(-1, 1, 16))
    engine = get_stacked_engine(
        params.ring_degree, tuple(session.context.moduli)
    )
    stack = ct_a.handle.c0.stack.data
    suffix = f"[59-bit dword, {params.describe()}]"
    cases = {
        f"HAdd {suffix}": lambda: ct_a + ct_b,
        f"HMult+rescale {suffix}": lambda: ct_a * ct_b,
        f"HRotate {suffix}": lambda: ct_a << 1,
        f"stacked NTT (all limbs) {suffix}": lambda: engine.forward(stack),
        f"stacked iNTT (all limbs) {suffix}": lambda: engine.inverse(stack),
    }
    for name, fn in cases.items():
        table.add_row(operation=name, seconds=round(_time(fn), 6))


def run(ring_log2: int = 12, depth: int = 6) -> BenchmarkTable:
    """Measure the homomorphic hot path at a reduced parameter set."""
    params = quick_params(ring_log2, depth)
    session = CKKSSession.create(params, rotations=[1], seed=3, register_default=False)
    rng = np.random.default_rng(0)
    ct_a = session.encrypt(rng.uniform(-1, 1, 16))
    ct_b = session.encrypt(rng.uniform(-1, 1, 16))
    engine = get_stacked_engine(
        params.ring_degree, tuple(session.context.moduli)
    )
    stack = ct_a.handle.c0.stack.data

    table = BenchmarkTable(
        f"Quick hot-path benchmarks [{params.describe()}]",
        note="functional Python backend, limb-stack data plane",
    )
    cases = {
        "HAdd": lambda: ct_a + ct_b,
        "HMult+rescale": lambda: ct_a * ct_b,
        "HRotate": lambda: ct_a << 1,
        "stacked NTT (all limbs)": lambda: engine.forward(stack),
        "stacked iNTT (all limbs)": lambda: engine.inverse(stack),
    }
    for name, fn in cases.items():
        table.add_row(operation=name, seconds=round(_time(fn), 6))

    layouts = measure_allocation_strategies(params)
    for strategy in ("array-per-limb", "flattened"):
        report = layouts[strategy]
        table.add_row(
            operation=f"poly footprint [{strategy}]",
            bytes=report["bytes_in_use"],
            allocations=report["allocations"],
            fragmentation=round(report["internal_fragmentation"], 6),
        )

    # Scheduler makespan of a trace recorded from the real execution plane
    # (§III-F.1: multi-stream launch hiding vs the single-stream baseline).
    with get_dispatcher().record() as trace:
        ct_a * ct_b
    pricer = TraceCostModel(GPU_RTX_4090)
    for streams in (1, pricer.streams):
        report = pricer.price(trace, streams=streams)
        table.add_row(
            operation=f"trace HMult+rescale makespan [{report.platform}, "
                      f"{streams} stream{'s' if streams > 1 else ''}]",
            seconds=round(report.makespan, 9),
            kernels=report.kernel_count,
        )

    # Fused execution (v6): the stage-granular trace replayed launch by
    # launch vs the fusion pass's output, both bit-identical to eager
    # execution.  bench_fusion.py carries the full comparison and the CI
    # gate; these two rows keep the headline next to the hot-path numbers.
    with get_dispatcher().record(executable=True, stage_launches=True) as trace:
        ct_a * ct_b
    program = TraceProgram(trace)
    program.verify()
    result = fuse_trace(trace)
    fused = result.program()
    fused.verify()
    for label, runner, count in (
        ("unfused", program.run, len(trace.events)),
        ("fused", fused.run, len(result.fused_trace.events)),
    ):
        table.add_row(
            operation=f"{label} HMult+rescale [python wall clock, "
                      f"stage-granular trace]",
            seconds=round(_time(runner), 6),
            kernels=count,
        )
    return table


def run_batch_throughput(table: BenchmarkTable, *, ring_log2: int = BATCH_RING_LOG2,
                         depth: int = 6, batch_sizes=BATCH_SIZES) -> dict[int, float]:
    """Measure cross-ciphertext batched HMult+rescale vs a sequential loop.

    Appends two row families per batch size ``B``:

    * **modeled GPU throughput** (headline, CI-gated): the sequential-loop
      trace launches ``B×`` the kernels of the batched trace over the same
      bytes, so the :class:`TraceCostModel` makespan exposes the §III-F.1
      launch-overhead amortisation the throughput plane exists for;
    * **python data-plane wall clock**: the functional backend's real time
      for the same work, measured with the interleaved A/B protocol (the
      PR-2 precedent).  The Python plane is the bit-exact correctness
      oracle, not a GPU -- its fused kernels match the sequential loop's
      arithmetic element for element, so wall clock lands near parity
      while the modeled launch overhead drops from ``O(B)`` to ``O(1)``.

    Returns the modeled batched-vs-sequential speedup per batch size.
    """
    params = quick_params(ring_log2, depth)
    session = CKKSSession.create(params, seed=3, register_default=False)
    rng = np.random.default_rng(0)
    pricer = TraceCostModel(GPU_RTX_4090)
    speedups: dict[int, float] = {}
    for batch_size in batch_sizes:
        vectors_a = [session.encrypt(rng.uniform(-1, 1, 16)) for _ in range(batch_size)]
        vectors_b = [session.encrypt(rng.uniform(-1, 1, 16)) for _ in range(batch_size)]
        batch_a = session.batch(vectors_a)
        batch_b = session.batch(vectors_b)

        def sequential():
            for a, b in zip(vectors_a, vectors_b):
                a * b

        def batched():
            batch_a * batch_b

        # Modeled GPU throughput from the recorded execution plane.
        with session.trace() as trace_seq:
            sequential()
        with session.trace() as trace_bat:
            batched()
        seq_report = pricer.price(trace_seq, streams=1)
        bat_report = pricer.price(trace_bat, streams=1)
        speedup = seq_report.makespan / bat_report.makespan
        speedups[batch_size] = speedup
        table.add_row(
            operation=f"sequential HMult+rescale loop [modeled {seq_report.platform}, "
                      f"B={batch_size}, N=2^{ring_log2}]",
            seconds=round(seq_report.makespan, 9),
            ops_per_sec=round(batch_size / seq_report.makespan, 3),
            kernels=seq_report.kernel_count,
        )
        table.add_row(
            operation=f"batched HMult+rescale [modeled {bat_report.platform}, "
                      f"B={batch_size}, N=2^{ring_log2}]",
            seconds=round(bat_report.makespan, 9),
            ops_per_sec=round(batch_size / bat_report.makespan, 3),
            kernels=bat_report.kernel_count,
            speedup_vs_sequential=round(speedup, 4),
        )

        # Python data-plane wall clock, interleaved A/B protocol.
        sequential(); batched()  # warm engines and tiled keys
        best_seq = best_bat = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            sequential()
            best_seq = min(best_seq, time.perf_counter() - start)
            start = time.perf_counter()
            batched()
            best_bat = min(best_bat, time.perf_counter() - start)
        table.add_row(
            operation=f"sequential HMult+rescale loop [python data plane, "
                      f"B={batch_size}, N=2^{ring_log2}]",
            seconds=round(best_seq, 6),
            ops_per_sec=round(batch_size / best_seq, 3),
        )
        table.add_row(
            operation=f"batched HMult+rescale [python data plane, "
                      f"B={batch_size}, N=2^{ring_log2}]",
            seconds=round(best_bat, 6),
            ops_per_sec=round(batch_size / best_bat, 3),
            speedup_vs_sequential=round(best_seq / best_bat, 4),
        )
    return speedups


def run_cluster_rows(table: BenchmarkTable, *, ring_log2: int = BATCH_RING_LOG2,
                     depth: int = 6, batch_size: int = 8,
                     device_counts=DEVICE_COUNTS) -> dict[int, float]:
    """Member-shard the B=8 batched trace across D modeled devices.

    One row per device count: the fused HMult+rescale trace rewritten by
    :class:`~repro.cluster.sharding.MemberShardPlan` over a PCIe box of
    RTX 4090s and priced on the multi-device scheduler.  D=1 is the
    single-device baseline the speedups are relative to.
    """
    from repro.cluster import MemberShardPlan, pcie_box, single_device

    params = quick_params(ring_log2, depth)
    session = CKKSSession.create(params, seed=3, register_default=False)
    rng = np.random.default_rng(0)
    vectors_a = [session.encrypt(rng.uniform(-1, 1, 16)) for _ in range(batch_size)]
    vectors_b = [session.encrypt(rng.uniform(-1, 1, 16)) for _ in range(batch_size)]
    batch_a = session.batch(vectors_a)
    batch_b = session.batch(vectors_b)
    with session.trace() as trace:
        batch_a * batch_b
    makespans: dict[int, float] = {}
    for device_count in device_counts:
        topology = (
            single_device(GPU_RTX_4090) if device_count == 1
            else pcie_box(device_count, platform=GPU_RTX_4090)
        )
        pricer = TraceCostModel(GPU_RTX_4090, topology=topology)
        plan = MemberShardPlan(topology, batch_size)
        report = pricer.price(plan.apply(trace), streams=1)
        makespans[device_count] = report.makespan
        table.add_row(
            operation=f"member-sharded batched HMult+rescale [modeled "
                      f"{report.platform}, B={batch_size}, D={device_count}, "
                      f"N=2^{ring_log2}]",
            seconds=round(report.makespan, 9),
            ops_per_sec=round(batch_size / report.makespan, 3),
            kernels=report.kernel_count,
            speedup_vs_one_device=round(
                makespans[device_counts[0]] / report.makespan, 4
            ),
        )
    return makespans


def run_fault_rows(table: BenchmarkTable, *, requests: int = 2000,
                   seed: int = 23) -> float:
    """Chaos-replay availability row (v7): burst load under a fault plan.

    Runs on the cost-model backend (symbolic handles, so thousands of
    requests replay in well under a second) with a seeded
    :class:`~repro.serve.FaultPlan` injecting OOM windows over 10% of the
    timeline plus scattered transient drain failures.  The row reports
    the availability figure (completed / admitted) together with the shed
    / retry / degradation counters; ``bench_faults.py`` runs the
    full-size replay with the CI gate and the functional bit-identity
    oracle.
    """
    import warnings

    from repro.serve import (
        AdmissionPolicy,
        BatchingPolicy,
        FaultPlan,
        OpProgram,
        ReplayDriver,
        RetryPolicy,
        Server,
        burst_arrivals,
    )

    params = quick_params()
    session = CKKSSession.create(params, seed=3, register_default=False)
    backend = session.cost_backend()
    arrivals = burst_arrivals(requests, bursts=requests // 100 or 1,
                              burst_gap=5e-3, seed=seed)
    plan = FaultPlan.generate(seed, duration=float(arrivals[-1]) + 5e-3,
                              oom_fraction=0.1, transients=3)
    server = Server(
        backend, BatchingPolicy(max_batch_size=8, max_wait=1e-3),
        admission=AdmissionPolicy(max_queue_depth=64),
        retry=RetryPolicy(max_retries=3, backoff=1e-5),
        fault_plan=plan,
    )
    program = OpProgram.polynomial([1.0, 0.0, 2.0])
    driver = ReplayDriver(server, program,
                          lambda i: backend.encrypt(np.full(16, 0.5)),
                          deadline_offset=1e-2)
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        report = driver.run(arrivals)
    wall = time.perf_counter() - start
    table.add_row(
        operation=f"availability under faults [cost-model chaos replay, "
                  f"{requests} requests, 10% OOM timeline]",
        seconds=round(wall, 6),
        availability=round(report.availability, 6),
        shed=report.shed,
        retries=report.retries,
        degraded_drains=report.degraded_drains,
        deadline_violations=report.deadline_violations,
    )
    return report.availability


def run_obs_overhead_row(table: BenchmarkTable, *, ring_log2: int = 12,
                         depth: int = 6) -> float:
    """Instrumentation-overhead row (v8): the cost of the disabled seam.

    The observability plane promises to be free when off: with no trace
    and no profiler installed, :meth:`Dispatcher.scope` hands out a shared
    null context after one extra attribute check (``_profiler``).  This
    row times the HMult+rescale hot path twice -- once as shipped
    ("obs disabled") and once with the pre-observability ``scope`` (which
    checks only ``_trace``) patched back in ("obs absent") -- and reports
    the ratio, which CI gates at <= 1.05.
    """
    from repro.core import dispatch as _dispatch

    params = quick_params(ring_log2, depth)
    session = CKKSSession.create(params, seed=3, register_default=False)
    rng = np.random.default_rng(11)
    ct_a = session.encrypt(rng.uniform(-1, 1, 16))
    ct_b = session.encrypt(rng.uniform(-1, 1, 16))

    # The pre-obs scope fast path: no profiler seam, trace check only.
    # Reaches into dispatch privates on purpose -- the measurement has to
    # splice the old implementation into the live singleton's class.
    def scope_absent(self, name):
        if self._trace is None:
            return _dispatch._NULL_CONTEXT
        return _dispatch._ScopeGuard(self, name)

    shipped_scope = _dispatch.Dispatcher.scope

    # The seam's true cost is one extra attribute check per scope entry
    # -- far below the run-to-run noise of a single timed block -- so the
    # two configurations are timed *interleaved*, best-of per config, and
    # machine-load phases hit both equally.
    def timed_call() -> float:
        start = time.perf_counter()
        ct_a * ct_b
        return time.perf_counter() - start

    timed_call()  # warm caches and twiddle tables
    best = {"disabled": float("inf"), "absent": float("inf")}
    for _ in range(12):
        best["disabled"] = min(best["disabled"], timed_call())
        _dispatch.Dispatcher.scope = scope_absent
        try:
            best["absent"] = min(best["absent"], timed_call())
        finally:
            _dispatch.Dispatcher.scope = shipped_scope

    disabled, absent = best["disabled"], best["absent"]
    overhead = disabled / absent
    table.add_row(
        operation="observability seam overhead [HMult+rescale, obs "
                  "disabled vs absent]",
        seconds=round(disabled, 6),
        baseline_seconds=round(absent, 6),
        overhead_ratio=round(overhead, 4),
    )
    return overhead


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default="BENCH_quick.json",
                        help="path of the JSON artifact to write")
    parser.add_argument("--ring-log2", type=int, default=12)
    parser.add_argument("--depth", type=int, default=6)
    parser.add_argument(
        "--min-batch-speedup", type=float, default=None,
        help="fail unless the modeled batched speedup at the largest batch "
             "size reaches this factor (CI regression gate)",
    )
    parser.add_argument(
        "--max-obs-overhead", type=float, default=None,
        help="fail if the disabled observability seam costs more than this "
             "ratio of the seam-free HMult+rescale wall clock (CI gate)",
    )
    args = parser.parse_args()

    table = run(args.ring_log2, args.depth)
    run_dword_rows(table)
    speedups = run_batch_throughput(table, depth=args.depth)
    run_cluster_rows(table, depth=args.depth)
    run_fault_rows(table)
    obs_overhead = run_obs_overhead_row(table, ring_log2=args.ring_log2,
                                        depth=args.depth)
    params = quick_params(args.ring_log2, args.depth)
    document = table.to_json(
        schema_version=BENCH_SCHEMA_VERSION,
        git_sha=git_sha(),
        parameter_set={
            "label": params.label,
            "logN_L_scale_dnum": params.describe(),
        },
        python=platform.python_version(),
        machine=platform.machine(),
        numpy=np.__version__,
    )
    with open(args.output, "w", encoding="utf-8") as handle:
        handle.write(document + "\n")
    print(table.to_text())
    print(f"\nwrote {args.output}")

    if args.min_batch_speedup is not None:
        largest = max(speedups)
        achieved = speedups[largest]
        if achieved < args.min_batch_speedup:
            raise SystemExit(
                f"FAIL: modeled batched speedup at B={largest} is "
                f"{achieved:.2f}x, below the {args.min_batch_speedup:.2f}x gate"
            )
        print(
            f"OK: modeled batched speedup at B={largest} is {achieved:.2f}x "
            f"(gate {args.min_batch_speedup:.2f}x)"
        )

    if args.max_obs_overhead is not None:
        if obs_overhead > args.max_obs_overhead:
            raise SystemExit(
                f"FAIL: disabled observability seam costs "
                f"{obs_overhead:.3f}x the seam-free hot path, above the "
                f"{args.max_obs_overhead:.3f}x gate"
            )
        print(
            f"OK: disabled observability seam overhead is "
            f"{obs_overhead:.3f}x (gate {args.max_obs_overhead:.3f}x)"
        )


if __name__ == "__main__":
    main()
