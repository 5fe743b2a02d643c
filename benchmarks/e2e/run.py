"""One measured benchmark: end-to-end request, primitives, bootstrap.

    python3 benchmarks/e2e/run.py                      # all five workloads
    python3 benchmarks/e2e/run.py --workload lr_roundtrip_b1 --seed 7
    python3 benchmarks/e2e/run.py --workload bootstrap_toy --trace 1

One process per workload, one thread, pinned to one core, closed loop with
one caller.  Every run sets up, warms up, measures for ``--seconds``,
verifies every output, prints each metric as
``name workload value unit n_samples`` and, as the last line, the JSON
object the benchmark driver reads.  ``--trace 0`` (default) reports the
end-to-end metrics declared in ``BENCHMARK.json``; ``--trace 1`` reports
the per-layer metrics from separate instrumented passes.  The exit code is
non-zero when an operation failed or an output was wrong.

The harness adds ``src/`` of its checkout to ``sys.path`` itself, imports
only ``repro``, and changes nothing in it.
"""

import time

#: "Process start" for setup_s, before the heavy imports: a ``clock.stamp()``
#: (wall clock, kernel seconds used so far).
_STARTED = (time.perf_counter(), 0.0)

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from clock import outside_kernel, stamp  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORKLOAD_NAMES = ("lr_roundtrip_b1", "serve_burst_b8", "primitives_n13",
                  "primitives_dword59", "bootstrap_toy")
#: Untimed iterations before measuring (twiddle tables, engines, tiled keys,
#: plaintext caches in the first; the allocator's arenas reach their working
#: size in the second); their cost is part of ``setup_s``.
WARMUP_ITERATIONS = 2
#: Timed iterations a run makes even if ``--seconds`` is shorter than that.
MIN_TIMED_ITERATIONS = 3
#: ``setup_s`` is the median of this many cold set-ups: the rest in fresh
#: processes and then the run's own, because the library caches twiddle
#: tables and engines process-wide and a second set-up in one process skips
#: them.
SETUP_SAMPLES = 3
#: Time-bounded instrumented passes of a ``--trace 1`` run; each gets an
#: equal share of ``--seconds``.
TRACE_PASSES = 6


def declaration() -> dict:
    """``BENCHMARK.json``: the one place workloads and metrics are declared."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def declared_units(trace: bool) -> dict[str, str]:
    """Metric name -> unit of the section a run of that mode reports."""
    section = declaration()["per_layer" if trace else "end_to_end"]
    return {metric["name"]: metric["unit"] for metric in section}


def tail(samples) -> tuple[str, float]:
    """The highest of p75/p90/p95/p99 with at least ten samples beyond it
    (the maximum when the sample is too small for any)."""
    ordered = sorted(samples)
    for percent in (99, 95, 90, 75):
        beyond = len(ordered) * (100 - percent) // 100
        if beyond >= 10:
            return f"p{percent}", ordered[len(ordered) - beyond - 1]
    return "max", ordered[-1]


def prepare(name: str, seed: int, smoke: bool, started: tuple[float, float]):
    """Process start -> ready: imports, session and keys, inputs, warm-up.

    Returns the ready workload, the ``layers`` module, and the seconds
    outside the kernel since the stamp ``started`` with the machine's
    slowdown measured at the end of them; the phases (plain walls) are left
    in ``workload.setup_phases``.
    """
    sys.path[:0] = [p for p in (str(ROOT / "src"), str(HERE)) if p not in sys.path]
    import layers
    from workloads import WORKLOADS

    imported = time.perf_counter()
    workload = WORKLOADS[name](seed, smoke=smoke)
    workload.setup()
    warm_start = time.perf_counter()
    layers.run_iterations(workload, layers.NullSpans(), 0.0,
                          minimum=WARMUP_ITERATIONS)
    ready = stamp()
    slow = workload.reference.slowdown(workload.reference.samples(15))
    workload.setup_phases["setup.import_s"] = imported - started[0]
    workload.setup_phases["setup.warmup_s"] = ready[0] - warm_start
    return workload, layers, outside_kernel(started, ready), slow


def cold_setups(name: str, seed: int, smoke: bool, count: int) -> list[tuple[float, float]]:
    """``(seconds, slowdown)`` of ``count`` set-ups in fresh processes, one
    after the other."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--setup-only", *(["--smoke"] if smoke else [])]
    samples = []
    for _ in range(count):
        child = subprocess.run(command, capture_output=True, text=True,
                               check=True, timeout=170)
        seconds, slow = child.stdout.split()[-2:]
        samples.append((float(seconds), float(slow)))
    return samples


def measure_end_to_end(workload, layers, seconds: float):
    """The untraced run: what a user of the system sees."""
    reference = workload.reference
    walls = layers.run_iterations(workload, layers.NullSpans(), seconds,
                                  minimum=MIN_TIMED_ITERATIONS, reference=reference)
    workload.verify()
    values, diagnostics = {}, {}
    if walls:
        # The part of each wall outside the kernel, in units of the reference
        # kernel timed around it: see clock.py, calibration.py and README.md,
        # "Noise".
        normalised = [(wall - kernel) / slow for wall, kernel, slow
                      in zip(walls, reference.kernel_s, reference.slowdowns)]
        values["iteration_s"] = (statistics.median(normalised), len(walls))
        label, value = tail(normalised)
        diagnostics["iteration_tail_s"] = {"percentile": label, "value": value}
        diagnostics["iteration_wall_median_s"] = statistics.median(walls)
        diagnostics["machine_slowdown"] = statistics.median(reference.slowdowns)
        diagnostics["ops_per_wall_s"] = workload.ops_per_iteration * len(walls) / sum(walls)
        diagnostics["iteration_walls_s"] = walls
        diagnostics["iteration_kernel_s"] = reference.kernel_s
        diagnostics["iteration_slowdowns"] = reference.slowdowns
    precisions = [c.precision_bits for c in workload.checks if c.precision_bits is not None]
    if precisions:
        # Where every iteration adds a check, only the iterations every run
        # makes count: the value then depends on the seed and the arithmetic
        # alone, not on how many iterations the window held.
        fixed = (precisions[:WARMUP_ITERATIONS + MIN_TIMED_ITERATIONS]
                 if workload.checks_every_iteration else precisions)
        values["precision_bits"] = (statistics.median(fixed), len(fixed))
        diagnostics["precision_min_bits"] = min(precisions)
    values["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1)
    return values, diagnostics


def measure_layers(workload, layers, seconds: float, smoke: bool):
    """The traced run: one instrumented pass after the other."""
    budget = seconds / TRACE_PASSES
    plain_spans = layers.NullSpans()
    plain = layers.run_iterations(workload, plain_spans, budget)
    recorder = layers.SpanRecorder()
    server = workload.server
    drains_before = len(server.metrics.batch_sizes) if server else 0
    traced = layers.run_iterations(workload, recorder, budget)
    drained = server.metrics.batch_sizes[drains_before:] if server else []
    plain_s = layers.median(plain)

    values = layers.span_metrics(recorder)
    values.update(layers.module_pass(workload, plain_spans, budget))
    values.update(layers.dispatcher_pass(workload, plain_spans, budget, plain_s))
    values.update(layers.evaluator_pass(workload, budget))
    kernel_repeats, direct_repeats = (
        (2, 1) if smoke else (layers.KERNEL_REPEATS, layers.MIN_DIRECT_REPEATS))
    values.update(layers.kernel_pass(workload, kernel_repeats))
    values.update(layers.direct_pass(workload, budget, direct_repeats))
    workload.verify()

    label, value = tail(plain)
    values["request.latency_tail_s"] = (value, len(plain))
    values["trace.overhead_ratio"] = (layers.median(traced) / plain_s, len(traced))
    values["serve.mean_batch_size"] = (
        sum(drained) / len(drained) if drained else 0.0, len(drained))
    values["serve.drains"] = (len(drained) / max(1, len(traced)), len(traced))
    values["serialization.request_bytes"] = (workload.request_bytes, 1)
    values["serialization.response_bytes"] = (workload.response_bytes, 1)
    values["bootstrap.levels_left"] = (workload.levels_left, 1)
    values["keys.rotation_keys"] = (len(workload.session.keys.rotation_keys), 1)
    for phase, seconds_spent in workload.setup_phases.items():
        values[phase] = (seconds_spent, 1)
    if not smoke:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        (out_dir / f"trace_{workload.name}.json").write_text(json.dumps(recorder.spans))
    return values, {"latency_tail_percentile": label}


def run_workload(name: str, *, seed: int = 0, seconds: float = 10.0,
                 trace: bool = False, smoke: bool = False,
                 setup_samples: int = SETUP_SAMPLES,
                 started: tuple[float, float] | None = None) -> dict:
    """Set up, warm up, measure and verify one workload in this process.

    Returns ``{"workload", "seed", "trace", "correct", "attempted", "failed",
    "metrics": {name: {"value", "unit", "n"}}, "diagnostics": {...}}``.
    """
    started = stamp() if started is None else started
    if trace:
        workload, layers, _, slow = prepare(name, seed, smoke, started)
        values, diagnostics = measure_layers(workload, layers, seconds, smoke)
        # Per-layer times are raw walls; this says how slow the box was.
        values["trace.machine_slowdown"] = (slow, 15)
    else:
        # The other cold set-ups come first, while this process is still
        # small, so that no two copies of a workload are resident at once.
        head = outside_kernel(started, stamp())
        setups = cold_setups(name, seed, smoke, setup_samples - 1)
        workload, layers, own, slow = prepare(name, seed, smoke, stamp())
        setups.append((head + own, slow))
        values, diagnostics = measure_end_to_end(workload, layers, seconds)
        values["setup_s"] = (
            statistics.median(spent / slow for spent, slow in setups), len(setups))
        diagnostics["setup_outside_kernel_s"] = [spent for spent, _ in setups]
        diagnostics["setup_slowdowns"] = [slow for _, slow in setups]

    bad = [c for c in workload.checks if not c.ok]
    for check in bad:
        print(f"FAILED {name} {check.label}: {check.detail}", file=sys.stderr)
    failed = sum(c.operations for c in bad) + workload.raised * workload.ops_per_iteration
    attempted = (workload.completed + workload.raised) * workload.ops_per_iteration

    units = declared_units(trace)
    if set(values) != set(units):
        raise RuntimeError(
            f"emitted metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(units) - set(values))}, "
            f"undeclared {sorted(set(values) - set(units))}"
        )
    return {
        "workload": name, "seed": seed, "trace": int(trace),
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {
            metric: {"value": float(value), "unit": units[metric], "n": n}
            for metric, (value, n) in values.items()
        },
        "diagnostics": diagnostics,
    }


def report(result: dict, out: str | None) -> None:
    """Print the metric table and the driver's JSON line; append to ``out``."""
    name = result["workload"]
    for metric, entry in result["metrics"].items():
        print(f"{metric} {name} {entry['value']:.9g} {entry['unit']} {entry['n']}")
    for key, value in result["diagnostics"].items():
        print(f"# {key} {name} {json.dumps(value)}")
    print(f"# failed_share {name} {result['failed']}/{result['attempted']}")
    if out:
        with open(out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(result) + "\n")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {metric: {"value": entry["value"], "unit": entry["unit"]}
                    for metric, entry in result["metrics"].items()},
    }))


def pin_to_one_core() -> None:
    """One thread on one core: the serve layer is a synchronous in-process
    library, so there is no concurrency to measure and migration only adds
    noise.  Must run before NumPy is imported; child processes inherit it."""
    for variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[variable] = "1"
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass  # not Linux, or not permitted in this sandbox: run unpinned


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run this workload in this process (default: all, "
                             "one subprocess each)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed of the generated inputs (keys and model are fixed)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measurement window (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from instrumented passes")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny rings, for the metric-name smoke test")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, warm up, print the seconds that took and the "
                             "machine's slowdown, and exit (how a run samples "
                             "setup_s in fresh processes)")
    parser.add_argument("--out", help="append each run's result to this JSON-lines file")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"{ROOT / 'src' / 'repro'} not found: the benchmark measures the "
              f"repro package of its own checkout", file=sys.stderr)
        return 2

    if args.workload is None:
        forwarded = sys.argv[1:] if argv is None else list(argv)
        status = 0
        for name in WORKLOAD_NAMES:
            status |= subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", name, *forwarded]
            ).returncode
        return 1 if status else 0

    pin_to_one_core()
    if args.setup_only:
        _, _, seconds, slow = prepare(args.workload, args.seed, args.smoke, _STARTED)
        print(seconds, slow)
        return 0
    seconds = args.seconds
    if seconds is None:
        seconds = declaration()["run_seconds"]
    result = run_workload(args.workload, seed=args.seed, seconds=seconds,
                          trace=bool(args.trace), smoke=args.smoke, started=_STARTED)
    report(result, args.out)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
