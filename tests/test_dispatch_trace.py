"""Tests of the execution plane: dispatcher, kernel traces, trace pricing.

Covers the tentpole acceptance criteria:

* a recorded N=2^13 HMult+rescale trace reconciles with
  ``CKKSOperationCosts.hmult(include_rescale=True)`` kernel counts and
  bytes within 5%;
* the dependency-aware scheduler reproduces the §III-F.1 trend on the
  recorded trace: multi-stream makespan <= single-stream makespan, with
  the gap growing as ``launch_overhead_us`` grows;

plus the satellite edge cases: empty traces, trace determinism, and
tracing leaving ciphertext outputs bit-identical.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.api import CKKSSession, CipherVector, TracingBackend
from repro.ckks.params import CKKSParameters
from repro.core.dispatch import KernelTrace, get_dispatcher
from repro.gpu.kernel import Kernel
from repro.gpu.platforms import GPU_RTX_4090
from repro.gpu.stream import StreamScheduler
from repro.obs.rollup import ScopeRollup, rollup_trace
from repro.perf.calibration import kernel_kind, reconcile_trace
from repro.perf.costmodel import CKKSOperationCosts
from repro.perf.trace_model import TraceCostModel


#: A reduced paper-class 59-bit set: every modulus in the double-word range.
DWORD_PARAMS = CKKSParameters(
    ring_degree=1 << 11, mult_depth=3, scale_bits=59, dnum=2,
    first_mod_bits=60, secret_hamming_weight=16, label="trace-dword-11-3",
)


@pytest.fixture(scope="module")
def traced_session():
    """A small session dedicated to tracing tests (own context, toy-sized)."""
    params = CKKSParameters(
        ring_degree=1 << 12, mult_depth=6, scale_bits=28, dnum=3,
        first_mod_bits=30, label="trace-12-6",
    )
    return CKKSSession.create(
        params, rotations=[1, 2, 3], conjugation=True, seed=7,
        register_default=False,
    )


@pytest.fixture(scope="module")
def reconcile_sessions(traced_session):
    """One session per machine-word arithmetic, keyed by ``numeric_backend``."""
    sessions = {
        "uint64": traced_session,
        "dword": CKKSSession.create(
            DWORD_PARAMS, rotations=[1, 2, 3], conjugation=True, seed=3,
            register_default=False,
        ),
    }
    for backend, session in sessions.items():
        assert session.numeric_backend == backend
    return sessions


def record_hmult(session):
    """Record one HMult+rescale on fresh ciphertexts of ``session``."""
    rng = np.random.default_rng(1)
    ct_a = session.encrypt(rng.uniform(-1, 1, 16))
    ct_b = session.encrypt(rng.uniform(-1, 1, 16))
    with session.trace() as trace:
        ct_a * ct_b
    return trace


@pytest.fixture(scope="module")
def hmult_trace(traced_session):
    """One recorded HMult+rescale trace at the module session."""
    return record_hmult(traced_session)


class TestRecording:
    def test_nothing_recorded_without_trace(self, traced_session):
        dispatcher = get_dispatcher()
        assert not dispatcher.recording
        ct = traced_session.encrypt([0.5])
        ct + ct  # executes without an active trace
        assert not dispatcher.recording

    def test_trace_has_real_shapes_and_scopes(self, hmult_trace):
        assert len(hmult_trace) > 0
        scopes = set(hmult_trace.scopes())
        assert "hmult" in scopes
        assert "hmult/modup" in scopes
        assert "hmult/keyswitch/moddown" in scopes
        assert "hmult/rescale" in scopes
        names = [event.kernel.name for event in hmult_trace]
        assert "tensor[7]" in names         # 7 limbs at the top level
        assert any(name.startswith("baseconv[") for name in names)

    def test_dependencies_reference_earlier_events(self, hmult_trace):
        for event in hmult_trace:
            assert all(0 <= dep < event.index for dep in event.deps)
        # The relinearisation add depends (transitively) on earlier work.
        relin = next(e for e in hmult_trace if e.kernel.name.startswith("relin-add"))
        assert relin.deps

    def test_trace_determinism(self, traced_session):
        rng = np.random.default_rng(5)
        values_a = rng.uniform(-1, 1, 16)
        values_b = rng.uniform(-1, 1, 16)

        def record():
            ct_a = traced_session.encrypt(values_a)
            ct_b = traced_session.encrypt(values_b)
            with traced_session.trace() as trace:
                (ct_a * ct_b) + ct_a.at_level(5)
            return trace

        first, second = record(), record()
        assert [e.kernel.name for e in first] == [e.kernel.name for e in second]
        assert [e.scope for e in first] == [e.scope for e in second]
        assert first.dependencies() == second.dependencies()
        assert first.kernel_count == second.kernel_count
        assert first.bytes_moved == second.bytes_moved

    def test_tracing_leaves_outputs_bit_identical(self, traced_session):
        rng = np.random.default_rng(9)
        ct_a = traced_session.encrypt(rng.uniform(-1, 1, 16))
        ct_b = traced_session.encrypt(rng.uniform(-1, 1, 16))
        plain = (ct_a * ct_b).handle
        with traced_session.trace():
            traced = (ct_a * ct_b).handle
        np.testing.assert_array_equal(
            np.asarray(plain.c0.data), np.asarray(traced.c0.data)
        )
        np.testing.assert_array_equal(
            np.asarray(plain.c1.data), np.asarray(traced.c1.data)
        )
        assert plain.scale == traced.scale

    def test_nested_scopes_and_suppression(self):
        dispatcher = get_dispatcher()
        with dispatcher.record() as trace:
            with dispatcher.scope("outer"), dispatcher.scope("inner"):
                dispatcher.elementwise(
                    "probe",
                    reads=(np.zeros((2, 4), dtype=np.uint64),),
                    writes=(np.zeros((2, 4), dtype=np.uint64),),
                    ops_per_element=1.0,
                )
            with dispatcher.suppressed():
                dispatcher.elementwise(
                    "hidden",
                    reads=(np.zeros((2, 4), dtype=np.uint64),),
                    writes=(np.zeros((2, 4), dtype=np.uint64),),
                    ops_per_element=1.0,
                )
        assert [e.kernel.name for e in trace.events] == ["probe[2]"]
        assert trace.events[0].scope == "outer/inner"

    def test_launch_groups_leaf_kernels_into_one_event(self):
        dispatcher = get_dispatcher()
        a, b, c = (np.full((2, 4), v, dtype=np.uint64) for v in (1, 2, 3))
        s, t = np.empty_like(a), np.empty_like(a)

        def add(reads, writes):
            np.add(reads[0], reads[1], out=writes[0])

        def emit(x, y, out):
            np.add(x, y, out=out)
            dispatcher.elementwise("leaf", reads=(x, y), writes=(out,),
                                   ops_per_element=2.0, replay=add)

        with dispatcher.record(executable=True) as trace:
            with dispatcher.scope("site"), dispatcher.launch("pair"):
                emit(a, b, s)            # s = a + b
                with dispatcher.launch("inner"):   # joins the outer group
                    emit(s, a, t)        # t = s + a: s is produced in the group
            with dispatcher.launch("empty"):
                pass
            with dispatcher.suppressed(), dispatcher.launch("hidden"):
                emit(a, b, s)
        (event,) = trace.events
        assert (event.kernel.name, event.scope, event.kind) == \
            ("pair[2]", "site", "elementwise")
        assert event.kernel.int_ops == 2 * 2.0 * a.size
        # Reads: a and b once each (a is read twice, s is internal); writes: s, t.
        assert event.kernel.bytes_read == (a.nbytes + b.nbytes)
        assert event.kernel.bytes_written == (s.nbytes + t.nbytes)
        assert len(event.read_views) == 2 and len(event.write_views) == 2
        # The merged replay is the members' replays in order.
        out_s, out_t = np.zeros_like(a), np.zeros_like(a)
        event.replay((a, b), (out_s, out_t))
        np.testing.assert_array_equal(out_s, a + b)
        np.testing.assert_array_equal(out_t, a + b + a)

    def test_launch_covers_the_rows_written_per_allocation(self):
        # Row windows of one accumulator add up to one grid (the key inner
        # product below the top level); separate outputs share it.
        dispatcher = get_dispatcher()
        x = np.ones((5, 4), dtype=np.uint64)
        acc, other = np.empty_like(x), np.empty_like(x)
        with dispatcher.record() as trace, dispatcher.launch("windows"):
            for rows in (slice(0, 3), slice(3, 5)):
                dispatcher.elementwise("leaf", reads=(x[rows],), writes=(acc[rows],),
                                       ops_per_element=1.0)
            dispatcher.elementwise("leaf", reads=(x,), writes=(other,),
                                   ops_per_element=1.0)
        (event,) = trace.events
        assert event.kernel.name == "windows[5]"
        assert event.kernel.bytes_written == 2 * x.nbytes
        assert event.kernel.int_ops == 2 * x.size

    @pytest.mark.parametrize("emit", ["transform", "base_conversion", "gather"])
    def test_launch_refuses_kernels_that_are_their_own_launch(self, emit):
        dispatcher = get_dispatcher()
        a = np.zeros((2, 4), dtype=np.uint64)
        with dispatcher.record() as trace:
            with pytest.raises(RuntimeError, match="inside a launch group"):
                with dispatcher.launch("site"):
                    if emit == "transform":
                        dispatcher.transform("ntt", 2, reads=(a,), writes=(a,))
                    elif emit == "base_conversion":
                        dispatcher.base_conversion("baseconv", 2, 2, reads=(a,),
                                                   writes=(a,))
                    else:
                        dispatcher.elementwise("automorph", reads=(a,), writes=(a,),
                                               ops_per_element=2.0, kind="gather")
            # The failed group records nothing and leaves no group open.
            dispatcher.elementwise("after", reads=(a,), writes=(a,),
                                   ops_per_element=1.0)
        assert [e.kernel.name for e in trace.events] == ["after[2]"]

    def test_launch_is_the_null_context_when_nothing_records(self):
        dispatcher = get_dispatcher()
        assert dispatcher.launch("site") is dispatcher.scope("op")

    def test_hmult_record_equals_the_parents(self, hmult_trace):
        # The four composite kernels are launch groups now; what they record
        # is what the hand-written emitters recorded at ba71412.
        assert hmult_trace.kernel_count == 20
        assert hmult_trace.bytes_moved == 16613376.0
        assert hmult_trace.int_ops == 19574784.0
        names = [e.kernel.name for e in hmult_trace]
        assert names[0] == "tensor[7]" and "ks-inner-product[10]" in names
        assert "relin-add[7]" in names

    def test_tracing_backend_accumulates_across_operations(self, traced_session):
        backend = TracingBackend(traced_session.backend)
        ct = backend.encrypt([0.25, -0.5])
        result = backend.multiply(ct, ct)
        backend.rescale_count = None  # attribute access does not break tracing
        assert backend.trace.kernel_count > 0
        leafs = backend.trace.leaf_segments()
        assert "rescale" in leafs
        assert backend.describe()["backend"] == "tracing"
        assert result.limb_count == ct.limb_count - 1


#: The operation surface, written once against ``CipherVector`` so the same
#: program runs on the recorded data plane and on the symbolic emitter.
OP_SURFACE = {
    "hadd": lambda x, y: x + y,
    "ptadd": lambda x, y: x + np.full(8, 0.5),
    "scalaradd": lambda x, y: x + 1.0,
    "ptmult+rescale": lambda x, y: x * np.full(8, 0.5),
    "scalarmult+rescale": lambda x, y: x * 2.0,
    "hsquare": lambda x, y: x ** 2,
    "hmult": lambda x, y: x * y,
    "hrotate": lambda x, y: x << 1,
    "hconjugate": lambda x, y: x.conj(),
    "hoisted-x3": lambda x, y: x.rotate_many([1, 2, 3]),
    "at_level": lambda x, y: x.at_level(x.level - 2),
    # One launch for both components; the two no-ops launch nothing.
    "negate": lambda x, y: -x,
    "rotate0": lambda x, y: x << 0,
    "at_level-same": lambda x, y: x.at_level(x.level),
}

#: Operations whose recorded kernel stream is known to differ from the
#: closed form, with the delta measured on ``traced_session`` (N=2^12, 7
#: limbs, dnum=3, B=1; recorded vs closed form) and the ROADMAP item that
#: owns closing it.  The rows are strict xfails: the PR that closes one
#: must delete its entry, and an operation that is not listed here may not
#: drift past the 5% bound.
#: Both remaining rows have one root cause: ``CKKSOperationCosts.scalar_mult``
#: charges a ``scalar-encode`` pass (one poly read, one written) that the
#: data plane does not launch -- its constant is one word per limb.
KNOWN_DRIFT = {
    "scalarmult+rescale": "5 kernels vs 6, -458,640 B (the closed form's "
                          "scalar-encode pass) -- ROADMAP 4(e)",
    "at_level": "5 kernels vs 6, -393,120 B (the closed form's scalar-encode "
                "pass; at B=8 7 vs 6, a fused mod-reduce gathers each "
                "component) -- ROADMAP 4(e)",
}

#: Launches of the rows whose point is their count, on both producers.
EXACT_KERNELS = {"negate": 1, "rotate0": 0, "at_level-same": 0}


class TestReconciliation:
    @pytest.mark.parametrize("backend", ["uint64", "dword"])
    def test_hmult_trace_matches_cost_model(self, backend, reconcile_sessions):
        # dword: a 59-bit residue is one 64-bit word like a 28-bit one, so
        # the trace must match the model as built (1x bytes, 1x launches).
        session = reconcile_sessions[backend]
        costs = CKKSOperationCosts(session.params, limb_batch=None, fusion=True)
        report = reconcile_trace(
            record_hmult(session),
            costs.hmult(session.max_level + 1, include_rescale=True),
        )
        assert report.within(kernel_tolerance=0.05, bytes_tolerance=0.05), \
            report.describe()

    @pytest.mark.parametrize("backend", ["uint64", "dword"])
    @pytest.mark.parametrize("members", [1, 8], ids=["B1", "B8"])
    @pytest.mark.parametrize("op", [
        pytest.param(op, marks=[pytest.mark.xfail(
            strict=True, reason=KNOWN_DRIFT[op],
        )] if op in KNOWN_DRIFT else [])
        for op in OP_SURFACE
    ])
    def test_every_operation_against_the_closed_form(
            self, op, members, backend, reconcile_sessions):
        """Recorded data plane vs ``CKKSOperationCosts(limb_batch=None, fusion=True)``.

        The closed form is taken from the symbolic twin
        (``session.cost_backend()``), which emits exactly those kernels --
        ``B x`` bytes at ``1 x`` launches for a fused handle -- so this is
        also the regression test of the emitter.
        """
        session = reconcile_sessions[backend]
        rows = [np.linspace(-1.0, 1.0, 8)] * members
        traces = []
        for producer in (session.backend, session.cost_backend()):
            x, y = (
                CipherVector(producer, producer.encrypt_batch(rows)
                             if members > 1 else producer.encrypt(rows[0]))
                for _ in range(2)
            )
            with session.trace() as trace:
                OP_SURFACE[op](x, y)
            traces.append(trace)
        recorded, closed_form = traces
        report = reconcile_trace(
            recorded, closed_form.kernels(), name=f"{op} B={members} {backend}"
        )
        assert report.within(kernel_tolerance=0.05, bytes_tolerance=0.05), \
            report.describe()
        # No operation launches outside an operation scope, and none copies
        # an operand: operands are immutable, so they are shared or windowed.
        assert "" not in recorded.scopes() + closed_form.scopes()
        if op in EXACT_KERNELS:
            assert recorded.kernel_count == closed_form.kernel_count == EXACT_KERNELS[op]
        if members == 1:
            assert not [e for e in recorded if e.kernel.name.startswith("limb-copy")]

    def test_acceptance_n13_hmult_rescale_within_5_percent(self):
        # Acceptance criterion: N=2^13 HMult+rescale kernel counts within 5%.
        params = CKKSParameters(
            ring_degree=1 << 13, mult_depth=5, scale_bits=28, dnum=3,
            first_mod_bits=30, label="trace-13-5",
        )
        session = CKKSSession.create(params, seed=11, register_default=False)
        rng = np.random.default_rng(2)
        ct_a = session.encrypt(rng.uniform(-1, 1, 32))
        ct_b = session.encrypt(rng.uniform(-1, 1, 32))
        with session.trace() as trace:
            ct_a * ct_b
        costs = CKKSOperationCosts(params, limb_batch=None, fusion=True)
        cost = costs.hmult(ct_a.limb_count, include_rescale=True)
        report = reconcile_trace(trace, cost, name="HMult+rescale @ N=2^13")
        assert report.kernel_count_delta <= 0.05, report.describe()
        assert report.bytes_delta <= 0.05, report.describe()
        # The rescale segment alone matches the standalone Rescale cost.
        rescale_events = [
            e.kernel for e in trace if e.scope.endswith("rescale")
        ]
        rescale_report = reconcile_trace(
            rescale_events, costs.rescale(ct_a.limb_count)
        )
        assert rescale_report.within()

    def test_keyswitch_segments_reconcile(self, traced_session, hmult_trace):
        # ModUp + inner product + ModDown of the trace against the
        # hand-built key-switch decomposition (minus its fused input iNTT,
        # which the trace records under modup).
        limbs = traced_session.max_level + 1
        costs = CKKSOperationCosts(traced_session.params, limb_batch=None, fusion=True)
        ks_events = [
            event.kernel
            for event in hmult_trace
            if "modup" in event.scope or "keyswitch" in event.scope
        ]
        report = reconcile_trace(ks_events, costs.key_switch(limbs))
        assert report.within()

    def test_kernel_kind_classification(self):
        assert kernel_kind("rescale-intt[1]") == "intt"
        assert kernel_kind("modup-ntt[9]") == "ntt"
        assert kernel_kind("modup[2->9]") == "baseconv"
        assert kernel_kind("baseconv[3->7]") == "baseconv"
        assert kernel_kind("hoist-automorph[20]") == "automorphism"
        assert kernel_kind("limb-copy[7]") == "copy"
        assert kernel_kind("ks-inner-product[10]") == "elementwise"

    def test_reconciliation_detects_divergence(self, traced_session, hmult_trace):
        limbs = traced_session.max_level + 1
        costs = CKKSOperationCosts(traced_session.params, limb_batch=None, fusion=True)
        wrong = costs.hmult(limbs, include_rescale=False)  # missing rescale
        report = reconcile_trace(hmult_trace, wrong)
        assert not report.within()
        assert "delta" in report.describe()


class TestTracePricing:
    def test_empty_trace_prices_to_zero(self):
        report = TraceCostModel(GPU_RTX_4090).price(KernelTrace())
        assert report.makespan == 0.0
        assert report.kernel_count == 0
        assert rollup_trace(KernelTrace(), TraceCostModel(GPU_RTX_4090)).rows == {}

    @pytest.mark.parametrize("deps", [(0,), (1,), (-1,)],
                             ids=["self", "forward", "negative"])
    def test_append_rejects_deps_on_later_events(self, deps):
        trace = KernelTrace()
        with pytest.raises(ValueError, match="earlier events"):
            trace.append(Kernel("k", 1e6, 1e6, 1e6), deps=deps)
        assert len(trace) == 0

    def test_appended_trace_prices_like_its_scheduled_kernels(self):
        # Descriptor-only kernels (OperationCost.as_trace) keep their
        # explicit edges, deduplicated and sorted, and price exactly as
        # the scheduler runs them.
        trace = KernelTrace()
        kernels = [Kernel(f"k{i}", 1e6 * (i + 1), 1e6, 1e6) for i in range(4)]
        trace.append(kernels[0], scope="a")
        trace.append(kernels[1], scope="a")
        trace.append(kernels[2], scope="b", deps=(1, 0, 1))
        trace.append(kernels[3], scope="b", deps=(2,))
        assert trace.dependencies() == [(), (), (0, 1), (2,)]
        pricer = TraceCostModel(GPU_RTX_4090, streams=2)
        report = pricer.price(trace)
        direct = StreamScheduler(GPU_RTX_4090, streams=2).schedule(
            pricer.cost_model.time_kernels(kernels),
            dependencies=trace.dependencies(),
        )
        assert report.schedule.timeline == direct.timeline
        assert report.makespan == direct.makespan

    def test_report_summary_reads_the_schedule(self, hmult_trace):
        report = TraceCostModel(GPU_RTX_4090).price(hmult_trace, streams=4)
        schedule = report.schedule
        assert report.summary() == {
            "platform": GPU_RTX_4090.name,
            "streams": 4,
            "makespan_s": schedule.makespan,
            "execution_s": schedule.execution_time,
            "launch_s": schedule.launch_time,
            "launch_hidden_s": schedule.launch_hidden,
            "kernel_count": schedule.kernel_count,
        }

    def test_segments_cover_all_kernels(self, hmult_trace):
        # The per-scope segments of a priced trace are ScopeRollup's rows.
        report = TraceCostModel(GPU_RTX_4090).price(hmult_trace)
        rollup = ScopeRollup()
        rollup.add_report(hmult_trace, report)
        assert sum(row.kernels for row in rollup.rows.values()) == \
            hmult_trace.kernel_count
        for name in ("modup", "moddown", "rescale"):
            assert rollup.rows[name].execution_s > 0
        summary = report.summary()
        assert summary["kernel_count"] == hmult_trace.kernel_count
        assert summary["makespan_s"] == pytest.approx(report.makespan)

    def test_multi_stream_not_slower_and_gap_grows_with_overhead(self, hmult_trace):
        # §III-F.1: multi-stream makespan <= single-stream makespan, with
        # the gap growing as launch_overhead_us grows.
        gaps = []
        for overhead in (0.5, 1.0, 3.0, 10.0, 30.0):
            platform = dataclasses.replace(
                GPU_RTX_4090, launch_overhead_us=overhead
            )
            pricer = TraceCostModel(platform)
            single = pricer.price(hmult_trace, streams=1).makespan
            multi = pricer.price(hmult_trace, streams=8).makespan
            assert multi <= single + 1e-15
            gaps.append(single - multi)
        assert all(b >= a - 1e-12 for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] > gaps[0]

    def test_dependencies_tighten_the_schedule(self, hmult_trace):
        # The recorded DAG binds: the chained HMult pipeline hides fewer
        # launches than the same kernels scheduled as independent work,
        # but its parallel branches (per-digit ModUp, the two ModDown /
        # rescale components) still beat a single stream.
        pricer = TraceCostModel(GPU_RTX_4090)
        timings = pricer.cost_model.time_kernels(hmult_trace.kernels())
        scheduler = StreamScheduler(GPU_RTX_4090, streams=8)
        with_deps = scheduler.schedule(timings, dependencies=hmult_trace.dependencies())
        without = scheduler.schedule(timings)
        single = StreamScheduler(GPU_RTX_4090, streams=1).schedule(
            timings, dependencies=hmult_trace.dependencies()
        )
        assert without.makespan < with_deps.makespan
        assert with_deps.makespan < single.makespan
        assert with_deps.kernel_count == without.kernel_count

    def test_independent_operations_are_parallel_in_the_dag(self, traced_session):
        # Two HMults on unrelated ciphertexts must share no dependency
        # edges (the trace's byte-interval tracking keeps them disjoint).
        rng = np.random.default_rng(21)
        pairs = [
            (traced_session.encrypt(rng.uniform(-1, 1, 8)),
             traced_session.encrypt(rng.uniform(-1, 1, 8)))
            for _ in range(2)
        ]
        with traced_session.trace() as trace:
            pairs[0][0] * pairs[0][1]
            first_half = len(trace)
            pairs[1][0] * pairs[1][1]
        crossing = [
            event.index
            for event in trace
            if event.index >= first_half
            and any(dep < first_half for dep in event.deps)
        ]
        assert crossing == []

    def test_trace_does_not_pin_data_plane_arrays(self, traced_session):
        import gc

        rng = np.random.default_rng(23)
        with traced_session.trace() as trace:
            ct_a = traced_session.encrypt(rng.uniform(-1, 1, 8))
            ct_b = traced_session.encrypt(rng.uniform(-1, 1, 8))
            result = ct_a * ct_b
        populated = len(trace._buffers)
        assert populated > 0
        del ct_a, ct_b, result
        gc.collect()
        # Buffer-tracking state follows the arrays' lifetimes; the events
        # themselves (kernels, deps) survive unchanged.
        assert len(trace._buffers) < populated
        assert trace.kernel_count > 0
        assert trace.dependencies()
