"""Tests of the executable trace IR and the fusion pricing pass.

* ``TraceProgram`` replays a record as recorded, bit-identical to eager
  execution across all three numeric backends (uint64 / dword / object)
  and every operation of the surface;
* ``fuse_trace`` prices each legal chain as one kernel: it conserves
  ``int_ops`` and never increases ``bytes_moved`` (a fused chain is
  priced, not run);
* ``expand_stages`` derives the unfused baseline, which prices but does
  not replay;

plus the legality corner cases: multi-consumer intermediates,
overlapping-but-not-equal byte ranges, interleaved writers, the
buffer-identity generation tag, and the zero-work untraced hot path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import CKKSSession
from repro.ckks.params import CKKSParameters
from repro.core import modmath
from repro.core.dispatch import DISPATCH, Dispatcher, KernelTrace
from repro.core.fusion import TraceProgram, expand_stages, fuse_trace
from repro.core.ntt import Fused, get_stacked_engine
from repro.gpu.platforms import GPU_RTX_4090
from repro.perf.trace_model import TraceCostModel

from test_dispatch_trace import OP_SURFACE


@pytest.fixture(scope="module")
def fusion_session():
    """A small session for executable-trace tests (own context)."""
    params = CKKSParameters(
        ring_degree=1 << 12, mult_depth=4, scale_bits=28, dnum=2,
        first_mod_bits=30, label="fusion-12-4",
    )
    return CKKSSession.create(
        params, rotations=[1], seed=7, register_default=False
    )


def _add_const(value):
    def replay(reads, writes, _v=np.uint64(value)):
        np.add(reads[0], _v, out=writes[0])
    return replay


def _mul_const(value):
    def replay(reads, writes, _v=np.uint64(value)):
        np.multiply(reads[0], _v, out=writes[0])
    return replay


def _emit(dispatcher, tag, src, out, replay, *, ops=1.0):
    """Eagerly run ``replay`` and record it as one elementwise kernel."""
    replay((src,), (out,))
    dispatcher.elementwise(
        tag, reads=(src,), writes=(out,), ops_per_element=ops, replay=replay
    )


class TestFusionLegality:
    def test_simple_chain_fuses_and_verifies(self):
        d = DISPATCH
        a = np.arange(32, dtype=np.uint64).reshape(4, 8)
        t = np.empty_like(a)
        out = np.empty_like(a)
        with d.record(executable=True) as trace:
            _emit(d, "step1", a, t, _add_const(1))
            _emit(d, "step2", t, out, _mul_const(3))
        result = fuse_trace(trace)
        assert [c.members for c in result.chains] == [(0, 1)]
        assert result.events_after == 1
        fused = result.fused_trace.events[0].kernel
        assert fused.launches == 1.0
        assert fused.name == "fused(step1[4]+step2[4])"
        # Arithmetic is conserved; the intermediate's traffic is not.
        assert result.fused_trace.int_ops == trace.int_ops
        assert result.fused_trace.bytes_moved < trace.bytes_moved
        prog = TraceProgram(trace)
        prog.verify()
        assert np.array_equal(prog.output(out), (a + 1) * 3)

    def test_multi_consumer_intermediate_blocks_fusion(self):
        d = DISPATCH
        a = np.arange(32, dtype=np.uint64).reshape(4, 8)
        t, out1, out2 = (np.empty_like(a) for _ in range(3))
        with d.record(executable=True) as trace:
            _emit(d, "produce", a, t, _add_const(1))
            _emit(d, "consume1", t, out1, _mul_const(2))
            _emit(d, "consume2", t, out2, _mul_const(5))
        result = fuse_trace(trace)
        assert result.chains == []
        TraceProgram(trace).verify()

    def test_overlapping_but_not_equal_ranges_block_fusion(self):
        d = DISPATCH
        a = np.arange(32, dtype=np.uint64).reshape(4, 8)
        t = np.empty_like(a)
        out = np.empty((2, 8), dtype=np.uint64)
        with d.record(executable=True) as trace:
            _emit(d, "produce", a, t, _add_const(1))
            # The consumer reads only half the produced interval.
            _emit(d, "partial", t[:2], out, _mul_const(2))
        assert fuse_trace(trace).chains == []

    def test_interleaved_writer_blocks_fusion(self):
        d = DISPATCH
        a = np.arange(32, dtype=np.uint64).reshape(4, 8)
        t = np.empty_like(a)
        out = np.empty_like(a)
        with d.record(executable=True) as trace:
            _emit(d, "produce", a, t, _add_const(1))
            _emit(d, "clobber", a, t, _add_const(9))  # rewrites the interval
            _emit(d, "consume", t, out, _mul_const(2))
        result = fuse_trace(trace)
        # produce->consume is illegal (clobber interleaves); the
        # clobber->consume edge itself is a legal adjacent chain.
        assert [c.members for c in result.chains] == [(1, 2)]
        TraceProgram(trace).verify()

    def test_operand_clobber_vetoes_chain_extension(self):
        d = DISPATCH
        a = np.arange(32, dtype=np.uint64).reshape(4, 8)
        t = np.empty_like(a)
        out = np.empty_like(a)
        with d.record(executable=True) as trace:
            _emit(d, "produce", a, t, _add_const(1))
            # Writes the producer's READ operand between producer and
            # consumer: moving the producer to the tail would read the
            # new value, so the chain must not form.
            _emit(d, "retarget", t, a, _mul_const(1))
            _emit(d, "consume", t, out, _mul_const(2))
        result = fuse_trace(trace)
        assert (0, 2) not in [c.members for c in result.chains]
        TraceProgram(trace).verify()

    def test_in_place_tail_fuses_with_live_output(self):
        d = DISPATCH
        a = np.arange(32, dtype=np.uint64).reshape(4, 8)
        t = np.empty_like(a)
        out = np.empty_like(a)

        def inplace_scale(reads, writes):
            np.multiply(reads[0], np.uint64(7), out=writes[0])

        with d.record(executable=True) as trace:
            _emit(d, "produce", a, t, _add_const(1))
            # The consumer rewrites the identical interval in place (the
            # rescale/ModDown tail shape) ...
            inplace_scale((t,), (t,))
            d.elementwise("scale", reads=(t,), writes=(t,),
                          ops_per_element=1.0, replay=inplace_scale)
            # ... and a later reader sees the chain output.
            _emit(d, "after", t, out, _add_const(0))
        result = fuse_trace(trace)
        assert result.chains and result.chains[0].members[:2] == (0, 1)
        prog = TraceProgram(trace)
        prog.verify()
        assert np.array_equal(prog.output(out), (a + 1) * 7)

    def test_two_write_producer_fuses_only_into_one_common_consumer(self):
        # A one-launch site writes both components.  It heads a chain when
        # one consumer takes both writes, and not when they part ways.
        d = Dispatcher()
        a = np.arange(8, dtype=np.uint64).reshape(2, 4)
        s0, s1, out0, out1 = (np.empty_like(a) for _ in range(4))

        def both(reads, writes):
            np.add(reads[0], np.uint64(1), out=writes[0])
            np.add(reads[0], np.uint64(2), out=writes[1])

        def join(reads, writes):
            np.add(reads[0], reads[1], out=writes[0])

        def record(consumers):
            with d.record(executable=True) as trace:
                both((a,), (s0, s1))
                d.elementwise("both", reads=(a,), writes=(s0, s1),
                              ops_per_element=2.0, replay=both)
                for reads, out in consumers:
                    join(reads, (out,))
                    d.elementwise("join", reads=reads, writes=(out,),
                                  ops_per_element=1.0, replay=join)
            return trace

        together = fuse_trace(record([((s0, s1), out0)]))
        assert [c.members for c in together.chains] == [(0, 1)]
        assert together.saved_bytes == 2 * (s0.nbytes + s1.nbytes)
        TraceProgram(together.trace).verify()
        apart = fuse_trace(record([((s0, s0), out0), ((s1, s1), out1)]))
        assert apart.chains == []
        TraceProgram(apart.trace).verify()

    def test_fusion_requires_executable_trace(self):
        with pytest.raises(ValueError, match="executable"):
            fuse_trace(KernelTrace())


class TestExecutableFlag:
    """Only ``KernelTrace`` knows whether a trace is executable."""

    def test_record_refuses_executable_on_a_plain_trace(self, fusion_session):
        # Regression: this used to record a plain trace that TraceProgram
        # then refused.
        plain = KernelTrace()
        with pytest.raises(ValueError, match="plain trace"):
            with DISPATCH.record(plain, executable=True):
                pass
        with pytest.raises(ValueError, match="plain trace"):
            with fusion_session.trace(plain, executable=True):
                pass
        with pytest.raises(ValueError, match="executable"):
            TraceProgram(plain)

    def test_appending_to_an_executable_trace_needs_no_flag(self, fusion_session):
        # How a trace accumulates: record(trace) with the default flag.
        ct = fusion_session.encrypt([0.5, 0.25])
        with fusion_session.trace(executable=True) as trace:
            doubled = ct + ct
        with fusion_session.trace(trace):
            doubled + ct
        assert all(event.replay is not None for event in trace)
        TraceProgram(trace).verify()

    def test_plain_trace_pins_no_closure_and_no_array(self, fusion_session):
        # Call sites always pass their thunk; a plain trace drops it (and
        # captures no views), so costing-only recording pins nothing.
        rng = np.random.default_rng(5)
        ct_a = fusion_session.encrypt(rng.uniform(-1, 1, 16))
        ct_b = fusion_session.encrypt(rng.uniform(-1, 1, 16))
        with fusion_session.trace() as trace:
            (ct_a * ct_b + 1.0).rotate(1)
        assert len(trace) > 10
        for event in trace:
            assert event.replay is None
            assert event.read_views == () and event.write_views == ()
        assert not trace._bases and not trace._seeds


class TestBufferIdentityGeneration:
    def test_stale_state_from_reused_id_is_discarded(self):
        # Python reuses addresses: a dict keyed on id() alone can hand a
        # new allocation the last-writer intervals of a freed one whose
        # finalize callback has not run yet.  The generation tag (weakref
        # to the exact allocation) must detect this and start fresh.
        d = DISPATCH
        with d.record() as trace:
            src = np.ones((2, 4), dtype=np.uint64)
            victim = np.zeros((2, 4), dtype=np.uint64)
            d.elementwise("writer", reads=(src,), writes=(victim,),
                          ops_per_element=1.0)
            stale = trace._buffers[id(victim)]
            assert stale.writes  # the victim carries a last-writer record
            # Simulate id reuse: plant the victim's state under a fresh
            # allocation's id, as if the finalize callback were delayed.
            fresh = np.zeros((2, 4), dtype=np.uint64)
            trace._buffers[id(fresh)] = stale
            out = np.zeros((2, 4), dtype=np.uint64)
            d.elementwise("reader", reads=(fresh,), writes=(out,),
                          ops_per_element=1.0)
        # Without the generation tag the reader would inherit a fabricated
        # dependency on the writer event.
        assert trace.events[-1].deps == ()

    def test_output_of_an_unseen_array_registers_nothing(self):
        # Regression: the failed lookup used to give the array a token, pin
        # it among the trace's allocations and attach a finalizer.
        d = DISPATCH
        a = np.arange(8, dtype=np.uint64).reshape(2, 4)
        out = np.empty_like(a)
        with d.record(executable=True) as trace:
            _emit(d, "step", a, out, _add_const(1))
        program = TraceProgram(trace)
        before = (trace._next_token, list(trace._bases), len(trace._buffers))
        with pytest.raises(KeyError, match="not observed"):
            program.output(np.zeros_like(a))
        assert (trace._next_token, list(trace._bases), len(trace._buffers)) == before
        program.run()
        assert np.array_equal(program.output(out), a + 1)

    def test_free_and_reallocate_between_kernels(self):
        d = DISPATCH
        src = np.ones((2, 4), dtype=np.uint64)
        with d.record() as trace:
            for _ in range(32):
                tmp = np.zeros((2, 4), dtype=np.uint64)
                out = np.empty_like(tmp)
                d.elementwise("probe", reads=(tmp,), writes=(out,),
                              ops_per_element=1.0)
                # A fresh allocation must never arrive with writers.
                assert trace.events[-1].deps == ()
                d.elementwise("dirty", reads=(src,), writes=(tmp,),
                              ops_per_element=1.0)
                del tmp, out  # freed before the next identical allocation


class TestUntracedHotPath:
    def test_untraced_execution_invokes_no_emitter(self, fusion_session,
                                                   monkeypatch):
        # Satellite micro-assert: with no trace active, the data plane
        # must not even *call* the dispatcher emitters (the recording
        # early-outs are hoisted to the call sites).
        def boom(self, *args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("emitter invoked on the untraced hot path")

        for name in ("elementwise", "transform", "base_conversion", "emit"):
            monkeypatch.setattr(Dispatcher, name, boom)
        rng = np.random.default_rng(3)
        ct_a = fusion_session.encrypt(rng.uniform(-1, 1, 16))
        ct_b = fusion_session.encrypt(rng.uniform(-1, 1, 16))
        (ct_a * ct_b).rescale()
        ct_a.rotate(1)
        batch = fusion_session.batch([ct_a, ct_b])
        batch * batch


class TestReplayAcrossBackends:
    """TraceProgram bit-identity on the uint64, dword and object planes."""

    @staticmethod
    def _record_hmult(scale_bits, first_mod_bits, *, then_rescale=False):
        from repro.ckks.context import Context
        from repro.ckks.encryption import Encryptor
        from repro.ckks.evaluator import Evaluator
        from repro.ckks.keys import KeyGenerator

        params = CKKSParameters(
            ring_degree=1 << 8, mult_depth=2, scale_bits=scale_bits,
            dnum=2, first_mod_bits=first_mod_bits, secret_hamming_weight=16,
            label=f"fusion-backend-{scale_bits}",
        )
        context = Context(params)
        keys = KeyGenerator(context, seed=101).generate([])
        evaluator = Evaluator(context, keys)
        encryptor = Encryptor(context, keys.public_key, seed=55)
        rng = np.random.default_rng(9)
        a = encryptor.encrypt_values(rng.uniform(-1, 1, 8))
        b = encryptor.encrypt_values(rng.uniform(-1, 1, 8))
        with DISPATCH.record(executable=True) as trace:
            product = evaluator.multiply(a, b)
            if then_rescale:
                evaluator.rescale(product)
        return context, trace

    def test_uint64_backend_replay(self):
        context, trace = self._record_hmult(28, 30)
        assert context.numeric_backend == modmath.BACKEND_UINT64
        TraceProgram(trace).verify()

    def test_dword_backend_replay(self):
        context, trace = self._record_hmult(59, 60)
        assert context.numeric_backend == modmath.BACKEND_DWORD
        TraceProgram(trace).verify()

    @pytest.mark.parametrize("mode", ["fused", "stage-granular"])
    def test_mixed_chain_replay(self, mode):
        # 60-bit q_0 over 28-bit scale primes: the rescale's dropped
        # 28-bit limb selects the single-word arithmetic.  (Every transform
        # of the HMult itself meets q_0 or P, so a rescale follows it.)
        context, trace = self._record_hmult(28, 60, then_rescale=True)
        assert context.numeric_backend == modmath.BACKEND_DWORD
        if mode == "fused":
            TraceProgram(trace).verify()
            return
        # Its unfused baseline: the single-word transforms expand into
        # stages, the dword ones stay whole, and fusion conserves the
        # arithmetic of the result.
        staged = expand_stages(trace)
        names = [e.kernel.name for e in staged]
        assert any("-stage" in n for n in names)
        assert any(n.startswith(("ntt[", "intt[")) for n in names)
        result = fuse_trace(staged)
        assert result.fused_trace.int_ops == pytest.approx(staged.int_ops)

    def test_object_backend_replay(self, object_backend):
        with object_backend():
            context, trace = self._record_hmult(59, 60)
            assert context.numeric_backend == modmath.BACKEND_OBJECT
            TraceProgram(trace).verify()


class TestOperationSurfaceReplays:
    """Every operation's record replays bit-identically as recorded.

    A site's record is its building blocks merged by ``Dispatcher.launch``;
    the merged replay is the only executable code that is not also the
    eager path, so every operation is replayed here on both word planes.
    """

    SURFACE = {
        **OP_SURFACE,
        "hsub": lambda x, y: x - y,
        "ptsub": lambda x, y: x - np.full(8, 0.5),
    }

    @pytest.fixture(scope="class")
    def sessions(self):
        shapes = {
            "uint64": dict(scale_bits=28, first_mod_bits=30),
            "dword": dict(scale_bits=59, first_mod_bits=60,
                          secret_hamming_weight=16),
        }
        sessions = {
            backend: CKKSSession.create(
                CKKSParameters(ring_degree=1 << 8, mult_depth=4, dnum=2,
                               label=f"surface-{backend}", **shape),
                rotations=[1, 2, 3], conjugation=True, seed=5,
                register_default=False,
            )
            for backend, shape in shapes.items()
        }
        for backend, session in sessions.items():
            assert session.numeric_backend == backend
        return sessions

    @pytest.mark.parametrize("backend", ["uint64", "dword"])
    @pytest.mark.parametrize("members", [1, 3], ids=["B1", "B3"])
    @pytest.mark.parametrize("op", sorted(SURFACE))
    def test_record_replays_and_fuses(self, op, members, backend, sessions):
        session = sessions[backend]
        rng = np.random.default_rng(29)

        def operand():
            rows = [rng.uniform(-1, 1, 8) for _ in range(members)]
            return session.encrypt_batch(rows) if members > 1 else \
                session.encrypt(rows[0])

        x, y = operand(), operand()
        with session.trace(executable=True) as trace:
            self.SURFACE[op](x, y)
        TraceProgram(trace).verify()


class TestFusedEndToEnd:
    def test_hmult_rescale_replay_and_fusion(self, fusion_session):
        rng = np.random.default_rng(11)
        ct_a = fusion_session.encrypt(rng.uniform(-1, 1, 16))
        ct_b = fusion_session.encrypt(rng.uniform(-1, 1, 16))
        with fusion_session.trace(executable=True) as trace:
            (ct_a * ct_b).rescale()
        prog = TraceProgram(trace)
        prog.verify()
        prog.run()  # idempotent: buffers re-seed, second run stays clean
        prog.verify()
        summary = fuse_trace(trace).summary()
        assert summary["int_ops_after"] == pytest.approx(
            summary["int_ops_before"]
        )
        assert summary["bytes_moved_after"] <= summary["bytes_moved_before"]

    def test_keyswitched_rotation_replay_and_fusion(self, fusion_session):
        rng = np.random.default_rng(13)
        ct = fusion_session.encrypt(rng.uniform(-1, 1, 16))
        with fusion_session.trace(executable=True) as trace:
            ct.rotate(1)
        TraceProgram(trace).verify()
        assert fuse_trace(trace).fused_trace.int_ops == pytest.approx(
            trace.int_ops
        )

    def test_batched_b8_drain_replay_and_fusion(self, fusion_session):
        rng = np.random.default_rng(17)
        cts = [
            fusion_session.encrypt(rng.uniform(-1, 1, 16)) for _ in range(8)
        ]
        batch = fusion_session.batch(cts)
        with fusion_session.trace(executable=True) as trace:
            batch * batch
        TraceProgram(trace).verify()
        assert fuse_trace(trace).fused_trace.int_ops == pytest.approx(
            trace.int_ops
        )

    def test_elementwise_workload_actually_fuses(self, fusion_session):
        rng = np.random.default_rng(19)
        ct_a = fusion_session.encrypt(rng.uniform(-1, 1, 16))
        ct_b = fusion_session.encrypt(rng.uniform(-1, 1, 16))
        ct_c = fusion_session.encrypt(rng.uniform(-1, 1, 16))
        with fusion_session.trace(executable=True) as trace:
            (ct_a * 1.5 + ct_b) - ct_c
        result = fuse_trace(trace)
        # Each operation is one launch over both components, so the one
        # legal chain is HAdd -> HSub: the sub is the only reader of both
        # sums.  (The scalar multiply feeds the rescale's partial reads.)
        limbs = ct_a.level  # one limb below the inputs after the rescale
        assert [c.kernels for c in result.chains] == [
            (f"hadd[{limbs}]", f"hsub[{limbs}]")
        ]
        assert result.events_after == result.events_before - 1
        assert result.saved_bytes == 2 * 2 * limbs * (1 << 12) * 8
        TraceProgram(trace).verify()
        # The fused trace prices and schedules like any recorded trace,
        # and fusion never slows the modeled stream down.
        pricer = TraceCostModel(GPU_RTX_4090)
        fused = pricer.price(result.fused_trace)
        unfused = pricer.price(trace)
        assert fused.kernel_count < unfused.kernel_count
        assert fused.makespan <= unfused.makespan * (1 + 1e-9)

    def test_trace_program_rejects_partial_ir(self):
        d = DISPATCH
        a = np.zeros((2, 4), dtype=np.uint64)
        out = np.empty_like(a)
        with d.record(executable=True) as trace:
            d.elementwise("no-replay", reads=(a,), writes=(out,),
                          ops_per_element=1.0)  # no replay thunk
        with pytest.raises(ValueError, match="non-replayable"):
            TraceProgram(trace)

    def test_verify_catches_an_undeclared_read(self):
        # verify() is the check that a record's declared byte ranges are
        # honest: a thunk reading an array its event never declared replays
        # against whatever that array holds later.
        d = DISPATCH
        a = np.arange(8, dtype=np.uint64).reshape(2, 4)
        hidden = np.ones_like(a)
        out = np.empty_like(a)

        def replay(reads, writes):
            np.add(reads[0], hidden, out=writes[0])

        with d.record(executable=True) as trace:
            _emit(d, "dishonest", a, out, replay)
        TraceProgram(trace).verify()
        hidden += 1
        with pytest.raises(AssertionError, match="diverges"):
            TraceProgram(trace).verify()


def _base_names(trace) -> list[str]:
    return [e.kernel.name.split("[")[0] for e in trace]


class TestExpandStages:
    """The unfused GPU baseline (§III-F.4/F.5), derived from the fused record.

    ``expand_stages`` turns every uint64 transform into its ``log2 N``
    butterfly-stage launches (plus the iNTT scale and the fused prologue/
    epilogue as launches of their own) and every multi-digit key-switch
    inner product into its per-pair launches; ``fuse_trace`` merges each
    run back into one kernel.
    """

    @staticmethod
    def _expand(session, program):
        with session.trace(executable=True) as trace:
            program()
        return trace, expand_stages(trace)

    def test_expanded_hmult_fuses_back(self, fusion_session):
        rng = np.random.default_rng(29)
        ct_a = fusion_session.encrypt(rng.uniform(-1, 1, 16))
        ct_b = fusion_session.encrypt(rng.uniform(-1, 1, 16))
        _, staged = self._expand(fusion_session, lambda: (ct_a * ct_b).rescale())
        stages = [e.index for e in staged if "-stage" in e.kernel.name]
        assert stages
        result = fuse_trace(staged)
        summary = result.summary()
        # Every stage launch is swallowed by a chain; arithmetic is
        # conserved and the per-stage global-memory round trips drop out.
        chained = {m for chain in result.chains for m in chain.members}
        assert chained.issuperset(stages)
        assert result.events_after < result.events_before / 3
        assert summary["int_ops_after"] == pytest.approx(
            summary["int_ops_before"]
        )
        assert summary["bytes_moved_after"] < summary["bytes_moved_before"]

    def test_expanded_rotation_unbundles_the_inner_product(self, fusion_session):
        rng = np.random.default_rng(31)
        ct = fusion_session.encrypt(rng.uniform(-1, 1, 16))
        trace, staged = self._expand(fusion_session, lambda: ct.rotate(1))
        names = _base_names(staged)
        # dnum = 2 digits: one multiply and one multiply-add per component.
        assert "ks-inner-product" in _base_names(trace)
        assert "ks-inner-product" not in names
        assert names.count("ks-mul") == names.count("ks-mul-add") == 2
        assert fuse_trace(staged).chains

    def test_expanded_batch_is_the_single_op_at_b_rows(self, fusion_session):
        rng = np.random.default_rng(37)
        cts = [
            fusion_session.encrypt(rng.uniform(-1, 1, 16)) for _ in range(8)
        ]
        batch = fusion_session.batch(cts)
        _, single = self._expand(fusion_session, lambda: cts[0] * cts[1])
        _, fused = self._expand(fusion_session, lambda: batch * batch)
        assert _base_names(fused) == _base_names(single)
        assert fused.int_ops == pytest.approx(8 * single.int_ops, rel=1e-9)

    def test_launch_counts_per_transform_match_the_formula(self, fusion_session):
        n = fusion_session.context.ring_degree
        log_n = n.bit_length() - 1
        moduli = tuple(fusion_session.context.moduli[:2])
        engine = get_stacked_engine(n, moduli)
        x = np.ones((2, n), dtype=np.uint64)

        def copy(reads, writes):
            np.copyto(writes[0], reads[0])

        with DISPATCH.record(executable=True) as trace:
            engine.forward(x)
            y = engine.inverse(x)
            engine.inverse(segments=(1, 1), prologue=Fused("pro", 1.0, (y,), copy),
                           epilogue=Fused("epi", 2.0, (), copy))
        assert _base_names(trace) == ["ntt", "intt", "intt", "intt"]
        staged = _base_names(expand_stages(trace))
        stages = [f"ntt-stage{s}" for s in range(log_n)]
        inverse = [f"intt-stage{s}" for s in range(log_n)] + ["intt-scale"]
        # log2 N stages forward; log2 N + 1 inverse; per segment, the
        # prologue and the epilogue are a launch each around them.
        assert staged == stages + inverse + 2 * (["pro"] + inverse + ["epi"])
        assert len(staged) == log_n + (log_n + 1) + 2 * (log_n + 3)

    def test_dword_chain_expands_only_its_dot_products(self):
        context, trace = TestReplayAcrossBackends._record_hmult(59, 60)
        assert context.numeric_backend == modmath.BACKEND_DWORD
        staged = expand_stages(trace)
        names = _base_names(staged)
        # Off the uint64 path the transforms stay whole; the inner product
        # unbundles on every backend.
        assert not any("-stage" in name for name in names)
        assert "ntt" in names and "intt" in names
        assert "ks-mul" in names and "ks-inner-product" not in names
        assert [n for n in names if not n.startswith("ks-mul")] == [
            n for n in _base_names(trace) if n != "ks-inner-product"
        ]

    def test_expanded_trace_prices_but_does_not_replay(self, fusion_session):
        ct = fusion_session.encrypt(np.linspace(-1, 1, 16))
        _, staged = self._expand(fusion_session, lambda: ct.rotate(1))
        assert fuse_trace(staged).chains
        with pytest.raises(ValueError, match="non-replayable") as excinfo:
            TraceProgram(staged)
        assert "ntt-stage0" in str(excinfo.value)
        assert "ks-mul-add" in str(excinfo.value)

    def test_expansion_needs_an_executable_trace(self):
        with pytest.raises(ValueError, match="executable"):
            expand_stages(KernelTrace())
