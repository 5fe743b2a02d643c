"""Throughput plane: a ciphertext is a batch of one.

The contract under test is the tentpole invariant of the single evaluator:
every operation of the one op surface, applied to a fused ``batch_size=B``
handle, is bit-identical per member to running the members one at a time
-- for B in {1, 3, 8} on the uint64, dword and object backends, tracing on
and off -- ``fuse``/``split`` are zero-copy and pool-accounted exactly
once, mixed-shape batches are rejected with descriptive errors, and a
fused trace keeps the single-op kernel structure at ``B×`` bytes.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.api import (
    CKKSSession,
    CostModelBackend,
    EvaluationBackend,
    SymbolicCiphertext,
    TracingBackend,
)
from repro.ckks.ciphertext import Ciphertext
from repro.ckks.evaluator import Evaluator
from repro.ckks.keys import KeyGenerator
from repro.ckks.params import CKKSParameters
from repro.core.dispatch import get_dispatcher
from repro.core.fusion import expand_stages, fuse_trace
from repro.core.limb import LimbFormat
from repro.core.memory import MemoryPool
from repro.core.rns_poly import RNSPoly
from repro.gpu.platforms import GPU_RTX_4090
from repro.perf.trace_model import TraceCostModel


BATCH = 3
BATCH_SIZES = (1, 3, 8)
BACKENDS = ("uint64", "dword", "object")


@pytest.fixture(scope="module")
def cts_a(context, encryptor):
    rng = np.random.default_rng(11)
    return [
        encryptor.encrypt_values(rng.uniform(-1, 1, 8)) for _ in range(BATCH)
    ]


@pytest.fixture(scope="module")
def cts_b(context, encryptor):
    rng = np.random.default_rng(13)
    return [
        encryptor.encrypt_values(rng.uniform(-1, 1, 8)) for _ in range(BATCH)
    ]


def assert_members_identical(fused, sequential, *, scale=True, label=""):
    """Every member of ``fused`` matches its sequential twin bit for bit.

    Accepts ciphertexts or CipherVector handles on either side.
    """
    members = [getattr(m, "handle", m) for m in fused.split()]
    sequential = [getattr(ct, "handle", ct) for ct in sequential]
    assert len(members) == len(sequential), label
    for member, reference in zip(members, sequential):
        assert np.array_equal(member.c0.data, reference.c0.data), label
        assert np.array_equal(member.c1.data, reference.c1.data), label
        assert member.c0.moduli == reference.c0.moduli, label
        assert member.encoded_length == reference.encoded_length, label
        if scale:
            assert member.scale == pytest.approx(reference.scale, rel=1e-9), label


# ----------------------------------------------------------------------
# the one equivalence test: op x B x numeric backend
# ----------------------------------------------------------------------

#: Every ciphertext operation of the backend protocol, as ``fn(backend, x,
#: y)`` over handles ``x``/``y`` with equally many members.  Results are
#: handles, or dicts of handles for the hoisted rotations.
SURFACE_OPS = {
    "add": lambda be, x, y: be.add(x, y),
    "sub": lambda be, x, y: be.sub(x, y),
    "negate": lambda be, x, y: be.negate(x),
    "add_plain": lambda be, x, y: be.add_plain(x, [0.25] * 8),
    "sub_plain": lambda be, x, y: be.sub_plain(x, [0.25] * 8),
    "add_scalar": lambda be, x, y: be.add_scalar(x, 0.375),
    "multiply": lambda be, x, y: be.multiply(x, y),
    "square": lambda be, x, y: be.square(x),
    "multiply_plain": lambda be, x, y: be.multiply_plain(x, [0.5] * 8),
    "multiply_scalar": lambda be, x, y: be.multiply_scalar(x, 1.5),
    "rotate": lambda be, x, y: be.rotate(x, 2),
    "conjugate": lambda be, x, y: be.conjugate(x),
    "hoisted_rotations": lambda be, x, y: be.hoisted_rotations(x, [1, 2, 0]),
    "rescale": lambda be, x, y: be.rescale(
        be.multiply_plain(x, [0.5] * 8, rescale=False)),
    "at_level": lambda be, x, y: be.at_level(x, x.level - 2),
    "dot_product_plain": lambda be, x, y: be.dot_product_plain(
        [x, y], [[0.5] * 8, [0.25] * 8]),
    # Mixed levels: the single evaluator aligns a fused operand like any other.
    "add_mixed_level": lambda be, x, y: be.add(x, be.at_level(y, y.level - 1)),
}


@pytest.fixture(scope="module")
def backend_sessions(session):
    """One session per numeric backend (uint64 shares the suite's keys)."""
    def small(first_mod_bits, label):
        return CKKSSession.create(
            CKKSParameters(
                ring_degree=1 << 6, mult_depth=3, scale_bits=59, dnum=2,
                first_mod_bits=first_mod_bits, secret_hamming_weight=16,
                label=label,
            ),
            seed=3, rotations=[1, 2], conjugation=True, register_default=False,
        )

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # object fallback notice
        sessions = {
            "uint64": session,
            "dword": small(60, "batch-dword"),
            "object": small(63, "batch-object"),
        }
    assert {k: s.numeric_backend for k, s in sessions.items()} == {
        k: k for k in BACKENDS
    }
    return sessions


@pytest.fixture(scope="module")
def operands(backend_sessions):
    """``(backend, size) -> (vectors_x, vectors_y)``, encrypted once."""
    cache = {}

    def get(backend, size):
        if (backend, size) not in cache:
            s = backend_sessions[backend]
            rng = np.random.default_rng(100 + size)
            cache[backend, size] = tuple(
                [s.encrypt(rng.uniform(-1, 1, 8)).handle for _ in range(size)]
                for _ in range(2)
            )
        return cache[backend, size]

    return get


class TestSingleSurfaceEquivalence:
    """Fused == per-member loop, residue for residue, for every operation."""

    def test_surface_ops_cover_the_protocol(self):
        from repro.api.backend import BACKEND_OPERATIONS

        sources = {"encrypt", "encrypt_batch", "batch_from", "batch_split"}
        assert set(BACKEND_OPERATIONS) - sources <= set(SURFACE_OPS)

    @pytest.mark.parametrize("op", sorted(SURFACE_OPS))
    @pytest.mark.parametrize("size", BATCH_SIZES)
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_fused_equals_per_member_loop(self, backend_sessions, operands,
                                          backend, size, op):
        be = backend_sessions[backend].backend
        xs, ys = operands(backend, size)
        fn = SURFACE_OPS[op]
        fused = fn(be, be.batch_from(xs), be.batch_from(ys))
        loop = [fn(be, x, y) for x, y in zip(xs, ys)]
        if isinstance(fused, dict):
            assert set(fused) == set(loop[0])
            for step, handle in fused.items():
                assert handle.batch_size == size
                assert_members_identical(
                    handle, [member[step] for member in loop], label=f"{op}[{step}]"
                )
        else:
            assert fused.batch_size == size
            assert_members_identical(fused, loop, label=op)


    @pytest.mark.parametrize("op", sorted(SURFACE_OPS))
    @pytest.mark.parametrize("size", (1, 3))
    def test_59_bit_results_are_one_word_stacks(self, backend_sessions, operands,
                                                size, op):
        """Storage invariant: ``(rows, N)`` uint64, canonical, on every op."""
        be = backend_sessions["dword"].backend
        xs, ys = operands("dword", size)
        result = SURFACE_OPS[op](be, be.batch_from(xs), be.batch_from(ys))
        handles = result.values() if isinstance(result, dict) else [result]
        for handle in handles:
            for poly in (handle.c0, handle.c1):
                data = poly.data
                assert data.ndim == 2 and data.dtype == np.uint64, op
                assert data.shape == (len(poly.moduli), poly.ring_degree), op
                assert (data < poly.moduli_col).all(), op


class TestBitIdenticalOutputs:
    """Recording a fused operation never changes its residues."""

    @pytest.mark.parametrize("tracing", [False, True], ids=["untraced", "traced"])
    def test_every_op_matches_sequential(self, session, cts_a, cts_b, tracing):
        be = session.backend
        for name, fn in SURFACE_OPS.items():
            reference = [fn(be, a, b) for a, b in zip(cts_a, cts_b)]
            fused_a, fused_b = Ciphertext.fuse(cts_a), Ciphertext.fuse(cts_b)
            if tracing:
                with get_dispatcher().record():
                    result = fn(be, fused_a, fused_b)
            else:
                result = fn(be, fused_a, fused_b)
            if isinstance(result, dict):
                for step, handle in result.items():
                    assert_members_identical(
                        handle, [ref[step] for ref in reference], label=name
                    )
            else:
                assert_members_identical(result, reference, label=name)

    def test_hoisted_rotations_share_one_decomposition(self, evaluator, cts_a):
        fused = Ciphertext.fuse(cts_a)
        with get_dispatcher().record() as trace:
            batched = evaluator.hoisted_rotations(fused, [1, 2, 0])
        sequential = [evaluator.hoisted_rotations(a, [1, 2, 0]) for a in cts_a]
        for step in (1, 2, 0):
            assert_members_identical(
                batched[step], [seq[step] for seq in sequential]
            )
        # One ModUp for the whole batch and both keyed rotations.
        modup = [e for e in trace.events if e.scope.endswith("modup")]
        with get_dispatcher().record() as single:
            evaluator.hoisted_rotations(cts_a[0], [1, 2, 0])
        assert len(modup) == len(
            [e for e in single.events if e.scope.endswith("modup")]
        )

    def test_decrypted_values_match_plain_compute(self, decryptor, evaluator,
                                                  cts_a, cts_b):
        rng = np.random.default_rng(11)
        rows_a = [rng.uniform(-1, 1, 8) for _ in range(BATCH)]
        rng = np.random.default_rng(13)
        rows_b = [rng.uniform(-1, 1, 8) for _ in range(BATCH)]
        product = evaluator.multiply(Ciphertext.fuse(cts_a), Ciphertext.fuse(cts_b))
        for member, expect_a, expect_b in zip(product.split(), rows_a, rows_b):
            values = decryptor.decrypt_values(member, 8)
            assert np.allclose(values, expect_a * expect_b, atol=1e-2)

    def test_replaced_rotation_key_is_not_served_stale_tiles(self, context, keys,
                                                             cts_a):
        """Tiled key stacks are cached per key *object*, never per ``id``.

        A rotation key swapped for a freshly generated one must rotate the
        fused batch with the new key -- the old key's cached tiles may not
        be handed to its replacement (regression: the cache used to key on
        ``id(key)`` alone, which the allocator recycles).
        """
        from repro.ckks.keys import KeySet, KeySwitchingKey

        generator = KeyGenerator(context, seed=4242)
        own_keys = KeySet(
            public_key=keys.public_key,
            relinearization_key=keys.relinearization_key,
            rotation_keys={2: generator.generate_rotation_key(keys.secret_key, 2)},
        )
        evaluator = Evaluator(context, own_keys)
        fused = Ciphertext.fuse(cts_a)
        evaluator.rotate(fused, 2)  # caches tiles of the first key
        for _ in range(3):
            digits = generator.generate_rotation_key(keys.secret_key, 2).digits
            # Free the old key and allocate its replacement back to back:
            # CPython hands the freed slot -- the old ``id`` -- straight to
            # the next object of the same size, unless something (the cache
            # entry) still holds the old key.
            del own_keys.rotation_keys[2]
            own_keys.rotation_keys[2] = KeySwitchingKey(digits=digits)
            rotated = evaluator.rotate(fused, 2)
            assert_members_identical(
                rotated, [evaluator.rotate(ct, 2) for ct in cts_a]
            )


class TestFuseSplit:
    """RNSPoly.fuse_many/split: zero-copy members, single pool charge."""

    def test_fuse_charges_pool_once_and_split_is_free(self):
        pool = MemoryPool()
        stacks = [
            RNSPoly.from_limb_arrays(
                8, [97, 193], [np.arange(8) % 97 + i, np.arange(8) % 193 + i],
                LimbFormat.COEFFICIENT, pool=pool,
            )
            for i in range(3)
        ]
        allocations_before = pool.allocation_count
        fused = RNSPoly.fuse_many([stacks], pool=pool)[0]
        assert pool.allocation_count == allocations_before + 1
        assert fused.level_count == 6
        assert fused.footprint_bytes() == sum(s.footprint_bytes() for s in stacks)
        bytes_before = pool.bytes_in_use
        members = fused.split(3)
        # Splitting charges nothing: members are views of the fused array.
        assert pool.allocation_count == allocations_before + 1
        assert pool.bytes_in_use == bytes_before
        for member, original in zip(members, stacks):
            assert np.array_equal(member.data, original.data)
            assert member.data.base is fused.data  # zero-copy row view
        for member in members:
            member.release()  # a view charged nothing, so it credits nothing
        assert pool.bytes_in_use == bytes_before

    def test_split_view_sees_fused_writes(self):
        stacks = [
            RNSPoly.from_limb_arrays(8, [97], [np.arange(8) % 97],
                                     LimbFormat.COEFFICIENT)
            for _ in range(2)
        ]
        fused = RNSPoly.fuse_many([stacks])[0]
        view = fused.split(2)[1]
        fused.data[1, 0] = 42
        assert int(view.data[0, 0]) == 42

    def test_split_rejects_uneven_partition(self):
        fused = RNSPoly.from_limb_arrays(
            8, [97, 193, 389], [np.zeros(8, dtype=np.int64)] * 3,
            LimbFormat.COEFFICIENT,
        )
        with pytest.raises(ValueError, match="equal members"):
            fused.split(2)

    def test_ciphertext_batch_split_members_are_views(self, cts_a):
        batch = Ciphertext.fuse(cts_a)
        assert batch.batch_size == len(batch) == BATCH
        assert batch.limb_count == cts_a[0].limb_count
        assert batch.moduli == cts_a[0].moduli
        members = batch.split()
        for member in members:
            assert member.batch_size == 1
            assert member.c0.data.base is batch.c0.data
        # Mutating the fused buffer is visible through the view.
        batch.c0.data[0, 0] += 0
        assert np.array_equal(members[0].c0.data, batch.c0.data[: members[0].c0.level_count])

    def test_fusing_fused_ciphertexts_concatenates_members(self, cts_a, cts_b):
        nested = Ciphertext.fuse([Ciphertext.fuse(cts_a), cts_b[0]])
        assert nested.batch_size == BATCH + 1
        assert_members_identical(nested, cts_a + [cts_b[0]])


class TestBatchValidation:
    """Mixed-shape batches are rejected with descriptive errors."""

    def test_mixed_level_batch_rejected(self, evaluator, cts_a):
        dropped = evaluator.mod_reduce(cts_a[1], cts_a[1].limb_count - 1)
        with pytest.raises(ValueError, match="mixed levels"):
            Ciphertext.fuse([cts_a[0], dropped])

    def test_mixed_level_symbolic_batch_rejected(self, toy_params):
        backend = CostModelBackend(toy_params)
        a = backend.encrypt([1.0])
        b = backend.rescale(
            backend.encrypt([1.0], scale=toy_params.scale ** 2)
        )
        with pytest.raises(ValueError, match="mixed levels"):
            backend.batch_from([a, b])

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="at least one member"):
            Ciphertext.fuse([])

    def test_mismatched_batch_sizes_rejected(self, evaluator, session, cts_a, cts_b):
        a = Ciphertext.fuse(cts_a)
        b = Ciphertext.fuse(cts_b[:2])
        for op in (evaluator.add, evaluator.sub, evaluator.multiply):
            with pytest.raises(ValueError, match="batch sizes differ"):
                op(a, b)
        cost = session.cost_backend()
        with pytest.raises(ValueError, match="batch sizes differ"):
            cost.multiply(cost.encrypt_batch([[1.0]] * 3), cost.encrypt([1.0]))

    def test_level_zero_batch_rescale_rejected(self, cts_a, evaluator):
        bottom = Ciphertext.fuse([evaluator.mod_reduce(ct, 1) for ct in cts_a])
        with pytest.raises(ValueError, match="level-0"):
            evaluator.rescale(bottom)

    def test_fused_batch_cannot_be_decrypted_whole(self, session):
        batch = session.encrypt_batch([[0.5], [0.25]])
        with pytest.raises(ValueError, match="split"):
            session.decrypt(batch)


class TestBatchTrace:
    """Fused traces keep the single-op kernel structure at B x bytes."""

    #: name -> op over (evaluator, ct_a, ct_b); the kernel-shape contract
    #: holds for every key-switching and rescaling pipeline.
    TRACED_OPS = {
        "hmult": lambda ev, a, b: ev.multiply(a, b),
        "hrotate": lambda ev, a, b: ev.rotate(a, 1),
        "hoisted": lambda ev, a, b: ev.hoisted_rotations(a, [1, 2]),
        "rescale": lambda ev, a, b: ev.rescale(a),
        "adjust": lambda ev, a, b: ev.adjust(a, a.level - 2),
    }

    @staticmethod
    def _shape(trace):
        """Kernel kinds and names per leaf scope (sizes stripped)."""
        return [
            (event.leaf, event.kind, event.kernel.name.split("[")[0])
            for event in trace.events
        ]

    def test_kernel_counts_match_single_op(self, evaluator, cts_a, cts_b):
        with get_dispatcher().record() as single:
            evaluator.multiply(cts_a[0], cts_b[0])
        batch_a = Ciphertext.fuse(cts_a)
        batch_b = Ciphertext.fuse(cts_b)
        with get_dispatcher().record() as batched:
            evaluator.multiply(batch_a, batch_b)
        assert batched.kernel_count == single.kernel_count
        assert batched.bytes_moved == pytest.approx(
            BATCH * single.bytes_moved, rel=1e-9
        )
        # Leaf segmentation stays comparable with the sequential scopes.
        single_scopes = {k: len(v) for k, v in single.leaf_segments().items()}
        batch_scopes = {k: len(v) for k, v in batched.leaf_segments().items()}
        assert single_scopes == batch_scopes

    @pytest.mark.parametrize("stage_launches", [False, True],
                             ids=["fused-launches", "stage-granular"])
    @pytest.mark.parametrize("op", sorted(TRACED_OPS))
    def test_trace_shape_is_single_op_at_b_times_bytes(
            self, evaluator, cts_a, cts_b, op, stage_launches):
        fn = self.TRACED_OPS[op]

        def record(*operands):
            # Stage-granular: the unfused stream derived from the record.
            with get_dispatcher().record(executable=stage_launches) as trace:
                fn(evaluator, *operands)
            return expand_stages(trace) if stage_launches else trace

        single = record(cts_a[0], cts_b[0])
        fused = record(Ciphertext.fuse(cts_a), Ciphertext.fuse(cts_b))
        # Dropping limbs is a zero-copy window on a plain stack; the kept
        # rows of a member-major fused stack are not contiguous, so a fused
        # mod-reduce gathers each component once -- the one structural
        # difference, and only ``adjust`` drops limbs.
        gathers = [e for e in fused.events if e.kernel.name.startswith("limb-copy")]
        assert len(gathers) == (2 if op == "adjust" else 0)
        assert not any(e.kernel.name.startswith("limb-copy") for e in single.events)
        assert [row for row in self._shape(fused) if row[2] != "limb-copy"] == \
            self._shape(single)
        assert fused.kernel_count == single.kernel_count + len(gathers)
        gathered = sum(e.kernel.bytes_moved for e in gathers)
        assert fused.bytes_moved - gathered == pytest.approx(
            BATCH * single.bytes_moved, rel=1e-9)
        assert fused.int_ops == pytest.approx(BATCH * single.int_ops, rel=1e-9)
        if stage_launches:
            names = [e.kernel.name for e in fused.events]
            assert any("-stage" in n for n in names)
            if op != "rescale":
                assert any(n.startswith("ks-mul") for n in names) == (op != "adjust")

    def test_stage_granular_fused_trace_replays(self, evaluator, cts_a, cts_b):
        fused_a, fused_b = Ciphertext.fuse(cts_a), Ciphertext.fuse(cts_b)
        with get_dispatcher().record(executable=True) as trace:
            evaluator.rotate(evaluator.multiply(fused_a, fused_b), 1)
        fuse_trace(trace).program().verify()
        staged = expand_stages(trace)
        result = fuse_trace(staged)
        # The unfused B-row stream fuses back to fewer launches than the
        # fused record holds, with the arithmetic conserved.
        assert result.events_after < len(trace)
        assert result.fused_trace.int_ops == pytest.approx(staged.int_ops)

    def test_batch_scope_prefix_tags_provenance(self, evaluator, cts_a, cts_b):
        with get_dispatcher().record() as trace:
            evaluator.multiply(Ciphertext.fuse(cts_a), Ciphertext.fuse(cts_b))
        assert any(s.startswith(f"batch{BATCH}/hmult") for s in trace.scopes())
        with get_dispatcher().record() as single:
            evaluator.multiply(cts_a[0], cts_b[0])
        assert not any("batch" in s for s in single.scopes())

    def test_modeled_batching_speedup_at_n13(self):
        # The modeled batching headline (README: 2.36x): on a single-stream
        # RTX 4090 model, 8 sequential HMult+rescale launch 8x the kernels
        # of one fused B=8 HMult+rescale over the same bytes (§III-F.1).
        params = CKKSParameters(
            ring_degree=1 << 13, mult_depth=6, scale_bits=28, dnum=3,
            first_mod_bits=30, label="batch-13-6",
        )
        session = CKKSSession.create(params, seed=3, register_default=False)
        rng = np.random.default_rng(0)
        vectors_a = [session.encrypt(rng.uniform(-1, 1, 16)) for _ in range(8)]
        vectors_b = [session.encrypt(rng.uniform(-1, 1, 16)) for _ in range(8)]
        batch_a, batch_b = session.batch(vectors_a), session.batch(vectors_b)
        with session.trace() as sequential:
            for a, b in zip(vectors_a, vectors_b):
                a * b
        with session.trace() as fused:
            batch_a * batch_b
        pricer = TraceCostModel(GPU_RTX_4090)
        ratio = (pricer.price(sequential, streams=1).makespan
                 / pricer.price(fused, streams=1).makespan)
        assert ratio >= 1.5, ratio


class TestApiSurface:
    """Fused CipherVector handles across the three backends."""

    @pytest.fixture(scope="class")
    def session(self, context, evaluator, keys, encryptor, decryptor):
        return CKKSSession(
            context=context, evaluator=evaluator, keys=keys,
            encryptor=encryptor, decryptor=decryptor, register_default=False,
        )

    def test_operator_circuit_matches_sequential(self, session):
        rng = np.random.default_rng(7)
        rows = [rng.uniform(-1, 1, 8) for _ in range(BATCH)]
        vectors = [session.encrypt(row) for row in rows]
        batch = session.batch(vectors)
        assert len(batch) == batch.batch_size == BATCH
        assert "B=3" in repr(batch) and "B=" not in repr(vectors[0])
        batched = 2.0 * (batch * batch) + 1.0
        sequential = [2.0 * (v * v) + 1.0 for v in vectors]
        assert_members_identical(batched, sequential)
        for member, row in zip(batched.split(), rows):
            assert np.allclose(
                session.decrypt(member, 8), 2.0 * row * row + 1.0, atol=1e-2
            )

    def test_rsub_and_conj_match_vector_surface(self, session):
        rng = np.random.default_rng(21)
        rows = [rng.uniform(-1, 1, 8) for _ in range(BATCH)]
        vectors = [session.encrypt(row) for row in rows]
        batch = session.batch(vectors)
        assert_members_identical(1.0 - batch, [1.0 - v for v in vectors])
        assert_members_identical(batch.conj(), [v.conj() for v in vectors])
        assert_members_identical(batch ** 3, [v ** 3 for v in vectors])
        cost = session.cost_backend()
        sym = cost.conjugate(cost.encrypt_batch(rows))
        assert sym.level == batch.level and sym.batch_size == BATCH

    def test_batch_of_existing_vectors_and_rotation(self, session):
        rng = np.random.default_rng(9)
        rows = [rng.uniform(-1, 1, 8) for _ in range(BATCH)]
        batch = session.batch([session.encrypt(row) for row in rows])
        rotated = batch << 1
        for member, row in zip(rotated.split(), rows):
            assert np.allclose(
                session.decrypt(member, 8), np.roll(row, -1), atol=1e-2
            )
        many = batch.rotate_many([1, 2])
        assert set(many) == {1, 2}

    def test_cost_backend_batch_records_fused_launches(self, session):
        backend = session.cost_backend()
        rows = [[1.0]] * BATCH
        batch = backend.encrypt_batch(rows)
        single = backend.encrypt([1.0])
        with session.trace() as fused:
            backend.multiply(batch, batch)
        with session.trace() as sequential:
            backend.multiply(single, single)
        # launches do not scale with B
        assert fused.kernel_count == sequential.kernel_count
        assert fused.bytes_moved == pytest.approx(
            BATCH * sequential.bytes_moved, rel=1e-9
        )
        assert isinstance(batch, SymbolicCiphertext) and batch.batch_size == BATCH
        assert [h.encoded_length for h in backend.batch_split(batch)] == [1] * BATCH

    def test_tracing_backend_batch_handles_match_inner(self, session):
        rng = np.random.default_rng(5)
        rows = [rng.uniform(-1, 1, 8) for _ in range(BATCH)]
        cts = [session.encrypt(row).handle for row in rows]
        tracing = session.tracing_backend()
        batch = tracing.batch_from(cts)
        result = tracing.multiply(batch, batch)
        assert tracing.trace.kernel_count > 0
        plain = session.backend.multiply(
            session.backend.batch_from(cts),
            session.backend.batch_from(cts),
        )
        assert_members_identical(result, plain.split())


class TestOpSurface:
    """Drift guard: three backends, one protocol, no ``batch_*`` twins."""

    @staticmethod
    def _public_ops(cls):
        return {
            name for name in dir(cls)
            if not name.startswith("_") and callable(getattr(cls, name))
        }

    def test_backends_expose_exactly_the_protocol_ops(self):
        protocol = self._public_ops(EvaluationBackend)
        assert len(protocol - {"describe"}) == 20  # 17 ops + 3 fuse/split
        for name in protocol:
            assert not name.startswith("batch_") or name in (
                "batch_from", "batch_split"
            ), name
        constructors = {"from_context", "for_model"}
        for backend in (CostModelBackend, TracingBackend):
            assert self._public_ops(backend) - constructors == protocol, backend
        # The functional backend is the evaluator itself: the protocol plus
        # the evaluator's own verbs, none of them a second batch surface.
        functional = self._public_ops(Evaluator)
        assert protocol <= functional
        assert not {n for n in functional - protocol if n.startswith("batch_")}

    def test_cost_model_prices_a_fused_handle_at_b_times_bytes(self, session):
        def program(backend, x):
            y = backend.multiply(x, x)
            y = backend.add(backend.rotate(y, 1), backend.at_level(x, y.level))
            return backend.multiply_plain(y, [0.5])

        def trace_of(handle_of):
            backend = session.cost_backend()
            with session.trace() as trace:
                program(backend, handle_of(backend))
            return trace

        single = trace_of(lambda be: be.encrypt([1.0]))
        fused = trace_of(lambda be: be.encrypt_batch([[1.0]] * 8))
        assert fused.kernel_count == single.kernel_count
        assert fused.bytes_moved == pytest.approx(8 * single.bytes_moved, rel=1e-9)
        assert fused.int_ops == pytest.approx(8 * single.int_ops, rel=1e-9)
        # Every scope component of a fused operation carries the batch tag.
        assert [e.scope for e in fused] == [
            "/".join(f"batch8/{part}" for part in e.scope.split("/") if part)
            for e in single
        ]


class TestBatchAdjust:
    """Level adjustment of a fused ciphertext: the serving plane's alignment primitive."""

    def test_adjust_matches_sequential_member_by_member(self, evaluator, cts_a):
        batch = Ciphertext.fuse(cts_a)
        target = batch.level - 2
        adjusted = evaluator.adjust(batch, target)
        sequential = [evaluator.adjust(ct, target) for ct in cts_a]
        assert_members_identical(adjusted, sequential, label="adjust")
        assert adjusted.level == target

    def test_mod_reduce_matches_sequential(self, evaluator, cts_a):
        batch = Ciphertext.fuse(cts_a)
        keep = batch.limb_count - 2
        reduced = evaluator.mod_reduce(batch, keep)
        sequential = [evaluator.mod_reduce(ct, keep) for ct in cts_a]
        assert_members_identical(reduced, sequential, label="mod_reduce")

    def test_adjust_rejects_higher_level(self, evaluator, cts_a):
        batch = Ciphertext.fuse(cts_a)
        lowered = evaluator.adjust(batch, batch.level - 1)
        with pytest.raises(ValueError, match="higher level"):
            evaluator.adjust(lowered, lowered.level + 1)

    def test_api_at_level_on_all_three_backends(self, session):
        rng = np.random.default_rng(23)
        rows = [rng.uniform(-1, 1, 8) for _ in range(BATCH)]
        vectors = [session.encrypt(row) for row in rows]
        target = vectors[0].level - 2

        fused = session.batch(vectors).at_level(target)
        sequential = [v.at_level(target) for v in vectors]
        assert_members_identical(fused, sequential)
        assert fused.level == target

        cost = session.cost_backend()
        with session.trace() as adjust_kernels:
            symbolic = cost.at_level(cost.encrypt_batch(rows), target)
        assert adjust_kernels.scopes() == [
            f"batch{BATCH}/at_level", f"batch{BATCH}/at_level/batch{BATCH}/rescale",
        ]
        assert symbolic.level == target
        assert symbolic.scale == pytest.approx(fused.scale, rel=1e-9)

        tracing = session.tracing_backend()
        traced = tracing.at_level(
            tracing.batch_from([v.handle for v in vectors]), target
        )
        assert_members_identical(traced, sequential)


class TestFusedFootprintBudget:
    """Ciphertext.fuse refuses over-budget batches before copying."""

    def test_descriptive_error_names_shape_and_budget(self, context):
        from repro.core.memory import FusedFootprintError, OutOfDeviceMemory

        n = context.ring_degree
        moduli = context.moduli[:2]
        # Budget holds the members plus one fused component, not both.
        pool = MemoryPool(capacity_bytes=11 * n * 8, granularity=1)

        def make_ct():
            return_polys = [
                RNSPoly.zeros(n, moduli, fmt=LimbFormat.EVALUATION, pool=pool)
                for _ in range(2)
            ]
            return Ciphertext(return_polys[0], return_polys[1], 2.0**28, n // 2)

        cts = [make_ct(), make_ct()]  # 8 rows resident, 3 rows free
        bytes_before = pool.bytes_in_use
        with pytest.raises(FusedFootprintError) as info:
            Ciphertext.fuse(cts)
        message = str(info.value)
        assert "B=2" in message and "L=2" in message and f"N={n}" in message
        assert str(pool.capacity_bytes) in message
        assert pool.bytes_in_use == bytes_before  # nothing was copied
        assert isinstance(info.value, OutOfDeviceMemory)
