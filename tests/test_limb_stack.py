"""Tests for the flat limb-stack data plane and its pool accounting.

Covers the §III-D allocation-strategy comparison (array-per-limb versus
flattened), zero-copy limb views, exact internal fragmentation, the
batched modmath kernels against Python-integer arithmetic, and the
stacked NTT against the exact-integer oracle.
"""

import json

import numpy as np
import pytest

from repro.bench.reporting import BenchmarkTable
from repro.core import modmath
from repro.core.limb import LimbFormat, VectorGPU
from repro.core.limb_stack import LimbStack
from repro.core.memory import (
    STRATEGY_ARRAY_PER_LIMB,
    STRATEGY_FLATTENED,
    FusedFootprintError,
    MemoryPool,
    OutOfDeviceMemory,
)
from repro.core.ntt import get_stacked_engine, reference_transform
from repro.core.primes import generate_ntt_primes
from repro.core.rns_poly import RNSPoly

N = 64
PRIMES = generate_ntt_primes(3, 28, N)
BIG_PRIMES = generate_ntt_primes(2, 40, N)  # double-word backend
HUGE_PRIMES = generate_ntt_primes(2, 63, N)  # exact (object) backend


def random_stack(moduli, seed=0):
    rng = np.random.default_rng(seed)
    rows = [rng.integers(0, q, N) for q in moduli]
    return LimbStack.from_rows(moduli, rows)


class TestBatchedKernels:
    """The stack_* kernels must agree with exact Python-integer arithmetic."""

    @pytest.mark.parametrize(
        "moduli", [PRIMES, BIG_PRIMES, HUGE_PRIMES],
        ids=["fast", "dword", "exact"],
    )
    def test_elementwise_ops_match_per_limb(self, moduli):
        a = random_stack(moduli, 1)
        b = random_stack(moduli, 2)
        col = a.moduli_col
        a_rows, b_rows = a.data, b.data
        checks = {
            "add": (modmath.stack_add_mod(a.data, b.data, col), lambda x, y: x + y),
            "sub": (modmath.stack_sub_mod(a.data, b.data, col), lambda x, y: x - y),
            "mul": (modmath.stack_mul_mod(a.data, b.data, col), lambda x, y: x * y),
        }
        for name, (rows, reference) in checks.items():
            for i, q in enumerate(moduli):
                expected = [
                    reference(int(x), int(y)) % q
                    for x, y in zip(a_rows[i], b_rows[i])
                ]
                assert [int(x) for x in rows[i]] == expected, name

    def test_scalar_and_neg_ops(self):
        a = random_stack(PRIMES, 3)
        col = a.moduli_col
        scalars = [5, 7, 11]
        scaled = modmath.stack_scalar_mod(a.data, scalars, col)
        negated = modmath.stack_neg_mod(a.data, col)
        for i, q in enumerate(PRIMES):
            assert [int(x) for x in scaled[i]] == [
                (int(x) * scalars[i]) % q for x in a.data[i]
            ]
            assert [int(x) for x in negated[i]] == [(-int(x)) % q for x in a.data[i]]

    def test_dot_product_fusion_matches_sequential(self):
        pairs = [(random_stack(PRIMES, s).data, random_stack(PRIMES, s + 10).data)
                 for s in range(5)]  # > 4 terms exercises the overflow guard
        col = modmath.moduli_column(PRIMES)
        fused = modmath.stack_dot_mod(pairs, col)
        expected = None
        for x, y in pairs:
            term = modmath.stack_mul_mod(x, y, col)
            expected = term if expected is None else modmath.stack_add_mod(
                expected, term, col)
        assert np.array_equal(fused, expected)

    def test_switch_modulus_matches_per_limb(self):
        rng = np.random.default_rng(4)
        q_from = PRIMES[-1]
        row = modmath.as_residue_array(rng.integers(0, q_from, N), q_from)
        col = modmath.moduli_column(PRIMES[:-1])
        switched = modmath.stack_switch_modulus(row, q_from, col)
        half = q_from >> 1
        centred = [int(v) - q_from if int(v) > half else int(v) for v in row]
        for i, q in enumerate(PRIMES[:-1]):
            assert [int(x) for x in switched[i]] == [v % q for v in centred]


class TestStackedNTT:
    @pytest.mark.parametrize(
        "layout", ["chain", "member-major", "single-modulus", "limb-major"]
    )
    @pytest.mark.parametrize(
        "bits,backend", [(28, "uint64"), (40, "dword"), (63, "object")],
        ids=["uint64", "dword", "object"],
    )
    def test_matches_reference_transform(self, bits, backend, layout):
        primes = generate_ntt_primes(5, bits, N)
        moduli = {
            # 3-row limb_batch chunk plus a 2-row remainder
            "chain": primes,
            # B=3 tiling of a 2-prime base: one repeat period per chunk
            "member-major": primes[:2] * 3,
            # period 1: a single table row broadcast over every data row
            "single-modulus": primes[:1] * 4,
            # runs of one modulus, one table row per run
            "limb-major": primes[:1] * 3 + primes[1:2] * 2,
        }[layout]
        stack = random_stack(moduli, 5)
        engine = get_stacked_engine(N, tuple(moduli))
        assert engine.backend == backend
        source = stack.data
        forward = engine.forward(source)
        assert forward.tolist() == reference_transform(source, moduli).tolist()
        assert engine.inverse(source).tolist() == reference_transform(
            source, moduli, inverse=True
        ).tolist()
        assert engine.inverse(forward).tolist() == source.tolist()

    def test_poly_transform_is_loop_free_path(self):
        poly, _ = _random_poly(6)
        eval_poly = poly.to_evaluation()
        back = eval_poly.to_coefficient()
        assert back.to_int_coefficients() == poly.to_int_coefficients()
        assert eval_poly.fmt is LimbFormat.EVALUATION


def _random_poly(seed):
    rng = np.random.default_rng(seed)
    coeffs = [int(v) for v in rng.integers(-50, 50, N)]
    return RNSPoly.from_int_coefficients(N, PRIMES, coeffs), coeffs


class TestLimbStackStorage:
    def test_limb_views_are_zero_copy(self):
        poly, _ = _random_poly(7)
        limbs = poly.limbs
        for i, limb in enumerate(limbs):
            assert limb.modulus == PRIMES[i]
            assert np.shares_memory(limb.data, poly.stack.data)
            assert limb.buffer is not None and not limb.buffer.managed

    @pytest.mark.parametrize(
        "moduli", [PRIMES, BIG_PRIMES], ids=["uint64", "dword"]
    )
    def test_word_backend_views_are_zero_copy(self, moduli):
        rng = np.random.default_rng(14)
        poly = RNSPoly.from_int_coefficients(
            N, moduli, [int(v) for v in rng.integers(-50, 50, N)]
        )
        data = poly.stack.data
        for i, (limb, row, array) in enumerate(
            zip(poly.limbs, poly.stack.rows(), poly.limb_arrays())
        ):
            for view in (limb.data, row, array):
                assert np.shares_memory(view, data)
            limb.data[0] = np.uint64(moduli[i] - 1)  # wider than 32 bits on dword
            assert int(data[i, 0]) == int(row[0]) == moduli[i] - 1

    def test_fused_rescale_matches_single(self):
        a, _ = _random_poly(8)
        b, _ = _random_poly(9)
        fused = RNSPoly.rescale_last_many([a, b])
        assert fused[0].to_int_coefficients() == a.rescale_last().to_int_coefficients()
        assert fused[1].to_int_coefficients() == b.rescale_last().to_int_coefficients()

    def test_multiply_accumulate_matches_sequential(self):
        a = _random_poly(10)[0].to_evaluation()
        b = _random_poly(11)[0].to_evaluation()
        c = _random_poly(12)[0].to_evaluation()
        d = _random_poly(13)[0].to_evaluation()
        fused = RNSPoly.multiply_accumulate([(a, b), (c, d)])
        expected = a.multiply(b).add(c.multiply(d))
        assert fused.to_int_coefficients() == expected.to_int_coefficients()

    def test_mixed_format_limbs_rejected(self):
        # Format is tracked per polynomial; operands whose limbs are in
        # different representations cannot meet in one kernel.
        coeff, _ = _random_poly(14)
        evald = _random_poly(15)[0].to_evaluation()
        with pytest.raises(ValueError, match="formats differ"):
            coeff.add(evald)


class TestPoolAccountingUnderLimbStack:
    """Satellite: pool accounting for the two §III-D allocation strategies."""

    def test_flattened_vs_array_per_limb_footprints(self):
        # A limb size that granularity rounding actually penalizes.
        ring_degree = 72  # 576 bytes/limb -> rounds to 1024 per limb
        pool_stack = MemoryPool(granularity=1024)
        limbs = [VectorGPU(ring_degree, pool=pool_stack) for _ in PRIMES]
        pool_flat = MemoryPool(granularity=1024)
        flat = LimbStack.zeros(ring_degree, PRIMES, pool=pool_flat)
        # Three per-limb buffers round up three times (3 x 1024); the flat
        # 1728-byte buffer rounds once (2048).
        assert pool_stack.bytes_in_use == 3 * 1024
        assert pool_flat.bytes_in_use == 2048
        assert pool_flat.internal_fragmentation() < pool_stack.internal_fragmentation()
        assert pool_flat.internal_fragmentation() == pytest.approx(320 / 2048)
        assert pool_stack.internal_fragmentation() == pytest.approx(1344 / 3072)
        assert pool_flat.bytes_by_strategy() == {STRATEGY_FLATTENED: 2048}
        assert set(pool_stack.bytes_by_strategy()) == {STRATEGY_ARRAY_PER_LIMB}
        del limbs, flat  # keep the RAII buffers alive until the asserts ran

    def test_exact_internal_fragmentation(self):
        pool = MemoryPool(granularity=256)
        pool.allocate(1000)
        assert pool.bytes_in_use == 1024
        assert pool.internal_fragmentation() == pytest.approx(24 / 1024)
        by_strategy = pool.fragmentation_by_strategy()
        assert by_strategy[STRATEGY_ARRAY_PER_LIMB] == pytest.approx(24 / 1024)

    def test_view_backed_limbs_release_leak_free(self):
        pool = MemoryPool()
        stack = LimbStack.zeros(N, PRIMES, pool=pool)
        charged = pool.bytes_in_use
        assert charged == stack.footprint_bytes()  # one flat allocation
        views = [stack.limb_view(i, LimbFormat.COEFFICIENT) for i in range(3)]
        assert pool.bytes_in_use == charged  # views charge nothing
        for view in views:
            view.release()
        assert pool.bytes_in_use == charged  # releasing views frees nothing
        stack.release()
        assert pool.bytes_in_use == 0
        assert pool.allocation_count == pool.free_count == 1

    def test_out_of_device_memory_on_capacity_bound_pool(self):
        pool = MemoryPool(capacity_bytes=2 * N * 8)
        resident = LimbStack.zeros(N, PRIMES[:2], pool=pool)  # fills the device
        with pytest.raises(OutOfDeviceMemory):
            LimbStack.zeros(N, PRIMES[2:], pool=pool)
        resident.release()
        extra = LimbStack.zeros(N, PRIMES[2:], pool=pool)  # fits after release
        assert extra.footprint_bytes() == N * 8

    def test_fuse_over_budget_raises_descriptive_footprint_error(self):
        # Room for the two members but not for the fused (B*L, N) buffer.
        pool = MemoryPool(capacity_bytes=3 * N * 8, granularity=1)
        stacks = [
            LimbStack.zeros(N, PRIMES[:1], pool=pool),
            LimbStack.zeros(N, PRIMES[1:2], pool=pool),
        ]
        allocations_before = pool.allocation_count
        with pytest.raises(FusedFootprintError) as info:
            LimbStack.fuse(stacks, pool=pool)
        message = str(info.value)
        assert "B=2" in message and "L=1" in message and f"N={N}" in message
        assert str(pool.capacity_bytes) in message
        # The pre-check fired before any allocation or row copying.
        assert pool.allocation_count == allocations_before
        # FusedFootprintError still is an OutOfDeviceMemory for old callers.
        assert isinstance(info.value, OutOfDeviceMemory)

    def test_fuse_fits_exactly_at_the_budget(self):
        pool = MemoryPool(capacity_bytes=4 * N * 8, granularity=1)
        stacks = [
            LimbStack.zeros(N, PRIMES[:1], pool=pool),
            LimbStack.zeros(N, PRIMES[1:2], pool=pool),
        ]
        fused = LimbStack.fuse(stacks, pool=pool)  # 2 + 2 rows == capacity
        assert fused.num_limbs == 2

    def test_limb_copy_stays_pool_charged(self):
        # A limb is a view, so limbs are copied with their polynomial: the
        # copy's views window a fresh buffer charged to the same pool.
        pool = MemoryPool()
        poly = RNSPoly(N, PRIMES, pool=pool)
        baseline = pool.bytes_in_use
        clone = poly.copy()
        for limb, original in zip(clone.limbs, poly.limbs):
            assert limb.buffer.pool is pool and not limb.buffer.managed
            assert not np.shares_memory(limb.data, original.data)
        assert pool.bytes_in_use == 2 * baseline
        clone.stack.release()
        assert pool.bytes_in_use == baseline

    def test_limb_stack_copy_stays_pool_charged(self):
        pool = MemoryPool()
        stack = LimbStack.zeros(N, PRIMES, pool=pool)
        baseline = pool.bytes_in_use
        clone = stack.copy()
        assert pool.bytes_in_use == 2 * baseline
        clone.release()
        assert pool.bytes_in_use == baseline

    def test_unmanaged_vector_still_free(self):
        pool = MemoryPool()
        vector = VectorGPU(128, pool=pool, managed=False)
        assert pool.bytes_in_use == 0
        vector.free()  # no-op


class TestBenchmarkTableJson:
    def test_to_json_round_trips(self):
        table = BenchmarkTable("t", note="n")
        table.add_row(operation="HAdd", seconds=0.5)
        payload = json.loads(table.to_json(machine="test"))
        assert payload["title"] == "t"
        assert payload["rows"] == [{"operation": "HAdd", "seconds": 0.5}]
        assert payload["machine"] == "test"
        assert payload["columns"] == ["operation", "seconds"]


# ---------------------------------------------------------------------------
# double-word (59-bit) end-to-end path
# ---------------------------------------------------------------------------


def _clear_backend_caches():
    """Flush caches that bake in the backend decision (test-only)."""
    modmath._moduli_column_cached.cache_clear()
    get_stacked_engine.cache_clear()


class TestDwordEndToEnd:
    """Paper-class 59-bit chains: dword path vs the exact object oracle."""

    @staticmethod
    def _run_hmult_rescale():
        """One seeded HMult (+relinearize +rescale) at 59-bit moduli.

        A paper-default-class parameter set (Δ = 2**59, 60-bit q_0/P) at
        reduced depth and ring degree so the functional backend can run it.
        """
        from repro.ckks.params import CKKSParameters
        from repro.ckks.context import Context
        from repro.ckks.keys import KeyGenerator
        from repro.ckks.evaluator import Evaluator
        from repro.ckks.encryption import Encryptor

        params = CKKSParameters(
            ring_degree=1 << 8, mult_depth=2, scale_bits=59, dnum=2,
            first_mod_bits=60, secret_hamming_weight=16,
            label="paper-59-reduced",
        )
        context = Context(params)
        keys = KeyGenerator(context, seed=101).generate([])
        evaluator = Evaluator(context, keys)
        encryptor = Encryptor(context, keys.public_key, seed=55)
        rng = np.random.default_rng(9)
        a = encryptor.encrypt_values(rng.uniform(-1, 1, 8))
        b = encryptor.encrypt_values(rng.uniform(-1, 1, 8))
        return context, evaluator.multiply(a, b)

    def test_dword_path_matches_object_oracle(self, monkeypatch):
        context, fast = self._run_hmult_rescale()
        assert context.numeric_backend == modmath.BACKEND_DWORD
        # The hot path ran on one uint64 word per residue, not Python integers.
        for poly in (fast.c0, fast.c1):
            assert poly.stack.data.ndim == 2
            assert poly.stack.data.dtype == np.uint64
        # Re-run the identical computation on the exact object oracle by
        # forcing every modulus above 2**31 off the dword backend.
        monkeypatch.setattr(
            modmath, "DWORD_MODULUS_LIMIT", modmath.FAST_MODULUS_LIMIT
        )
        _clear_backend_caches()
        try:
            with pytest.warns(RuntimeWarning, match="object backend"):
                oracle_context, exact = self._run_hmult_rescale()
            assert oracle_context.numeric_backend == modmath.BACKEND_OBJECT
            assert exact.c0.stack.data.dtype == np.object_
            assert fast.scale == exact.scale
            for fast_poly, exact_poly in (
                (fast.c0, exact.c0), (fast.c1, exact.c1)
            ):
                assert fast_poly.stack.data.tolist() == [
                    [int(x) for x in row] for row in exact_poly.stack.data
                ]
        finally:
            monkeypatch.undo()
            _clear_backend_caches()

    @staticmethod
    def _run_mixed_chain():
        """HMult+rescale, rotate and hoisted rotations, 60-bit q_0 over 28-bit primes."""
        from repro.api import CKKSSession
        from repro.ckks.params import CKKSParameters

        session = CKKSSession.create(
            CKKSParameters(
                ring_degree=1 << 6, mult_depth=3, scale_bits=28, dnum=2,
                first_mod_bits=60, secret_hamming_weight=16, label="mixed-chain",
            ),
            seed=3, rotations=[1, 2], register_default=False,
        )
        rng = np.random.default_rng(21)
        x = session.encrypt(rng.uniform(-1, 1, 8)).handle
        y = session.encrypt(rng.uniform(-1, 1, 8)).handle
        be = session.backend
        hoisted = be.hoisted_rotations(x, [1, 2])
        return session, [be.multiply(x, y), be.rotate(x, 2), hoisted[1], hoisted[2]]

    def test_mixed_chain_matches_object_oracle(self, monkeypatch):
        session, fast = self._run_mixed_chain()
        assert session.numeric_backend == modmath.BACKEND_DWORD
        assert modmath.backend_for_moduli(session.context.moduli[1:]) == (
            modmath.BACKEND_UINT64
        )
        monkeypatch.setattr(
            modmath, "DWORD_MODULUS_LIMIT", modmath.FAST_MODULUS_LIMIT
        )
        _clear_backend_caches()
        try:
            with pytest.warns(RuntimeWarning, match="object backend"):
                oracle_session, exact = self._run_mixed_chain()
            assert oracle_session.numeric_backend == modmath.BACKEND_OBJECT
            for fast_ct, exact_ct in zip(fast, exact):
                for fast_poly, exact_poly in (
                    (fast_ct.c0, exact_ct.c0), (fast_ct.c1, exact_ct.c1)
                ):
                    assert fast_poly.stack.data.dtype == np.uint64
                    assert exact_poly.stack.data.dtype == np.object_
                    assert [row.tolist() for row in fast_poly.limb_arrays()] == [
                        [int(x) for x in row] for row in exact_poly.limb_arrays()
                    ]
        finally:
            monkeypatch.undo()
            _clear_backend_caches()

    def test_59_bit_context_reports_dword_backend(self):
        context, product = self._run_hmult_rescale()
        assert context.numeric_backend == modmath.BACKEND_DWORD
        assert product.c0.stack.buffer.element_bytes == 8
        assert product.c0.footprint_bytes() == (
            2 * product.c0.ring_degree * 8
        )
