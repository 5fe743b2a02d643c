"""Tests for the flat limb-stack data plane and its pool accounting.

A polynomial is one object: an ``RNSPoly`` holds its flat ``(L, N)``
residue array and that array's pool charge.  Covers the §III-D flattened
allocation (one array, one pool charge),
zero-copy limb rows, exact internal fragmentation, the batched modmath
kernels against Python-integer arithmetic, and the stacked NTT against the
exact-integer oracle.
"""

import gc
import json
import sys

import numpy as np
import pytest

from repro.bench.reporting import BenchmarkTable
from repro.core import modmath
from repro.core.limb import LimbFormat
from repro.core.memory import (
    FusedFootprintError,
    MemoryPool,
    OutOfDeviceMemory,
    default_pool,
)
from repro.core.ntt import get_stacked_engine, reference_transform
from repro.core.primes import generate_ntt_primes
from repro.core.rns_poly import RNSPoly
from tests.conftest import as_residue_array, int_coefficients
from tests.test_limb_poly import last_prime_multiple

N = 64
PRIMES = generate_ntt_primes(3, 28, N)
BIG_PRIMES = generate_ntt_primes(2, 40, N)  # double-word backend
HUGE_PRIMES = generate_ntt_primes(2, 63, N)  # exact (object) backend


def random_stack(moduli, seed=0):
    rng = np.random.default_rng(seed)
    rows = [rng.integers(0, q, N) for q in moduli]
    return RNSPoly.from_limb_arrays(N, moduli, rows, LimbFormat.COEFFICIENT)


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
        row = as_residue_array(rng.integers(0, q_from, N), q_from)
        col = modmath.moduli_column(PRIMES[:-1])
        switched = modmath.stack_switch_modulus_many(row[None, :], q_from, col)
        half = q_from >> 1
        centred = [int(v) - q_from if int(v) > half else int(v) for v in row]
        for i, q in enumerate(PRIMES[:-1]):
            assert [int(x) for x in switched[i]] == [v % q for v in centred]


class TestStackedNTT:
    @pytest.mark.parametrize(
        "layout", ["chain", "member-major", "single-modulus", "limb-major"]
    )
    @pytest.mark.parametrize(
        "bits,backend",
        [(28, "uint64"), (31, "uint64"), (40, "dword"), (63, "object")],
        ids=["uint64", "uint64-31", "dword", "object"],
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
        assert int_coefficients(back) == int_coefficients(poly)
        assert eval_poly.fmt is LimbFormat.EVALUATION


def _random_poly(seed):
    rng = np.random.default_rng(seed)
    coeffs = [int(v) for v in rng.integers(-50, 50, N)]
    return RNSPoly.from_int_coefficients(N, PRIMES, coeffs), coeffs


class TestRNSPolyStorage:
    def test_limb_views_are_zero_copy(self):
        poly, _ = _random_poly(7)
        allocations = default_pool.allocation_count
        rows = list(poly.data)
        assert len(rows) == len(PRIMES)
        for i, row in enumerate(rows):
            assert np.shares_memory(row, poly.data)
            assert row.tolist() == poly.data[i].tolist()
        assert default_pool.allocation_count == allocations  # rows charge nothing

    @pytest.mark.parametrize(
        "moduli", [PRIMES, BIG_PRIMES], ids=["uint64", "dword"]
    )
    def test_word_backend_views_are_zero_copy(self, moduli):
        rng = np.random.default_rng(14)
        poly = RNSPoly.from_int_coefficients(
            N, moduli, [int(v) for v in rng.integers(-50, 50, N)]
        )
        data = poly.data
        for i, row in enumerate(poly.data):
            assert np.shares_memory(row, data)
            row[0] = np.uint64(moduli[i] - 1)  # wider than 32 bits on dword
            assert int(data[i, 0]) == moduli[i] - 1

    def test_fused_rescale_matches_single(self):
        (a, qa), (b, qb) = last_prime_multiple(8), last_prime_multiple(9)
        fused = RNSPoly.rescale_last_many([a, b])
        for out, poly, quotients in zip(fused, (a, b), (qa, qb)):
            np.testing.assert_array_equal(out.data, RNSPoly.rescale_last_many([poly])[0].data)
            assert int_coefficients(out) == quotients

    def test_multiply_accumulate_matches_sequential(self):
        a = _random_poly(10)[0].to_evaluation()
        b = _random_poly(11)[0].to_evaluation()
        c = _random_poly(12)[0].to_evaluation()
        d = _random_poly(13)[0].to_evaluation()
        fused = RNSPoly.multiply_accumulate([(a, b), (c, d)])
        expected = a.multiply(b).add(c.multiply(d))
        assert int_coefficients(fused) == int_coefficients(expected)

    def test_mixed_format_limbs_rejected(self):
        # Format is tracked per polynomial; operands whose limbs are in
        # different representations cannot meet in one kernel.
        coeff, _ = _random_poly(14)
        evald = _random_poly(15)[0].to_evaluation()
        with pytest.raises(ValueError, match="formats differ"):
            coeff.add(evald)


class TestPoolAccountingUnderRNSPoly:
    """An ``RNSPoly`` is one array and one pool charge (§III-D)."""

    def test_flat_footprint_rounds_once(self):
        # A limb size that granularity rounding actually penalizes.
        ring_degree = 72  # 576 bytes/limb: per-limb buffers would round to 3 x 1024
        pool = MemoryPool(granularity=1024)
        flat = RNSPoly.zeros(ring_degree, PRIMES, pool=pool)
        # The flat 1728-byte buffer rounds once (2048).
        assert flat.footprint_bytes() == 1728
        assert pool.bytes_in_use == 2048
        assert pool.allocation_count == 1
        assert pool.internal_fragmentation() == pytest.approx(320 / 2048)

    def test_exact_internal_fragmentation(self):
        pool = MemoryPool(granularity=256)
        pool.charge(1000)
        assert pool.bytes_in_use == 1024
        assert pool.internal_fragmentation() == pytest.approx(24 / 1024)
        pool.charge(256)  # an exact multiple wastes nothing more
        assert pool.internal_fragmentation() == pytest.approx(24 / 1280)
        pool.release(1000)
        assert pool.internal_fragmentation() == 0.0

    def test_release_is_leak_free(self):
        pool = MemoryPool()
        stack = RNSPoly.zeros(N, PRIMES, pool=pool)
        charged = pool.bytes_in_use
        assert charged == stack.footprint_bytes()  # one flat allocation
        rows = list(stack.data)
        assert pool.bytes_in_use == charged  # row views charge nothing
        del rows
        assert pool.bytes_in_use == charged  # dropping views frees nothing
        stack.release()
        assert pool.bytes_in_use == 0
        assert pool.allocation_count == 1

    def test_garbage_collected_stack_is_credited(self):
        pool = MemoryPool()
        stack = RNSPoly.zeros(N, PRIMES, pool=pool)
        assert pool.bytes_in_use == stack.footprint_bytes()
        del stack
        gc.collect()
        assert pool.bytes_in_use == 0

    def test_split_view_pins_its_owner_charge(self):
        # A served fused drain: the split responses outlive the fused result.
        pool = MemoryPool()
        a = RNSPoly.zeros(N, PRIMES, pool=pool)
        b = RNSPoly.zeros(N, PRIMES, pool=pool)
        fused = RNSPoly.fuse_many([[a, b]])[0]
        fused_bytes = fused.footprint_bytes()
        members = fused.split(2)
        del a, b
        assert pool.bytes_in_use == fused_bytes
        del fused
        gc.collect()
        # members[i].data.base still holds every byte of the fused buffer.
        assert pool.bytes_in_use == fused_bytes
        del members[0]
        assert pool.bytes_in_use == fused_bytes  # the last view still pins it
        del members
        gc.collect()
        assert pool.bytes_in_use == 0

    def test_head_is_a_view_that_pins_its_owner_charge(self):
        # Dropping limbs: no copy, no charge, and the owner stays charged
        # for as long as a window (or a window of a window) is alive.
        pool = MemoryPool()
        stack = RNSPoly.from_limb_arrays(
            N, PRIMES, [np.arange(N) % q for q in PRIMES], LimbFormat.COEFFICIENT,
            pool=pool,
        )
        charged, allocations = pool.bytes_in_use, pool.allocation_count
        head = stack.keep_limbs(2)
        assert head.moduli == stack.moduli[:2] and head.level_count == 2
        assert np.shares_memory(head.data, stack.data)
        np.testing.assert_array_equal(head.data, stack.data[:2])
        assert head.moduli_col.shape == (2, 1)
        assert (pool.bytes_in_use, pool.allocation_count) == (charged, allocations)
        inner = head.keep_limbs(1)
        assert np.shares_memory(inner.data, stack.data)
        del stack, head
        gc.collect()
        assert pool.bytes_in_use == charged  # ``inner`` pins the whole chain
        del inner
        gc.collect()
        assert pool.bytes_in_use == 0

    def test_keeping_limbs_of_a_polynomial_shares_its_storage(self):
        pool = MemoryPool()
        poly = RNSPoly.zeros(N, PRIMES, fmt=LimbFormat.EVALUATION, pool=pool)
        assert poly.keep_limbs(len(PRIMES)) is poly
        kept = poly.keep_limbs(2)
        assert kept.moduli == list(PRIMES[:2]) and kept.fmt is poly.fmt
        assert np.shares_memory(kept.data, poly.data)
        assert pool.allocation_count == 1

    def test_explicit_owner_release_credits_at_once(self):
        pool = MemoryPool()
        fused = RNSPoly.fuse_many(
            [[RNSPoly.zeros(N, PRIMES[:1], pool=pool) for _ in range(2)]]
        )[0]
        members = fused.split(2)
        fused.release()
        assert pool.bytes_in_use == 0
        del fused, members  # the finalizers credit nothing twice
        gc.collect()
        assert pool.bytes_in_use == 0

    def test_out_of_device_memory_on_capacity_bound_pool(self):
        pool = MemoryPool(capacity_bytes=2 * N * 8)
        resident = RNSPoly.zeros(N, PRIMES[:2], pool=pool)  # fills the device
        with pytest.raises(OutOfDeviceMemory):
            RNSPoly.zeros(N, PRIMES[2:], pool=pool)
        resident.release()
        extra = RNSPoly.zeros(N, PRIMES[2:], pool=pool)  # fits after release
        assert extra.footprint_bytes() == N * 8

    @pytest.mark.parametrize("failure", ["shape", "capacity", "hook"])
    def test_failed_construction_charges_nothing(self, failure, monkeypatch):
        pool = MemoryPool(capacity_bytes=2 * N * 8)
        resident = RNSPoly.zeros(N, PRIMES[:1], pool=pool)
        before = (pool.bytes_in_use, pool.allocation_count)
        moduli, data, error = PRIMES[1:2], np.zeros((1, N), np.uint64), OutOfDeviceMemory
        if failure == "shape":
            data, error = np.zeros(N, np.uint64), ValueError  # 1-D: not a stack
        elif failure == "capacity":
            moduli, data = PRIMES[1:], np.zeros((2, N), np.uint64)
        else:
            def deny(pool, nbytes, tag):
                raise OutOfDeviceMemory(f"denied {nbytes} bytes ({tag})")

            pool.charge_hook = deny
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        with pytest.raises(error):
            RNSPoly(moduli, data, LimbFormat.COEFFICIENT, pool=pool)
        gc.collect()  # finalize the half-built stack
        assert (pool.bytes_in_use, pool.allocation_count) == before
        assert not unraisable  # __del__ of the half-built stack stayed silent
        del resident

    def test_fuse_over_budget_raises_descriptive_footprint_error(self):
        # Room for the two members but not for the fused (B*L, N) buffer.
        pool = MemoryPool(capacity_bytes=3 * N * 8, granularity=1)
        stacks = [
            RNSPoly.zeros(N, PRIMES[:1], pool=pool),
            RNSPoly.zeros(N, PRIMES[1:2], pool=pool),
        ]
        allocations_before = pool.allocation_count
        with pytest.raises(FusedFootprintError) as info:
            RNSPoly.fuse_many([stacks], pool=pool)[0]
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
            RNSPoly.zeros(N, PRIMES[:1], pool=pool),
            RNSPoly.zeros(N, PRIMES[1:2], pool=pool),
        ]
        fused = RNSPoly.fuse_many([stacks], pool=pool)[0]  # 2 + 2 rows == capacity
        assert fused.level_count == 2

    def test_poly_copy_stays_pool_charged(self):
        # Limbs are rows, so they are copied with their polynomial: the
        # copy's rows window a fresh array charged to the same pool.
        pool = MemoryPool()
        poly = RNSPoly.zeros(N, PRIMES, pool=pool)
        baseline = pool.bytes_in_use
        clone = poly.copy()
        assert clone.pool is pool
        for row, original in zip(clone.data, poly.data):
            assert not np.shares_memory(row, original)
        assert pool.bytes_in_use == 2 * baseline
        clone.release()
        assert pool.bytes_in_use == baseline

    def test_zeros_copy_stays_pool_charged(self):
        pool = MemoryPool()
        stack = RNSPoly.zeros(N, PRIMES, pool=pool)
        baseline = pool.bytes_in_use
        clone = stack.copy()
        assert pool.bytes_in_use == 2 * baseline
        clone.release()
        assert pool.bytes_in_use == baseline


_P = PRIMES[:2]


@pytest.mark.parametrize("build, dtype", [
    (lambda: RNSPoly(_P, np.full((2, 16), 3.99), LimbFormat.COEFFICIENT), "float64"),
    (lambda: RNSPoly(_P, np.full((2, 16), -1), LimbFormat.COEFFICIENT), "int64"),
    (lambda: RNSPoly.from_limb_arrays(16, _P, [np.full(16, 1.5)] * 2,
                                      LimbFormat.COEFFICIENT), "float64"),
    (lambda: RNSPoly.from_int_coefficients(16, _P, np.full(16, 2.9)), "float64"),
    (lambda: modmath.lift_residues(np.full(16, 1 + 1j), modmath.moduli_column(_P)),
     "complex128"),
], ids=["float-stack", "negative-int64-stack", "float-rows", "float-coefficients",
        "complex-lift"])
def test_storage_refuses_what_is_not_residues(build, dtype):
    """Residues are uint64 words or Python integers: a float is not truncated
    into one, and a negative machine integer is not stored as it is."""
    with pytest.raises(TypeError, match=f"got {dtype}"):
        build()


def test_default_pool_accounting_is_the_parents():
    """What a fixed program charges ``default_pool`` equals the handle layer's.

    ``(112, 489472, 0)`` was read off commit 14f4f1e (``VectorGPU`` +
    ``AllocationRecord`` accounting) by running this same program there,
    and still held at ba71412.  Since the change on top of ba71412 the five
    encryptions stop charging ten stacks: ``keep_limbs`` of the public
    key's two polynomials at the top level returns the polynomial itself
    (it was ``LimbStack.head`` -> ``.copy()``).  Peak and final bytes are
    unmoved; every other site in the program charges what it did.  Since
    HMult ends in one merged ModDown-rescale, each of the two products
    charges four stacks fewer (the ModDown's two and the relinearisation
    add's two; the tail's two replace the rescale's), and the peak drops
    from 489472 to 477184 bytes.
    """
    from repro.api import CKKSSession
    from repro.ckks.ciphertext import Ciphertext
    from repro.ckks.params import CKKSParameters

    session = CKKSSession.create(
        CKKSParameters(ring_degree=1 << 8, mult_depth=4, scale_bits=22, dnum=2,
                       first_mod_bits=26),
        seed=7, rotations=[1], register_default=False,
    )
    rng = np.random.default_rng(5)
    rows = [rng.uniform(-1, 1, 8) for _ in range(5)]
    backend = session.backend
    gc.collect()
    allocations = default_pool.allocation_count
    default_pool.reset_peak()
    baseline = default_pool.bytes_in_use
    x = backend.encrypt(rows[0])
    y = backend.encrypt(rows[1])
    product = backend.multiply(x, y)  # hmult + rescale
    rotated = backend.rotate(x, 1)
    fused = Ciphertext.fuse([backend.encrypt(row) for row in rows[2:]])
    members = backend.multiply(fused, fused).split()
    assert len(members) == 3
    del x, y, product, rotated, fused, members
    gc.collect()
    assert (
        default_pool.allocation_count - allocations,
        default_pool.peak_bytes - baseline,
        default_pool.bytes_in_use - baseline,
    ) == (94, 477184, 0)


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

    def test_dword_path_matches_object_oracle(self, object_backend):
        context, fast = self._run_hmult_rescale()
        assert context.numeric_backend == modmath.BACKEND_DWORD
        # The hot path ran on one uint64 word per residue, not Python integers.
        for poly in (fast.c0, fast.c1):
            assert poly.data.ndim == 2
            assert poly.data.dtype == np.uint64
        # Re-run the identical computation on the exact object oracle.
        with object_backend():
            oracle_context, exact = self._run_hmult_rescale()
        assert oracle_context.numeric_backend == modmath.BACKEND_OBJECT
        assert exact.c0.data.dtype == np.object_
        assert fast.scale == exact.scale
        for fast_poly, exact_poly in (
            (fast.c0, exact.c0), (fast.c1, exact.c1)
        ):
            assert fast_poly.data.tolist() == [
                [int(x) for x in row] for row in exact_poly.data
            ]

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

    def test_mixed_chain_matches_object_oracle(self, object_backend):
        session, fast = self._run_mixed_chain()
        assert session.numeric_backend == modmath.BACKEND_DWORD
        assert modmath.backend_for_moduli(session.context.moduli[1:]) == (
            modmath.BACKEND_UINT64
        )
        with object_backend():
            oracle_session, exact = self._run_mixed_chain()
        assert oracle_session.numeric_backend == modmath.BACKEND_OBJECT
        for fast_ct, exact_ct in zip(fast, exact):
            for fast_poly, exact_poly in (
                (fast_ct.c0, exact_ct.c0), (fast_ct.c1, exact_ct.c1)
            ):
                assert fast_poly.data.dtype == np.uint64
                assert exact_poly.data.dtype == np.object_
                assert [row.tolist() for row in fast_poly.data] == [
                    [int(x) for x in row] for row in exact_poly.data
                ]

    def test_59_bit_context_reports_dword_backend(self):
        context, product = self._run_hmult_rescale()
        assert context.numeric_backend == modmath.BACKEND_DWORD
        assert product.c0.footprint_bytes() == (
            2 * product.c0.ring_degree * 8
        )
