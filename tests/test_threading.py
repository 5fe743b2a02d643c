"""One runtime per thread: ``DISPATCH`` is a ``threading.local``.

Each thread has its own recording state, a kernel's temporaries are its
own, and the cached tables every thread reads are read-only
(``tests/test_bounded_caches.py``), so threads can run numeric work at
once: each result is bit-identical to a single-thread run, and a trace
records only its own thread's kernels.
"""

from __future__ import annotations

import ctypes
import sys
import threading

import numpy as np
import pytest

from repro.api import CKKSSession
from repro.ckks.context import Context
from repro.ckks.params import PARAMETER_SETS, CKKSParameters
from repro.core import modmath
from repro.core.dispatch import DISPATCH
from repro.core.memory import MemoryPool
from repro.core.ntt import get_stacked_engine, kernel_tables
from repro.core.primes import generate_ntt_primes

#: Transforms each worker runs: the compiled word kernel, which releases
#: the GIL, on uint64 and dword stacks.
_ENGINES = (
    (1 << 12, tuple(generate_ntt_primes(3, 28, 1 << 12))),
    (1 << 11, tuple(generate_ntt_primes(2, 59, 1 << 11))),
    # The bootstrap's 17-modulus chain.
    (1 << 9, tuple(Context(PARAMETER_SETS["toy-bootstrap"]).moduli)),
    # The 7-modulus N = 2**13 chain of the uint64 workloads.
    (1 << 13, tuple(Context(CKKSParameters(
        ring_degree=1 << 13, mult_depth=6, scale_bits=28, dnum=3,
        first_mod_bits=30)).moduli)),
)


#: More workers than the two cores the suite is sized for.
_WORKERS = 4


def _run_threads(worker, count: int = _WORKERS, timeout: float = 120.0) -> list:
    """Run ``worker(index, barrier)`` on ``count`` threads; re-raise any error.

    The interpreter switches threads every 10 µs meanwhile, so an
    interleaving that could corrupt shared state gets many chances to.
    """
    barrier = threading.Barrier(count)
    results: list = [None] * count
    errors: list = []

    def body(index):
        try:
            results[index] = worker(index, barrier)
        except Exception as exc:  # re-raised on the calling thread
            errors.append(exc)
            barrier.abort()

    threads = [threading.Thread(target=body, args=(i,), name=f"worker-{i}")
               for i in range(count)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout)
            assert not thread.is_alive(), f"{thread.name} did not finish"
    finally:
        sys.setswitchinterval(interval)
    if errors:
        raise errors[0]
    return results


@pytest.fixture(scope="module")
def dword_session():
    """A small session on paper-class 59-bit moduli (128-bit key products)."""
    session = CKKSSession.create(
        CKKSParameters(ring_degree=1 << 8, mult_depth=3, scale_bits=59, dnum=2,
                       first_mod_bits=60, secret_hamming_weight=16,
                       label="threads-dword"),
        seed=9, register_default=False,
    )
    assert session.numeric_backend == modmath.BACKEND_DWORD
    return session


class TestConcurrentNumericWork:
    @pytest.mark.parametrize("members", [1, 3], ids=["B1", "B3"])
    @pytest.mark.parametrize("backend", ["uint64", "dword"])
    def test_hmult_rescale_on_concurrent_threads_is_bit_identical(
            self, request, backend, members):
        """Every thread shares one ``Context`` and ``KeySet``: key material
        is read-only, so fused operands (whose key rows are tiled per call)
        give the solo run's bits on either width."""
        session = request.getfixturevalue(
            "session" if backend == "uint64" else "dword_session")
        rng = np.random.default_rng(7)

        def operand():
            rows = [rng.uniform(-1, 1, 16) for _ in range(members)]
            return session.encrypt_batch(rows) if members > 1 else \
                session.encrypt(rows[0])

        pairs = [(operand(), operand()) for _ in range(_WORKERS)]

        def product(x, y):
            ct = (x * y).handle
            return ct.c0.data.copy(), ct.c1.data.copy()

        solo = [product(x, y) for x, y in pairs]

        def worker(index, barrier):
            x, y = pairs[index]
            barrier.wait()
            return [product(x, y) for _ in range(2)]

        for index, runs in enumerate(_run_threads(worker)):
            for c0, c1 in runs:
                np.testing.assert_array_equal(c0, solo[index][0])
                np.testing.assert_array_equal(c1, solo[index][1])

    def test_stacked_transforms_on_concurrent_threads_are_bit_identical(self):
        rng = np.random.default_rng(11)
        inputs = [
            [rng.integers(0, min(moduli), size=(len(moduli), n), dtype=np.uint64)
             for n, moduli in _ENGINES]
            for _ in range(_WORKERS)
        ]

        def transforms(stacks):
            out = []
            for (n, moduli), stack in zip(_ENGINES, stacks):
                engine = get_stacked_engine(n, moduli)
                forward = engine.forward(stack)
                out += [forward, engine.inverse(forward)]
            return out

        solo = [transforms(stacks) for stacks in inputs]
        # A CDLL (not a PyDLL) call releases the GIL: the kernels run at once.
        assert type(modmath.word_kernel()) is ctypes.CDLL
        # The workers build the engines and their tables at once.
        get_stacked_engine.cache_clear()
        kernel_tables.cache_clear()

        def worker(index, barrier):
            barrier.wait()
            return [transforms(inputs[index]) for _ in range(3)]

        for index, runs in enumerate(_run_threads(worker)):
            for run in runs:
                for got, want in zip(run, solo[index]):
                    np.testing.assert_array_equal(got, want)
            # The inverse undoes the forward on every thread.
            for got, stack in zip(runs[-1][1::2], inputs[index]):
                np.testing.assert_array_equal(got, stack)

    @pytest.mark.parametrize("bits", [28, 59], ids=["uint64", "dword"])
    def test_multiply_kernels_on_concurrent_threads_are_bit_identical(self, bits):
        """The word kernel's products and dot products keep no static
        buffers: two threads calling it at once (the GIL released) on the
        narrow (28-bit) and the wide (59-bit) accumulator each get the
        solo run's bits, in fresh and in caller-owned outputs."""
        n = 1 << 12
        moduli = tuple(generate_ntt_primes(4, bits, n))
        col = modmath.moduli_column(moduli)
        rng = np.random.default_rng(bits)
        inputs = [
            [rng.integers(0, col, size=(len(moduli), n), dtype=np.uint64)
             for _ in range(6)]
            for _ in range(2)
        ]

        def products(stacks):
            a, b, *rest = stacks
            out = np.empty_like(a)
            modmath.stack_dot_mod(list(zip(rest[0::2], rest[1::2])), col, out=out)
            return [
                modmath.stack_mul_mod(a, b, col),
                modmath.stack_scalar_mod(a, range(3, 3 + len(moduli)), col),
                modmath.stack_dot_mod([(a, b), (b[:1], col - 1)] * 9, col),
                out,
            ]

        solo = [products(stacks) for stacks in inputs]

        def worker(index, barrier):
            barrier.wait()
            return [products(inputs[index]) for _ in range(20)]

        for index, runs in enumerate(_run_threads(worker, count=2)):
            for run in runs:
                for got, want in zip(run, solo[index]):
                    np.testing.assert_array_equal(got, want)


class TestConcurrentBootstrap:
    def test_a_fresh_bootstrapper_on_two_threads_is_bit_identical(self):
        """Two threads bootstrap different ciphertexts through one fresh
        ``Bootstrapper`` on a shared ``Context`` and ``KeySet``, so both
        build the transforms' per-level encodings at once: a set either
        thread builds equals the other's, and the results are the solo
        runs' bits."""
        from repro.ckks.bootstrap import Bootstrapper
        from repro.ckks.params import PARAMETER_SETS

        params = PARAMETER_SETS["toy-bootstrap"].with_overrides(ring_degree=1 << 6)
        session = CKKSSession.create(params, seed=3, conjugation=True,
                                     register_default=False)
        ev = session.evaluator
        solo_boot = Bootstrapper(session.context, ev)
        session.add_rotation_keys(solo_boot.required_rotations())
        rng = np.random.default_rng(13)
        inputs = [ev.encrypt(rng.uniform(-0.4, 0.4, 8), level=0) for _ in range(2)]
        solo = [solo_boot.bootstrap(ct) for ct in inputs]

        shared = Bootstrapper(session.context, ev)
        transforms = (*shared._coeff_to_slot, *shared._slot_to_coeff)
        assert not any(t._encoded for t in transforms)

        def worker(index, barrier):
            barrier.wait()
            ct = shared.bootstrap(inputs[index])
            return ct.c0.data.copy(), ct.c1.data.copy(), ct.scale

        for (c0, c1, scale), want in zip(_run_threads(worker, count=2), solo):
            np.testing.assert_array_equal(c0, want.c0.data)
            np.testing.assert_array_equal(c1, want.c1.data)
            assert scale == want.scale
        solo_transforms = (*solo_boot._coeff_to_slot, *solo_boot._slot_to_coeff)
        assert [sorted(t._encoded) for t in transforms] == \
            [sorted(t._encoded) for t in solo_transforms]


class TestPerThreadRecording:
    def test_a_trace_records_only_its_own_thread(self, session):
        rng = np.random.default_rng(5)
        x = session.encrypt(rng.uniform(-1, 1, 16))
        y = session.encrypt(rng.uniform(-1, 1, 16))
        with session.trace() as solo:
            x * y
        stop = threading.Event()

        def worker(index, barrier):
            barrier.wait()
            if index == 0:
                try:
                    with session.trace() as trace:
                        x * y
                    return trace
                finally:
                    stop.set()
            count = 0
            while not stop.is_set() or count == 0:
                x * y
                (x + y) << 1
                count += 1
            assert not DISPATCH.recording
            return count

        trace, *evaluations = _run_threads(worker)
        assert min(evaluations) >= 1
        assert trace.kernel_count == solo.kernel_count
        assert [e.kernel.name for e in trace] == [e.kernel.name for e in solo]
        assert trace.scopes() == solo.scopes()
        assert not DISPATCH.recording

    def test_recording_state_is_not_shared(self):
        seen = []

        def worker(index, barrier):
            if index == 0:
                with DISPATCH.record(), DISPATCH.scope("outer"):
                    barrier.wait()  # the others look while this one records
                    barrier.wait()
                return None
            barrier.wait()
            seen.append((DISPATCH.recording, list(DISPATCH._scopes)))
            barrier.wait()
            return None

        _run_threads(worker)
        assert seen == [(False, [])] * (_WORKERS - 1)


def _switch_point() -> None:
    """A Python call: the interpreter may switch threads on entering it."""


class _YieldingPool(MemoryPool):
    """A pool with a thread-switch point after every counter read, so a
    switch can fall between a counter's read and its write."""

    def __getattribute__(self, name):
        value = super().__getattribute__(name)
        if name in ("bytes_in_use", "allocation_count"):
            _switch_point()
        return value


class TestSharedMemoryPool:
    def test_two_threads_charging_one_pool_keep_exact_counters(self):
        """``charge``, ``release`` and ``reset_peak`` update a pool's counters
        under one lock: 10⁴ charge/release pairs per thread on one pool
        leave nothing in use and count every charge."""
        pool = _YieldingPool()
        pairs, sizes = 10_000, (1000, 3000)

        def worker(index, barrier):
            barrier.wait()
            for _ in range(pairs):
                pool.charge(sizes[index])
                pool.release(sizes[index])
                pool.reset_peak()

        _run_threads(worker, count=2)
        assert pool.bytes_in_use == 0
        assert pool.allocation_count == 2 * pairs
        assert pool.internal_fragmentation() == 0.0
        assert pool.peak_bytes <= sum(pool._round_up(s) for s in sizes)

    def test_a_release_inside_charge_neither_deadlocks_nor_loses_an_update(self):
        """``RNSPoly.__del__`` releases into its pool, so a collection may
        finalise a polynomial on a thread inside ``charge``'s locked
        section.  That release must finish and keep the counters exact."""
        pending = [4000]

        class FinalisingPool(MemoryPool):
            # ``charge`` reads ``allocation_count`` only under its lock.
            def __getattribute__(self, name):
                if name == "allocation_count" and pending:
                    self.release(pending.pop())
                return super().__getattribute__(name)

        pool = FinalisingPool()
        held = pending.pop()
        pool.charge(held)
        pending.append(held)
        outcome: list = []

        def charge():
            try:
                pool.charge(1000)
                outcome.append("done")
            except Exception as exc:  # re-raised on the calling thread
                outcome.append(exc)

        thread = threading.Thread(target=charge, daemon=True)
        thread.start()
        thread.join(timeout=30)
        assert outcome, "a release inside charge's locked section deadlocked"
        assert outcome == ["done"], outcome
        assert not pending
        assert pool.bytes_in_use == pool._round_up(1000)
        assert pool._requested_in_use == 1000
        assert pool.allocation_count == 2
        assert pool.peak_bytes == pool._round_up(4000) + pool._round_up(1000)
