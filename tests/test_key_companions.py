"""Switching keys carry their 64-bit Shoup companions on a dword chain.

The key multiply of hybrid key switching has a constant side -- the key
digits -- so on the double-word backend each digit polynomial gets a
companion ``floor(k * 2**64 / q)`` once, charged to the key's pool, and
the inner product sums three-product Shoup terms instead of Barrett
products.  The tests pin the companion's life cycle (built once, charged
exactly, tiled and evicted with the key, never built off the dword
backend) and that a key switch with companions is bit-identical to one
without, eagerly and replayed from an executable trace.
"""

import gc

import numpy as np
import pytest

from repro.api import CKKSSession
from repro.ckks.context import Context
from repro.ckks.keys import KeyGenerator, KeySwitchingKey
from repro.ckks.keyswitch import key_switch
from repro.ckks.params import CKKSParameters
from repro.core import modmath
from repro.core.dispatch import get_dispatcher
from repro.core.fusion import TraceProgram, expand_stages, fuse_trace
from repro.core.limb import LimbFormat
from repro.core.memory import MemoryPool
from repro.core.rns_poly import RNSPoly


def _params(scale_bits=59, first_mod_bits=60, **extra):
    return CKKSParameters(
        ring_degree=1 << 6, mult_depth=3, scale_bits=scale_bits, dnum=2,
        first_mod_bits=first_mod_bits, secret_hamming_weight=16,
        label=f"companions-{scale_bits}-{first_mod_bits}", **extra,
    )


@pytest.fixture(scope="module")
def dword():
    context = Context(_params())
    assert context.numeric_backend == modmath.BACKEND_DWORD
    return context, KeyGenerator(context, seed=7).generate([1])


def _on_pool(key: KeySwitchingKey, pool: MemoryPool) -> KeySwitchingKey:
    """The same key digits, charged to ``pool``."""
    return KeySwitchingKey(digits=[
        tuple(
            RNSPoly(p.moduli, p.data, p.fmt, pool=pool)
            for p in digit
        )
        for digit in key.digits
    ])


def _without_companions(key: KeySwitchingKey) -> KeySwitchingKey:
    """The same key with its companions switched off (Barrett products)."""
    bare = KeySwitchingKey(digits=key.digits)
    bare._companions = [None] * key.dnum
    return bare


def _random_eval_poly(context, limb_count, seed):
    moduli = context.moduli_at(limb_count)
    rng = np.random.default_rng(seed)
    rows = [rng.integers(0, q, context.ring_degree, dtype=np.uint64) for q in moduli]
    return RNSPoly.from_limb_arrays(
        context.ring_degree, moduli, rows, LimbFormat.EVALUATION
    )


class TestLifecycle:
    def test_built_once_charged_exactly_and_released(self, dword):
        _, keys = dword
        pool = MemoryPool()
        key = _on_pool(keys.relinearization_key, pool)
        before, allocations = pool.bytes_in_use, pool.allocation_count
        first = key.companions(0)
        key_bytes = sum(p.footprint_bytes() for d in key.digits for p in d)
        # One charge per digit polynomial, 8 B per residue: the key's size.
        assert pool.bytes_in_use - before == key_bytes
        assert pool.allocation_count - allocations == 2 * key.dnum
        # Built once, for every digit.
        assert key.companions(0)[0] is first[0]
        key.companions(1)
        assert pool.bytes_in_use - before == key_bytes
        # Each is floor(k * 2**64 / q) of its key stack.
        b0 = key.digits[0][0]
        for row, q, companion in zip(b0.data, b0.moduli, first[0]):
            assert [int(c) for c in companion] == [(int(k) << 64) // q for k in row]
        # Released with the key.
        del key, first, b0
        gc.collect()
        assert pool.bytes_in_use == 0

    def test_second_key_switch_builds_nothing(self, dword, monkeypatch):
        context, keys = dword
        key = _on_pool(keys.rotation_keys[1], MemoryPool())
        poly = _random_eval_poly(context, len(context.moduli), seed=3)
        first = key_switch(context, poly, key)

        def refuse(*args, **kwargs):
            raise AssertionError("a companion was built again")

        monkeypatch.setattr(modmath, "dword_shoup_column", refuse)
        second = key_switch(context, poly, key)
        for a, b in zip(first, second):
            assert a.data.tolist() == b.data.tolist()

    @pytest.mark.parametrize(
        "params, backend",
        [(_params(28, 30), modmath.BACKEND_UINT64),
         (_params(59, 63), modmath.BACKEND_OBJECT)],
        ids=["uint64", "object"],
    )
    def test_no_companion_off_the_dword_backend(self, params, backend):
        if backend == modmath.BACKEND_OBJECT:
            with pytest.warns(RuntimeWarning, match="object backend"):
                context = Context(params)
        else:
            context = Context(params)
        assert context.numeric_backend == backend
        key = _on_pool(KeyGenerator(context, seed=7).generate([]).relinearization_key,
                       pool := MemoryPool())
        charged = pool.bytes_in_use
        assert key.companions(0) is None
        for members in (1, 3):
            stacks = context.key_digit_stacks(key, 0, len(context.moduli), members)
            assert [len(component) for component in stacks] == [1, 1]
        assert pool.bytes_in_use == charged

    def test_tiled_companions_count_against_the_budget(self, dword):
        context, keys = dword
        key = keys.relinearization_key
        context = Context(context.params)  # a fresh, empty tiled-key cache
        limb_count = len(context.moduli) - 1
        tiled = context.key_digit_stacks(key, 0, limb_count, 3)
        assert [len(component) for component in tiled] == [2, 2]
        windows = context.key_row_windows(limb_count, 1)
        plain = context.key_digit_stacks(key, 0, limb_count, 1)
        for (stack, companion), (key_stack, key_companion) in zip(tiled, plain):
            expected = [np.concatenate([a[rows] for _, rows in windows] * 3)
                        for a in (key_stack, key_companion)]
            assert stack.tolist() == expected[0].tolist()
            assert companion.tolist() == expected[1].tolist()
        entry = sum(a.nbytes for component in tiled for a in component)
        # Two entries fit only if the companions were left out of the count.
        context.TILED_KEY_BUDGET_BYTES = 2 * entry - 1
        context.key_digit_stacks(key, 1, limb_count, 3)
        assert len(context._tiled_keys) == 1
        (cache_key,) = context._tiled_keys
        assert cache_key[1] == 1  # the least recently used entry went
        context.TILED_KEY_BUDGET_BYTES = 2 * entry
        context.key_digit_stacks(key, 0, limb_count, 3)
        assert len(context._tiled_keys) == 2


class TestBitIdentity:
    @pytest.mark.parametrize(
        "params",
        [_params(), _params(28, 60, special_mod_bits=28)],
        ids=["59-bit", "60+28-bit"],
    )
    def test_key_switch_equals_barrett_products(self, params):
        """Top level and below it (two key-row windows), every residue."""
        context = Context(params)
        assert context.numeric_backend == modmath.BACKEND_DWORD
        key = KeyGenerator(context, seed=9).generate([]).relinearization_key
        bare = _without_companions(key)
        for limb_count in (len(context.moduli), 2):
            poly = _random_eval_poly(context, limb_count, seed=limb_count)
            for shoup, barrett in zip(key_switch(context, poly, key),
                                      key_switch(context, poly, bare)):
                assert shoup.data.tolist() == barrett.data.tolist()
        assert key._companions is not None and bare.companions(0) is None

    @pytest.fixture(scope="class")
    def session(self):
        session = CKKSSession.create(
            _params(), rotations=[1], seed=5, register_default=False,
        )
        assert session.numeric_backend == modmath.BACKEND_DWORD
        return session

    @pytest.mark.parametrize("stage_launches", [False, True],
                             ids=["fused", "stage-granular"])
    @pytest.mark.parametrize("members", [1, 3], ids=["B1", "B3"])
    def test_dword_key_switches_replay(self, session, members, stage_launches):
        rng = np.random.default_rng(31)

        def operand():
            rows = [rng.uniform(-1, 1, 8) for _ in range(members)]
            return session.encrypt_batch(rows) if members > 1 else \
                session.encrypt(rows[0])

        x, y = operand(), operand()
        low = (x * y).rescale()  # below the top level: two key-row windows
        with get_dispatcher().record(executable=True) as trace:
            x * y
            x << 1
            low << 1
        if not stage_launches:
            TraceProgram(trace).verify()
            fuse_trace(trace).program().verify()
            return
        # Unfused, each component's two-digit dot product at the top level
        # is a multiply and a multiply-add reading the products' operands
        # alone: the companions are how a dword product is computed, not
        # what the launch reads.  Two levels down one digit is left, and
        # its inner product stays one launch.
        staged = expand_stages(trace)
        products = [e for e in staged if e.kernel.name.startswith("ks-")]
        assert [e.kernel.name.split("[")[0] for e in products] == \
            ["ks-mul", "ks-mul-add"] * 4 + ["ks-inner-product"]
        assert [len(e.read_views) for e in products[:-1]] == [2, 3] * 4
        assert fuse_trace(staged).fused_trace.int_ops == pytest.approx(staged.int_ops)
