"""The ``encoded_length`` a result carries: the longest operand's.

A message of ``n`` values is zero-padded to ``next_pow2(n)`` and replicated
over the slots, so a ciphertext's slots repeat with that period, and a
result that combines operands slot by slot repeats with the longest
operand's.  ``encoded_length`` is what a decrypt decodes by default and
what the sparse bootstrap reads the replication period from, so every
operation must carry the longest length (``None``, every slot, when one is
unknown) -- on the evaluator, on its cost-model twin and through
``CipherVector``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CKKSSession, CipherVector
from repro.ckks.ciphertext import longest_length
from repro.ckks.params import CKKSParameters

#: Rotation steps the property session holds keys for.
STEPS = (1, 2, 3, 5, -1)


@pytest.fixture(scope="module")
def small_session():
    params = CKKSParameters(ring_degree=1 << 6, mult_depth=4, scale_bits=25, dnum=2,
                            first_mod_bits=30, label="lengths")
    session = CKKSSession.create(params, rotations=list(STEPS), conjugation=True,
                                 seed=4, register_default=False)
    return session, session.cost_backend()


def period(length: int) -> int:
    return 1 << (length - 1).bit_length()


def test_a_sum_decodes_both_operands(session):
    """Regression: ``a + b`` kept ``a``'s length, so a 4-value ``a`` plus an
    8-value ``b`` decoded 4 values and ``b + a`` all 8."""
    a = session.encrypt(np.arange(1, 5) / 10)
    b = session.encrypt(np.arange(1, 9) / 10)
    for total in (a + b, b + a):
        assert total.encoded_length == 8
        assert len(session.decrypt(total)) == 8


@pytest.mark.parametrize("lengths, expected", [
    ((4, 8), 8), ((8, None), None), (((2, 8), 4), (4, 8)),
    (((2, None), (16, 1)), (16, None)),
], ids=["ints", "unknown", "fused-and-plain", "fused-pair"])
def test_longest_length(lengths, expected):
    assert longest_length(*lengths) == expected


OPERATIONS = ("add", "sub", "mul", "square", "add_plain", "mul_plain", "add_scalar",
              "mul_scalar", "rotate", "conj", "product_sum", "weighted_sum", "fuse")


@given(
    lengths=st.lists(st.integers(1, 32), min_size=2, max_size=3),
    program=st.lists(st.tuples(st.sampled_from(OPERATIONS), st.integers(0, 1 << 16),
                               st.integers(0, 1 << 16), st.integers(1, 32)),
                     min_size=1, max_size=6),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=30, deadline=None)
def test_results_repeat_with_their_length(small_session, lengths, program, seed):
    """Random chains of operations on messages of random lengths: each
    decrypted result repeats with period ``next_pow2(encoded_length)``, and
    the cost-model twin reports the same lengths."""
    session, twin = small_session
    rng = np.random.default_rng(seed)
    messages = [rng.uniform(-1, 1, n) for n in lengths]
    pool = [(session.encrypt(m), CipherVector(twin, twin.encrypt(m))) for m in messages]
    for name, i, j, size in program:
        (x, x_sym), (y, y_sym) = pool[i % len(pool)], pool[j % len(pool)]
        low = min(x.level, y.level)
        values = rng.uniform(-1, 1, size)
        if name == "add":
            out = x + y, x_sym + y_sym
        elif name == "sub":
            out = x - y, x_sym - y_sym
        elif name == "mul" and low > 0:
            out = x * y, x_sym * y_sym
        elif name == "square" and x.level > 0:
            out = x.square(), x_sym.square()
        elif name == "add_plain":
            out = x + values, x_sym + values
        elif name == "mul_plain" and x.level > 0:
            out = x * values, x_sym * values
        elif name == "add_scalar":
            out = x + 0.5, x_sym + 0.5
        elif name == "mul_scalar" and x.level > 0:
            out = x * 0.5, x_sym * 0.5
        elif name == "rotate":
            step = STEPS[size % len(STEPS)]
            out = x << step, x_sym << step
        elif name == "conj":
            out = x.conj(), x_sym.conj()
        elif name == "product_sum" and low > 0:
            out = (x.product_sum(y, low - 1, [(x, 0.5)], constant=0.25),
                   x_sym.product_sum(y_sym, low - 1, [(x_sym, 0.5)], constant=0.25))
        elif name == "weighted_sum" and low > 0:
            out = (CipherVector.weighted_sum([(x, 0.5), (y, -0.25)], low - 1),
                   CipherVector.weighted_sum([(x_sym, 0.5), (y_sym, -0.25)], low - 1))
        elif name == "fuse" and x.level == y.level and x.scale == y.scale:
            # Member i of one batch meets member i of the other.
            fused = session.batch([x, y]) + session.batch([y, x])
            fused_sym = (CipherVector(twin, twin.batch_from([x_sym.handle, y_sym.handle]))
                         + CipherVector(twin, twin.batch_from([y_sym.handle, x_sym.handle])))
            assert fused.encoded_length == fused_sym.encoded_length
            pool.extend(zip(fused.split(), fused_sym.split()))
            continue
        else:
            continue
        pool.append(out)
    for vector, symbolic in pool:
        assert vector.encoded_length == symbolic.encoded_length
        if vector.encoded_length is None:
            continue
        slots = session.decrypt(vector, vector.slots)
        p = period(vector.encoded_length)
        tolerance = 1e-3 * max(1.0, float(np.max(np.abs(slots))))
        assert np.max(np.abs(slots - np.roll(slots, p))) < tolerance
