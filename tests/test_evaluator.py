"""Integration tests of every server-side primitive against the client.

This mirrors the paper's integration-test methodology: each operation is
executed by the (GPU-style) evaluator and the decrypted result is compared
with the plaintext-computed reference.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ckks.ciphertext import Ciphertext
from repro.core.dispatch import DISPATCH
from tests.conftest import assert_close, assert_same_ciphertext


@pytest.fixture(scope="module")
def messages(rng):
    a = rng.uniform(-1, 1, 16)
    b = rng.uniform(-1, 1, 16)
    return a, b


@pytest.fixture(scope="module")
def ciphertexts(encryptor, messages):
    a, b = messages
    return encryptor.encrypt_values(a), encryptor.encrypt_values(b)


class TestAdditions:
    def test_hadd(self, evaluator, decryptor, ciphertexts, messages):
        ct = evaluator.add(*ciphertexts)
        assert_close(decryptor.decrypt_values(ct, 16).real, messages[0] + messages[1])

    def test_hsub(self, evaluator, decryptor, ciphertexts, messages):
        ct = evaluator.sub(*ciphertexts)
        assert_close(decryptor.decrypt_values(ct, 16).real, messages[0] - messages[1])

    def test_negate(self, evaluator, decryptor, ciphertexts, messages):
        ct = evaluator.negate(ciphertexts[0])
        assert_close(decryptor.decrypt_values(ct, 16).real, -messages[0])

    def test_ptadd(self, evaluator, decryptor, encryptor, ciphertexts, messages, context):
        from repro.ckks.encryption import encode
        pt = encode(context, messages[1], scale=ciphertexts[0].scale)
        ct = evaluator.add_plain(ciphertexts[0], pt)
        assert_close(decryptor.decrypt_values(ct, 16).real, messages[0] + messages[1])

    def test_ptsub(self, evaluator, decryptor, ciphertexts, messages, context):
        from repro.ckks.encryption import encode
        pt = encode(context, messages[1], scale=ciphertexts[0].scale)
        ct = evaluator.sub_plain(ciphertexts[0], pt)
        assert_close(decryptor.decrypt_values(ct, 16).real, messages[0] - messages[1])

    def test_scalar_add(self, evaluator, decryptor, ciphertexts, messages):
        ct = evaluator.add_scalar(ciphertexts[0], 0.375)
        assert_close(decryptor.decrypt_values(ct, 16).real, messages[0] + 0.375)

    def test_scalar_sub(self, evaluator, decryptor, ciphertexts, messages):
        ct = evaluator.add_scalar(ciphertexts[0], -0.25)
        assert_close(decryptor.decrypt_values(ct, 16).real, messages[0] - 0.25)

    def test_addition_is_commutative(self, evaluator, decryptor, ciphertexts):
        lhs = decryptor.decrypt_values(evaluator.add(*ciphertexts), 16)
        rhs = decryptor.decrypt_values(evaluator.add(ciphertexts[1], ciphertexts[0]), 16)
        assert_close(lhs, rhs, 1e-9)

    def test_add_mismatched_levels_adjusts(self, evaluator, decryptor, ciphertexts, messages):
        deeper = evaluator.multiply(ciphertexts[0], ciphertexts[1])
        mixed = evaluator.add(deeper, ciphertexts[0])
        expected = messages[0] * messages[1] + messages[0]
        assert_close(decryptor.decrypt_values(mixed, 16).real, expected, 2e-3)


class TestMultiplications:
    def test_hmult(self, evaluator, decryptor, ciphertexts, messages):
        ct = evaluator.multiply(*ciphertexts)
        assert ct.level == ciphertexts[0].level - 1
        assert_close(decryptor.decrypt_values(ct, 16).real, messages[0] * messages[1])

    def test_hsquare(self, evaluator, decryptor, ciphertexts, messages):
        ct = evaluator.square(ciphertexts[0])
        assert_close(decryptor.decrypt_values(ct, 16).real, messages[0] ** 2)

    def test_hsquare_matches_hmult(self, evaluator, decryptor, ciphertexts):
        square = decryptor.decrypt_values(evaluator.square(ciphertexts[0]), 16)
        mult = decryptor.decrypt_values(
            evaluator.multiply(ciphertexts[0], ciphertexts[0]), 16
        )
        assert_close(square, mult, 1e-4)

    def test_ptmult(self, evaluator, decryptor, ciphertexts, messages):
        pt = evaluator.encode_for(ciphertexts[0], messages[1])
        ct = evaluator.multiply_plain(ciphertexts[0], pt)
        assert_close(decryptor.decrypt_values(ct, 16).real, messages[0] * messages[1])

    def test_scalar_mult(self, evaluator, decryptor, ciphertexts, messages):
        ct = evaluator.multiply_scalar(ciphertexts[0], -0.75)
        assert_close(decryptor.decrypt_values(ct, 16).real, -0.75 * messages[0])

    def test_multiply_by_i(self, evaluator, decryptor, ciphertexts, messages):
        ct = evaluator.multiply_by_i(ciphertexts[0])
        assert_close(decryptor.decrypt_values(ct, 16), 1j * messages[0])

    def test_multiply_by_monomial_power_n(self, evaluator, decryptor, ciphertexts, messages, context):
        # X^N = -1, so multiplying by the monomial of degree N negates.
        ct = evaluator.multiply_by_monomial(ciphertexts[0], context.ring_degree)
        assert_close(decryptor.decrypt_values(ct, 16), -messages[0].astype(complex))

    def test_product_scale_follows_ladder(self, evaluator, context, ciphertexts):
        product = evaluator.multiply(*ciphertexts)
        assert product.scale == pytest.approx(context.scale_at(product.level), rel=1e-9)

    def test_distributivity(self, evaluator, decryptor, ciphertexts, messages):
        a_ct, b_ct = ciphertexts
        a, b = messages
        lhs = evaluator.multiply(a_ct, evaluator.add(a_ct, b_ct))
        rhs = evaluator.add(evaluator.square(a_ct), evaluator.multiply(a_ct, b_ct))
        assert_close(
            decryptor.decrypt_values(lhs, 16), decryptor.decrypt_values(rhs, 16), 1e-3
        )

    def test_depth_chain_to_bottom(self, evaluator, decryptor, encryptor, context, rng):
        values = rng.uniform(-0.9, 0.9, 4)
        ct = encryptor.encrypt_values(values)
        other = encryptor.encrypt_values([0.9, 0.8, -0.7, 0.6])
        expected = np.array(values, dtype=float)
        for _ in range(context.max_level):
            ct = evaluator.multiply(ct, other)
            expected = expected * np.array([0.9, 0.8, -0.7, 0.6])
        assert ct.level == 0
        assert_close(decryptor.decrypt_values(ct, 4).real, expected, 5e-3)


class TestRescaleAndLevels:
    def test_rescale_reduces_level_and_scale(self, evaluator, ciphertexts, messages):
        raw = evaluator.multiply_plain(ciphertexts[0], messages[1], rescale=False)
        rescaled = evaluator.rescale(raw)
        assert rescaled.level == raw.level - 1
        assert rescaled.scale < raw.scale

    def test_rescale_level_zero_rejected(self, evaluator, ciphertexts):
        bottom = evaluator.mod_reduce(ciphertexts[0], 1)
        with pytest.raises(ValueError):
            evaluator.rescale(bottom)

    def test_mod_reduce_preserves_message(self, evaluator, decryptor, ciphertexts, messages):
        reduced = evaluator.mod_reduce(ciphertexts[0], 3)
        assert reduced.limb_count == 3
        assert_close(decryptor.decrypt_values(reduced, 16).real, messages[0])

    def test_adjust_to_lower_level(self, evaluator, decryptor, context, ciphertexts, messages):
        adjusted = evaluator.adjust(ciphertexts[0], 2)
        assert adjusted.level == 2
        assert adjusted.scale == pytest.approx(context.scale_at(2), rel=1e-9)
        assert_close(decryptor.decrypt_values(adjusted, 16).real, messages[0], 1e-3)

    def test_adjust_to_higher_level_rejected(self, evaluator, ciphertexts):
        low = evaluator.mod_reduce(ciphertexts[0], 2)
        with pytest.raises(ValueError):
            evaluator.adjust(low, 5)

    def test_dot_product_plain_fusion(self, evaluator, decryptor, encryptor, rng):
        vectors = [rng.uniform(-1, 1, 8) for _ in range(3)]
        weights = [rng.uniform(-1, 1, 8) for _ in range(3)]
        cts = [encryptor.encrypt_values(v) for v in vectors]
        pts = [evaluator.encode_for(cts[0], w) for w in weights]
        result = evaluator.dot_product_plain(cts, pts)
        expected = sum(v * w for v, w in zip(vectors, weights))
        assert_close(decryptor.decrypt_values(result, 8).real, expected)

    def test_dot_product_plain_empty_rejected(self, evaluator):
        with pytest.raises(ValueError, match="at least one ciphertext/plaintext pair"):
            evaluator.dot_product_plain([], [])

    def test_dot_product_plain_length_mismatch_reported(self, evaluator, encryptor, rng):
        ct = encryptor.encrypt_values(rng.uniform(-1, 1, 4))
        pts = [evaluator.encode_for(ct, rng.uniform(-1, 1, 4)) for _ in range(2)]
        with pytest.raises(ValueError, match="1 ciphertexts and 2 plaintexts"):
            evaluator.dot_product_plain([ct], pts)

    def test_multiply_scalar_level_zero_with_rescale_rejected(self, evaluator, ciphertexts):
        bottom = evaluator.mod_reduce(ciphertexts[0], 1)
        with pytest.raises(ValueError, match="level-0 ciphertext"):
            evaluator.multiply_scalar(bottom, 2.0)


class TestRotations:
    @pytest.mark.parametrize("steps", [1, 2, 3, 4, 8])
    def test_rotation_matches_numpy_roll(self, evaluator, decryptor, ciphertexts, messages, steps):
        ct = evaluator.rotate(ciphertexts[0], steps)
        assert_close(decryptor.decrypt_values(ct, 16).real, np.roll(messages[0], -steps))

    def test_negative_rotation(self, evaluator, decryptor, ciphertexts, messages):
        ct = evaluator.rotate(ciphertexts[0], -1)
        assert_close(decryptor.decrypt_values(ct, 16).real, np.roll(messages[0], 1))

    def test_rotation_by_zero_is_identity(self, evaluator, decryptor, ciphertexts, messages):
        ct = evaluator.rotate(ciphertexts[0], 0)
        assert_close(decryptor.decrypt_values(ct, 16).real, messages[0])

    def test_missing_rotation_key_raises(self, evaluator, ciphertexts):
        with pytest.raises(KeyError):
            evaluator.rotate(ciphertexts[0], 7)

    def test_conjugate(self, evaluator, decryptor, encryptor, rng):
        values = rng.uniform(-1, 1, 8) + 1j * rng.uniform(-1, 1, 8)
        ct = evaluator.conjugate(encryptor.encrypt_values(values))
        assert_close(decryptor.decrypt_values(ct, 8), np.conj(values))

    def test_rotation_composition(self, evaluator, decryptor, ciphertexts, messages):
        ct = evaluator.rotate(evaluator.rotate(ciphertexts[0], 1), 2)
        assert_close(decryptor.decrypt_values(ct, 16).real, np.roll(messages[0], -3))

    def test_hoisted_matches_individual(self, evaluator, decryptor, ciphertexts):
        hoisted = evaluator.hoisted_rotations(ciphertexts[0], [1, 2, 4])
        for steps, rotated in hoisted.items():
            individual = evaluator.rotate(ciphertexts[0], steps)
            assert_close(
                decryptor.decrypt_values(rotated, 16),
                decryptor.decrypt_values(individual, 16),
                1e-4,
            )

    @pytest.mark.parametrize("multiples", [(0,), (0, 1)], ids=["0", "0-slots"])
    def test_hoisted_trivial_steps_launch_nothing(self, evaluator, ciphertexts, multiples):
        """Steps that are all 0 mod slots pay no ModUp (it used to record
        7 launches on ``toy``): each result is the operand's polynomials."""
        x = ciphertexts[0]
        steps = [k * x.slots for k in multiples]
        with DISPATCH.record() as trace:
            results = evaluator.hoisted_rotations(x, steps)
        assert trace.kernel_count == 0
        assert sorted(results) == steps
        assert all(ct.c0 is x.c0 and ct.c1 is x.c1 for ct in results.values())

    def test_rotation_after_multiplication(self, evaluator, decryptor, ciphertexts, messages):
        product = evaluator.multiply(*ciphertexts)
        rotated = evaluator.rotate(product, 2)
        assert_close(
            decryptor.decrypt_values(rotated, 16).real,
            np.roll(messages[0] * messages[1], -2),
            1e-3,
        )


class TestOperandsAreImmutable:
    """Sharing is safe because nothing writes a built polynomial."""

    @staticmethod
    def _bits(ct):
        return ct.c0.data.copy(), ct.c1.data.copy()

    def test_shared_component_survives_later_operations(self, evaluator, ciphertexts):
        x = ciphertexts[0]
        before = self._bits(x)
        y = evaluator.add_scalar(x, 1.0)
        # ScalarAdd touches c0 only: c1 is the operand's, not a copy of it.
        assert y.c1 is x.c1
        assert np.shares_memory(x.c1.data, y.c1.data)
        assert not np.shares_memory(x.c0.data, y.c0.data)
        shared = self._bits(y)
        z = evaluator.multiply(y, y)
        evaluator.rotate(y, 1), evaluator.negate(y), evaluator.adjust(z, z.level - 1)
        for ct, bits in ((x, before), (y, shared)):
            for component, saved in zip((ct.c0, ct.c1), bits):
                np.testing.assert_array_equal(component.data, saved)

    def test_plain_operands_are_read_in_place(self, evaluator, context, ciphertexts, messages):
        from repro.ckks.encryption import encode
        x = ciphertexts[0]
        pt = encode(context, messages[1], scale=x.scale)
        saved = pt.poly.data.copy()
        assert evaluator._plain_operand(x, pt) is pt.poly  # same basis, evaluation
        assert evaluator.add_plain(x, pt).c1 is x.c1
        lower = evaluator.mod_reduce(x, x.limb_count - 1)
        windowed = evaluator._plain_operand(lower, pt)
        assert np.shares_memory(windowed.data, pt.poly.data)
        evaluator.multiply_plain(lower, pt)
        np.testing.assert_array_equal(pt.poly.data, saved)

    def test_no_ops_return_a_new_handle_over_the_same_polynomials(self, evaluator, ciphertexts):
        x = ciphertexts[0]
        same = [
            evaluator.rotate(x, 0), evaluator.rotate(x, x.slots),
            evaluator.adjust(x, x.level), evaluator.mod_reduce(x, x.limb_count),
            evaluator.hoisted_rotations(x, [0, 1])[0],
        ]
        for ct in same:
            assert ct is not x and ct.c0 is x.c0 and ct.c1 is x.c1
            ct.scale = 1.0  # metadata stays independently assignable
        assert x.scale != 1.0


#: Word-size chains ``(scale_bits, first_mod_bits)`` and the backend each runs.
DOT_CHAINS = {"uint64": (28, 30), "dword": (59, 60), "object": (59, 63)}


@pytest.fixture(scope="module")
def chain_sessions():
    from repro.api import CKKSSession
    from repro.ckks.params import CKKSParameters

    sessions = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # object fallback notice
        for name, (scale_bits, first_mod_bits) in DOT_CHAINS.items():
            sessions[name] = CKKSSession.create(
                CKKSParameters(
                    ring_degree=1 << 6, mult_depth=3, scale_bits=scale_bits, dnum=2,
                    first_mod_bits=first_mod_bits, secret_hamming_weight=16,
                    label=f"dot-{name}",
                ),
                seed=13, register_default=False,
            )
    assert {k: s.numeric_backend for k, s in sessions.items()} == {
        k: k for k in DOT_CHAINS
    }
    return sessions


def _pairwise_dot(evaluator, cts, plaintexts):
    """The chain the fused dot product replaces: a product and an add per term."""
    acc = evaluator.multiply_plain(cts[0], plaintexts[0], rescale=False)
    for ct, pt in zip(cts[1:], plaintexts[1:]):
        acc = evaluator.add(acc, evaluator.multiply_plain(ct, pt, rescale=False))
    return acc


class TestFusedDotProduct:
    """``dot_product_plain`` is one launch with one reduction per component,
    and its residues are the pairwise chain's (modular sums are exact)."""

    @pytest.mark.parametrize("members", [1, 3], ids=["B1", "B3"])
    @pytest.mark.parametrize("chain", sorted(DOT_CHAINS))
    def test_bit_identical_to_the_pairwise_chain(self, chain_sessions, chain, members):
        ev = chain_sessions[chain].evaluator
        rng = np.random.default_rng(17)
        rows = lambda: [rng.uniform(-1, 1, 8) for _ in range(members)]  # noqa: E731
        cts = [ev.encrypt_batch(rows()) if members > 1 else ev.encrypt(rows()[0])
               for _ in range(5)]
        # Raw value rows and pre-encoded plaintexts both take part.
        weights = [rng.uniform(-1, 1, 8) for _ in cts]
        plaintexts = weights[:2] + [ev.encode_for(ct, w) for ct, w in zip(cts[2:], weights[2:])]
        reference = _pairwise_dot(ev, cts, plaintexts)
        assert_same_ciphertext(
            ev.dot_product_plain(cts, plaintexts, rescale=False), reference
        )
        assert_same_ciphertext(
            ev.dot_product_plain(cts, plaintexts), ev.rescale(reference)
        )

    def test_is_one_launch(self, session, evaluator, encryptor, rng):
        cts = [encryptor.encrypt_values(rng.uniform(-1, 1, 8)) for _ in range(4)]
        plaintexts = [evaluator.encode_for(ct, rng.uniform(-1, 1, 8)) for ct in cts]
        with session.trace() as trace:
            evaluator.dot_product_plain(cts, plaintexts, rescale=False)
        assert [k.name.split("[")[0] for k in trace.kernels()] == ["ptdot"]

    def test_product_scale_mismatch_is_the_error_add_raises(
            self, evaluator, encryptor, context, rng):
        from repro.ckks.encryption import encode

        cts = [encryptor.encrypt_values(rng.uniform(-1, 1, 8)) for _ in range(2)]
        plaintexts = [
            evaluator.encode_for(cts[0], rng.uniform(-1, 1, 8)),
            encode(context, rng.uniform(-1, 1, 8), scale=2.0 ** 20,
                   limb_count=cts[1].limb_count),
        ]
        with pytest.raises(ValueError) as chained:
            _pairwise_dot(evaluator, cts, plaintexts)
        with pytest.raises(ValueError) as fused:
            evaluator.dot_product_plain(cts, plaintexts)
        assert str(fused.value) == str(chained.value)
        assert "scale mismatch at equal level" in str(fused.value)

    def test_mixed_levels_are_aligned_like_add(self, evaluator, encryptor, decryptor, rng):
        vectors = [rng.uniform(-1, 1, 8) for _ in range(3)]
        weights = [rng.uniform(-1, 1, 8) for _ in range(3)]
        cts = [encryptor.encrypt_values(v) for v in vectors]
        cts[1] = evaluator.adjust(cts[1], cts[1].level - 2)
        result = evaluator.dot_product_plain(cts, weights)
        assert result.level == cts[1].level - 1
        expected = sum(v * w for v, w in zip(vectors, weights))
        assert_close(decryptor.decrypt_values(result, 8).real, expected)


class TestWeightedSumChecks:
    """``Evaluator.weighted_sum`` and ``product_sum`` refuse a malformed sum
    before they launch anything, with a ``ValueError`` that names the
    term."""

    def _refused(self, session, evaluator, terms, level, match, **kwargs):
        self._refused_call(session, lambda: evaluator.weighted_sum(terms, level, **kwargs),
                           match)

    @staticmethod
    def _refused_call(session, call, match):
        with session.trace() as trace:
            with pytest.raises(ValueError, match=match):
                call()
        assert trace.kernel_count == 0 and len(trace) == 0

    def test_empty_term_list(self, session, evaluator):
        self._refused(session, evaluator, [], 2, "at least one term")

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_coefficient(self, session, evaluator, ciphertexts, bad):
        x, y = ciphertexts
        self._refused(session, evaluator, [(x, 0.5), (y, bad)], x.level - 1,
                      "weighted_sum term 1 needs a finite scalar")

    def test_non_finite_constant(self, session, evaluator, ciphertexts):
        x, _ = ciphertexts
        self._refused(session, evaluator, [(x, 0.5)], x.level - 1,
                      "weighted_sum's constant needs a finite scalar", constant=float("nan"))

    def test_term_below_the_level(self, session, evaluator, ciphertexts):
        x, y = ciphertexts
        low = evaluator.mod_reduce(y, y.limb_count - 2)
        self._refused(session, evaluator, [(x, 0.5), (low, 0.5)], x.level - 1,
                      f"weighted_sum term 1 is at level {low.level}, below level "
                      rf"{x.level - 1} \+ 1")
        # A product's operand and addend too.
        self._refused_call(session, lambda: evaluator.product_sum(x, low, x.level - 1),
                           f"product_sum's b is at level {low.level}")
        self._refused_call(
            session, lambda: evaluator.product_sum(x, y, x.level - 1, [(low, 1.0)]),
            "product_sum addend 0 is at level")

    def test_batch_mismatch(self, session, evaluator, ciphertexts):
        x, y = ciphertexts
        fused = Ciphertext.fuse([x, y])
        self._refused(session, evaluator, [(x, 0.5), (fused, 0.5)], x.level - 1,
                      r"weighted_sum term 1: batch sizes differ \(1 vs 2\)")
        self._refused_call(session, lambda: evaluator.product_sum(x, fused, x.level - 1),
                           r"product_sum's b: batch sizes differ \(1 vs 2\)")

    @pytest.mark.parametrize("bad", [0, 2.0, True])
    def test_product_multiplier_is_a_nonzero_integer(self, session, evaluator,
                                                     ciphertexts, bad):
        x, y = ciphertexts
        self._refused_call(
            session, lambda: evaluator.product_sum(x, y, x.level - 1, multiplier=bad),
            "product_sum's multiplier must be a nonzero integer")

    def test_non_finite_product_addend_and_constant(self, session, evaluator, ciphertexts):
        x, y = ciphertexts
        self._refused_call(
            session, lambda: evaluator.product_sum(x, y, x.level - 1, [(x, float("nan"))]),
            "product_sum addend 0 needs a finite scalar")
        self._refused_call(
            session, lambda: evaluator.product_sum(x, y, x.level - 1, constant=float("inf")),
            "product_sum's constant needs a finite scalar")


@given(
    values=st.lists(st.floats(min_value=-1, max_value=1, allow_nan=False), min_size=4, max_size=4),
    scalar=st.floats(min_value=-2, max_value=2, allow_nan=False),
)
@settings(max_examples=10, deadline=None)
def test_scalar_operations_property(evaluator, encryptor, decryptor, values, scalar):
    ct = encryptor.encrypt_values(values)
    combined = evaluator.add_scalar(evaluator.multiply_scalar(ct, scalar), scalar)
    expected = np.asarray(values) * scalar + scalar
    got = decryptor.decrypt_values(combined, 4).real
    assert np.max(np.abs(got - expected)) < 2e-3
