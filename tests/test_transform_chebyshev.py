"""Tests for BSGS linear transforms and Chebyshev/Paterson-Stockmeyer evaluation."""

import math

import numpy as np
import pytest

from repro.ckks.chebyshev import (
    chebyshev_coefficients,
    chebyshev_divide,
    chebyshev_series_value,
    double_angle,
    evaluate_chebyshev,
    evaluate_chebyshev_direct,
)
from repro.ckks.linear_transform import (
    LinearTransform,
    coeff_to_slot_matrix,
    decoding_matrix,
    slot_to_coeff_matrix,
)
from tests.conftest import assert_close


class TestChebyshevMath:
    def test_coefficients_reconstruct_function(self):
        coeffs = chebyshev_coefficients(lambda x: math.cos(2 * math.pi * x), 30)
        xs = np.linspace(-1, 1, 41)
        values = np.array([chebyshev_series_value(coeffs, x) for x in xs])
        assert_close(values, np.cos(2 * np.pi * xs), 1e-6)

    def test_low_degree_polynomial_exact(self):
        coeffs = chebyshev_coefficients(lambda x: 2 * x * x - 1, 2)
        assert coeffs[2] == pytest.approx(1.0, abs=1e-9)
        assert coeffs[0] == pytest.approx(0.0, abs=1e-9)

    def test_divide_reconstructs(self):
        rng = np.random.default_rng(0)
        coeffs = rng.normal(size=13)
        n = 4
        quotient, remainder = chebyshev_divide(coeffs, n)
        xs = np.linspace(-1, 1, 17)
        f = np.array([chebyshev_series_value(coeffs, x) for x in xs])
        q = np.array([chebyshev_series_value(quotient, x) for x in xs])
        r = np.array([chebyshev_series_value(remainder, x) for x in xs])
        t_n = np.cos(n * np.arccos(xs))
        assert_close(q * t_n + r, f, 1e-9)

    def test_divide_small_degree_is_remainder(self):
        quotient, remainder = chebyshev_divide([1.0, 2.0], 4)
        assert list(quotient) == [0.0]
        assert list(remainder) == [1.0, 2.0]

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            chebyshev_coefficients(math.cos, -1)


class TestHomomorphicChebyshev:
    @pytest.fixture(scope="class")
    def inputs(self, rng, encryptor):
        ys = rng.uniform(-0.9, 0.9, 8)
        return ys, encryptor.encrypt_values(ys)

    def test_direct_evaluation(self, evaluator, decryptor, inputs):
        ys, ct = inputs
        coeffs = chebyshev_coefficients(lambda x: 0.25 + x - 0.5 * x**3, 3)
        result = evaluate_chebyshev_direct(evaluator, ct, coeffs)
        assert_close(decryptor.decrypt_values(result, 8).real, 0.25 + ys - 0.5 * ys**3, 2e-3)

    def test_bsgs_ps_evaluation(self, evaluator, decryptor, inputs):
        ys, ct = inputs
        coeffs = chebyshev_coefficients(lambda x: np.cos(3 * x), 12)
        result = evaluate_chebyshev(evaluator, ct, coeffs)
        assert_close(decryptor.decrypt_values(result, 8).real, np.cos(3 * ys), 5e-3)

    def test_ps_matches_direct(self, evaluator, decryptor, inputs):
        ys, ct = inputs
        coeffs = chebyshev_coefficients(lambda x: 1.0 / (2.0 + x), 10)
        direct = decryptor.decrypt_values(evaluate_chebyshev_direct(evaluator, ct, coeffs), 8).real
        bsgs = decryptor.decrypt_values(evaluate_chebyshev(evaluator, ct, coeffs), 8).real
        assert_close(bsgs, direct, 5e-3)

    def test_double_angle(self, evaluator, decryptor, encryptor, rng):
        ys = rng.uniform(-0.2, 0.2, 8)
        ct = encryptor.encrypt_values(np.cos(ys))
        result = double_angle(evaluator, ct, 2)
        assert_close(decryptor.decrypt_values(result, 8).real, np.cos(4 * ys), 5e-3)


@pytest.fixture(scope="module")
def lt_setup():
    """A small dedicated context with the rotation keys BSGS transforms need."""
    from repro.ckks.context import Context
    from repro.ckks.encryption import Decryptor, Encryptor
    from repro.ckks.evaluator import Evaluator
    from repro.ckks.keys import KeyGenerator
    from repro.ckks.params import CKKSParameters

    params = CKKSParameters(ring_degree=256, mult_depth=3, scale_bits=28,
                            dnum=2, first_mod_bits=30, label="lt-test")
    context = Context(params)
    probe = LinearTransform(context, np.eye(context.slots, dtype=complex))
    rotations = sorted(
        set(range(1, probe.baby_steps))
        | {probe.baby_steps * j for j in range(1, probe.giant_steps)}
    )
    keys = KeyGenerator(context, seed=99).generate(rotations, conjugation=True)
    return {
        "context": context,
        "evaluator": Evaluator(context, keys),
        "encryptor": Encryptor(context, keys.public_key, seed=5),
        "decryptor": Decryptor(context, keys.secret_key),
    }


class TestLinearTransform:
    def test_decoding_matrix_identity(self, context):
        # sigma(m) = E0 (m_lo + i m_hi) for real coefficient vectors.
        n = 64
        e0 = decoding_matrix(n)
        rng = np.random.default_rng(0)
        coeffs = rng.normal(size=n)
        from repro.ckks.encoding import CKKSEncoder
        encoder = CKKSEncoder(n)
        sigma = encoder.project(coeffs)
        combined = coeffs[: n // 2] + 1j * coeffs[n // 2 :]
        assert_close(e0 @ combined, sigma, 1e-8)

    def test_scaled_matrices(self):
        assert_close(coeff_to_slot_matrix(64, 2.0), 2.0 * np.linalg.inv(decoding_matrix(64)), 1e-9)
        assert_close(slot_to_coeff_matrix(64, 0.5), 0.5 * decoding_matrix(64), 1e-9)

    def test_apply_matches_numpy(self, lt_setup, rng):
        context = lt_setup["context"]
        slots = context.slots
        matrix = (rng.normal(size=(slots, slots)) + 1j * rng.normal(size=(slots, slots))) / slots
        message = rng.uniform(-0.5, 0.5, slots)
        transform = LinearTransform(context, matrix)
        ct = lt_setup["encryptor"].encrypt_values(message)
        result = transform.apply(lt_setup["evaluator"], ct)
        assert result.level == ct.level - 1
        assert_close(
            lt_setup["decryptor"].decrypt_values(result, slots),
            matrix @ message.astype(complex),
            1e-3,
        )

    def test_coeff_to_slot_matrix_applied(self, lt_setup, rng):
        context = lt_setup["context"]
        slots = context.slots
        matrix = coeff_to_slot_matrix(context.ring_degree, 1.0)
        message = rng.uniform(-0.5, 0.5, slots)
        transform = LinearTransform(context, matrix)
        ct = lt_setup["encryptor"].encrypt_values(message)
        result = transform.apply(lt_setup["evaluator"], ct)
        assert_close(
            lt_setup["decryptor"].decrypt_values(result, slots),
            matrix @ message.astype(complex),
            1e-3,
        )

    def test_diagonal_matrix_uses_no_rotations(self, lt_setup):
        context = lt_setup["context"]
        transform = LinearTransform(context, np.eye(context.slots, dtype=complex))
        assert transform.required_rotations() == []

    def test_rejects_wrong_shape(self, lt_setup):
        with pytest.raises(ValueError):
            LinearTransform(lt_setup["context"], np.eye(4, dtype=complex))

    def test_rejects_zero_matrix(self, lt_setup):
        context = lt_setup["context"]
        transform = LinearTransform(context, np.zeros((context.slots, context.slots), dtype=complex))
        ct = lt_setup["encryptor"].encrypt_values(np.ones(4))
        with pytest.raises(ValueError):
            transform.apply(lt_setup["evaluator"], ct)

    def test_required_rotations_within_slot_range(self, lt_setup, rng):
        context = lt_setup["context"]
        matrix = rng.normal(size=(context.slots, context.slots)) / context.slots
        transform = LinearTransform(context, matrix)
        steps = transform.required_rotations()
        assert steps and all(0 < s < context.slots for s in steps)


class TestFusedCircuits:
    """A fused ciphertext walks whole circuits: bit-identical per member.

    Neither module knows about batches -- they only speak to the
    evaluator, which reads the member count off its operand.
    """

    @staticmethod
    def _assert_members_equal(fused, per_member):
        members = fused.split()
        assert len(members) == len(per_member) == 3
        for member, reference in zip(members, per_member):
            assert member.level == reference.level
            assert member.scale == reference.scale
            assert np.array_equal(member.c0.data, reference.c0.data)
            assert np.array_equal(member.c1.data, reference.c1.data)

    def test_linear_transform_on_a_fused_ciphertext(self, lt_setup, rng):
        from repro.ckks.ciphertext import Ciphertext

        context = lt_setup["context"]
        slots = context.slots
        matrix = (rng.normal(size=(slots, slots)) + 1j * rng.normal(size=(slots, slots))) / slots
        transform = LinearTransform(context, matrix)
        messages = [rng.uniform(-0.5, 0.5, slots) for _ in range(3)]
        cts = [lt_setup["encryptor"].encrypt_values(m) for m in messages]
        fused = transform.apply(lt_setup["evaluator"], Ciphertext.fuse(cts))
        assert fused.batch_size == 3
        self._assert_members_equal(
            fused, [transform.apply(lt_setup["evaluator"], ct) for ct in cts]
        )
        assert_close(
            lt_setup["decryptor"].decrypt_values(fused.split()[2], slots),
            matrix @ messages[2].astype(complex),
            1e-3,
        )

    def test_chebyshev_on_a_fused_ciphertext(self, evaluator, decryptor, encryptor, rng):
        from repro.ckks.ciphertext import Ciphertext

        rows = [rng.uniform(-0.9, 0.9, 8) for _ in range(3)]
        cts = [encryptor.encrypt_values(ys) for ys in rows]
        coeffs = chebyshev_coefficients(lambda x: np.cos(3 * x), 12)
        fused = evaluate_chebyshev(evaluator, Ciphertext.fuse(cts), coeffs)
        self._assert_members_equal(
            fused, [evaluate_chebyshev(evaluator, ct, coeffs) for ct in cts]
        )
        assert_close(
            decryptor.decrypt_values(fused.split()[1], 8).real, np.cos(3 * rows[1]), 5e-3
        )
