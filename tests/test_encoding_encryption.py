"""Tests for canonical-embedding encoding and RLWE encryption/decryption."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ckks.context import Context
from repro.ckks.encoding import CKKSEncoder, rotation_group
from repro.ckks.encryption import Decryptor, Encryptor, decode, encode
from repro.ckks.keys import KeyGenerator
from repro.ckks.noise import fresh_encryption_noise_bits
from repro.ckks.params import CKKSParameters
from tests.conftest import assert_close


class TestEncoder:
    encoder = CKKSEncoder(ring_degree=256)

    def test_roundtrip_real(self):
        values = np.linspace(-1, 1, 32)
        decoded = self.encoder.decode(self.encoder.encode(values, 2**30), 2**30, 32)
        assert_close(decoded.real, values, 1e-6)

    def test_roundtrip_complex(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=16) + 1j * rng.normal(size=16)
        decoded = self.encoder.decode(self.encoder.encode(values, 2**30), 2**30, 16)
        assert_close(decoded, values, 1e-6)

    def test_sparse_replication(self):
        values = np.array([1.0, -2.0])
        expanded = self.encoder.expand_message(values)
        assert len(expanded) == 128
        assert_close(expanded[:2], values, 1e-12)
        assert_close(expanded[2:4], values, 1e-12)

    def test_padding_to_power_of_two(self):
        expanded = self.encoder.expand_message([1.0, 2.0, 3.0])
        assert expanded[3] == 0.0
        assert expanded[4] == 1.0

    def test_rejects_oversized_message(self):
        with pytest.raises(ValueError):
            self.encoder.encode(np.zeros(200), 2**30)

    def test_rejects_empty_message(self):
        with pytest.raises(ValueError):
            self.encoder.encode([], 2**30)

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            self.encoder.encode([1.0], 0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(1.0, np.nan)])
    def test_rejects_non_finite_slot_values(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # refused before the FFT warns
            with pytest.raises(ValueError, match="non-finite"):
                self.encoder.encode([0.5, bad], 2**30)
            with pytest.raises(ValueError, match="non-finite"):
                self.encoder.encode_diagonal(np.full(128, bad), 2**30)

    @pytest.mark.parametrize("scale", [np.nan, np.inf, 0.0, -2.0**30])
    def test_rejects_non_finite_or_non_positive_scale(self, scale):
        for encode_fn in (self.encoder.encode, self.encoder.encode_diagonal):
            with pytest.raises(ValueError, match="scale must be positive and finite"):
                encode_fn(np.ones(128), scale)
        with pytest.raises(ValueError, match="scale must be positive and finite"):
            self.encoder.decode(np.zeros(256), scale)

    def test_rejects_a_message_that_overflows_when_scaled(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflows float64"):
                self.encoder.encode([1e300], 2**30)
            with pytest.raises(ValueError, match="overflows float64"):
                self.encoder.encode_diagonal(np.full(128, -1e300), 2**30)
        # Large but representable: the coefficients go exact (object) instead.
        assert self.encoder.encode([1e250], 2**30).dtype == np.object_

    @pytest.mark.parametrize("length, expected", [
        (0, 0), (1, 1), (128, 128), (np.int64(5), 5), (None, 128),
    ])
    def test_decode_length_in_range(self, length, expected):
        coeffs = self.encoder.encode(np.linspace(-1, 1, 8), 2**30)
        assert len(self.encoder.decode(coeffs, 2**30, length)) == expected

    @pytest.mark.parametrize("length, error", [
        (-1, ValueError), (129, ValueError), (10**6, ValueError),
        (2.5, TypeError), ("3", TypeError), (np.float64(3.0), TypeError),
    ])
    def test_decode_rejects_length_out_of_range(self, length, error):
        coeffs = self.encoder.encode([0.5], 2**30)
        with pytest.raises(error):
            self.encoder.decode(coeffs, 2**30, length)

    def test_rotation_group_orbit(self):
        group = rotation_group(256)
        assert len(set(group.tolist())) == 128
        assert all(g % 2 == 1 for g in group)

    def test_encode_diagonal_not_replicated(self):
        rng = np.random.default_rng(1)
        diag = rng.normal(size=128) + 1j * rng.normal(size=128)
        coeffs = self.encoder.encode_diagonal(diag, 2**30)
        decoded = self.encoder.decode(coeffs, 2**30, 128)
        assert_close(decoded, diag, 1e-5)

    def test_higher_scale_improves_precision(self):
        values = np.array([0.1234567, -0.7654321])
        low = self.encoder.decode(self.encoder.encode(values, 2**12), 2**12, 2)
        high = self.encoder.decode(self.encoder.encode(values, 2**30), 2**30, 2)
        assert np.max(np.abs(high.real - values)) < np.max(np.abs(low.real - values))


    @pytest.mark.parametrize("scale", [1.0, 2.0**30, 2.0**70])
    @pytest.mark.parametrize("tie", [0.5, 1.5, 2.5, -0.5, -1.5, 1234.5])
    def test_encode_rounds_ties_like_python_round(self, tie, scale):
        # A constant message lands on coefficient 0 exactly, so x.5 is a true tie.
        exact = self.encoder.embed(self.encoder.expand_message([tie])) * scale
        assert exact[0] == tie * scale
        coeffs = self.encoder.encode([tie], scale)
        assert [int(c) for c in coeffs] == [int(round(c)) for c in exact]
        assert coeffs.dtype == (np.int64 if abs(tie) * scale < 2**62 else np.object_)
        diagonal = self.encoder.encode_diagonal(np.full(128, tie), scale)
        assert [int(c) for c in diagonal] == [int(c) for c in coeffs]


class TestEncodePlaintext:
    def test_encode_defaults(self, context):
        pt = encode(context, [0.5, -0.5])
        assert pt.limb_count == len(context.moduli)
        assert pt.scale == context.scale
        assert pt.encoded_length == 2

    def test_encode_limits_limbs(self, context):
        pt = encode(context, [1.0], limb_count=2)
        assert pt.limb_count == 2

    def test_decode_matches_input(self, context):
        values = np.array([0.25, -0.125, 1.0, 0.0])
        assert_close(decode(context, encode(context, values)).real, values, 1e-6)


class TestEncryption:
    def test_public_key_roundtrip(self, context, encryptor, decryptor, rng):
        values = rng.uniform(-1, 1, 16)
        ct = encryptor.encrypt_values(values)
        assert_close(decryptor.decrypt_values(ct, 16).real, values)

    def test_fresh_ciphertext_metadata(self, context, encryptor):
        ct = encryptor.encrypt_values([1.0, 2.0])
        assert ct.limb_count == len(context.moduli)
        assert ct.level == context.max_level
        assert ct.slots == context.slots
        assert ct.encoded_length == 2

    def test_complex_messages(self, context, encryptor, decryptor, rng):
        values = rng.uniform(-0.5, 0.5, 8) + 1j * rng.uniform(-0.5, 0.5, 8)
        ct = encryptor.encrypt_values(values)
        assert_close(decryptor.decrypt_values(ct, 8), values)

    @pytest.mark.parametrize("length", [-1, 513, 10**6])
    def test_session_decrypt_rejects_length_out_of_range(self, session, length):
        ct = session.encrypt([0.25, 0.5])
        assert session.slots == 512
        with pytest.raises(ValueError, match=r"length must be in \[0, 512\]"):
            session.decrypt(ct, length)
        assert len(session.decrypt(ct, np.int32(512))) == 512

    def test_session_encrypt_rejects_nan(self, session):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite"):
                session.encrypt([np.nan])

    def test_lower_level_encryption(self, context, encryptor, decryptor):
        ct = encryptor.encrypt_values([0.5], limb_count=3)
        assert ct.limb_count == 3
        assert_close(decryptor.decrypt_values(ct, 1).real, [0.5])


class TestFreshNoise:
    """A fresh ciphertext's ``noise_bits`` is the log2 estimate of its
    scheme, and bounds the error it decrypts with."""

    @pytest.fixture(scope="class")
    def ring(self):
        params = CKKSParameters(ring_degree=1 << 8, mult_depth=2, scale_bits=28,
                                dnum=2, first_mod_bits=30)
        context = Context(params)
        return context, KeyGenerator(context, seed=4).generate()

    @pytest.mark.parametrize("mode", ["public-key", "secret-key"])
    def test_measured_fresh_error_is_within_the_estimate(self, ring, mode):
        context, keys = ring
        secret = mode == "secret-key"
        encryptor = Encryptor(context, keys.secret_key if secret else keys.public_key, seed=9)
        decryptor = Decryptor(context, keys.secret_key)
        estimate = fresh_encryption_noise_bits(context.params, secret_key=secret)
        worst = 0
        rng = np.random.default_rng(2)
        for _ in range(8):
            plaintext = encode(context, rng.uniform(-1, 1, 16))
            ct = encryptor.encrypt(plaintext)
            assert ct.noise_bits == estimate
            # decrypt − encode in the coefficient domain: the fresh error.
            error = (decryptor.decrypt(ct).poly.to_coefficient().compose()
                     - plaintext.poly.to_coefficient().compose())
            worst = max(worst, int(np.abs(error).max()))
        assert 0 < math.log2(worst) <= estimate
        # The secret-key error is e alone, below the public-key estimate.
        assert secret == (estimate < fresh_encryption_noise_bits(context.params))


@given(st.lists(st.floats(min_value=-1, max_value=1, allow_nan=False), min_size=1, max_size=32))
@settings(max_examples=25, deadline=None)
def test_encoder_roundtrip_property(values):
    encoder = CKKSEncoder(ring_degree=128)
    decoded = encoder.decode(encoder.encode(values, 2**32), 2**32, len(values))
    assert np.max(np.abs(decoded.real - np.asarray(values))) < 1e-6


def test_parameter_validation_errors():
    with pytest.raises(ValueError):
        CKKSParameters(ring_degree=100, mult_depth=3, scale_bits=28)
    with pytest.raises(ValueError):
        CKKSParameters(ring_degree=1024, mult_depth=0, scale_bits=28)
    with pytest.raises(ValueError):
        CKKSParameters(ring_degree=1024, mult_depth=3, scale_bits=70)
    with pytest.raises(ValueError):
        CKKSParameters(ring_degree=1024, mult_depth=3, scale_bits=28, dnum=9)


def test_parameter_derived_quantities():
    params = CKKSParameters(ring_degree=1 << 12, mult_depth=8, scale_bits=30, dnum=3)
    assert params.slots == 1 << 11
    assert params.limb_count == 9
    assert params.digit_size == 3
    assert params.special_limb_count == 3
    assert params.describe() == "[12, 8, 30, 3]"
    assert params.key_switching_key_bytes() == 2 * 3 * 12 * (1 << 12) * 8
    resized = params.with_overrides(mult_depth=5)
    assert resized.mult_depth == 5 and resized.ring_degree == params.ring_degree
