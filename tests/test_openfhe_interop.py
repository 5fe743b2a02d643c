"""Tests of the OpenFHE-style client, the adapter layer and serialization.

These are the reproduction of the paper's client/server integration tests:
the client encrypts, the server (evaluator) computes, the client decrypts
and checks against plaintext results, with all data crossing through the
adapter exchange structures.
"""

import numpy as np
import pytest

from repro.ckks.encryption import encode
from repro.ckks.evaluator import Evaluator
from repro.ckks.params import CKKSParameters
from repro.openfhe.adapter import (
    export_ciphertext,
    export_plaintext,
    import_ciphertext,
    import_plaintext,
)
from repro.openfhe.client import OpenFHEClient
from repro.openfhe.serialization import (
    deserialize_ciphertext,
    deserialize_plaintext,
    serialize_ciphertext,
    serialize_plaintext,
)
from tests.conftest import assert_close


@pytest.fixture(scope="module")
def client():
    params = CKKSParameters(ring_degree=512, mult_depth=4, scale_bits=28,
                            dnum=2, first_mod_bits=30, label="interop")
    client = OpenFHEClient(params, seed=42)
    client.key_gen(rotations=[1, 2], conjugation=True)
    return client


@pytest.fixture(scope="module")
def server(client):
    return Evaluator(client.context, client.keys.without_secret())


class TestClient:
    def test_requires_keygen_before_encrypt(self):
        fresh = OpenFHEClient(
            CKKSParameters(ring_degree=256, mult_depth=2, scale_bits=28, dnum=2,
                           first_mod_bits=30)
        )
        with pytest.raises(RuntimeError):
            fresh.encrypt([1.0])

    def test_server_keyset_has_no_secret(self):
        fresh = OpenFHEClient(
            CKKSParameters(ring_degree=256, mult_depth=2, scale_bits=28, dnum=2,
                           first_mod_bits=30), seed=8,
        )
        assert fresh.key_gen(rotations=[1]).secret_key is None

    def test_encrypt_decrypt_roundtrip(self, client):
        values = np.array([0.5, -0.25, 0.75])
        raw = client.encrypt(values)
        assert raw.parameter_tag == client.params.describe()
        assert_close(client.decrypt(raw, 3).real, values)

    def test_add_rotation_keys(self, client):
        keys = client.add_rotation_keys([4])
        assert 4 in keys.rotation_keys

    def test_precision_bits(self, client):
        values = np.array([0.5, -0.5])
        raw = client.encrypt(values)
        assert client.precision_bits(raw, values) > 10


class TestAdapter:
    def test_ciphertext_roundtrip(self, client):
        values = np.array([0.1, 0.2, -0.3])
        raw = client.encrypt(values)
        server_ct = import_ciphertext(client.context, raw)
        raw_again = export_ciphertext(server_ct)
        assert_close(client.decrypt(raw_again, 3).real, values)

    def test_plaintext_roundtrip(self, client):
        pt = encode(client.context, [0.5, 1.0])
        raw = export_plaintext(pt, parameter_tag="tag")
        restored = import_plaintext(client.context, raw)
        assert restored.scale == pt.scale
        assert_close(client.decode(restored, 2).real, [0.5, 1.0], 1e-6)

    def test_moduli_validation(self, client):
        values = np.array([1.0])
        raw = client.encrypt(values)
        raw.c0.moduli[0] += 2  # corrupt
        with pytest.raises(ValueError):
            import_ciphertext(client.context, raw)

    def test_noise_metadata_travels(self, client):
        raw = client.encrypt([1.0])
        ct = import_ciphertext(client.context, raw)
        assert ct.noise_bits == raw.noise_bits


class TestServerSideIntegration:
    """Every server operation validated against the client (paper §IV-A)."""

    def test_hadd(self, client, server):
        a, b = np.array([0.1, 0.2]), np.array([0.3, -0.1])
        ct = server.add(client.upload(client.encrypt(a)), client.upload(client.encrypt(b)))
        assert_close(client.decrypt(ct, 2).real, a + b)

    def test_hmult(self, client, server):
        a, b = np.array([0.5, -0.5]), np.array([0.25, 0.4])
        ct = server.multiply(client.upload(client.encrypt(a)), client.upload(client.encrypt(b)))
        assert_close(client.decrypt(ct, 2).real, a * b)

    def test_rotation(self, client, server):
        a = np.array([1.0, 2.0, 3.0, 4.0])
        ct = server.rotate(client.upload(client.encrypt(a)), 1)
        assert_close(client.decrypt(ct, 4).real, np.roll(a, -1), 1e-3)

    def test_conjugation(self, client, server):
        a = np.array([0.5 + 0.25j, -0.25 - 0.1j])
        ct = server.conjugate(client.upload(client.encrypt(a)))
        assert_close(client.decrypt(ct, 2), np.conj(a), 1e-3)

    def test_scalar_ops(self, client, server):
        a = np.array([0.2, -0.4])
        ct = client.upload(client.encrypt(a))
        result = server.add_scalar(server.multiply_scalar(ct, 2.0), 0.5)
        assert_close(client.decrypt(result, 2).real, 2.0 * a + 0.5, 1e-3)

    def test_noise_estimate_returned_with_result(self, client, server):
        a = np.array([0.3])
        ct = server.square(client.upload(client.encrypt(a)))
        exported = export_ciphertext(ct, parameter_tag=client.params.describe())
        assert exported.parameter_tag == client.params.describe()
        assert_close(client.decrypt(exported, 1).real, a * a, 1e-3)


class TestSerialization:
    def test_ciphertext_bytes_roundtrip(self, client):
        values = np.array([0.9, -0.1])
        raw = client.encrypt(values)
        blob = serialize_ciphertext(raw)
        assert isinstance(blob, bytes)
        restored = deserialize_ciphertext(blob)
        assert restored.scale == raw.scale
        assert_close(client.decrypt(restored, 2).real, values)

    def test_59_bit_residues_cross_the_wire(self):
        wide = OpenFHEClient(
            CKKSParameters(ring_degree=64, mult_depth=2, scale_bits=59, dnum=2,
                           first_mod_bits=60, secret_hamming_weight=16),
            seed=7,
        )
        wide.key_gen()
        values = np.array([0.9, -0.1])
        raw = wide.encrypt(values)
        restored = deserialize_ciphertext(serialize_ciphertext(raw))
        imported = import_ciphertext(wide.context, restored)
        # One uint64 word per residue on the server, Python integers on the
        # wire; a residue above 2**32 survives both hops bit for bit.
        assert imported.c0.stack.data.dtype == np.uint64
        assert int(imported.c0.stack.data.max()) >= 1 << 32
        for poly, sent in ((imported.c0, raw.c0), (imported.c1, raw.c1)):
            assert poly.stack.data.tolist() == [
                [int(x) for x in limb] for limb in sent.limbs
            ]
        assert_close(wide.decrypt(export_ciphertext(imported), 2).real, values, 1e-9)

    def test_ciphertext_serialization_is_deterministic(self, client):
        raw = client.encrypt([0.5])
        assert serialize_ciphertext(raw) == serialize_ciphertext(raw)

    def test_plaintext_bytes_roundtrip(self, client):
        pt = encode(client.context, [0.25, -0.75])
        blob = serialize_plaintext(export_plaintext(pt))
        restored = deserialize_plaintext(blob)
        assert_close(client.decode(import_plaintext(client.context, restored), 2).real,
                     [0.25, -0.75], 1e-6)

    def test_type_confusion_rejected(self, client):
        pt_blob = serialize_plaintext(export_plaintext(encode(client.context, [1.0])))
        with pytest.raises(ValueError):
            deserialize_ciphertext(pt_blob)
