"""Tests of the OpenFHE-style client, the adapter layer and serialization.

These are the reproduction of the paper's client/server integration tests:
the client encrypts, the server (evaluator) computes, the client decrypts
and checks against plaintext results, with all data crossing through the
adapter exchange structures.
"""

import hashlib
import json
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        # One uint64 word per residue on the server and in the exchange
        # structure; a residue above 2**32 survives both hops bit for bit.
        assert imported.c0.data.dtype == np.uint64
        assert int(imported.c0.data.max()) >= 1 << 32
        for poly, sent in ((imported.c0, raw.c0), (imported.c1, raw.c1)):
            assert poly.data.tolist() == [
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


# ---------------------------------------------------------------------------
# hostile input: the wire is untrusted
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def toy_client():
    """The N = 2**8 ring the hostile-input tests mutate frames of."""
    params = CKKSParameters(ring_degree=1 << 8, mult_depth=4, scale_bits=22,
                            dnum=2, first_mod_bits=26, label="wire-toy")
    client = OpenFHEClient(params, seed=3)
    client.key_gen()
    return client


@pytest.fixture(scope="module")
def toy_frame(toy_client):
    return serialize_ciphertext(toy_client.encrypt([0.5, -0.25], limb_count=2))


def _edited(blob, edit):
    """``blob`` with ``edit(payload)`` applied to its JSON envelope."""
    payload = json.loads(blob)
    edit(payload)
    return json.dumps(payload).encode("utf-8")


def _set(path, value):
    def edit(payload):
        *parents, leaf = path
        for key in parents:
            payload = payload[key]
        if value is _DELETE:
            del payload[leaf]
        else:
            payload[leaf] = value(payload[leaf]) if callable(value) else value
    return edit


_DELETE = object()

#: name -> (envelope edit, the field the error must name).
REJECTED = {
    "truncated-limb": (_set(("c0", "limbs", 0), lambda t: t[:-8]), "c0"),
    "short-ring": (_set(("c1", "limbs"), lambda ls: [t[: len(t) // 2] for t in ls]),
                   "limbs"),
    "ragged-limbs": (_set(("c0", "limbs", 1), lambda t: t[:-16]), "c0"),
    "spaced-hex": (_set(("c0", "limbs", 0), lambda t: t[:-2] + "  "), "c0"),
    "missing-limb": (_set(("c1", "limbs"), lambda ls: ls[:-1]), "c1"),
    "extra-modulus": (_set(("c1", "moduli"), lambda ms: ms + ["97"]), "c1"),
    "unknown-fmt": (_set(("c0", "fmt"), "banana"), "fmt"),
    "missing-scale": (_set(("scale",), _DELETE), "scale"),
    "mistyped-scale": (_set(("scale",), [1.0]), "scale"),
    "huge-scale": (_set(("scale",), 10**400), "scale"),
    "mistyped-slots": (_set(("slots",), "many"), "slots"),
    "missing-encoded-length": (_set(("encoded_length",), _DELETE), "encoded_length"),
    "mistyped-tag": (_set(("parameter_tag",), 7), "parameter_tag"),
    "mistyped-polynomial": (_set(("c0",), 7), "c0"),
    "missing-limbs": (_set(("c1", "limbs"), _DELETE), "limbs"),
    "mistyped-modulus": (_set(("c0", "moduli", 0), None), "c0"),
    "infinite-modulus": (_set(("c0", "moduli", 0), float("inf")), "c0"),
}


class TestHostileInput:
    """``deserialize_*`` / ``import_*`` reject, with a ``ValueError`` naming the field."""

    @staticmethod
    def _load(client, blob):
        return import_ciphertext(client.context, deserialize_ciphertext(blob))

    @pytest.mark.parametrize("name", sorted(REJECTED))
    def test_malformed_frame_is_rejected(self, toy_client, toy_frame, name):
        edit, field = REJECTED[name]
        with pytest.raises(ValueError, match=field):
            self._load(toy_client, _edited(toy_frame, edit))

    def test_non_canonical_residue_is_rejected_not_reduced(self, toy_client, toy_frame):
        q0 = toy_client.context.moduli[0]
        blob = _edited(toy_frame, _set(
            ("c0", "limbs", 0), lambda t: f"{q0 + 5:016x}" + t[16:]))
        with pytest.raises(ValueError, match="limbs"):
            self._load(toy_client, blob)

    @pytest.mark.parametrize("blob", [
        b"", b"\xff\xfe", b"[1, 2]", b"7", b"{", b"[" * 100_000,
    ], ids=["empty", "not-utf8", "list", "number", "unterminated", "deep-nesting"])
    def test_not_an_envelope(self, blob):
        with pytest.raises(ValueError):
            deserialize_ciphertext(blob)
        with pytest.raises(ValueError):
            deserialize_plaintext(blob)

    def test_plaintext_frames_are_checked_too(self, toy_client):
        pt = encode(toy_client.context, [0.5], limb_count=2)
        blob = serialize_plaintext(export_plaintext(pt))
        for edit, field in (
            (_set(("poly", "fmt"), "banana"), "fmt"),
            (_set(("poly", "limbs", 0), lambda t: t[:-8]), "poly"),
            (_set(("slots",), _DELETE), "slots"),
            (_set(("version",), 2), "version"),
        ):
            with pytest.raises(ValueError, match=field):
                import_plaintext(toy_client.context,
                                 deserialize_plaintext(_edited(blob, edit)))

    def test_in_process_raw_structures_are_checked(self, toy_client):
        raw = toy_client.encrypt([0.5], limb_count=2)
        raw.c0.limbs = raw.c0.limbs.astype(np.int64)
        with pytest.raises(ValueError, match="limbs"):
            import_ciphertext(toy_client.context, raw)
        raw = toy_client.encrypt([0.5], limb_count=2)
        raw.c1.limbs = raw.c1.limbs[:, :-1]
        with pytest.raises(ValueError, match="limbs"):
            import_ciphertext(toy_client.context, raw)


_HEX = b"0123456789abcdef"


def _mutated(frame: bytes, structural: list[int], rng: random.Random) -> bytes:
    """``frame`` after one to three flips, truncations, splices or duplicated spans.

    Half the edits aim at the envelope's ``structural`` bytes (those that are
    not residue digits, 2 % of a frame) so metadata is hit as often as
    payload, and most flips write a byte the frame already uses, so the
    mutant often still parses and reaches the field and residue checks.
    """
    blob = bytearray(frame)
    for _ in range(rng.randint(1, 3)):
        at = rng.choice(structural) + rng.randint(-2, 2) if rng.random() < 0.5 \
            else rng.randrange(len(frame))
        at = min(max(at, 0), max(len(blob) - 1, 0))
        span = rng.randint(1, 64)
        kind = rng.choice(("flip", "flip", "flip", "truncate", "splice", "duplicate"))
        if kind == "flip":
            blob[at : at + 1] = bytes([rng.choice(frame) if rng.random() < 0.75
                                       else rng.randrange(256)])
        elif kind == "truncate":
            del blob[at:]
        elif kind == "splice":
            source = rng.randrange(len(frame))
            blob[at : at + span] = frame[source : source + rng.randint(0, 64)]
        else:
            blob[at:at] = blob[at : at + span]
    return bytes(blob)


#: Examples of the byte-mutation run; 10**4 fit tier-1's 10 s budget at N = 2**8.
FUZZ_EXAMPLES = 10_000


def test_mutated_frames_raise_value_error_or_import_canonical(toy_client, toy_frame):
    context = toy_client.context
    structural = [i for i, b in enumerate(toy_frame) if b not in _HEX]
    outcomes = {"rejected": 0, "imported": 0}

    # One drawn seed per example: the mutation itself is plain ``random`` so
    # the engine's per-draw cost does not eat the example budget.
    @given(st.integers(0, 2**64 - 1))
    @settings(max_examples=FUZZ_EXAMPLES, deadline=None, derandomize=True,
              database=None)
    def run(seed):
        blob = _mutated(toy_frame, structural, random.Random(seed))
        try:
            ct = import_ciphertext(context, deserialize_ciphertext(blob))
        except ValueError:
            outcomes["rejected"] += 1
            return
        outcomes["imported"] += 1
        for poly in (ct.c0, ct.c1):
            rows = poly.data
            assert poly.moduli == context.moduli[: len(poly.moduli)]
            assert rows.dtype == np.uint64
            assert rows.shape == (len(poly.moduli), context.ring_degree)
            assert bool(np.all(rows < poly.moduli_col))

    run()
    # Both arms are exercised: most mutations break the frame, some survive
    # (a flipped low digit of a residue, a mutated tag).
    assert outcomes["rejected"] > 1000 and outcomes["imported"] > 100, outcomes


# ---------------------------------------------------------------------------
# golden pins: same-seed keys, ciphertexts and wire bytes, read off PR 22
# ---------------------------------------------------------------------------

GOLDEN_CHAINS = {
    "uint64": dict(scale_bits=22, mult_depth=4, first_mod_bits=26),
    "dword": dict(scale_bits=59, mult_depth=3, first_mod_bits=60,
                  secret_hamming_weight=16),
    "object": dict(scale_bits=28, mult_depth=3, first_mod_bits=63),
}

#: sha256 of the big-endian uint64 rows (keys, ciphertext) and of the wire
#: bytes, produced by commit a7e5dae with OpenFHEClient(seed=7).
GOLDEN = {'uint64': {'secret': 'fba59b5ee495b0b8a4feab1934c42fe0831b1151c94107a7d6bdb5508a420c34',
            'public': '68261399f95600b85c2fcde6c3d5b7949d59162ac838f13eaca85dabfb9efd50',
            'relin': 'd3a7981c8a13d236b84e1de2e9a51e5e212281aef571b3ab1e2f5f6b14cd372b',
            'rotation': '2e61d38ff1d1f21fb2a2d55d60ff6ae39bcaa47b49d8ae75a12bab92c6cf4753',
            'ciphertext': '56fb3b4d0f904281b9e1ff055ee34737d844a793e4aba4887f1d0ae4f65dbbb6',
            'blob': 'b4a5e52bc0aa757f2060139335dcfa2fbbde0870a0bbaf83caa7cb97d593a160',
            'plaintext_blob': '476a31c35b7bfb04787ba0b26d2f268e279d89bffb6a1ca00173f32db58653e8'},
 'dword': {'secret': '45ed9976a0bc662f0c79c02e05684d377135f1c2e88a590264b5111f7c77b235',
           'public': 'fcfa5f22742b78af17cbd192f7c7c377641b8647f12a35c8f499a8a53adcc76b',
           'relin': '197d234d43a32ba91859ae7aabb90b2960e03bd5083d080a1674651148d231b4',
           'rotation': '968b8e8a835d1a17a64d76767ff5cfc3159dd15fd8a829ebac879a6bb09350a5',
           'ciphertext': '8b474c2010963364fbc5cc58a7cfa6660d0bd0f1d86b83d80a98ffdec0c8391e',
           'blob': '969da4a3f1e0d51fc6c40272be0900b04adbaa25e6cba8a7b4b5aef3cba890ea',
           'plaintext_blob': 'a65e47ddbce371a9c48d846582becdc0f9a122ff091034603b6a7f9c20438689'},
 'object': {'secret': '2672b41ca22717bdb87c23b22ee9d2b9f4c08dddc07f18e5b55bfc0ed6ede05f',
            'public': '7e652793da45a87fdf8c3d358e2fb2188d319588a03f274cbe7cce0212f56806',
            'relin': '8ae12962760bbe68335ce5bc287fa8edc029117fd6dbfb2f5afafe9092bb6cdd',
            'rotation': '85abb883418f13f92312b40e23ea92e147ddbe89567e7e33e5ca2f831ab966c7',
            'ciphertext': '8861f3f1a48eebf0a4bc19d00f39e0c12fa0ac29e1d059b1e32c47744cdba169',
            'blob': '097c82696361bfd402dd6c35d083ed6f5799aa98c6c4fbc824d3e90729d87939',
            'plaintext_blob': '5abca6af5d1c61b84b272b111b6e3532a08b3875b212d540a191340f5e231d05'}}


def _rows_digest(*polys):
    sha = hashlib.sha256()
    for poly in polys:
        sha.update(np.asarray(poly.data).astype(">u8").tobytes())
    return sha.hexdigest()


@pytest.mark.parametrize("chain", sorted(GOLDEN_CHAINS))
def test_same_seed_keys_ciphertext_and_wire_are_the_parents(chain):
    params = CKKSParameters(ring_degree=1 << 8, dnum=2, **GOLDEN_CHAINS[chain])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the exact-chain notice
        client = OpenFHEClient(params, seed=7)
        client.key_gen(rotations=[1])
    keys = client.keys
    plaintext = encode(client.context, np.array([0.5, -0.25, 0.125, 0.75 - 0.5j]))
    ciphertext = client.encryptor.encrypt(plaintext)
    blob = serialize_ciphertext(export_ciphertext(ciphertext, parameter_tag="golden"))
    plain_blob = serialize_plaintext(export_plaintext(plaintext, parameter_tag="golden"))
    assert {
        "secret": _rows_digest(keys.secret_key.poly),
        "public": _rows_digest(keys.public_key.b, keys.public_key.a),
        "relin": _rows_digest(*(p for pair in keys.relinearization_key.digits for p in pair)),
        "rotation": _rows_digest(*(p for pair in keys.rotation_keys[1].digits for p in pair)),
        "ciphertext": _rows_digest(ciphertext.c0, ciphertext.c1),
        "blob": hashlib.sha256(blob).hexdigest(),
        "plaintext_blob": hashlib.sha256(plain_blob).hexdigest(),
    } == GOLDEN[chain]
    # The parent's bytes are these bytes, so its frames import here unchanged.
    imported = import_ciphertext(client.context, deserialize_ciphertext(blob))
    assert _rows_digest(imported.c0, imported.c1) == GOLDEN[chain]["ciphertext"]
    assert imported.c0.data.dtype == ciphertext.c0.data.dtype
