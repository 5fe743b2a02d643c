"""Tests of the OpenFHE-style client, the adapter layer and serialization.

These are the reproduction of the paper's client/server integration tests:
the client encrypts, the server (evaluator) computes, the client decrypts
and checks against plaintext results, with all data crossing through the
adapter exchange structures.
"""

import dataclasses
import hashlib
import json
import random
import struct
import warnings
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.vector import CipherVector
from repro.ckks.ciphertext import Ciphertext, Plaintext
from repro.ckks.encryption import Encryptor, encode
from repro.ckks.evaluator import Evaluator
from repro.ckks.keys import KeyGenerator, expand_seed
from repro.ckks.noise import fresh_encryption_noise_bits
from repro.ckks.params import CKKSParameters
from repro.core.limb import LimbFormat
from repro.core.rns_poly import RNSPoly
from repro.openfhe.adapter import (
    RawCiphertext,
    RawPolynomial,
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
from repro.serve import OpProgram
from tests.conftest import assert_close, coefficient_frame


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


def with_c1_rows(context, raw: RawCiphertext) -> RawCiphertext:
    """``raw`` with a seeded ``c1`` replaced by the rows its seed expands to."""
    c1 = import_ciphertext(context, raw).c1
    return dataclasses.replace(raw, c1=RawPolynomial.from_rns_poly(c1))


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

    def test_coefficient_frame_imports_in_evaluation_format(self, client):
        # The server decides the format once, here: a "coeff" frame (read
        # off the wire) becomes the ciphertext its "eval" frame imports.
        values = np.array([0.1, -0.2, 0.3])
        raw = with_c1_rows(client.context, client.encrypt(values))
        sent = deserialize_ciphertext(serialize_ciphertext(coefficient_frame(raw)))
        assert (sent.c0.fmt, sent.c1.fmt) == ("coeff", "coeff")
        imported = import_ciphertext(client.context, sent)
        reference = import_ciphertext(client.context, raw)
        for got, want in ((imported.c0, reference.c0), (imported.c1, reference.c1)):
            assert got.fmt is LimbFormat.EVALUATION
            np.testing.assert_array_equal(got.data, want.data)
        decrypted = client.decrypt(imported, 3)
        np.testing.assert_array_equal(decrypted, client.decrypt(reference, 3))
        assert_close(decrypted.real, values)

    def test_hand_built_coefficient_containers_are_rejected(self, client):
        ct = import_ciphertext(client.context, client.encrypt([0.5]))
        coeff = ct.c0.to_coefficient()
        for build, name in (
            (lambda: Ciphertext(coeff, ct.c1, ct.scale, ct.slots), "Ciphertext.c0"),
            (lambda: Ciphertext(ct.c0, coeff, ct.scale, ct.slots), "Ciphertext.c1"),
            (lambda: Plaintext(coeff, ct.scale, ct.slots), "Plaintext.poly"),
        ):
            with pytest.raises(ValueError, match=rf"^{name} requires evaluation "
                                                 rf"format, got 'coeff'$"):
                build()


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
        raw = with_c1_rows(wide.context, wide.encrypt(values))
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

    def test_binary_frame_is_half_the_hex_envelope(self, client):
        raw = with_c1_rows(client.context, client.encrypt([0.5]))
        blob = serialize_ciphertext(raw)
        residues = 8 * (raw.c0.limbs.size + raw.c1.limbs.size)
        assert residues < len(blob) < residues + 1024
        assert len(blob) < 0.55 * len(v1_frame(raw))


# ---------------------------------------------------------------------------
# test-side frame codecs: the version-1 writer (byte for byte the one src/
# used before the binary frame) and both versions as an editable
# version-1-shaped envelope
# ---------------------------------------------------------------------------

#: The version-2 header and checksum (repro.openfhe.serialization).
V2_HEADER = struct.Struct("<4sHIQ")
V2_CHECKSUM = struct.Struct("<I")
POLYNOMIALS = ("c0", "c1", "poly")


def _v1_polynomial(poly) -> dict:
    return {
        "moduli": [str(q) for q in poly.moduli],
        "fmt": poly.fmt,
        "limbs": [row.astype(">u8").tobytes().hex() for row in poly.limbs],
    }


def v1_frame(raw) -> bytes:
    """The version-1 JSON/hex envelope of a raw ciphertext or plaintext."""
    payload = {"version": 1}
    if isinstance(raw, RawCiphertext):
        payload.update(type="ciphertext", scale=raw.scale, slots=raw.slots,
                       noise_bits=raw.noise_bits, encoded_length=raw.encoded_length,
                       parameter_tag=raw.parameter_tag,
                       c0=_v1_polynomial(raw.c0), c1=_v1_polynomial(raw.c1))
    else:
        payload.update(type="plaintext", scale=raw.scale, slots=raw.slots,
                       encoded_length=raw.encoded_length,
                       parameter_tag=raw.parameter_tag, poly=_v1_polynomial(raw.poly))
    return json.dumps(payload).encode("utf-8")


def write_frame(raw, version: int) -> bytes:
    """``raw`` on the wire as a frame of ``version``."""
    if version == 1:
        return v1_frame(raw)
    write = serialize_ciphertext if isinstance(raw, RawCiphertext) else serialize_plaintext
    return write(raw)


def _v2_envelope(blob: bytes) -> dict:
    """A version-2 frame as a version-1-shaped envelope (hex limbs)."""
    _, version, text_length, _ = V2_HEADER.unpack_from(blob)
    payload = json.loads(blob[V2_HEADER.size : V2_HEADER.size + text_length])
    words = memoryview(blob)[V2_HEADER.size + text_length : -V2_CHECKSUM.size]
    for name in (p for p in POLYNOMIALS if p in payload):
        poly = payload[name]
        if "seed" in poly:  # no rows: its n stays
            continue
        count, n = len(poly["moduli"]), poly.pop("n")
        rows = np.frombuffer(words[: 8 * count * n], "<u8").reshape(count, n)
        poly["limbs"] = [row.astype(">u8").tobytes().hex() for row in rows]
        words = words[8 * count * n :]
    return {"version": version, **payload}


def _v2_words(hex_row: str) -> bytes:
    """A hex limb's big-endian words as little-endian ones (a partial word as is)."""
    raw = bytes.fromhex(hex_row)
    whole = len(raw) // 8 * 8
    return np.frombuffer(raw[:whole], ">u8").astype("<u8").tobytes() + raw[whole:]


def _v2_frame(envelope: dict) -> bytes:
    """The version-2 frame of a version-1-shaped envelope, sealed: each
    polynomial's ``n`` is read off its first limb, as the v1 reader does
    (a seeded one without limbs keeps its own)."""
    envelope, payload = dict(envelope), b""
    version = envelope.pop("version")
    for name in (p for p in POLYNOMIALS if isinstance(envelope.get(p), dict)):
        poly = envelope[name] = dict(envelope[name])
        limbs = poly.pop("limbs", None)
        if limbs is not None or "n" not in poly:
            poly["n"] = len(limbs[0]) // 16 if limbs else 0
        payload += b"".join(_v2_words(t) for t in limbs or ())
    text = json.dumps(envelope).encode("utf-8")
    header = V2_HEADER.pack(b"\x89FHE", version, len(text), len(payload))
    return _sealed(header + text + payload + bytes(V2_CHECKSUM.size))


def _sealed(blob: bytes) -> bytes:
    """``blob`` with its trailing checksum recomputed over metadata and payload."""
    if len(blob) < V2_HEADER.size + V2_CHECKSUM.size:
        return blob
    body = blob[V2_HEADER.size : -V2_CHECKSUM.size]
    return blob[: -V2_CHECKSUM.size] + V2_CHECKSUM.pack(zlib.crc32(body))


def _is_v2(blob: bytes) -> bool:
    return blob[:4] == b"\x89FHE"


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


@pytest.fixture(scope="module", params=[1, 2], ids=["v1", "v2"])
def version(request):
    """The frame version a hostile-input test runs on: every case runs on both."""
    return request.param


def toy_raw(toy_client) -> RawCiphertext:
    """A fresh two-limb request with ``c1`` as rows (v1 cannot carry a seed)."""
    return with_c1_rows(toy_client.context, toy_client.encrypt([0.5, -0.25], limb_count=2))


@pytest.fixture(scope="module")
def toy_frame(toy_client, version):
    return write_frame(toy_raw(toy_client), version)


@pytest.fixture(scope="module")
def toy_reply(toy_client):
    """The burst polynomial served on a fresh top-level request: the server's
    reply handle, entered at the 5 limbs its depth and output need, so it
    leaves with 2."""
    server = Evaluator(toy_client.context, toy_client.keys.without_secret())
    request = toy_client.upload(toy_client.encrypt([0.5, -0.25]))
    reply = OpProgram.polynomial([0.5, 0.25, 0.0, -0.02])(CipherVector(server, request))
    assert reply.limb_count == 2 < request.limb_count
    return reply.handle


@pytest.fixture(scope="module")
def reply_frame(toy_reply, version):
    """The 2-limb reply as the server exports and writes it."""
    return write_frame(export_ciphertext(toy_reply), version)


@pytest.fixture(scope="module")
def seeded_frame(toy_client):
    """A fresh two-limb request as the client sends it: ``c1`` is its seed."""
    frame = serialize_ciphertext(toy_client.encrypt([0.5, -0.25], limb_count=2))
    assert deserialize_ciphertext(frame).c1.seed is not None
    return frame


def _edited(blob, edit):
    """``blob`` with ``edit(payload)`` applied to its envelope, in its own version."""
    payload = _v2_envelope(blob) if _is_v2(blob) else json.loads(blob)
    edit(payload)
    return _v2_frame(payload) if _is_v2(blob) else json.dumps(payload).encode("utf-8")


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
    # Metadata no producer writes: the frame parses, import refuses it.
    "nan-scale": (_set(("scale",), float("nan")), "scale"),
    "infinite-scale": (_set(("scale",), float("inf")), "scale"),
    "negative-scale": (_set(("scale",), -1.0), "scale"),
    "zero-scale": (_set(("scale",), 0), "scale"),
    "negative-slots": (_set(("slots",), -4), "slots"),
    "zero-slots": (_set(("slots",), 0), "slots"),
    "foreign-slots": (_set(("slots",), 99999), "slots"),
    "negative-encoded-length": (_set(("encoded_length",), -1), "encoded_length"),
    "huge-encoded-length": (_set(("encoded_length",), 100000), "encoded_length"),
    "nan-noise-bits": (_set(("noise_bits",), float("nan")), "noise_bits"),
}


#: name -> (edit of a seeded frame's envelope, what the error must name).
SEED_REJECTED = {
    "seed-on-c0": (_set(("c0", "seed"), "ab" * 32), "c0: only .* c1 may carry a seed"),
    "seed-and-rows": (lambda payload: payload["c1"].update(limbs=payload["c0"]["limbs"]),
                      r"limbs: .*\(a polynomial with a seed has none\)"),
    "short-seed": (_set(("c1", "seed"), "ab" * 31), "c1: seed must be 64"),
    "long-seed": (_set(("c1", "seed"), "ab" * 33), "c1: seed must be 64"),
    "non-hex-seed": (_set(("c1", "seed"), "zz" * 32), "c1: seed must be 64"),
    "uppercase-seed": (_set(("c1", "seed"), "AB" * 32), "c1: seed must be 64"),
    "mistyped-seed": (_set(("c1", "seed"), 7), "c1: seed must be 64"),
    "seed-without-moduli": (_set(("c1", "moduli"), []), "moduli"),
    "seed-in-coeff-format": (_set(("c1", "fmt"), "coeff"), "fmt: a seeded polynomial"),
    "seed-with-foreign-n": (_set(("c1", "n"), 128), "ring degree 128"),
}


def _header(blob, **fields):
    """``blob`` with version-2 header ``fields`` replaced (checksum kept)."""
    magic, version, text_length, payload_length = V2_HEADER.unpack_from(blob)
    values = {**dict(magic=magic, version=version, text_length=text_length,
                     payload_length=payload_length), **fields}
    return V2_HEADER.pack(*values.values()) + blob[V2_HEADER.size :]


def _short_payload(blob):
    """``blob`` less its last payload word, with lengths and checksum kept consistent."""
    _, _, _, payload_length = V2_HEADER.unpack_from(blob)
    return _sealed(_header(blob[:-12] + bytes(4), payload_length=payload_length - 8))


#: name -> (edit of the version-2 frame bytes, what the error must name).
V2_REJECTED = {
    "bad-magic": (lambda b: b"\x89FHX" + b[4:], "envelope"),
    "bad-version": (lambda b: _header(b, version=3), "version"),
    "long-metadata-length": (lambda b: _header(b, text_length=V2_HEADER.unpack_from(b)[2] + 1),
                             "header lengths"),
    "short-payload-length": (lambda b: _header(b, payload_length=V2_HEADER.unpack_from(b)[3] - 8),
                             "header lengths"),
    "truncated-payload": (_short_payload, "limbs"),
    "trailing-bytes": (lambda b: b + b"\0", "header lengths"),
    "short-frame": (lambda b: b[: V2_HEADER.size], "header"),
    "wrong-checksum": (lambda b: b[:-1] + bytes([b[-1] ^ 1]), "checksum"),
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

    def test_unedited_frame_imports(self, toy_client, toy_frame):
        # The edit machinery itself is faithful: a no-op edit round-trips.
        unedited = _edited(toy_frame, lambda payload: None)
        assert unedited == toy_frame
        self._load(toy_client, unedited)

    @pytest.mark.parametrize("name", sorted(REJECTED))
    def test_malformed_reply_frame_is_rejected(self, toy_client, reply_frame, name):
        edit, field = REJECTED[name]
        with pytest.raises(ValueError, match=field):
            self._load(toy_client, _edited(reply_frame, edit))

    def test_reply_frame_round_trips_to_the_servers_decryption(
            self, toy_client, toy_reply, reply_frame):
        """export → serialize → deserialize → import → decrypt of the 2-limb
        reply is the decryption of the server's handle, bit for bit."""
        reply = toy_reply
        unedited = _edited(reply_frame, lambda payload: None)
        assert unedited == reply_frame
        imported = self._load(toy_client, unedited)
        assert imported.c0.moduli == toy_client.context.moduli[:2]
        np.testing.assert_array_equal(imported.c0.data, reply.c0.data)
        np.testing.assert_array_equal(imported.c1.data, reply.c1.data)
        np.testing.assert_array_equal(toy_client.decrypt(imported, 2),
                                      toy_client.decrypt(reply, 2))

    @pytest.mark.parametrize("name", sorted(V2_REJECTED))
    def test_malformed_binary_frame_is_rejected(self, toy_client, seeded_frame, name):
        edit, field = V2_REJECTED[name]
        for blob in (write_frame(toy_raw(toy_client), 2), seeded_frame):
            with pytest.raises(ValueError, match=field):
                self._load(toy_client, edit(blob))

    @pytest.mark.parametrize("name", sorted(SEED_REJECTED))
    def test_malformed_seed_is_rejected(self, toy_client, seeded_frame, name):
        edit, field = SEED_REJECTED[name]
        with pytest.raises(ValueError, match=field):
            self._load(toy_client, _edited(seeded_frame, edit))

    def test_unedited_seeded_frame_imports(self, toy_client, seeded_frame):
        # The edit machinery keeps a seeded c1 as it is.
        unedited = _edited(seeded_frame, lambda payload: None)
        assert unedited == seeded_frame
        self._load(toy_client, unedited)

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

    def test_plaintext_frames_are_checked_too(self, toy_client, version):
        pt = encode(toy_client.context, [0.5], limb_count=2)
        blob = write_frame(export_plaintext(pt), version)
        for edit, field in (
            (_set(("poly", "fmt"), "banana"), "fmt"),
            (_set(("poly", "limbs", 0), lambda t: t[:-8]), "poly"),
            (_set(("slots",), _DELETE), "slots"),
            (_set(("slots",), 0), "slots"),
            (_set(("scale",), float("nan")), "scale"),
            (_set(("encoded_length",), 0), "encoded_length"),
            (_set(("version",), lambda v: v + 1), "version"),
        ):
            with pytest.raises(ValueError, match=field):
                import_plaintext(toy_client.context,
                                 deserialize_plaintext(_edited(blob, edit)))

    def test_in_process_raw_structures_are_checked(self, toy_client):
        raw = toy_raw(toy_client)
        raw.c0.limbs = raw.c0.limbs.astype(np.int64)
        with pytest.raises(ValueError, match="limbs"):
            import_ciphertext(toy_client.context, raw)
        raw = toy_raw(toy_client)
        raw.c1.limbs = raw.c1.limbs[:, :-1]
        with pytest.raises(ValueError, match="limbs"):
            import_ciphertext(toy_client.context, raw)
        raw = toy_raw(toy_client)
        raw.c1.moduli, raw.c1.limbs = [], raw.c1.limbs[:0]
        with pytest.raises(ValueError, match="moduli"):
            import_ciphertext(toy_client.context, raw)

    def test_in_process_seeds_are_checked(self, toy_client):
        context = toy_client.context
        seed = toy_client.encrypt([0.5], limb_count=2).c1.seed
        rows = lambda: toy_raw(toy_client)  # noqa: E731
        seeded = lambda: toy_client.encrypt([0.5], limb_count=2)  # noqa: E731
        for make, polynomial, name, value, field in (
            (rows, "c0", "seed", seed, "c0: only .* c1 may carry a seed"),
            (rows, "c1", "seed", seed, "seed: .* carries no limbs"),
            (seeded, "c1", "seed", seed[:-1], "seed: need 32 bytes"),
            (seeded, "c1", "seed", seed.hex(), "seed: need 32 bytes"),
            (seeded, "c1", "moduli", [], "moduli"),
            (seeded, "c1", "fmt", "coeff", "fmt: a seeded polynomial"),
        ):
            raw = make()
            setattr(getattr(raw, polynomial), name, value)
            with pytest.raises(ValueError, match=field):
                import_ciphertext(context, raw)
        raw = export_plaintext(encode(context, [0.5], limb_count=2))
        raw.poly.seed = seed
        with pytest.raises(ValueError, match="poly: .*seed"):
            import_plaintext(context, raw)


_HEX = b"0123456789abcdef"


def _mutated(frame: bytes, structural: list[int], rng: random.Random) -> bytes:
    """``frame`` after one to three flips, truncations, splices or duplicated spans.

    Half the edits aim at the frame's ``structural`` bytes (those that are
    not residue payload, 2 % of a v1 frame, 3 % of a v2 one) so metadata is
    hit as often as payload, and most flips write a byte the frame already
    uses, so the mutant often still parses and reaches the field and
    residue checks.
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


#: Examples of the byte-mutation run, two mutated frames each: 10**4 frames
#: per version fit tier-1's budget at N = 2**8.
FUZZ_EXAMPLES = 5_000


def _structural(frame: bytes) -> list[int]:
    """The byte positions of a frame that are not residue payload."""
    if not _is_v2(frame):
        return [i for i, b in enumerate(frame) if b not in _HEX]
    _, _, text_length, payload_length = V2_HEADER.unpack_from(frame)
    end = V2_HEADER.size + text_length
    return [*range(end), *range(end + payload_length, len(frame))]


def test_mutated_frames_raise_value_error_or_import_canonical(toy_client, toy_frame):
    _fuzz(toy_client.context, toy_frame)


def test_mutated_seeded_frames_raise_value_error_or_import_canonical(toy_client, seeded_frame):
    _fuzz(toy_client.context, seeded_frame)


def test_mutated_reply_frames_raise_value_error_or_import_canonical(toy_client, toy_reply):
    # A server writes its reply as a version-2 frame (version 1 is read-only,
    # and its reader is fuzzed on the request frame above).
    _fuzz(toy_client.context, serialize_ciphertext(export_ciphertext(toy_reply)))


def _fuzz(context, toy_frame: bytes) -> None:
    """Import ``2 * FUZZ_EXAMPLES`` mutants of ``toy_frame``: each raises a
    ``ValueError`` or imports canonical residues, and both arms occur."""
    structural = _structural(toy_frame)
    binary = _is_v2(toy_frame)
    outcomes = {"rejected": 0, "imported": 0}

    def check(blob, resealed):
        try:
            ct = import_ciphertext(context, deserialize_ciphertext(blob))
        except ValueError:
            outcomes["rejected"] += 1
            return
        # A binary mutant left unsealed fails its checksum.
        assert resealed or not binary or blob == toy_frame
        outcomes["imported"] += 1
        for poly in (ct.c0, ct.c1):
            rows = poly.data
            assert poly.moduli == context.moduli[: len(poly.moduli)]
            assert rows.dtype == np.uint64
            assert rows.shape == (len(poly.moduli), context.ring_degree)
            assert bool(np.all(rows < poly.moduli_col))

    # One drawn seed per example: the mutation itself is plain ``random`` so
    # the engine's per-draw cost does not eat the example budget.
    @given(st.integers(0, 2**64 - 1))
    @settings(max_examples=FUZZ_EXAMPLES, deadline=None, derandomize=True,
              database=None)
    def run(seed):
        rng = random.Random(seed)
        # Half the binary mutants get their checksum recomputed, so they
        # reach the length, field and residue checks.
        for resealed in (False, binary):
            blob = _mutated(toy_frame, structural, rng)
            check(_sealed(blob) if resealed else blob, resealed)

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
#: bytes, produced by commit a7e5dae with OpenFHEClient(seed=7); the v1
#: ``blob`` digests are that commit's writer, the ``*_v2`` ones the binary
#: frame's.  The ciphertext is the public-key one on the seed + 1 stream;
#: its ``blob``/``blob_v2`` were re-pinned when ``noise_bits`` became the
#: log2 estimate (``GOLDEN_SIGMA_NOISE`` holds the frames before).
GOLDEN = {'uint64': {'secret': 'fba59b5ee495b0b8a4feab1934c42fe0831b1151c94107a7d6bdb5508a420c34',
            'public': '68261399f95600b85c2fcde6c3d5b7949d59162ac838f13eaca85dabfb9efd50',
            'relin': 'd3a7981c8a13d236b84e1de2e9a51e5e212281aef571b3ab1e2f5f6b14cd372b',
            'rotation': '2e61d38ff1d1f21fb2a2d55d60ff6ae39bcaa47b49d8ae75a12bab92c6cf4753',
            'ciphertext': '56fb3b4d0f904281b9e1ff055ee34737d844a793e4aba4887f1d0ae4f65dbbb6',
            'blob': '7116b3ea276be6ca0b794524ff12703599ca56522cae1de1e13d633cb0e1c78d',
            'plaintext_blob': '476a31c35b7bfb04787ba0b26d2f268e279d89bffb6a1ca00173f32db58653e8',
            'blob_v2': 'ffbd174aa297327c06c503e5bbb6ef6df4c96a7ce5e8013efff138ef5fe39199',
            'plaintext_blob_v2': '28c81625ef7994d7308b5a87a058cc0352b7ed37800221801157a4a480dbc9cd'},
 'dword': {'secret': '45ed9976a0bc662f0c79c02e05684d377135f1c2e88a590264b5111f7c77b235',
           'public': 'fcfa5f22742b78af17cbd192f7c7c377641b8647f12a35c8f499a8a53adcc76b',
           'relin': '197d234d43a32ba91859ae7aabb90b2960e03bd5083d080a1674651148d231b4',
           'rotation': '968b8e8a835d1a17a64d76767ff5cfc3159dd15fd8a829ebac879a6bb09350a5',
           'ciphertext': '8b474c2010963364fbc5cc58a7cfa6660d0bd0f1d86b83d80a98ffdec0c8391e',
           'blob': '7c5cd2a45356af027360da751159eab1cb840dc7a1e59ef678b20647969a88bf',
           'plaintext_blob': 'a65e47ddbce371a9c48d846582becdc0f9a122ff091034603b6a7f9c20438689',
           'blob_v2': '82749ca8ec1316d145f3523437ed320d7e5cbfc13205a7102561e9f8d61bdb0b',
           'plaintext_blob_v2': '444c163cbde01b958a0a4d6d9d2675af859390246169afd82905097b2a7d232b'},
 'object': {'secret': '2672b41ca22717bdb87c23b22ee9d2b9f4c08dddc07f18e5b55bfc0ed6ede05f',
            'public': '7e652793da45a87fdf8c3d358e2fb2188d319588a03f274cbe7cce0212f56806',
            'relin': '8ae12962760bbe68335ce5bc287fa8edc029117fd6dbfb2f5afafe9092bb6cdd',
            'rotation': '85abb883418f13f92312b40e23ea92e147ddbe89567e7e33e5ca2f831ab966c7',
            'ciphertext': '8861f3f1a48eebf0a4bc19d00f39e0c12fa0ac29e1d059b1e32c47744cdba169',
            'blob': 'f68175915ad4b5aacfdd23ae3f9053ee88bd310e2cce3814ce13181e83d75d88',
            'plaintext_blob': '5abca6af5d1c61b84b272b111b6e3532a08b3875b212d540a191340f5e231d05',
            'blob_v2': '0d618612a208082eb33daed7fcebf310153a3c60c6d4612d57d6c5f0c27f4484',
            'plaintext_blob_v2': '9063c7d92f6bef0d8f2a83410c0763f3ed930b9571bc125eb937e915365f155b'}}


#: The ``blob``/``blob_v2`` pins before the fresh ciphertext's ``noise_bits``
#: was its log2 estimate: the same frames with ``noise_bits = σ``.
GOLDEN_SIGMA_NOISE = {
    chain: {"blob": pins["blob"], "blob_v2": pins["blob_v2"]}
    for chain, pins in {
        "uint64": {"blob": "b4a5e52bc0aa757f2060139335dcfa2fbbde0870a0bbaf83caa7cb97d593a160",
                   "blob_v2": "f1ef123f2eaecad5f55c37b77ecf246052db110b7fa270b498ca7bb9af2430d4"},
        "dword": {"blob": "969da4a3f1e0d51fc6c40272be0900b04adbaa25e6cba8a7b4b5aef3cba890ea",
                  "blob_v2": "e3f6b2a4d6887aea16301b10caeeacf2419a090327235cc0f263614538e4fd20"},
        "object": {"blob": "097c82696361bfd402dd6c35d083ed6f5799aa98c6c4fbc824d3e90729d87939",
                   "blob_v2": "e994204596adfde6ca39065df830b587682da1b1b8da7d1d391fed5d45fa0461"},
    }.items()
}


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
    # The public-key stream the client encrypted on before it encrypted
    # under its secret key (seed + 1).
    ciphertext = Encryptor(client.context, keys.public_key, seed=8).encrypt(plaintext)
    raw = export_ciphertext(ciphertext, parameter_tag="golden")
    raw_plain = export_plaintext(plaintext, parameter_tag="golden")
    blob, plain_blob = v1_frame(raw), v1_frame(raw_plain)
    # The frames moved only by their noise estimate, which read σ before.
    assert raw.noise_bits == fresh_encryption_noise_bits(params)
    sigma = dataclasses.replace(raw, noise_bits=params.error_std)
    assert {
        "blob": hashlib.sha256(v1_frame(sigma)).hexdigest(),
        "blob_v2": hashlib.sha256(serialize_ciphertext(sigma)).hexdigest(),
    } == GOLDEN_SIGMA_NOISE[chain]
    assert {
        "secret": _rows_digest(keys.secret_key.poly),
        "public": _rows_digest(keys.public_key.b, keys.public_key.a),
        "relin": _rows_digest(*(p for pair in keys.relinearization_key.digits for p in pair)),
        "rotation": _rows_digest(*(p for pair in keys.rotation_keys[1].digits for p in pair)),
        "ciphertext": _rows_digest(ciphertext.c0, ciphertext.c1),
        "blob": hashlib.sha256(blob).hexdigest(),
        "plaintext_blob": hashlib.sha256(plain_blob).hexdigest(),
        "blob_v2": hashlib.sha256(serialize_ciphertext(raw)).hexdigest(),
        "plaintext_blob_v2": hashlib.sha256(serialize_plaintext(raw_plain)).hexdigest(),
    } == GOLDEN[chain]
    # Frames written before the binary frame are these v1 bytes, so they
    # import here unchanged -- as do the v2 frames written now.
    for sent in (blob, serialize_ciphertext(raw)):
        imported = import_ciphertext(client.context, deserialize_ciphertext(sent))
        assert _rows_digest(imported.c0, imported.c1) == GOLDEN[chain]["ciphertext"]
        assert imported.c0.data.dtype == ciphertext.c0.data.dtype


# ---------------------------------------------------------------------------
# seeded c1: the expansion's known answers, and a reference encryption
# ---------------------------------------------------------------------------

#: The chains the expansion is pinned on: 30-bit words, 59/60-bit double
#: words and the exact 63-bit chain.
SEED_CHAINS = {
    "uint64": dict(scale_bits=28, mult_depth=3, first_mod_bits=30),
    "dword": GOLDEN_CHAINS["dword"],
    "object": GOLDEN_CHAINS["object"],
}

#: sha256 of ``expand_seed(bytes(range(32)), moduli, 2**8)`` as big-endian
#: u64 rows; the test also rebuilds them word by word from the specification.
SEED_ROWS = {
    "uint64": "416a23090a4d5cac9f892ab07a45eea0a753bce3a96b3c13a176865edb79e67c",
    "dword": "f67d6fa03661662b740cfd40b5cdc20242b4b2fef6e1006f84010e51675b62c5",
    "object": "772715fbcbd816b27f5d0a6253366b386d40740bfbb2fa03db14ff0993a1940c",
}


def _chain_context(chain):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the exact-chain notice
        client = OpenFHEClient(CKKSParameters(ring_degree=1 << 8, dnum=2,
                                              **SEED_CHAINS[chain]), seed=5)
    return client


def _expand_word_by_word(seed: bytes, moduli, n: int) -> list[list[int]]:
    """The expansion as the serialization docstring states it, one word at a time."""
    generator = np.random.PCG64(np.random.SeedSequence(int.from_bytes(seed, "little")))
    rows = []
    for q in moduli:
        row = []
        while len(row) < n:
            word = int(generator.random_raw()) & ((1 << q.bit_length()) - 1)
            if word < q:
                row.append(word)
        rows.append(row)
    return rows


@pytest.mark.parametrize("chain", sorted(SEED_CHAINS))
def test_seed_expansion_known_answer(chain):
    context = _chain_context(chain).context
    seed = bytes(range(32))
    poly = expand_seed(seed, context.moduli, context.ring_degree)
    assert poly.seed == seed and poly.fmt is LimbFormat.EVALUATION
    assert poly.data.dtype == (np.object_ if chain == "object" else np.uint64)
    assert poly.data.tolist() == _expand_word_by_word(seed, context.moduli, context.ring_degree)
    # Fewer moduli expand to a row prefix.
    fewer = expand_seed(seed, context.moduli[:2], context.ring_degree)
    assert fewer.data.tolist() == poly.data[:2].tolist()
    assert _rows_digest(poly) == SEED_ROWS[chain]


def _negacyclic_times(a_rows, s: np.ndarray, moduli) -> np.ndarray:
    """``a·s`` in ``Z_q[X]/(X^N + 1)`` per row, schoolbook in Python integers."""
    n = len(s)
    out = np.zeros((len(moduli), n), dtype=object)
    for i, (row, q) in enumerate(zip(a_rows, moduli)):
        full = np.convolve(np.asarray(row, dtype=object), s.astype(object))
        out[i] = (full[:n] - np.append(full[n:], 0)) % q
    return out


def test_seeded_encryption_matches_a_reference_symmetric_encryption():
    client = _chain_context("uint64")
    client.key_gen()
    context, secret = client.context, client.keys.secret_key
    moduli = context.moduli
    plaintext = encode(context, np.array([0.5, -0.25, 0.125]))
    ciphertext = Encryptor(context, secret, seed=21).encrypt(plaintext)
    # The reference draws the seed and the error from the same streams:
    # SeedSequence(21) spawns the error stream, then the seed stream.
    errors, seeds = np.random.SeedSequence(21).spawn(2)
    seed = np.random.PCG64(seeds).random_raw(4).astype("<u8").tobytes()
    e = KeyGenerator(context, errors).sample_error()
    assert ciphertext.c1.seed == seed
    # c1 = a, c0 = -a·s + e + m, built in the coefficient domain.
    a = RNSPoly(moduli, np.array(_expand_word_by_word(seed, moduli, context.ring_degree),
                                 dtype=np.uint64), LimbFormat.EVALUATION)
    a_s = _negacyclic_times(a.to_coefficient().data.tolist(), secret.coefficients, moduli)
    m = plaintext.poly.to_coefficient().data.astype(object)
    c0 = (m + e.astype(object) - a_s) % np.array(moduli, dtype=object)[:, None]
    reference = Ciphertext(RNSPoly(moduli, c0, LimbFormat.COEFFICIENT).to_evaluation(), a,
                           plaintext.scale, plaintext.slots)
    assert _rows_digest(ciphertext.c0, ciphertext.c1) == _rows_digest(reference.c0, reference.c1)
    decrypted = client.decryptor.decrypt(ciphertext).poly.data
    np.testing.assert_array_equal(decrypted, client.decryptor.decrypt(reference).poly.data)
    # What decrypts is m + e, exactly.
    np.testing.assert_array_equal(
        RNSPoly(moduli, decrypted, LimbFormat.EVALUATION).to_coefficient().data,
        (m + e.astype(object)) % np.array(moduli, dtype=object)[:, None])


class TestSeededC1:
    def test_fresh_request_ships_c1_as_its_seed(self, client):
        values = np.array([0.25, -0.5, 0.75])
        raw = client.encrypt(values)
        assert raw.c1.limbs is None and len(raw.c1.seed) == 32
        seeded = serialize_ciphertext(raw)
        full = serialize_ciphertext(with_c1_rows(client.context, raw))
        assert len(seeded) <= 0.55 * len(full)
        decrypted = client.decrypt(deserialize_ciphertext(seeded), 3)
        np.testing.assert_array_equal(decrypted, client.decrypt(deserialize_ciphertext(full), 3))
        assert_close(decrypted.real, values)

    @pytest.mark.parametrize("chain", sorted(SEED_CHAINS))
    def test_seeded_frames_cross_every_chain(self, chain):
        client = _chain_context(chain)
        client.key_gen()
        values = np.array([0.5, -0.125])
        raw = client.encrypt(values, limb_count=2)
        imported = import_ciphertext(client.context,
                                     deserialize_ciphertext(serialize_ciphertext(raw)))
        assert imported.c1.moduli == client.context.moduli[:2]
        assert imported.c1.data.dtype == imported.c0.data.dtype
        assert_close(client.decrypt(imported, 2).real, values, 1e-6)

    def test_only_the_seeded_polynomial_exports_its_seed(self, client, server):
        ct = client.encryptor.encrypt(encode(client.context, [0.5, -0.25]))
        other = client.upload(client.encrypt([0.125]))
        outputs = {
            "fresh": ct,
            "scalar-add": server.add_scalar(ct, 1.0),  # shares c1
            "no-op rotation": server.rotate(ct, 0),
            "add": server.add(ct, other),
            "multiply": server.multiply(ct, other),
            "rotate": server.rotate(ct, 1),
            "rescale": server.mod_reduce(ct, 1),
            "fused": Ciphertext.fuse([ct, other]),
        }
        seeded = set()
        for name, out in outputs.items():
            for member in (out.split() if out.batch_size > 1 else [out]):
                raw = export_ciphertext(member)
                if raw.c1.seed is not None:
                    seeded.add(name)
                    # A seed is only ever the seed of these very rows.
                    expanded = expand_seed(raw.c1.seed, raw.c1.moduli, member.ring_degree)
                    np.testing.assert_array_equal(expanded.data, member.c1.data)
                imported = import_ciphertext(client.context, raw)
                np.testing.assert_array_equal(imported.c1.data, member.c1.data)
        assert seeded == {"fresh", "scalar-add", "no-op rotation"}
