"""Serialization of adapter exchange objects.

OpenFHE handles serialization on the client side (Figure 1); the adapter
structures defined in :mod:`repro.openfhe.adapter` are the objects that
actually travel between client and server, so they are what gets
serialized here.  The format (version 1) is a JSON envelope whose residue
payload is one hexadecimal string per limb: the row's residues as
big-endian 64-bit words, 16 digits each -- written with one
``astype(">u8").tobytes().hex()`` per row and read back with
``bytes.fromhex`` + ``np.frombuffer``.  Portable and byte-for-byte
reproducible, which is what the round-trip unit tests assert.

The wire is untrusted: ``deserialize_*`` raises :class:`ValueError` naming
the offending field for anything that is not a well-formed envelope.  What
needs the server's context (moduli, ring degree, canonical residues, limb
format) is checked by the adapter's ``import_*``.
"""

from __future__ import annotations

import json

import numpy as np

from repro.openfhe.adapter import RawCiphertext, RawPlaintext, RawPolynomial

_FORMAT_VERSION = 1

_MISSING = object()


def _encode_polynomial(poly: RawPolynomial) -> dict:
    return {
        "moduli": [str(q) for q in poly.moduli],
        "fmt": poly.fmt,
        "limbs": [row.astype(">u8").tobytes().hex() for row in poly.limbs],
    }


def _envelope(blob: bytes, kind: str) -> dict:
    """Parse ``blob`` and check it is a version-1 envelope of ``kind``."""
    try:
        payload = json.loads(blob.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 and bad JSON are ValueErrors
        raise ValueError(f"blob is not a JSON envelope: {exc}") from None
    if not isinstance(payload, dict) or payload.get("type") != kind:
        raise ValueError(f"blob does not contain a {kind}")
    if payload.get("version") != _FORMAT_VERSION:
        raise ValueError(f"unsupported serialization version {payload.get('version')}")
    return payload


def _field(payload: dict, name: str, kind, where: str = "envelope"):
    """``payload[name]``, or a :class:`ValueError` when missing or not a ``kind``."""
    value = payload.get(name, _MISSING)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(f"{where}: field {name!r} is missing or mistyped")
    return value


def _real(payload: dict, name: str) -> float:
    """A numeric envelope field as a float (a JSON integer may be too large for one)."""
    try:
        return float(_field(payload, name, (int, float)))
    except OverflowError:
        raise ValueError(f"envelope: field {name!r} does not fit a float") from None


def _metadata(payload: dict) -> dict:
    """The checked fields ciphertext and plaintext envelopes share."""
    return {
        "scale": _real(payload, "scale"),
        "slots": _field(payload, "slots", int),
        "encoded_length": _field(payload, "encoded_length", (int, type(None))),
        # Optional on the wire: absent reads as the empty tag.
        "parameter_tag": _field({"parameter_tag": "", **payload}, "parameter_tag", str),
    }


def _decode_polynomial(envelope: dict, name: str) -> RawPolynomial:
    payload = _field(envelope, name, dict)
    moduli_text = _field(payload, "moduli", list, name)
    limbs_text = _field(payload, "limbs", list, name)
    fmt = _field(payload, "fmt", str, name)
    try:
        moduli = [int(q) for q in moduli_text]
        n = len(limbs_text[0]) // 16 if limbs_text else 0
        words = bytes.fromhex("".join(limbs_text))
        # fromhex skips whitespace, so the decoded byte count is checked too.
        if (len(limbs_text) != len(moduli) or any(len(t) != 16 * n for t in limbs_text)
                or len(words) != 8 * n * len(moduli)):
            raise ValueError("need one limb per modulus, 16 hex digits per residue")
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{name}: malformed moduli or limbs ({exc})") from None
    limbs = np.frombuffer(words, dtype=">u8").astype(np.uint64).reshape(len(moduli), n)
    return RawPolynomial(moduli=moduli, limbs=limbs, fmt=fmt)


def serialize_ciphertext(raw: RawCiphertext) -> bytes:
    """Serialize a raw ciphertext into bytes."""
    payload = {
        "version": _FORMAT_VERSION,
        "type": "ciphertext",
        "scale": raw.scale,
        "slots": raw.slots,
        "noise_bits": raw.noise_bits,
        "encoded_length": raw.encoded_length,
        "parameter_tag": raw.parameter_tag,
        "c0": _encode_polynomial(raw.c0),
        "c1": _encode_polynomial(raw.c1),
    }
    return json.dumps(payload).encode("utf-8")


def deserialize_ciphertext(blob: bytes) -> RawCiphertext:
    """Deserialize bytes produced by :func:`serialize_ciphertext`."""
    payload = _envelope(blob, "ciphertext")
    return RawCiphertext(
        c0=_decode_polynomial(payload, "c0"),
        c1=_decode_polynomial(payload, "c1"),
        noise_bits=_real(payload, "noise_bits"),
        **_metadata(payload),
    )


def serialize_plaintext(raw: RawPlaintext) -> bytes:
    """Serialize a raw plaintext into bytes."""
    payload = {
        "version": _FORMAT_VERSION,
        "type": "plaintext",
        "scale": raw.scale,
        "slots": raw.slots,
        "encoded_length": raw.encoded_length,
        "parameter_tag": raw.parameter_tag,
        "poly": _encode_polynomial(raw.poly),
    }
    return json.dumps(payload).encode("utf-8")


def deserialize_plaintext(blob: bytes) -> RawPlaintext:
    """Deserialize bytes produced by :func:`serialize_plaintext`."""
    payload = _envelope(blob, "plaintext")
    return RawPlaintext(
        poly=_decode_polynomial(payload, "poly"), **_metadata(payload)
    )


__all__ = [
    "serialize_ciphertext",
    "deserialize_ciphertext",
    "serialize_plaintext",
    "deserialize_plaintext",
]
