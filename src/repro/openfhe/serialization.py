"""Serialization of adapter exchange objects.

OpenFHE handles serialization on the client side (Figure 1); the adapter
structures defined in :mod:`repro.openfhe.adapter` are the objects that
actually travel between client and server, so they are what gets
serialized here.  ``serialize_*`` write one binary frame (version 2), all
integers little-endian::

    header    4-byte magic (0x89 "FHE"), u16 version (2), u32 metadata
              length, u64 payload length
    metadata  a JSON object: type, scale, slots, noise_bits (ciphertexts),
              encoded_length, parameter_tag, and per polynomial its
              moduli (decimal strings), fmt and ring degree n, plus seed
              for a seeded c1
    payload   the (L, n) residue rows of each polynomial that is not
              seeded, as u64 words, in metadata order (c0 then c1, or poly)
    checksum  u32 zlib.crc32 of metadata and payload

A raw structure holds one member, so the frame has no member count.  The
reader checks every length before it views the payload as an array.

**Seeded c1.**  A ciphertext the client encrypted under its secret key
has a uniform ``c1``, and the frame carries the 32 bytes it expands from
instead of its rows: ``"seed": "<64 lowercase hex digits>"`` in ``c1``'s
metadata, ``fmt`` ``"eval"``, ``n`` the ring degree, and 0 payload bytes.
A reader that predates the field computes ``8·L·n`` bytes for ``c1`` and
fails closed on the payload length.  Only ``c1`` may carry a seed.  The
expansion, :func:`repro.ckks.keys.expand_seed`, is: one NumPy ``PCG64``
bit generator seeded with ``SeedSequence(int.from_bytes(seed,
"little"))``; for each modulus ``q`` in order, read its next 64-bit words
(``random_raw``), mask each to ``q.bit_length()`` bits, keep those below
``q`` in stream order until ``n`` are kept, and continue the next modulus
at the following word.  The rows are canonical residues in evaluation
format.  The seed is public, as the uniform ``c1`` it replaces is.

``deserialize_*`` also read the version-1 envelope, told apart by the
magic: a JSON object whose residue payload is one hexadecimal string per
limb, the row's residues as big-endian 64-bit words, 16 digits each.
Nothing writes it any more and it cannot carry a seed.  Reading it is a
promise while the golden pins and the hostile-input suite
(``tests/test_openfhe_interop.py``) hold it on every case; dropping it
would be a deliberate wire change, not a clean-up.

The wire is untrusted: ``deserialize_*`` raises :class:`ValueError` naming
the offending field for anything that is not a well-formed frame.  What
needs the server's context (moduli, ring degree, canonical residues, limb
format, slot count) is checked by the adapter's ``import_*``.
"""

from __future__ import annotations

import binascii
import json
import re
import struct
import zlib

import numpy as np

from repro.ckks.keys import SEED_BYTES
from repro.openfhe.adapter import RawCiphertext, RawPlaintext, RawPolynomial

#: Version-2 frame: magic, version, metadata length, payload length.
_MAGIC = b"\x89FHE"
_VERSION = 2
_HEADER = struct.Struct("<4sHIQ")
_CHECKSUM = struct.Struct("<I")

#: A seeded polynomial's ``seed`` field: the 32 bytes as lowercase hex.
_SEED_HEX = re.compile(f"[0-9a-f]{{{2 * SEED_BYTES}}}")

#: The version of the JSON/hex envelope ``deserialize_*`` still reads.
_FORMAT_VERSION = 1

_MISSING = object()


def _json_object(text: bytes, kind: str) -> dict:
    """Parse ``text`` and check it is a JSON object of type ``kind``."""
    try:
        payload = json.loads(text.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 and bad JSON are ValueErrors
        raise ValueError(f"blob is not a JSON envelope: {exc}") from None
    if not isinstance(payload, dict) or payload.get("type") != kind:
        raise ValueError(f"blob does not contain a {kind}")
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


def _moduli(payload: dict, name: str) -> list[int]:
    """A polynomial's ``moduli`` field as integers."""
    try:
        return [int(q) for q in _field(payload, "moduli", list, name)]
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{name}: malformed moduli ({exc})") from None


# -- version 2: the binary frame ----------------------------------------------


def _frame(blob: bytes, kind: str) -> tuple[dict, memoryview]:
    """Check a version-2 frame of ``kind``; return its metadata and payload."""
    if len(blob) < _HEADER.size + _CHECKSUM.size:
        raise ValueError(f"frame: {len(blob)} bytes cannot hold a header and checksum")
    _, version, text_length, payload_length = _HEADER.unpack_from(blob)
    if version != _VERSION:
        raise ValueError(f"unsupported serialization version {version}")
    end = _HEADER.size + text_length + payload_length
    if end + _CHECKSUM.size != len(blob):
        raise ValueError(
            f"frame: header lengths {text_length} + {payload_length} do not "
            f"match a {len(blob)}-byte frame"
        )
    body = memoryview(blob)[_HEADER.size : end]
    if zlib.crc32(body) != _CHECKSUM.unpack_from(blob, end)[0]:
        raise ValueError("frame: checksum mismatch")
    return _json_object(bytes(body[:text_length]), kind), body[text_length:]


def _frame_polynomials(metadata: dict, names: tuple[str, ...],
                       payload: memoryview) -> list[RawPolynomial]:
    """The polynomials ``names`` of a version-2 frame: their metadata
    checked, then the payload split into the ``(L, n)`` rows of those
    that are not seeded."""
    shapes = []
    for name in names:
        header = _field(metadata, name, dict)
        moduli = _moduli(header, name)
        fmt = _field(header, "fmt", str, name)
        n = _field(header, "n", int, name)
        if n < 0:
            raise ValueError(f"{name}: ring degree n = {n} is negative")
        seed = header.get("seed")
        if seed is not None:
            if name != "c1":
                raise ValueError(f"{name}: only a ciphertext's c1 may carry a seed")
            if not isinstance(seed, str) or not _SEED_HEX.fullmatch(seed):
                raise ValueError(f"{name}: seed must be {2 * SEED_BYTES} lowercase "
                                 f"hex digits, got {seed!r:.80}")
            seed = bytes.fromhex(seed)
        shapes.append((moduli, fmt, n, seed))
    need = sum(8 * len(moduli) * n for moduli, _, n, seed in shapes if seed is None)
    if need != len(payload):
        seeded = " (a polynomial with a seed has none)" if any(s for *_, s in shapes) else ""
        raise ValueError(
            f"{'/'.join(names)} limbs: the payload holds {len(payload)} bytes, "
            f"their moduli and ring degrees need {need}{seeded}"
        )
    polys, offset = [], 0
    for moduli, fmt, n, seed in shapes:
        if seed is not None:
            if n != shapes[0][2]:
                raise ValueError(f"n: the seeded polynomial's ring degree {n} is "
                                 f"not c0's {shapes[0][2]}")
            polys.append(RawPolynomial(moduli=moduli, limbs=None, fmt=fmt, seed=seed))
            continue
        count = len(moduli) * n
        words = np.frombuffer(payload, dtype="<u8", count=count, offset=offset)
        offset += 8 * count
        limbs = words.astype(np.uint64).reshape(len(moduli), n)
        polys.append(RawPolynomial(moduli=moduli, limbs=limbs, fmt=fmt))
    return polys


def _write_frame(kind: str, metadata: dict, polys: dict[str, RawPolynomial]) -> bytes:
    """The version-2 frame of ``metadata`` and ``polys`` (module docstring).

    A seeded polynomial writes its seed and no rows; its ``n`` is the
    ring degree of the first polynomial that has rows.
    """
    rows = {name: np.asarray(poly.limbs) for name, poly in polys.items()
            if poly.seed is None}
    ring_degree = next((r.shape[-1] for r in rows.values()), 0)
    shapes = {}
    for name, poly in polys.items():
        shape = {"moduli": [str(q) for q in poly.moduli], "fmt": poly.fmt,
                 "n": rows[name].shape[-1] if name in rows else ring_degree}
        if poly.seed is not None:
            shape["seed"] = binascii.hexlify(poly.seed).decode("ascii")
        shapes[name] = shape
    text = json.dumps({"type": kind, **metadata, **shapes}).encode("utf-8")
    payload = np.concatenate([r.astype("<u8").ravel() for r in rows.values()]).tobytes()
    checksum = zlib.crc32(payload, zlib.crc32(text))
    return b"".join((
        _HEADER.pack(_MAGIC, _VERSION, len(text), len(payload)),
        text, payload, _CHECKSUM.pack(checksum),
    ))


# -- version 1: the JSON envelope, read only ---------------------------------


def _envelope(blob: bytes, kind: str) -> dict:
    """Parse ``blob`` and check it is a version-1 envelope of ``kind``."""
    payload = _json_object(blob, kind)
    if payload.get("version") != _FORMAT_VERSION:
        raise ValueError(f"unsupported serialization version {payload.get('version')}")
    return payload


def _decode_polynomial(envelope: dict, name: str) -> RawPolynomial:
    payload = _field(envelope, name, dict)
    moduli = _moduli(payload, name)
    limbs_text = _field(payload, "limbs", list, name)
    fmt = _field(payload, "fmt", str, name)
    try:
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


# -- the public functions -----------------------------------------------------


def serialize_ciphertext(raw: RawCiphertext) -> bytes:
    """Serialize a raw ciphertext into one version-2 frame."""
    return _write_frame("ciphertext", {
        "scale": raw.scale,
        "slots": raw.slots,
        "noise_bits": raw.noise_bits,
        "encoded_length": raw.encoded_length,
        "parameter_tag": raw.parameter_tag,
    }, {"c0": raw.c0, "c1": raw.c1})


def deserialize_ciphertext(blob: bytes) -> RawCiphertext:
    """Deserialize a :func:`serialize_ciphertext` frame or a version-1 envelope."""
    if blob[: len(_MAGIC)] == _MAGIC:
        payload, body = _frame(blob, "ciphertext")
        c0, c1 = _frame_polynomials(payload, ("c0", "c1"), body)
    else:
        payload = _envelope(blob, "ciphertext")
        c0, c1 = _decode_polynomial(payload, "c0"), _decode_polynomial(payload, "c1")
    return RawCiphertext(
        c0=c0, c1=c1, noise_bits=_real(payload, "noise_bits"), **_metadata(payload)
    )


def serialize_plaintext(raw: RawPlaintext) -> bytes:
    """Serialize a raw plaintext into one version-2 frame."""
    return _write_frame("plaintext", {
        "scale": raw.scale,
        "slots": raw.slots,
        "encoded_length": raw.encoded_length,
        "parameter_tag": raw.parameter_tag,
    }, {"poly": raw.poly})


def deserialize_plaintext(blob: bytes) -> RawPlaintext:
    """Deserialize a :func:`serialize_plaintext` frame or a version-1 envelope."""
    if blob[: len(_MAGIC)] == _MAGIC:
        payload, body = _frame(blob, "plaintext")
        (poly,) = _frame_polynomials(payload, ("poly",), body)
    else:
        payload = _envelope(blob, "plaintext")
        poly = _decode_polynomial(payload, "poly")
    return RawPlaintext(poly=poly, **_metadata(payload))


__all__ = [
    "serialize_ciphertext",
    "deserialize_ciphertext",
    "serialize_plaintext",
    "deserialize_plaintext",
]
