"""Encoding, encryption and decryption (the client-side reference path).

In the paper these operations run inside OpenFHE on the CPU; FIDESlib only
receives the resulting ciphertexts through the adapter layer.  The
reference implementation here plays the OpenFHE role: it is used by
:mod:`repro.openfhe.client` and by every integration test that checks the
server-side GPU-style operations against freshly decrypted results.
:func:`encode` yields an evaluation-format plaintext, the one format a
container holds, so no step below converts.
"""

from __future__ import annotations

import numpy as np

from repro.ckks.ciphertext import Ciphertext, Plaintext
from repro.ckks.context import Context
from repro.ckks.keys import KeyGenerator, PublicKey, SecretKey
from repro.core.limb import LimbFormat
from repro.core.rns_poly import RNSPoly


def encode(
    context: Context,
    values,
    *,
    scale: float | None = None,
    limb_count: int | None = None,
) -> Plaintext:
    """Encode a message vector into an evaluation-format :class:`Plaintext`.

    Parameters
    ----------
    values:
        Real or complex message values (at most ``N/2`` of them).
    scale:
        Encoding scale; defaults to the context's ``Δ``.
    limb_count:
        Number of RNS limbs to encode over (defaults to all of them).  A
        plaintext can only operate with ciphertexts having at most this
        many limbs.
    """
    scale = context.scale if scale is None else float(scale)
    limb_count = len(context.moduli) if limb_count is None else limb_count
    values = np.atleast_1d(np.asarray(values))
    coefficients = context.encoder.encode(values, scale)
    poly = RNSPoly.from_int_coefficients(
        context.ring_degree, context.moduli_at(limb_count), coefficients,
        fmt=LimbFormat.EVALUATION,
    )
    return Plaintext(poly=poly, scale=scale, slots=context.slots,
                     encoded_length=len(values))


def decode(context: Context, plaintext: Plaintext, length: int | None = None) -> np.ndarray:
    """Decode a :class:`Plaintext` back into complex message values."""
    coefficients = plaintext.poly.to_coefficient().compose()
    if length is None:
        length = plaintext.encoded_length
    return context.encoder.decode(coefficients, plaintext.scale, length)


class Encryptor:
    """Public-key (or secret-key) RLWE encryption."""

    def __init__(self, context: Context, public_key: PublicKey, seed: int | None = None) -> None:
        self.context = context
        self.public_key = public_key
        self._keygen = KeyGenerator(context, seed)

    def encrypt(self, plaintext: Plaintext) -> Ciphertext:
        """Encrypt an encoded plaintext under the public key."""
        ctx = self.context
        limb_count = plaintext.limb_count
        moduli = ctx.moduli_at(limb_count)
        pk_b = self.public_key.b.keep_limbs(limb_count)
        pk_a = self.public_key.a.keep_limbs(limb_count)
        sampler = self._keygen
        v = sampler.lift(sampler.sample_ternary(), moduli)
        e0 = sampler.lift(sampler.sample_error(), moduli)
        e1 = sampler.lift(sampler.sample_error(), moduli)
        c0 = pk_b.multiply(v).add(e0).add(plaintext.poly)
        c1 = pk_a.multiply(v).add(e1)
        return Ciphertext(
            c0=c0,
            c1=c1,
            scale=plaintext.scale,
            slots=plaintext.slots,
            noise_bits=float(self.context.params.error_std),
            encoded_length=plaintext.encoded_length,
        )

    def encrypt_values(self, values, *, scale: float | None = None,
                       limb_count: int | None = None) -> Ciphertext:
        """Encode and encrypt in one call."""
        plaintext = encode(self.context, values, scale=scale, limb_count=limb_count)
        return self.encrypt(plaintext)


class Decryptor:
    """Secret-key decryption and decoding."""

    def __init__(self, context: Context, secret_key: SecretKey) -> None:
        self.context = context
        self.secret_key = secret_key

    def decrypt(self, ciphertext: Ciphertext) -> Plaintext:
        """Decrypt a ciphertext into an encoded plaintext.

        A ciphertext is in evaluation format (its constructor checks), and
        ``add``/``multiply`` never mutate their operands, so no conversion
        and no defensive copy is taken.
        """
        s = self.secret_key.restricted(ciphertext.limb_count)
        poly = ciphertext.c0.add(ciphertext.c1.multiply(s))
        return Plaintext(
            poly=poly,
            scale=ciphertext.scale,
            slots=ciphertext.slots,
            encoded_length=ciphertext.encoded_length,
        )

    def decrypt_values(self, ciphertext: Ciphertext, length: int | None = None) -> np.ndarray:
        """Decrypt and decode in one call."""
        plaintext = self.decrypt(ciphertext)
        return decode(self.context, plaintext, length)


__all__ = [
    "encode",
    "decode",
    "Encryptor",
    "Decryptor",
]
