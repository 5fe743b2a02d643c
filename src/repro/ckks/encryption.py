"""Encoding, encryption and decryption (the client-side reference path).

In the paper these operations run inside OpenFHE on the CPU; FIDESlib only
receives the resulting ciphertexts through the adapter layer.  The
reference implementation here plays the OpenFHE role: it is used by
:mod:`repro.openfhe.client` and by every integration test that checks the
server-side GPU-style operations against freshly decrypted results.
:func:`encode` yields an evaluation-format plaintext, the one format a
container holds, so no step below converts.

Two encryptions run, one on each side of the wire.  The client encrypts
under its secret key (:class:`Encryptor` over a :class:`SecretKey`): one
transform per ciphertext, and ``c1`` is a seeded uniform polynomial that
travels as its 32-byte seed.  The server half of a session, which holds
only public material, encrypts under the public key.
"""

from __future__ import annotations

import secrets

import numpy as np

from repro.ckks.ciphertext import Ciphertext, Plaintext
from repro.ckks.context import Context
from repro.ckks.keys import SEED_BYTES, KeyGenerator, PublicKey, SecretKey, expand_seed
from repro.ckks.noise import fresh_encryption_noise_bits
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
    """RLWE encryption under a public key, or under the secret key.

    The key's type picks the scheme, as in OpenFHE's
    ``Encrypt(publicKey, pt)`` and ``Encrypt(privateKey, pt)``:

    * a :class:`PublicKey` ``(b, a)`` gives ``c0 = b·v + e0 + m``,
      ``c1 = a·v + e1``: three small polynomials lifted and transformed.
      Anyone may hold it; the server half of a session encrypts this way.
    * a :class:`SecretKey` ``s`` gives ``c1 = a`` and ``c0 = −a·s + e + m``
      with ``a`` uniform, expanded in evaluation format from a fresh
      32-byte seed (:func:`~repro.ckks.keys.expand_seed`): one lift and
      transform, for ``e``.  Only the client, which decrypts, holds ``s``.
      ``c1`` carries its seed, so the wire ships 32 bytes for it.

    ``seed`` makes the randomness reproducible.  A public-key encryptor
    draws from ``default_rng(seed)``.  A secret-key encryptor spawns two
    independent ``SeedSequence`` children of it, one for its errors and
    one for the ``a`` seeds, so a published seed says nothing about an
    error; unseeded, each ``a`` seed is ``secrets.token_bytes(32)``.  The
    seed is public like ``a`` itself: ``a`` is the half of an RLWE sample
    everyone may see.  (The toy rings are insecure at any rate.)
    """

    def __init__(self, context: Context, key: PublicKey | SecretKey,
                 seed: int | None = None) -> None:
        self.context = context
        self.key = key
        secret = isinstance(key, SecretKey)
        self.noise_bits = fresh_encryption_noise_bits(context.params, secret_key=secret)
        self._seeds = None  # the ``a`` seeds' bit generator; None draws OS entropy
        if secret and seed is not None:
            seed, seeds = np.random.SeedSequence(seed).spawn(2)  # errors, ``a`` seeds
            self._seeds = np.random.PCG64(seeds)
        self._keygen = KeyGenerator(context, seed)

    def encrypt(self, plaintext: Plaintext) -> Ciphertext:
        """Encrypt an encoded plaintext under the encryptor's key."""
        limb_count = plaintext.limb_count
        moduli = self.context.moduli_at(limb_count)
        sampler = self._keygen
        if isinstance(self.key, SecretKey):
            c1 = expand_seed(self._next_seed(), moduli, self.context.ring_degree)
            e = sampler.lift(sampler.sample_error(), moduli)
            c0 = e.add(plaintext.poly).sub(c1.multiply(self.key.restricted(limb_count)))
        else:
            v = sampler.lift(sampler.sample_ternary(), moduli)
            e0 = sampler.lift(sampler.sample_error(), moduli)
            e1 = sampler.lift(sampler.sample_error(), moduli)
            c0 = self.key.b.keep_limbs(limb_count).multiply(v).add(e0).add(plaintext.poly)
            c1 = self.key.a.keep_limbs(limb_count).multiply(v).add(e1)
        return Ciphertext(
            c0=c0,
            c1=c1,
            scale=plaintext.scale,
            slots=plaintext.slots,
            noise_bits=self.noise_bits,
            encoded_length=plaintext.encoded_length,
        )

    def _next_seed(self) -> bytes:
        """A fresh 32-byte seed for ``a``."""
        if self._seeds is None:
            return secrets.token_bytes(SEED_BYTES)
        return self._seeds.random_raw(SEED_BYTES // 8).astype("<u8").tobytes()

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
