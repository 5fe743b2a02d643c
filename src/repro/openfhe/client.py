"""``OpenFHEClient``: the trusted client-side library.

Plays the role OpenFHE plays in the paper: it owns the secret key, does
key generation, encoding, encryption, decryption and serialization on the
"CPU side", and exchanges only raw adapter structures and public key
material with the server (:class:`repro.ckks.evaluator.Evaluator`).  The
paper's integration tests compare every server-side operation against this
client; :mod:`tests.integration` reproduces that methodology.

The client encrypts under its secret key (:attr:`OpenFHEClient.encryptor`):
``c1`` is uniform, expanded from a fresh 32-byte seed, and the exported
ciphertext carries that seed in place of ``c1``'s rows, which halves a
request.  The seed is as public as ``a`` is.  The server half of a session
encrypts with :attr:`OpenFHEClient.public_encryptor`, which holds the
public key only.
"""

from __future__ import annotations

import numpy as np

from repro.ckks.ciphertext import Ciphertext
from repro.ckks.context import Context
from repro.ckks.encryption import Decryptor, Encryptor, decode, encode
from repro.ckks.keys import KeyGenerator, KeySet
from repro.ckks.noise import measured_precision_bits
from repro.ckks.params import CKKSParameters
from repro.openfhe.adapter import (
    RawCiphertext,
    export_ciphertext,
    import_ciphertext,
)


class OpenFHEClient:
    """Client-side CKKS operations (KeyGen, Encode, Encrypt, Decrypt).

    Parameters
    ----------
    params:
        CKKS parameter set shared with the server.
    seed:
        Seed for key generation and encryption randomness (tests use fixed
        seeds for reproducibility): keys draw on ``seed``, the secret-key
        encryptor on two ``SeedSequence`` children of it, the public-key
        encryptor on ``seed + 1``.
    """

    def __init__(self, params: CKKSParameters, seed: int | None = None) -> None:
        self.params = params
        self.context = Context(params)
        self._seed = seed
        self._keygen = KeyGenerator(self.context, seed)
        self._keys: KeySet | None = None
        self._encryptor: Encryptor | None = None
        self._public_encryptor: Encryptor | None = None
        self._decryptor: Decryptor | None = None

    # ------------------------------------------------------------------
    # key management
    # ------------------------------------------------------------------

    def key_gen(self, rotations: list[int] | tuple[int, ...] = (),
                *, conjugation: bool = False) -> KeySet:
        """Generate the key material and return the server-safe key set.

        The returned :class:`KeySet` has its secret key stripped -- it is
        what gets shipped to the (untrusted) server together with the
        evaluation keys.
        """
        self._keys = self._keygen.generate(rotations, conjugation=conjugation)
        public_seed = None if self._seed is None else self._seed + 1
        self._encryptor = Encryptor(self.context, self._keys.secret_key, seed=self._seed)
        self._public_encryptor = Encryptor(self.context, self._keys.public_key, seed=public_seed)
        self._decryptor = Decryptor(self.context, self._keys.secret_key)
        return self._keys.without_secret()

    def add_rotation_keys(self, rotations: list[int]) -> KeySet:
        """Generate additional rotation keys (e.g. for bootstrapping)."""
        keys = self._require_keys()
        for step in rotations:
            if step not in keys.rotation_keys:
                keys.rotation_keys[int(step)] = self._keygen.generate_rotation_key(
                    keys.secret_key, int(step)
                )
        return keys.without_secret()

    def add_conjugation_key(self) -> KeySet:
        """Generate the conjugation key if it is missing."""
        keys = self._require_keys()
        if keys.conjugation_key is None:
            keys.conjugation_key = self._keygen.generate_conjugation_key(keys.secret_key)
        return keys.without_secret()

    @property
    def has_keys(self) -> bool:
        """True once :meth:`key_gen` has run."""
        return self._keys is not None

    @property
    def keys(self) -> KeySet:
        """Return the full key set (secret included); client-side only."""
        return self._require_keys()

    @property
    def encryptor(self) -> Encryptor:
        """The secret-key encryptor (available after :meth:`key_gen`): what
        :meth:`encrypt` uses; its ciphertexts export ``c1`` as a seed."""
        self._require_keys()
        return self._encryptor

    @property
    def public_encryptor(self) -> Encryptor:
        """A public-key encryptor (available after :meth:`key_gen`): what the
        server half of a session encrypts with.  It holds no secret."""
        self._require_keys()
        return self._public_encryptor

    @property
    def decryptor(self) -> Decryptor:
        """The secret-key decryptor (available after :meth:`key_gen`)."""
        self._require_keys()
        return self._decryptor

    # ------------------------------------------------------------------
    # encode / encrypt / decrypt
    # ------------------------------------------------------------------

    def encrypt(self, values, *, scale: float | None = None,
                limb_count: int | None = None) -> RawCiphertext:
        """Encode and encrypt a message under the secret key, returning the
        raw exchange object (``c1`` as its seed)."""
        self._require_keys()
        plaintext = encode(self.context, values, scale=scale, limb_count=limb_count)
        ciphertext = self._encryptor.encrypt(plaintext)
        return export_ciphertext(ciphertext, parameter_tag=self.params.describe())

    def upload(self, raw: RawCiphertext, server_context: Context | None = None) -> Ciphertext:
        """Convert a raw ciphertext into a server-side ciphertext object."""
        return import_ciphertext(server_context or self.context, raw)

    def decrypt(self, ciphertext: Ciphertext | RawCiphertext,
                length: int | None = None) -> np.ndarray:
        """Decrypt a (raw or server) ciphertext back into message values."""
        self._require_keys()
        if isinstance(ciphertext, RawCiphertext):
            ciphertext = import_ciphertext(self.context, ciphertext)
        return self._decryptor.decrypt_values(ciphertext, length)

    def decode(self, plaintext, length: int | None = None) -> np.ndarray:
        """Decode an encoded plaintext."""
        return decode(self.context, plaintext, length)

    def precision_bits(self, ciphertext: Ciphertext | RawCiphertext, expected) -> float:
        """Measured message precision of a server result, in bits.

        This is the quantity Table VI reports as the achieved message
        precision of bootstrapping.
        """
        expected = np.asarray(expected)
        actual = self.decrypt(ciphertext, length=len(expected))
        return measured_precision_bits(expected, actual)

    # ------------------------------------------------------------------

    def _require_keys(self) -> KeySet:
        if self._keys is None:
            raise RuntimeError("call key_gen() before using the client")
        return self._keys


__all__ = ["OpenFHEClient"]
