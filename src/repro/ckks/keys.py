"""Key material: secret, public, relinearisation and rotation keys.

Key generation is a client-side operation in the paper's architecture
(handled by OpenFHE); the reference implementation lives here so the
:mod:`repro.openfhe` client can delegate to it, and so the server-side
tests can validate every homomorphic operation against freshly generated
keys.

Hybrid key switching (Han-Ki [37]) stores, for every digit ``j`` of the
RNS basis, an RLWE encryption under ``s`` of ``T_j * s'`` over the
extended modulus ``P * Q``, where
``T_j = P * (Q/Q_j) * [(Q/Q_j)^{-1} mod Q_j]``.  The same key works at
every ciphertext level (the level-dependent parts of the computation live
in :mod:`repro.ckks.keyswitch`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.ckks.context import Context
from repro.core import modmath
from repro.core.automorphism import (
    coeff_automorphism_map,
    conjugation_exponent,
    rotation_to_exponent,
)
from repro.core.limb import LimbFormat
from repro.core.rns_poly import RNSPoly


#: Bytes in the seed that stands for a uniform polynomial (:func:`expand_seed`).
SEED_BYTES = 32


def expand_seed(seed: bytes, moduli: Sequence[int], ring_degree: int) -> RNSPoly:
    """The uniform evaluation-format polynomial a 32-byte ``seed`` stands for.

    One PCG64 bit generator, seeded with
    ``SeedSequence(int.from_bytes(seed, "little"))``, feeds the limbs in
    modulus order.  Limb ``i`` reads the generator's next 64-bit words
    (``random_raw``), masks each to ``q_i.bit_length()`` bits and keeps
    those below ``q_i``, in stream order, until it holds ``ring_degree`` of
    them; limb ``i + 1`` starts at the word after.  Bit generators and
    ``SeedSequence`` are stream-stable across NumPy versions
    (``Generator.integers`` is not promised to be), so the rows are a
    function of the seed, the moduli and ``N`` alone, on every backend:
    ``uint64`` words that an exact chain's polynomial holds as Python
    integers.  A limb over fewer moduli is a row prefix of one over more.

    The returned polynomial carries ``seed`` (:attr:`RNSPoly.seed`), so a
    ciphertext whose ``c1`` it is can travel as the seed.
    """
    if not isinstance(seed, bytes) or len(seed) != SEED_BYTES:
        raise ValueError(f"seed: need {SEED_BYTES} bytes, got {seed!r:.80}")
    generator = np.random.PCG64(np.random.SeedSequence(int.from_bytes(seed, "little")))
    rows = np.empty((len(moduli), ring_degree), dtype=np.uint64)
    stream = np.empty(0, dtype=np.uint64)  # drawn, not yet read
    for row, q in zip(rows, moduli):
        q = int(q)
        bits = q.bit_length()
        if bits > 64:
            raise ValueError(f"moduli: {q} does not fit a 64-bit word")
        mask, bound = np.uint64((1 << bits) - 1), np.uint64(q)
        # The words N acceptances take at the rate q / 2^bits, plus slack;
        # a window that falls short grows by what is still missing.
        window = 0
        kept = np.empty(0, dtype=np.intp)
        while kept.size < ring_degree:
            short = (ring_degree - kept.size) * (1 << bits) // q
            window += short + short // 16 + 64
            if stream.size < window:
                stream = np.concatenate((stream, generator.random_raw(window - stream.size)))
            masked = stream[:window] & mask
            kept = np.flatnonzero(masked < bound)
        row[:] = masked[kept[:ring_degree]]
        stream = stream[kept[ring_degree - 1] + 1 :]
    poly = RNSPoly(moduli, rows, LimbFormat.EVALUATION)
    poly.seed = seed
    return poly


@dataclass
class SecretKey:
    """Ternary secret key stored over the full extended basis."""

    coefficients: np.ndarray  # the ternary values, int64
    poly: RNSPoly  # evaluation format, extended basis
    hamming_weight: int

    def restricted(self, limb_count: int) -> RNSPoly:
        """Return the secret key over the first ``limb_count`` ciphertext limbs."""
        return self.poly.keep_limbs(limb_count)


@dataclass
class PublicKey:
    """RLWE public key ``(b, a) = (-a*s + e, a)`` over the ciphertext basis."""

    b: RNSPoly
    a: RNSPoly


@dataclass(frozen=True)
class KeySwitchingKey:
    """Hybrid key-switching key: one ``(b_j, a_j)`` pair per digit.

    Read-only once built: every key multiply on every thread reads the
    same digits, and nothing is derived from them later: the key product
    reads each digit's residues as they are
    (:func:`repro.core.modmath.stack_dot_mod`).
    """

    digits: list[tuple[RNSPoly, RNSPoly]]
    target_description: str = ""

    @property
    def dnum(self) -> int:
        """Number of digits."""
        return len(self.digits)

    def footprint_bytes(self) -> int:
        """Device-memory footprint of the key (Figure 8 discussion)."""
        return sum(
            b.footprint_bytes() + a.footprint_bytes() for b, a in self.digits
        )


@dataclass
class KeySet:
    """All key material produced by :class:`KeyGenerator.generate`."""

    public_key: PublicKey
    relinearization_key: KeySwitchingKey
    rotation_keys: dict[int, KeySwitchingKey] = field(default_factory=dict)
    conjugation_key: KeySwitchingKey | None = None
    secret_key: SecretKey | None = None

    def rotation_key(self, steps: int, slots: int) -> KeySwitchingKey:
        """Return the key serving a rotation by ``steps`` of ``slots`` slots.

        A rotation key belongs to a Galois element, and every step with
        the same residue mod ``slots`` has the same one -- the key loaded
        for ``-1`` also serves ``slots - 1``.  Raises if no loaded key
        matches.
        """
        key = self.rotation_keys.get(steps)
        if key is None:
            residue = steps % slots
            key = next(
                (k for s, k in self.rotation_keys.items() if s % slots == residue),
                None,
            )
        if key is None:
            available = sorted(self.rotation_keys)
            inventory = ", ".join(str(s) for s in available) if available else "none"
            raise KeyError(
                f"no rotation key for {steps} steps (available rotation steps: "
                f"{inventory}); generate it with KeyGenerator.generate_rotation_key "
                f"or request it up front via CKKSSession.create(rotations=...)"
            )
        return key

    def without_secret(self) -> "KeySet":
        """Return a copy safe to hand to the (untrusted) server side."""
        return KeySet(
            public_key=self.public_key,
            relinearization_key=self.relinearization_key,
            rotation_keys=dict(self.rotation_keys),
            conjugation_key=self.conjugation_key,
            secret_key=None,
        )


class KeyGenerator:
    """Generates CKKS key material for a :class:`~repro.ckks.context.Context`."""

    def __init__(self, context: Context, seed: int | None = None) -> None:
        self.context = context
        self.rng = np.random.default_rng(seed)

    # -- sampling helpers -----------------------------------------------------

    def sample_ternary(self, hamming_weight: int | None = None) -> np.ndarray:
        """Sample a ternary polynomial, sparse when ``hamming_weight`` is given."""
        n = self.context.ring_degree
        if hamming_weight is None:
            return self.rng.integers(-1, 2, size=n)
        hamming_weight = min(hamming_weight, n)
        coeffs = np.zeros(n, dtype=np.int64)
        positions = self.rng.choice(n, size=hamming_weight, replace=False)
        coeffs[positions] = self.rng.choice([-1, 1], size=hamming_weight)
        return coeffs

    def sample_error(self) -> np.ndarray:
        """Sample a discrete Gaussian error polynomial."""
        n = self.context.ring_degree
        std = self.context.params.error_std
        return modmath.rint_integers(self.rng.normal(0.0, std, size=n))

    def lift(self, coefficients: np.ndarray, moduli: list[int]) -> RNSPoly:
        """Sampled integer coefficients as an evaluation-format polynomial over ``moduli``."""
        return RNSPoly.from_int_coefficients(
            self.context.ring_degree, moduli, coefficients, fmt=LimbFormat.EVALUATION
        )

    def sample_uniform_poly(self, moduli: list[int]) -> RNSPoly:
        """Sample a uniformly random polynomial over ``moduli`` (evaluation format).

        The per-limb draws go straight into the flat limb-stack layout; the
        draw sequence is unchanged, so key material is reproducible across
        versions.
        """
        n = self.context.ring_degree
        rows = [self.rng.integers(0, q, size=n, dtype=np.int64) for q in moduli]
        return RNSPoly.from_limb_arrays(n, moduli, rows, LimbFormat.EVALUATION)

    # -- key generation -------------------------------------------------------

    def generate_secret(self) -> SecretKey:
        """Generate a sparse ternary secret key over the extended basis."""
        coeffs = self.sample_ternary(self.context.params.secret_hamming_weight)
        poly = self.lift(coeffs, self.context.extended_moduli)
        weight = int(np.count_nonzero(coeffs))
        return SecretKey(coefficients=coeffs, poly=poly, hamming_weight=weight)

    def generate_public(self, secret: SecretKey) -> PublicKey:
        """Generate the RLWE public key over the ciphertext basis."""
        moduli = self.context.moduli
        a = self.sample_uniform_poly(moduli)
        e = self.lift(self.sample_error(), moduli)
        s = secret.restricted(len(moduli))
        b = a.multiply(s).negate().add(e)
        return PublicKey(b=b, a=a)

    def generate_switching_key(
        self, target_coefficients: np.ndarray, secret: SecretKey, description: str = ""
    ) -> KeySwitchingKey:
        """Generate a hybrid key-switching key for the target secret ``s'``.

        ``target_coefficients`` are the integer coefficients of ``s'``
        (e.g. the coefficients of ``s^2`` for relinearisation, or of
        ``σ_k(s)`` for a rotation key).
        """
        ctx = self.context
        moduli = ctx.extended_moduli
        target = self.lift(target_coefficients, moduli)
        digits = []
        for j in range(ctx.params.dnum):
            factors = ctx.key_switch_factor(j)
            a_j = self.sample_uniform_poly(moduli)
            e_j = self.lift(self.sample_error(), moduli)
            payload = target.multiply_scalar(factors)
            b_j = a_j.multiply(secret.poly).negate().add(e_j).add(payload)
            digits.append((b_j, a_j))
        return KeySwitchingKey(digits, description)

    def generate_relinearization_key(self, secret: SecretKey) -> KeySwitchingKey:
        """Generate the key for switching ``s^2`` back to ``s`` after HMult."""
        s_squared = _square_coefficients(secret.coefficients, self.context.ring_degree)
        return self.generate_switching_key(s_squared, secret, "s^2")

    def generate_rotation_key(self, secret: SecretKey, steps: int) -> KeySwitchingKey:
        """Generate the key-switching key for a rotation by ``steps`` slots."""
        exponent = rotation_to_exponent(self.context.ring_degree, steps)
        rotated = self._automorphism_of_secret(secret, exponent)
        return self.generate_switching_key(rotated, secret, f"rot({steps})")

    def generate_conjugation_key(self, secret: SecretKey) -> KeySwitchingKey:
        """Generate the key-switching key for complex conjugation."""
        exponent = conjugation_exponent(self.context.ring_degree)
        conj = self._automorphism_of_secret(secret, exponent)
        return self.generate_switching_key(conj, secret, "conjugate")

    def _automorphism_of_secret(self, secret: SecretKey, exponent: int) -> np.ndarray:
        """The integer coefficients of ``s(X^exponent)`` in ``Z[X]/(X^N + 1)``."""
        source, sign = coeff_automorphism_map(self.context.ring_degree, exponent)
        return sign * secret.coefficients[source]

    def generate(
        self,
        rotations: list[int] | tuple[int, ...] = (),
        *,
        conjugation: bool = False,
        keep_secret: bool = True,
    ) -> KeySet:
        """Generate a full key set (public, relinearisation, rotation keys)."""
        secret = self.generate_secret()
        public = self.generate_public(secret)
        relin = self.generate_relinearization_key(secret)
        rotation_keys = {
            int(steps): self.generate_rotation_key(secret, int(steps))
            for steps in rotations
        }
        conj_key = self.generate_conjugation_key(secret) if conjugation else None
        return KeySet(
            public_key=public,
            relinearization_key=relin,
            rotation_keys=rotation_keys,
            conjugation_key=conj_key,
            secret_key=secret if keep_secret else None,
        )


def _square_coefficients(coefficients: np.ndarray, ring_degree: int) -> np.ndarray:
    """Return the integer coefficients of ``s^2`` in ``Z[X]/(X^N + 1)``."""
    n = ring_degree
    support = np.flatnonzero(coefficients)
    values = coefficients[support]
    full = np.zeros(2 * n, dtype=np.int64)
    for i, c in zip(support, values):
        full[i + support] += c * values
    # X^N = -1: the upper half of the plain product wraps with a sign flip.
    return full[:n] - full[n:]


__all__ = [
    "SEED_BYTES",
    "expand_seed",
    "SecretKey",
    "PublicKey",
    "KeySwitchingKey",
    "KeySet",
    "KeyGenerator",
]
