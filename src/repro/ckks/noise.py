"""Static noise / precision estimation.

FIDESlib transfers a static noise estimate back to the OpenFHE client
together with decrypted data (§III-B).  The reference client here does the
same: :func:`estimate_noise_bits` predicts the noise growth of an
operation sequence from parameter-level quantities, and
:func:`measured_precision_bits` measures the actual precision by comparing
a decrypted result against the expected plaintext (the quantity Table VI
calls "achieved message precision").
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from repro.ckks.params import CKKSParameters


def fresh_encryption_noise_bits(params: CKKSParameters, *,
                                secret_key: bool = False) -> float:
    """Expected log2 noise of a fresh encryption, public-key by default.

    Under the public key the noise is ``v*e_pk + e0 + e1*s``, dominated by
    the ring products of two small polynomials; under the secret key it is
    the one error ``e``.  Each Gaussian term counts ``σ·√N``, which the
    largest coefficient of a fresh ciphertext's error stays below.
    """
    magnitude = params.error_std * math.sqrt(params.ring_degree)
    if not secret_key:
        magnitude *= 1.0 + math.sqrt(params.secret_hamming_weight)
    return math.log2(max(2.0, magnitude))


def key_switch_noise_bits(params: CKKSParameters) -> float:
    """Expected log2 noise added by one hybrid key switching."""
    n = params.ring_degree
    digit_bits = params.digit_size * params.scale_bits + (
        params.first_mod_bits - params.scale_bits
    )
    special_bits = params.special_limb_count * params.special_mod_bits
    # dnum * sqrt(N) * alpha * sigma * (Q_digit / P): the ModDown-divided
    # inner-product error derived in the keyswitch module docstring.
    magnitude = (
        params.dnum
        * math.sqrt(n)
        * params.digit_size
        * params.error_std
        * 2.0 ** (digit_bits - special_bits)
    )
    return math.log2(max(2.0, magnitude))


def rescale_noise_bits(params: CKKSParameters) -> float:
    """Expected log2 noise added by a single rescale (rounding error)."""
    return math.log2(max(2.0, math.sqrt(params.secret_hamming_weight + 1.0)))


def estimate_noise_bits(params: CKKSParameters, operations: Iterable[str]) -> float:
    """Predict the accumulated noise (in bits) of an operation sequence.

    ``operations`` is a sequence of operation names drawn from
    ``{"encrypt", "hadd", "hmult", "rescale", "rotate", "ptmult"}``.
    Noise contributions are combined as independent magnitudes (root sum
    of squares), matching the static estimator the adapter layer reports.
    """
    total = 0.0
    for op in operations:
        if op == "encrypt":
            bits = fresh_encryption_noise_bits(params)
        elif op in ("hmult", "rotate", "conjugate"):
            bits = key_switch_noise_bits(params)
        elif op == "rescale":
            bits = rescale_noise_bits(params)
        elif op in ("hadd", "ptadd", "scalaradd"):
            bits = 1.0
        elif op in ("ptmult", "scalarmult"):
            bits = rescale_noise_bits(params)
        else:
            raise ValueError(f"unknown operation {op!r}")
        total += 4.0 ** bits
    return 0.5 * math.log2(max(2.0, total))


def precision_bits_from_error(max_error: float) -> float:
    """Convert a worst-case absolute error into bits of precision."""
    if max_error <= 0.0:
        return 60.0
    return max(0.0, -math.log2(max_error))


def measured_precision_bits(expected, actual) -> float:
    """Measured precision (bits) between expected and decrypted values."""
    expected = np.asarray(expected, dtype=np.complex128)
    actual = np.asarray(actual, dtype=np.complex128)
    if expected.shape != actual.shape:
        raise ValueError("expected and actual shapes differ")
    error = float(np.max(np.abs(expected - actual))) if expected.size else 0.0
    return precision_bits_from_error(error)


__all__ = [
    "fresh_encryption_noise_bits",
    "key_switch_noise_bits",
    "rescale_noise_bits",
    "estimate_noise_bits",
    "precision_bits_from_error",
    "measured_precision_bits",
]
