"""CKKS canonical-embedding encoder/decoder.

CKKS messages are vectors of up to ``N/2`` complex numbers.  Encoding maps
a message to an integer polynomial whose canonical embedding (evaluations
at the primitive 2N-th roots of unity indexed by the powers of 5) equals
the message scaled by ``Δ``; decoding inverts the map.  Both directions
are computed with length-``2N`` FFTs, so they cost ``O(N log N)`` like the
NTT-based server operations.

Sparse packing: messages shorter than ``N/2`` slots are zero-padded to a
power of two and replicated across the slot vector, which is equivalent to
the sparse encoding used by OpenFHE (the underlying polynomial is then
supported on every ``N/(2s)``-th coefficient).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.core.modmath import read_only, rint_integers


@lru_cache(maxsize=16)  # one entry per ring degree
def rotation_group(ring_degree: int) -> np.ndarray:
    """Return the slot-index exponents ``5^j mod 2N`` for ``j < N/2``."""
    n = ring_degree
    group = np.zeros(n // 2, dtype=np.int64)
    value = 1
    for j in range(n // 2):
        group[j] = value
        value = (value * 5) % (2 * n)
    return read_only(group)


def _next_power_of_two(value: int) -> int:
    if value <= 1:
        return 1
    return 1 << (value - 1).bit_length()


@dataclass(frozen=True)
class CKKSEncoder:
    """Encode/decode between complex message vectors and integer polynomials."""

    ring_degree: int

    @property
    def max_slots(self) -> int:
        """Maximum number of message slots (``N/2``)."""
        return self.ring_degree // 2

    # -- message layout -------------------------------------------------------

    def expand_message(self, values) -> np.ndarray:
        """Zero-pad a message (:func:`check_message`) to a power of two and
        replicate it to fill all ``N/2`` slots."""
        values = np.asarray(values, dtype=np.complex128)
        padded_len = _next_power_of_two(len(values))
        padded = np.zeros(padded_len, dtype=np.complex128)
        padded[: len(values)] = values
        repeats = self.max_slots // padded_len
        return np.tile(padded, repeats)

    # -- encode / decode ------------------------------------------------------

    def embed(self, slot_values: np.ndarray) -> np.ndarray:
        """Inverse canonical embedding: slot values -> real coefficient vector."""
        n = self.ring_degree
        slots = np.asarray(slot_values, dtype=np.complex128)
        if len(slots) != self.max_slots:
            raise ValueError("embed expects a full slot vector")
        group = rotation_group(n)
        spectrum = np.zeros(2 * n, dtype=np.complex128)
        spectrum[group] = slots
        spectrum[(2 * n - group) % (2 * n)] = np.conj(slots)
        coeffs = np.fft.fft(spectrum)[:n] / n
        return coeffs.real

    def project(self, coefficients: np.ndarray) -> np.ndarray:
        """Canonical embedding: real coefficient vector -> slot values."""
        n = self.ring_degree
        coeffs = np.asarray(coefficients, dtype=np.float64)
        if len(coeffs) != n:
            raise ValueError("project expects N coefficients")
        padded = np.zeros(2 * n, dtype=np.complex128)
        padded[:n] = coeffs
        spectrum = np.fft.ifft(padded) * (2 * n)
        group = rotation_group(n)
        return spectrum[group]

    def encode(self, values, scale: float) -> np.ndarray:
        """Encode a message into integer polynomial coefficients at ``scale``."""
        message = check_message(values, scale, self.max_slots)
        return self._integer_coefficients(self.expand_message(message), scale)

    def decode(self, coefficients, scale: float, length: int | None = None) -> np.ndarray:
        """Decode integer (or float) coefficients back into complex slot values.

        ``length`` (default: every slot) is an integer in ``[0, N/2]``.
        """
        _check_scale(scale)
        if length is None:
            length = self.max_slots
        length = operator.index(length)
        if not 0 <= length <= self.max_slots:
            raise ValueError(
                f"length must be in [0, {self.max_slots}] slots, got {length}"
            )
        return (self.project(coefficients) / scale)[:length]

    def encode_diagonal(self, diagonal, scale: float) -> np.ndarray:
        """Encode an arbitrary complex slot vector without replication.

        Used by the linear-transform machinery, where diagonals are already
        full-length slot vectors (possibly non-repeating).
        """
        diagonal = check_message(diagonal, scale, self.max_slots)
        if len(diagonal) != self.max_slots:
            raise ValueError("diagonal must have exactly N/2 entries")
        return self._integer_coefficients(diagonal, scale)

    def _integer_coefficients(self, slots: np.ndarray, scale: float) -> np.ndarray:
        """``rint(embed(slots) * scale)`` of checked slots and scale
        (:func:`check_message`), refusing a message that may overflow
        float64 before the FFT -- a coefficient is below twice the largest
        slot part, an FFT partial sum below ``N`` times that.
        """
        peak = float(max(np.abs(slots.real).max(), np.abs(slots.imag).max()))
        if not math.isfinite(2 * peak * max(float(scale), self.ring_degree)):
            raise ValueError(
                f"message scaled by {scale:g} overflows float64 "
                f"(largest slot part {peak:g})"
            )
        return rint_integers(self.embed(slots) * scale)


def _check_scale(scale: float) -> None:
    if not (math.isfinite(scale) and scale > 0):
        raise ValueError(f"scale must be positive and finite, got {scale!r}")


def check_message(values, scale: float, max_slots: int) -> np.ndarray:
    """``values`` as the one complex vector a ciphertext encodes at
    ``scale``, or raise :class:`ValueError`.

    The rule both producers share (the encoder, and the cost model's
    symbolic ``encrypt``): a positive finite scale, and a scalar or one
    vector -- a matrix is a batch, which ``encrypt_batch`` encrypts row by
    row -- of 1 to ``max_slots`` finite entries.
    """
    _check_scale(scale)
    message = np.asarray(values, dtype=np.complex128)
    if message.ndim > 1:
        raise ValueError(
            f"a message is one vector, got shape {message.shape}; "
            f"encrypt the rows with encrypt_batch"
        )
    message = message.reshape(-1)
    if message.size == 0:
        raise ValueError("cannot encode an empty message")
    if message.size > max_slots:
        raise ValueError(
            f"message has {message.size} entries; at most {max_slots} slots"
        )
    if not np.all(np.isfinite(message)):
        raise ValueError("message has a non-finite (NaN or infinite) slot value")
    return message


__all__ = ["CKKSEncoder", "check_message", "rotation_group"]
