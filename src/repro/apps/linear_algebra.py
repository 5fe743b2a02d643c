"""Encrypted slot sums on the backend seam.

The rotate-and-add tree the logistic-regression app reduces its gradients
with, written against the :class:`~repro.api.backend.EvaluationBackend`
protocol, so the same code runs functionally (real ciphertexts) or
symbolically (GPU cost model).
"""

from __future__ import annotations

import numpy as np

from repro.api.backend import as_backend
from repro.api.vector import CipherVector, as_vector


class EncryptedLinearAlgebra:
    """Rotation-based linear algebra over encrypted vectors.

    ``backend`` may be an :class:`~repro.api.backend.EvaluationBackend`
    or anything exposing one through a ``.backend`` attribute (e.g. a
    :class:`~repro.api.session.CKKSSession`).
    """

    def __init__(self, backend) -> None:
        self.backend = as_backend(backend)

    @staticmethod
    def rotation_steps_for_sum(length: int) -> list[int]:
        """Rotation keys needed by :meth:`sum_slots` over ``length`` slots."""
        if length < 1 or length & (length - 1):
            raise ValueError("length must be a power of two")
        return [1 << i for i in range(int(np.log2(length)))] if length > 1 else []

    def sum_slots(self, ct, length: int) -> CipherVector:
        """Return a ciphertext whose slots all contain ``Σ_{i<length} slot_i``.

        Uses the rotate-and-add tree, so it needs rotation keys for the
        powers of two below ``length``.
        """
        result = as_vector(self.backend, ct)
        for step in self.rotation_steps_for_sum(length):
            result = result + (result << step)
        return result


__all__ = ["EncryptedLinearAlgebra"]
