"""Galois automorphism index maps for the negacyclic ring.

Rotation (``HRotate``) and conjugation (``HConjugate``) of CKKS messages
are realised by the ring automorphisms ``X -> X^k`` with ``k`` odd.  The
map has one index table per representation, and neither needs a transform:

* **coefficient format** -- coefficient ``j`` moves to exponent ``j·k mod
  2N`` and flips sign when that exponent wraps past ``X^N = -1``
  (:func:`coeff_automorphism_map`: a gather index plus a sign vector);
* **evaluation format** -- ``a(X^k)`` evaluated at the root ``ψ^e`` is
  ``a`` evaluated at ``ψ^(e·k)``, so the automorphism only *permutes* the
  evaluation points: no sign, no arithmetic
  (:func:`eval_automorphism_map`: a gather index in this engine's
  bit-reversed evaluation order).

:meth:`repro.core.rns_poly.RNSPoly.automorphism` applies the table of the
operand's own format to every row of its stack in one gather -- the GPU
``Automorph`` kernel -- and never changes format.  The tables are cached
per ``(N, k mod 2N)`` and handed out read-only.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.core.modmath import read_only
from repro.core.ntt import bit_reverse_indices


def _canonical_exponent(ring_degree: int, k: int) -> int:
    if k % 2 == 0:
        raise ValueError("automorphism exponent must be odd")
    return k % (2 * ring_degree)


def coeff_automorphism_map(ring_degree: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(source_index, sign)`` arrays for ``a(X) -> a(X^k)``.

    The transformed polynomial ``b`` satisfies
    ``b[i] = sign[i] * a[source_index[i]]`` where ``sign`` is ±1.  ``k``
    must be odd so the map is a bijection on exponents modulo ``2N``.
    """
    return _coeff_map(ring_degree, _canonical_exponent(ring_degree, k))


#: Entries of each exponent-map cache: one per ``(N, k)``, so a few rings'
#: rotation and conjugation keys (a toy bootstrap uses 31).
_MAP_CACHE_SIZE = 128


@lru_cache(maxsize=_MAP_CACHE_SIZE)
def _coeff_map(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    j = np.arange(n, dtype=np.int64)
    exponent = (j * k) % (2 * n)
    source = np.empty(n, dtype=np.int64)
    sign = np.empty(n, dtype=np.int64)
    source[exponent % n] = j
    sign[exponent % n] = np.where(exponent < n, 1, -1)
    return read_only(source), read_only(sign)


def eval_automorphism_map(ring_degree: int, k: int) -> np.ndarray:
    """Return the gather index of ``a(X) -> a(X^k)`` on evaluation-format rows.

    The forward transform leaves the evaluation at ``ψ^(2·brv(i)+1)`` in
    position ``i`` (Cooley-Tukey, bit-reversed output), so
    ``out[:, i] = in[:, index[i]]`` with
    ``index[i] = brv(((2·brv(i)+1)·k mod 2N − 1) / 2)``.
    """
    return _eval_map(ring_degree, _canonical_exponent(ring_degree, k))


@lru_cache(maxsize=_MAP_CACHE_SIZE)
def _eval_map(n: int, k: int) -> np.ndarray:
    # brv is an involution: position -> root exponent and back.
    brv = bit_reverse_indices(n)
    return read_only(brv[(((2 * brv + 1) * k) % (2 * n) - 1) // 2])


def rotation_to_exponent(ring_degree: int, steps: int) -> int:
    """Return the automorphism exponent implementing a rotation by ``steps``.

    CKKS slots are indexed by powers of 5 modulo ``2N``; rotating the
    message vector left by ``steps`` corresponds to ``X -> X^{5^steps}``.
    Negative steps rotate right.
    """
    m = 2 * ring_degree
    return pow(5, steps % (ring_degree // 2), m)


def conjugation_exponent(ring_degree: int) -> int:
    """Return the automorphism exponent implementing complex conjugation."""
    return 2 * ring_degree - 1


__all__ = [
    "coeff_automorphism_map",
    "eval_automorphism_map",
    "rotation_to_exponent",
    "conjugation_exponent",
]
