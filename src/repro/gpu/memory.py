"""Device-memory footprint helpers for the execution model.

These helpers answer the capacity questions the paper raises: ciphertext
and key-switching-key sizes (§III-F.1 quotes ~120 MB for a ciphertext plus
switching key; Figure 8 discusses key sizes from 2.3 MB to 360 MB) and
whether a working set fits the L2 cache of a given platform.
"""

from __future__ import annotations

from repro.ckks.params import CKKSParameters
from repro.gpu.kernel import ELEMENT_BYTES
from repro.gpu.platforms import ComputePlatform


def limb_bytes(params: CKKSParameters) -> int:
    """Bytes of a single limb (one residue polynomial)."""
    return params.ring_degree * ELEMENT_BYTES


def ciphertext_bytes(params: CKKSParameters, limbs: int | None = None) -> int:
    """Bytes of a two-component ciphertext with ``limbs`` limbs."""
    if limbs is None:
        limbs = params.limb_count
    return 2 * limbs * limb_bytes(params)


def plaintext_bytes(params: CKKSParameters, limbs: int | None = None) -> int:
    """Bytes of an encoded plaintext with ``limbs`` limbs."""
    if limbs is None:
        limbs = params.limb_count
    return limbs * limb_bytes(params)


def key_switching_key_bytes(params: CKKSParameters) -> int:
    """Bytes of one hybrid key-switching key (dnum digit pairs, extended basis)."""
    extended_limbs = params.limb_count + params.special_limb_count
    return 2 * params.dnum * extended_limbs * limb_bytes(params)


def hmult_working_set_bytes(params: CKKSParameters, limbs: int | None = None) -> int:
    """Working set of HMult: both ciphertexts plus the relinearisation key."""
    return 2 * ciphertext_bytes(params, limbs) + key_switching_key_bytes(params)


def fits_in_shared_cache(platform: ComputePlatform, nbytes: float) -> bool:
    """True when ``nbytes`` fits in the platform's last-level cache."""
    return nbytes <= platform.shared_cache_bytes


__all__ = [
    "limb_bytes",
    "ciphertext_bytes",
    "plaintext_bytes",
    "key_switching_key_bytes",
    "hmult_working_set_bytes",
    "fits_in_shared_cache",
]
