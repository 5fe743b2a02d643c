"""The thin adapter layer between the client and the GPU-style server.

The paper decouples OpenFHE from FIDESlib by exchanging *simplified data
structures that retain essential data and metadata fields* instead of
sharing rich library objects.  :class:`RawCiphertext` / :class:`RawPlaintext`
are those structures here: plain residue arrays plus the metadata CKKS
needs (moduli, scale, slot count, format, noise estimate).  The export
functions flatten server objects into raw structures; the import functions
rebuild server objects from them.  The ciphertext round trip also carries
the static noise estimate back to the client, as described in §III-B.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.ckks.ciphertext import Ciphertext, Plaintext
from repro.ckks.context import Context
from repro.core.limb import LimbFormat
from repro.core.rns_poly import RNSPoly


@dataclass
class RawPolynomial:
    """A polynomial as exchanged across the adapter: one array per limb."""

    moduli: list[int]
    limbs: list[np.ndarray]
    fmt: str = "eval"

    def to_rns_poly(self, ring_degree: int) -> RNSPoly:
        """Rebuild an :class:`RNSPoly` from the raw arrays."""
        fmt = LimbFormat.EVALUATION if self.fmt == "eval" else LimbFormat.COEFFICIENT
        return RNSPoly.from_limb_arrays(ring_degree, self.moduli, self.limbs, fmt)

    @classmethod
    def from_rns_poly(cls, poly: RNSPoly) -> "RawPolynomial":
        fmt = "eval" if poly.fmt is LimbFormat.EVALUATION else "coeff"
        return cls(
            moduli=list(poly.moduli),
            limbs=[np.array([int(x) for x in row], dtype=object) for row in poly.limb_arrays()],
            fmt=fmt,
        )


@dataclass
class RawCiphertext:
    """Ciphertext exchange structure (data plus essential metadata)."""

    c0: RawPolynomial
    c1: RawPolynomial
    scale: float
    slots: int
    noise_bits: float = 0.0
    encoded_length: int | None = None
    parameter_tag: str = ""


@dataclass
class RawPlaintext:
    """Plaintext exchange structure."""

    poly: RawPolynomial
    scale: float
    slots: int
    encoded_length: int | None = None
    parameter_tag: str = ""


def export_ciphertext(ciphertext: Ciphertext, *, parameter_tag: str = "") -> RawCiphertext:
    """Flatten a server ciphertext into the raw exchange structure."""
    return RawCiphertext(
        c0=RawPolynomial.from_rns_poly(ciphertext.c0),
        c1=RawPolynomial.from_rns_poly(ciphertext.c1),
        scale=ciphertext.scale,
        slots=ciphertext.slots,
        noise_bits=ciphertext.noise_bits,
        encoded_length=ciphertext.encoded_length,
        parameter_tag=parameter_tag,
    )


def import_ciphertext(context: Context, raw: RawCiphertext) -> Ciphertext:
    """Rebuild a server ciphertext from the raw exchange structure.

    Validates that the moduli the client sent are a prefix of the context's
    moduli chain (the same check FIDESlib's adapter performs before copying
    data to the GPU).
    """
    _validate_moduli(context, raw.c0.moduli)
    _validate_moduli(context, raw.c1.moduli)
    return Ciphertext(
        c0=raw.c0.to_rns_poly(context.ring_degree),
        c1=raw.c1.to_rns_poly(context.ring_degree),
        scale=raw.scale,
        slots=raw.slots,
        noise_bits=raw.noise_bits,
        encoded_length=raw.encoded_length,
    )


def export_plaintext(plaintext: Plaintext, *, parameter_tag: str = "") -> RawPlaintext:
    """Flatten a plaintext into the raw exchange structure."""
    return RawPlaintext(
        poly=RawPolynomial.from_rns_poly(plaintext.poly),
        scale=plaintext.scale,
        slots=plaintext.slots,
        encoded_length=plaintext.encoded_length,
        parameter_tag=parameter_tag,
    )


def import_plaintext(context: Context, raw: RawPlaintext) -> Plaintext:
    """Rebuild a plaintext from the raw exchange structure."""
    _validate_moduli(context, raw.poly.moduli)
    return Plaintext(
        poly=raw.poly.to_rns_poly(context.ring_degree),
        scale=raw.scale,
        slots=raw.slots,
        encoded_length=raw.encoded_length,
    )


def _validate_moduli(context: Context, moduli: list[int]) -> None:
    expected = context.moduli[: len(moduli)]
    if list(moduli) != expected:
        raise ValueError(
            "raw object moduli do not match the server context "
            f"(got {len(moduli)} limbs)"
        )


__all__ = [
    "RawPolynomial",
    "RawCiphertext",
    "RawPlaintext",
    "export_ciphertext",
    "import_ciphertext",
    "export_plaintext",
    "import_plaintext",
]
