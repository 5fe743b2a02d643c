"""The thin adapter layer between the client and the GPU-style server.

The paper decouples OpenFHE from FIDESlib by exchanging *simplified data
structures that retain essential data and metadata fields* instead of
sharing rich library objects.  :class:`RawCiphertext` / :class:`RawPlaintext`
are those structures here: the ``(L, N)`` residue array of each polynomial
plus the metadata CKKS needs (moduli, scale, slot count, format, noise
estimate).  The export functions copy server storage into raw structures;
the import functions check a raw structure against the context (moduli,
format, shape, canonical residues) and adopt its array as server storage.
The ciphertext round trip also carries the static noise estimate back to
the client, as described in §III-B.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ckks.ciphertext import Ciphertext, Plaintext
from repro.ckks.context import Context
from repro.core import modmath
from repro.core.limb import LimbFormat
from repro.core.rns_poly import RNSPoly

#: The wire names of the two limb formats.
_FORMATS = {"eval": LimbFormat.EVALUATION, "coeff": LimbFormat.COEFFICIENT}


@dataclass
class RawPolynomial:
    """A polynomial as exchanged across the adapter.

    ``limbs`` is the ``(L, N)`` residue array itself -- row ``i`` holds the
    residues mod ``moduli[i]`` -- as ``uint64`` words (Python integers in
    an object array for an exact chain).
    """

    moduli: list[int]
    limbs: np.ndarray
    fmt: str = "eval"

    def to_rns_poly(self, context: Context) -> RNSPoly:
        """Check the raw structure against ``context`` and adopt its array.

        The moduli must be a prefix of the context's chain (the check
        FIDESlib's adapter performs before copying data to the GPU), the
        format a known one, and the array ``(len(moduli), N)`` canonical
        residues; a :class:`ValueError` names the field that is not.
        """
        if list(self.moduli) != context.moduli[: len(self.moduli)]:
            raise ValueError(
                "raw object moduli do not match the server context "
                f"(got {len(self.moduli)} limbs)"
            )
        if self.fmt not in _FORMATS:
            raise ValueError(f"fmt: unknown limb format {self.fmt!r}")
        rows = np.asarray(self.limbs)
        expected = (len(self.moduli), context.ring_degree)
        if rows.dtype not in (np.uint64, np.object_) or rows.shape != expected:
            raise ValueError(
                f"limbs: need uint64 residues of shape {expected} (one row per "
                f"modulus, ring degree), got {rows.dtype} {rows.shape}"
            )
        if not np.all((rows >= 0) & (rows < modmath.moduli_column(self.moduli))):
            raise ValueError("limbs: residue outside [0, q) for its modulus")
        return RNSPoly(self.moduli, rows, _FORMATS[self.fmt])

    @classmethod
    def from_rns_poly(cls, poly: RNSPoly) -> "RawPolynomial":
        return cls(
            moduli=list(poly.moduli),
            limbs=poly.data.copy(),
            fmt="eval" if poly.fmt is LimbFormat.EVALUATION else "coeff",
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
    """Rebuild a server ciphertext from the raw exchange structure (checked
    against ``context`` by :meth:`RawPolynomial.to_rns_poly`)."""
    return Ciphertext(
        c0=raw.c0.to_rns_poly(context),
        c1=raw.c1.to_rns_poly(context),
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
    return Plaintext(
        poly=raw.poly.to_rns_poly(context),
        scale=raw.scale,
        slots=raw.slots,
        encoded_length=raw.encoded_length,
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
