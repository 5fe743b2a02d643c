"""The thin adapter layer between the client and the GPU-style server.

The paper decouples OpenFHE from FIDESlib by exchanging *simplified data
structures that retain essential data and metadata fields* instead of
sharing rich library objects.  :class:`RawCiphertext` / :class:`RawPlaintext`
are those structures here: the ``(L, N)`` residue array of each polynomial
plus the metadata CKKS needs (moduli, scale, slot count, format, noise
estimate).  The export functions copy server storage into raw structures;
the import functions check a raw structure against the context (metadata,
moduli, format, shape, canonical residues) and adopt its array as server
storage,
in evaluation format: a ``"coeff"`` polynomial is converted on import with
one stacked NTT, so no kernel behind the boundary sees another format.
The ciphertext round trip also carries the static noise estimate back to
the client, as described in §III-B.  A fresh client ciphertext's ``c1`` is
uniform and crosses as the 32-byte seed it expands from; import expands it
into canonical evaluation rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.ckks.ciphertext import Ciphertext, Plaintext
from repro.ckks.context import Context
from repro.ckks.keys import expand_seed
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
    an object array for an exact chain).  A seeded polynomial has no rows:
    ``limbs`` is None and ``seed`` holds the 32 bytes that
    :func:`~repro.ckks.keys.expand_seed` expands into them (evaluation
    format).  Only a ciphertext's ``c1`` may be seeded.
    """

    moduli: list[int]
    limbs: np.ndarray | None
    fmt: str = "eval"
    seed: bytes | None = None

    def to_rns_poly(self, context: Context) -> RNSPoly:
        """Check the raw structure against ``context`` and adopt its array
        in evaluation format.

        The moduli must be a prefix of the context's chain (the check
        FIDESlib's adapter performs before copying data to the GPU), the
        format a known one, and the array ``(len(moduli), N)`` canonical
        residues; a :class:`ValueError` names the field that is not.  A
        seeded polynomial is expanded instead; it must be in evaluation
        format and carry no rows.
        """
        if not self.moduli or list(self.moduli) != context.moduli[: len(self.moduli)]:
            raise ValueError(
                "raw object moduli do not match the server context "
                f"(got {len(self.moduli)} limbs)"
            )
        if self.fmt not in _FORMATS:
            raise ValueError(f"fmt: unknown limb format {self.fmt!r}")
        if self.seed is not None:
            if self.fmt != "eval":
                raise ValueError(f"fmt: a seeded polynomial is 'eval', got {self.fmt!r}")
            if self.limbs is not None:
                raise ValueError("seed: a seeded polynomial carries no limbs")
            return expand_seed(self.seed, self.moduli, context.ring_degree)
        rows = np.asarray(self.limbs)
        expected = (len(self.moduli), context.ring_degree)
        if rows.dtype not in (np.uint64, np.object_) or rows.shape != expected:
            raise ValueError(
                f"limbs: need uint64 residues of shape {expected} (one row per "
                f"modulus, ring degree), got {rows.dtype} {rows.shape}"
            )
        if not np.all((rows >= 0) & (rows < modmath.moduli_column(self.moduli))):
            raise ValueError("limbs: residue outside [0, q) for its modulus")
        poly = RNSPoly(self.moduli, rows, _FORMATS[self.fmt])
        return poly if poly.fmt is LimbFormat.EVALUATION else poly.to_evaluation()

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


def _check_metadata(context: Context, raw: "RawCiphertext | RawPlaintext",
                    noise_bits: float = 0.0) -> None:
    """Reject metadata no producer writes: a :class:`ValueError` names the field."""
    if not (math.isfinite(raw.scale) and raw.scale > 0):
        raise ValueError(f"scale: need a finite positive scale, got {raw.scale!r}")
    if raw.slots != context.slots:
        raise ValueError(f"slots: the context has {context.slots} slots, got {raw.slots!r}")
    if raw.encoded_length is not None and not 1 <= raw.encoded_length <= raw.slots:
        raise ValueError(
            f"encoded_length: need None or 1..{raw.slots}, got {raw.encoded_length!r}"
        )
    if not (math.isfinite(noise_bits) and noise_bits >= 0):
        raise ValueError(f"noise_bits: need a finite estimate >= 0, got {noise_bits!r}")


def _check_unseeded(poly: RawPolynomial, name: str) -> None:
    """Reject a seed anywhere but on a ciphertext's ``c1``."""
    if poly.seed is not None:
        raise ValueError(f"{name}: only a ciphertext's c1 may carry a seed")


def export_ciphertext(ciphertext: Ciphertext, *, parameter_tag: str = "") -> RawCiphertext:
    """Flatten a server ciphertext into the raw exchange structure.

    ``c1`` travels as its seed when it is the very polynomial the seed
    expanded (:attr:`RNSPoly.seed`; polynomials are never written, so the
    seed cannot be stale), as its rows otherwise.
    """
    c1 = ciphertext.c1
    return RawCiphertext(
        c0=RawPolynomial.from_rns_poly(ciphertext.c0),
        c1=RawPolynomial.from_rns_poly(c1) if c1.seed is None
        else RawPolynomial(moduli=list(c1.moduli), limbs=None, seed=c1.seed),
        scale=ciphertext.scale,
        slots=ciphertext.slots,
        noise_bits=ciphertext.noise_bits,
        encoded_length=ciphertext.encoded_length,
        parameter_tag=parameter_tag,
    )


def import_ciphertext(context: Context, raw: RawCiphertext) -> Ciphertext:
    """Rebuild a server ciphertext from the raw exchange structure (checked
    against ``context``: the metadata, and each polynomial by
    :meth:`RawPolynomial.to_rns_poly`)."""
    _check_metadata(context, raw, raw.noise_bits)
    _check_unseeded(raw.c0, "c0")
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
    """Rebuild a plaintext from the raw exchange structure (checked like a
    ciphertext's)."""
    _check_metadata(context, raw)
    _check_unseeded(raw.poly, "poly")
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
