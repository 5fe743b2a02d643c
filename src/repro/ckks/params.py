"""CKKS parameter sets.

The paper parameterises every experiment by ``[N, L, Δ, dnum]`` (Table II):
ring degree, multiplicative depth, scaling-factor bits and the number of
hybrid-key-switching digits.  :class:`CKKSParameters` carries those values
plus the derived quantities (moduli chain layout, special primes, secret
key density) and validates them.  :data:`PARAMETER_SETS` names the sets
used throughout the evaluation section, including the Figure 8 sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.gpu.kernel import ELEMENT_BYTES


@dataclass(frozen=True)
class CKKSParameters:
    """Static parameters of a CKKS crypto-context.

    Parameters
    ----------
    ring_degree:
        Polynomial degree bound ``N`` (power of two).  The number of
        message slots is ``N / 2``.
    mult_depth:
        Multiplicative depth ``L`` before bootstrapping is required; the
        ciphertext modulus has ``L + 1`` limbs ``q_0 ... q_L``.
    scale_bits:
        log2 of the encoding scale ``Δ``; rescaling primes are chosen as
        close to ``2**scale_bits`` as possible.
    first_mod_bits:
        Bit size of ``q_0`` (larger than ``Δ`` so the message plus noise
        fits at the last level).
    dnum:
        Number of digits used by hybrid key switching; ``P`` consists of
        ``ceil((L + 1) / dnum)`` extension limbs.
    secret_hamming_weight:
        Number of non-zero coefficients of the ternary secret key.  Sparse
        secrets keep the bootstrapping integer bound ``K`` small (the
        sparse-secret encapsulation of [43]).
    limb_batch:
        The limb-batching parameter of §III-F.1 (how many limbs each
        simulated kernel processes); purely a performance knob.
    security_bits:
        Claimed security level used only for reporting; the functional
        Python backend is run far below 128-bit-secure sizes.
    """

    ring_degree: int
    mult_depth: int
    scale_bits: int
    dnum: int = 3
    first_mod_bits: int | None = None
    special_mod_bits: int | None = None
    secret_hamming_weight: int = 64
    error_std: float = 3.2
    limb_batch: int = 2
    security_bits: int = 128
    label: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        n = self.ring_degree
        if n < 8 or n & (n - 1):
            raise ValueError(f"ring_degree must be a power of two >= 8, got {n}")
        if self.mult_depth < 1:
            raise ValueError("mult_depth must be at least 1")
        if not 10 <= self.scale_bits <= 60:
            raise ValueError("scale_bits must lie in [10, 60]")
        if self.dnum < 1:
            raise ValueError("dnum must be at least 1")
        if self.dnum > self.mult_depth + 1:
            raise ValueError("dnum cannot exceed the number of limbs (L + 1)")
        if self.first_mod_bits is None:
            object.__setattr__(
                self, "first_mod_bits", min(self.scale_bits + 2, 60)
            )
        if self.special_mod_bits is None:
            object.__setattr__(
                self, "special_mod_bits", self.first_mod_bits
            )
        if self.secret_hamming_weight < 1 or self.secret_hamming_weight > n:
            raise ValueError("secret_hamming_weight must lie in [1, N]")
        if self.limb_batch < 1:
            raise ValueError("limb_batch must be at least 1")

    # -- derived quantities --------------------------------------------------

    @property
    def slots(self) -> int:
        """Maximum number of complex message slots (``N / 2``)."""
        return self.ring_degree // 2

    @property
    def scale(self) -> float:
        """The encoding scaling factor ``Δ``."""
        return float(2 ** self.scale_bits)

    @property
    def limb_count(self) -> int:
        """Number of ciphertext limbs at the top level (``L + 1``)."""
        return self.mult_depth + 1

    @property
    def digit_size(self) -> int:
        """Limbs per hybrid-key-switching digit (``alpha``)."""
        return math.ceil(self.limb_count / self.dnum)

    @property
    def special_limb_count(self) -> int:
        """Number of extension limbs in ``P`` (equal to the digit size)."""
        return self.digit_size

    def key_switching_key_bytes(self) -> int:
        """Approximate size of one key-switching key (paper §III-F.1)."""
        limbs = self.limb_count + self.special_limb_count
        return 2 * self.dnum * limbs * self.ring_degree * ELEMENT_BYTES

    def describe(self) -> str:
        """Return the ``[logN, L, Δ, dnum]`` shorthand used by the paper."""
        log_n = self.ring_degree.bit_length() - 1
        return f"[{log_n}, {self.mult_depth}, {self.scale_bits}, {self.dnum}]"

    def with_overrides(self, **kwargs) -> "CKKSParameters":
        """Return a copy with selected fields replaced."""
        values = {
            "ring_degree": self.ring_degree,
            "mult_depth": self.mult_depth,
            "scale_bits": self.scale_bits,
            "dnum": self.dnum,
            "first_mod_bits": self.first_mod_bits,
            "special_mod_bits": self.special_mod_bits,
            "secret_hamming_weight": self.secret_hamming_weight,
            "error_std": self.error_std,
            "limb_batch": self.limb_batch,
            "security_bits": self.security_bits,
            "label": self.label,
        }
        values.update(kwargs)
        return CKKSParameters(**values)


def paper_parameter_set(log_n: int, depth: int, scale_bits: int, dnum: int,
                        label: str = "") -> CKKSParameters:
    """Construct a paper-style ``[logN, L, Δ, dnum]`` parameter set.

    These sets use the paper's word-sized (59-bit) scaling factors and are
    intended for the performance model; they are far too large to run
    through the functional Python backend.
    """
    return CKKSParameters(
        ring_degree=1 << log_n,
        mult_depth=depth,
        scale_bits=scale_bits,
        dnum=dnum,
        first_mod_bits=60,
        special_mod_bits=60,
        label=label or f"[{log_n}, {depth}, {scale_bits}, {dnum}]",
    )


#: Named parameter sets.
#:
#: * ``paper-default`` -- the evaluation default [2^16, 29, 59, 4].
#: * ``paper-lr`` -- the logistic-regression set [2^16, 26, 59, 4].
#: * ``fig8-*`` -- the Figure 8 parameter sweep.
#: * ``toy`` / ``toy-deep`` / ``toy-bootstrap`` -- reduced sets sized for the
#:   functional Python backend (one-word products, < 2^31 primes).
PARAMETER_SETS: dict[str, CKKSParameters] = {
    "paper-default": paper_parameter_set(16, 29, 59, 4, "paper-default"),
    "paper-lr": paper_parameter_set(16, 26, 59, 4, "paper-lr"),
    "fig8-13-5-36-2": paper_parameter_set(13, 5, 36, 2),
    "fig8-14-9-41-3": paper_parameter_set(14, 9, 41, 3),
    "fig8-15-15-50-3": paper_parameter_set(15, 15, 50, 3),
    "fig8-16-29-59-4": paper_parameter_set(16, 29, 59, 4),
    "fig8-17-44-59-4": paper_parameter_set(17, 44, 59, 4),
    "toy": CKKSParameters(
        ring_degree=1 << 10,
        mult_depth=6,
        scale_bits=28,
        dnum=3,
        first_mod_bits=30,
        secret_hamming_weight=64,
        label="toy",
    ),
    "toy-deep": CKKSParameters(
        ring_degree=1 << 11,
        mult_depth=12,
        scale_bits=28,
        dnum=4,
        first_mod_bits=30,
        secret_hamming_weight=64,
        label="toy-deep",
    ),
    "toy-bootstrap": CKKSParameters(
        ring_degree=1 << 9,
        mult_depth=16,
        scale_bits=27,
        dnum=4,
        first_mod_bits=31,
        secret_hamming_weight=4,
        label="toy-bootstrap",
    ),
}


__all__ = ["CKKSParameters", "PARAMETER_SETS", "paper_parameter_set"]
