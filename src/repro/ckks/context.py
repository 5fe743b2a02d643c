"""The CKKS crypto-context: moduli chain, precomputation and caches.

Mirroring FIDESlib's ``Context`` class (§III-E), all values that can be
precomputed once per parameter set live here:

* the RNS moduli chain ``q_0 ... q_L`` and the extension limbs ``P``;
* digit layout and base converters for hybrid key switching (ModUp and
  ModDown at every level), cached on first use;
* rescaling and ``P^{-1}`` constants;
* the CRT factors ``T_j`` embedded into key-switching keys, and the
  key digits tiled to a fused operand's member count (byte-bounded LRU);
* the canonical-embedding encoder.

FIDESlib treats the context as a singleton so GPU constant memory can hold
the precomputed tables; the same convenience is offered here through
:func:`set_default_context` / :func:`get_default_context`, while still
allowing several contexts to coexist (e.g. in the unit tests).
"""

from __future__ import annotations

import warnings
from collections import OrderedDict

import numpy as np

from repro.ckks.encoding import CKKSEncoder
from repro.ckks.params import CKKSParameters
from repro.core import modmath
from repro.core.primes import find_ntt_prime_near, generate_ntt_primes
from repro.core.rns import BaseConverter, RNSBasis, partition_digits


class Context:
    """Precomputed state shared by every operation under one parameter set."""

    #: Byte budget of the tiled key-switching-key cache.  Each entry holds
    #: two ``(B·(L+K), N)`` stacks (four with their Shoup companions on a
    #: dword chain), so a rotation-heavy workload across
    #: levels and batch sizes would otherwise grow it without bound; least
    #: recently used entries are evicted beyond this.
    TILED_KEY_BUDGET_BYTES = 128 << 20

    def __init__(self, params: CKKSParameters) -> None:
        self.params = params
        n = params.ring_degree

        # --- moduli chain ---------------------------------------------------
        # Rescaling primes are chosen with the scale-ladder technique of
        # Kim et al. [36]: level L uses scale Δ, and the prime consumed at
        # level l is the NTT prime closest to s_l^2 / Δ so that the scale at
        # every level stays within one prime gap of Δ.  This is the
        # "carefully tracking the scaling factors at each level" the paper
        # relies on for rescaling precision.
        delta = params.scale
        ladder: list[float] = [0.0] * (params.mult_depth + 1)
        ladder[params.mult_depth] = delta
        rescale_primes_desc: list[int] = []  # q_L, q_{L-1}, ..., q_1
        used: set[int] = set()
        scale = delta
        for _ in range(params.mult_depth, 0, -1):
            prime = find_ntt_prime_near(scale * scale / delta, n, exclude=used)
            used.add(prime)
            rescale_primes_desc.append(prime)
            scale = scale * scale / prime
        for level, prime in zip(range(params.mult_depth - 1, -1, -1), rescale_primes_desc):
            ladder[level] = ladder[level + 1] * ladder[level + 1] / prime
        rescale_primes = list(reversed(rescale_primes_desc))  # q_1 ... q_L
        first_prime = generate_ntt_primes(
            1, params.first_mod_bits, n, exclude=rescale_primes
        )[0]
        self.moduli: list[int] = [first_prime] + rescale_primes
        #: Scale of a ciphertext at each level (index = level = limbs - 1).
        self.scale_ladder: list[float] = ladder
        self.special_moduli: list[int] = generate_ntt_primes(
            params.special_limb_count,
            params.special_mod_bits,
            n,
            exclude=self.moduli,
        )
        self.extended_moduli: list[int] = self.moduli + self.special_moduli

        self.q_basis = RNSBasis(self.moduli)
        self.p_basis = RNSBasis(self.special_moduli)
        self.extended_basis = RNSBasis(self.extended_moduli)
        self.p_modulus = self.p_basis.modulus

        # --- digit layout for hybrid key switching ---------------------------
        self.digits: list[list[int]] = partition_digits(self.moduli, params.dnum)
        self.digit_size = params.digit_size
        self._digit_products = [RNSBasis(d).modulus for d in self.digits]

        # --- constants --------------------------------------------------------
        #: P^{-1} mod q_i for every ciphertext limb (used by ModDown).
        self.p_inv_mod_q: list[int] = [
            modmath.inv_mod(self.p_modulus % q, q) for q in self.moduli
        ]
        self.encoder = CKKSEncoder(n)

        # --- numeric backend --------------------------------------------------
        #: Which stack backend the full extended basis selects: ``uint64``
        #: (single-word products), ``dword`` (emulated 128-bit products on
        #: the same one-word storage) or ``object`` (exact Python integers,
        #: the slow oracle).
        self.numeric_backend: str = modmath.backend_for_moduli(self.extended_moduli)
        if self.numeric_backend == modmath.BACKEND_OBJECT:
            widest = max(self.extended_moduli)
            warnings.warn(
                f"modulus {widest} ({widest.bit_length()} bits) exceeds the "
                f"double-word limit (2**62), so this context falls back to "
                f"the exact object backend -- orders of magnitude slower "
                f"than the vectorized uint64/dword paths; choose moduli "
                f"below 62 bits to stay on the fast path",
                RuntimeWarning,
                stacklevel=2,
            )

        # --- caches -----------------------------------------------------------
        self._modup_converters: dict[tuple[int, int], BaseConverter] = {}
        self._moddown_converters: dict[int, BaseConverter] = {}
        #: ``(id(key), digit, limb_count, B) -> (key, tiled components)``.
        #: The entry holds the key object itself, so the ``id`` cannot be
        #: recycled by another key while the entry is alive.
        self._tiled_keys: "OrderedDict[tuple, tuple]" = OrderedDict()

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------

    @property
    def ring_degree(self) -> int:
        """The polynomial degree bound ``N``."""
        return self.params.ring_degree

    @property
    def slots(self) -> int:
        """The number of message slots ``N/2``."""
        return self.params.slots

    @property
    def scale(self) -> float:
        """The default encoding scale ``Δ``."""
        return self.params.scale

    @property
    def max_level(self) -> int:
        """Top multiplicative level ``L`` (limb count minus one)."""
        return self.params.mult_depth

    def moduli_at(self, limb_count: int) -> list[int]:
        """Return the ciphertext moduli for a ciphertext with ``limb_count`` limbs."""
        if not 1 <= limb_count <= len(self.moduli):
            raise ValueError(f"invalid limb count {limb_count}")
        return self.moduli[:limb_count]

    def scale_at(self, level: int) -> float:
        """Return the canonical (ladder) scale of a level-``level`` ciphertext."""
        if not 0 <= level <= self.max_level:
            raise ValueError(f"invalid level {level}")
        return self.scale_ladder[level]

    # ------------------------------------------------------------------
    # hybrid key-switching layout
    # ------------------------------------------------------------------

    def digit_limb_indices(self, digit_index: int) -> list[int]:
        """Return the global limb indices belonging to a digit."""
        start = digit_index * self.digit_size
        stop = min(start + self.digit_size, len(self.moduli))
        return list(range(start, stop))

    def active_digits(self, limb_count: int) -> int:
        """Return the number of digits containing at least one active limb."""
        return -(-limb_count // self.digit_size)

    def key_switch_factor(self, digit_index: int) -> list[int]:
        """Return ``T_j mod m`` for every extended modulus ``m``.

        ``T_j = P * (Q / Q_j) * [(Q / Q_j)^{-1} mod Q_j]`` is the constant
        that hybrid key-switching keys embed for digit ``j`` so that the
        digit-decomposed inner product reconstructs ``P * d * s'`` modulo
        ``P * Q_l`` at any level ``l`` (Han-Ki hybrid key switching).
        """
        q_total = self.q_basis.modulus
        q_j = self._digit_products[digit_index]
        q_hat_j = q_total // q_j
        factor = self.p_modulus * q_hat_j * modmath.inv_mod(q_hat_j % q_j, q_j)
        return [factor % m for m in self.extended_moduli]

    def modup_converter(self, limb_count: int, digit_index: int) -> BaseConverter:
        """Converter from a digit's active limbs to the complementary basis.

        The output basis is (active ciphertext limbs not in the digit) ∪ P;
        the digit's own limbs are copied through unchanged by the caller.
        """
        key = (limb_count, digit_index)
        converter = self._modup_converters.get(key)
        if converter is None:
            digit_indices = [
                i for i in self.digit_limb_indices(digit_index) if i < limb_count
            ]
            if not digit_indices:
                raise ValueError(
                    f"digit {digit_index} has no active limbs at limb count {limb_count}"
                )
            source = RNSBasis([self.moduli[i] for i in digit_indices])
            target_moduli = [
                self.moduli[i] for i in range(limb_count) if i not in digit_indices
            ] + self.special_moduli
            converter = BaseConverter(source, RNSBasis(target_moduli))
            self._modup_converters[key] = converter
        return converter

    def key_digit_stacks(self, key, digit_index: int, limb_count: int,
                         members: int) -> tuple[tuple[np.ndarray, ...], ...]:
        """Digit ``digit_index`` of a key-switching key as the key multiply reads it.

        One tuple per component ``b_j``, ``a_j``: its residue stack, then
        -- on a dword chain -- the stack's 64-bit Shoup companion
        (:meth:`KeySwitchingKey.companions`), the ``(y, y')`` tail of a
        constant-side ``stack_dot_mod`` pair.  For a plain operand, the
        key's own stacks over the full extended basis: below the top level
        the multiply reads the active rows where they lie
        (:meth:`key_row_windows`), so nothing is gathered or cached.  For a
        fused operand, the active rows repeated member-major; tiled stacks
        are cached, since keys are shared by every request and the tiling
        is paid once per batch shape.
        """
        components = tuple((poly.data,) for poly in key.digits[digit_index])
        companions = key.companions(digit_index)
        if companions is not None:
            components = tuple(
                (*component, companion)
                for component, companion in zip(components, companions)
            )
        if members == 1:
            return components
        cache_key = (id(key), digit_index, limb_count, members)
        entry = self._tiled_keys.get(cache_key)
        if entry is not None:
            self._tiled_keys.move_to_end(cache_key)
            return entry[1]
        windows = self.key_row_windows(limb_count, 1)
        tiled = tuple(
            tuple(
                np.concatenate([data[rows] for _, rows in windows] * members)
                for data in component
            )
            for component in components
        )
        self._tiled_keys[cache_key] = (key, tiled)
        total = sum(_tiled_bytes(t) for _, t in self._tiled_keys.values())
        while total > self.TILED_KEY_BUDGET_BYTES and len(self._tiled_keys) > 1:
            _, (_, old) = self._tiled_keys.popitem(last=False)
            total -= _tiled_bytes(old)
        return tiled

    def key_row_windows(self, limb_count: int, members: int) -> list[tuple[slice, slice]]:
        """``(digit rows, key rows)`` pairs lining an extended digit up with
        the stacks :meth:`key_digit_stacks` returns: one window when they
        match row for row (the top level, a tiled fused key), else the two
        active ranges of the full key -- ``limb_count`` rows and ``P``."""
        total, special = len(self.moduli), len(self.special_moduli)
        if members > 1 or limb_count == total:
            return [(slice(None), slice(None))]
        return [
            (slice(0, limb_count), slice(0, limb_count)),
            (slice(limb_count, limb_count + special), slice(total, total + special)),
        ]

    def moddown_converter(self, limb_count: int) -> BaseConverter:
        """Converter from the special basis ``P`` to the active ciphertext basis."""
        converter = self._moddown_converters.get(limb_count)
        if converter is None:
            converter = BaseConverter(
                self.p_basis, RNSBasis(self.moduli[:limb_count])
            )
            self._moddown_converters[limb_count] = converter
        return converter

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------

    def describe(self) -> dict:
        """Return a summary dictionary (used by benches and examples)."""
        return {
            "parameter_set": self.params.describe(),
            "ring_degree": self.ring_degree,
            "slots": self.slots,
            "limbs": len(self.moduli),
            "special_limbs": len(self.special_moduli),
            "dnum": self.params.dnum,
            "digit_size": self.digit_size,
            "log_q": sum(q.bit_length() for q in self.moduli),
            "log_qp": sum(q.bit_length() for q in self.extended_moduli),
            "scale_bits": self.params.scale_bits,
        }


def _tiled_bytes(components) -> int:
    """Bytes of one tiled key-cache entry (stacks and companions)."""
    return sum(data.nbytes for component in components for data in component)


_default_context: Context | None = None


def set_default_context(context: Context | None) -> Context | None:
    """Register ``context`` as the process-wide default (singleton pattern).

    Returns the previously registered default (or ``None``) so callers --
    notably :class:`repro.api.session.CKKSSession` used as a context
    manager -- can restore it afterwards.  Passing ``None`` clears the
    default.
    """
    global _default_context
    previous = _default_context
    _default_context = context
    return previous


def get_default_context() -> Context:
    """Return the process-wide default context, raising if none is set.

    The default is registered by :func:`set_default_context`, which the
    session layer (:class:`repro.api.session.CKKSSession`) calls on
    activation -- mirroring FIDESlib's singleton ``Context`` whose
    precomputed tables live in GPU constant memory.
    """
    if _default_context is None:
        raise RuntimeError(
            "no default CKKS context has been registered; create one via "
            "CKKSSession.create(...) or call set_default_context() directly"
        )
    return _default_context


def clear_default_context() -> None:
    """Unregister the process-wide default context (mainly for tests)."""
    set_default_context(None)


__all__ = [
    "Context",
    "set_default_context",
    "get_default_context",
    "clear_default_context",
]
