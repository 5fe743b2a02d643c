"""NTT-friendly prime generation and roots of unity.

The RNS decomposition of the CKKS modulus ``Q`` requires primes
``q_i ≡ 1 (mod 2N)`` so that the ring ``Z_{q_i}[X]/(X^N + 1)`` admits a
2N-th primitive root of unity ``ψ`` and the negacyclic NTT exists.  This
module generates such primes near a requested bit size (the scaling factor
``Δ``), finds primitive roots, and exposes the ψ tables the NTT engine
precomputes during :class:`~repro.ckks.context.Context` creation.
"""

from __future__ import annotations

import random
from typing import Iterable

from repro.core.modmath import pow_mod

_MILLER_RABIN_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for 64-bit-sized integers.

    The witness set is sufficient for all integers below 3.3 * 10**24,
    comfortably covering the word-sized moduli used by CKKS.
    """
    if n < 2:
        return False
    for p in _MILLER_RABIN_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MILLER_RABIN_WITNESSES:
        x = pow_mod(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


def generate_ntt_primes(
    count: int,
    bit_size: int,
    ring_degree: int,
    *,
    exclude: Iterable[int] = (),
    descending_from_top: bool = True,
) -> list[int]:
    """Generate ``count`` distinct primes of ``bit_size`` bits with ``p ≡ 1 mod 2N``.

    Parameters
    ----------
    count:
        Number of primes to generate.
    bit_size:
        Target bit width of each prime (e.g. 59 for the paper's Δ = 2^59
        parameter sets, or ~28-30 for the fast NumPy backend).
    ring_degree:
        The polynomial degree bound ``N``; primes are congruent to 1 modulo
        ``2N`` so the negacyclic NTT exists.
    exclude:
        Primes that must not be reused (e.g. already chosen for another
        part of the basis).
    descending_from_top:
        When True, candidates start just below ``2**bit_size`` and walk
        downwards, keeping the primes as close to the scaling factor as
        possible (which is what keeps rescaling precision high).
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    if ring_degree <= 0 or ring_degree & (ring_degree - 1):
        raise ValueError(f"ring_degree must be a power of two, got {ring_degree}")
    step = 2 * ring_degree
    if bit_size <= step.bit_length():
        raise ValueError(
            f"bit_size={bit_size} too small for ring degree {ring_degree}"
        )
    excluded = set(exclude)
    primes: list[int] = []
    if descending_from_top:
        candidate = (1 << bit_size) - step + 1
        # Align to p ≡ 1 (mod 2N).
        candidate -= (candidate - 1) % step
        delta = -step
    else:
        candidate = (1 << (bit_size - 1)) + 1
        candidate += (-(candidate - 1)) % step
        delta = step
    lower = 1 << (bit_size - 1)
    upper = 1 << (bit_size + 1)
    while len(primes) < count:
        if candidate <= lower or candidate >= upper:
            raise RuntimeError(
                f"exhausted {bit_size}-bit candidates for 2N={step}: "
                f"found {len(primes)}/{count}"
            )
        if candidate not in excluded and is_prime(candidate):
            primes.append(candidate)
            excluded.add(candidate)
        candidate += delta
    return primes


def find_ntt_prime_near(
    target: float,
    ring_degree: int,
    *,
    exclude: Iterable[int] = (),
) -> int:
    """Return the NTT-friendly prime closest to ``target``.

    Used by the scale-ladder prime selection (Kim et al. [36], the
    "reduced approximation error" rescaling): each rescaling prime is
    chosen as close as possible to the scale the ciphertext will have at
    that level so that per-level scaling factors stay aligned.
    """
    step = 2 * ring_degree
    excluded = set(exclude)
    base = int(round(target))
    # Align the starting candidate to p ≡ 1 (mod 2N).
    start = base - ((base - 1) % step)
    for offset in range(0, 1 << 22):
        for candidate in (start + offset * step, start - offset * step):
            if candidate <= step:
                continue
            if candidate in excluded:
                continue
            if is_prime(candidate):
                return candidate
    raise RuntimeError(f"no NTT prime found near {target} for 2N={step}")


def find_primitive_root(q: int) -> int:
    """Return a generator of the multiplicative group of ``Z_q`` (q prime)."""
    if q == 2:
        return 1
    order = q - 1
    factors = _prime_factors(order)
    rng = random.Random(0xF1DE5)
    for _ in range(10_000):
        candidate = rng.randrange(2, q - 1)
        if all(pow_mod(candidate, order // f, q) != 1 for f in factors):
            return candidate
    raise RuntimeError(f"failed to find a primitive root modulo {q}")


def find_root_of_unity(order: int, q: int) -> int:
    """Return a primitive ``order``-th root of unity modulo prime ``q``.

    Requires ``order`` to divide ``q - 1``; for the negacyclic NTT the
    order is ``2N``.
    """
    if (q - 1) % order != 0:
        raise ValueError(f"{order} does not divide q-1 for q={q}")
    generator = find_primitive_root(q)
    root = pow_mod(generator, (q - 1) // order, q)
    # Defensive check: the root must have exact order `order`.
    if pow_mod(root, order, q) != 1 or pow_mod(root, order // 2, q) == 1:
        raise RuntimeError(f"derived root of unity has wrong order for q={q}")
    return root


def _prime_factors(n: int) -> list[int]:
    """Return the distinct prime factors of ``n`` by trial division + Pollard rho."""
    factors: set[int] = set()
    n = int(n)
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        while n % p == 0:
            factors.add(p)
            n //= p
    if n == 1:
        return sorted(factors)
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            factors.add(m)
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return sorted(factors)


def _pollard_rho(n: int) -> int:
    """Return a non-trivial factor of composite ``n`` (Pollard's rho)."""
    if n % 2 == 0:
        return 2
    rng = random.Random(n)
    while True:
        x = rng.randrange(2, n - 1)
        y = x
        c = rng.randrange(1, n - 1)
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = _gcd(abs(x - y), n)
        if d != n:
            return d


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


__all__ = [
    "is_prime",
    "generate_ntt_primes",
    "find_primitive_root",
    "find_root_of_unity",
]
