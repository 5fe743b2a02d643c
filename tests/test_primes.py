"""Tests for NTT-friendly prime generation and roots of unity."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import modmath
from repro.core.primes import (
    find_ntt_prime_near,
    find_primitive_root,
    find_root_of_unity,
    generate_ntt_primes,
    is_prime,
)


class TestPrimality:
    @pytest.mark.parametrize("prime", [2, 3, 5, 7, 97, 65537, (1 << 61) - 1])
    def test_known_primes(self, prime):
        assert is_prime(prime)

    @pytest.mark.parametrize("composite", [0, 1, 4, 100, 561, 65539 * 3, (1 << 40) + 2])
    def test_known_composites(self, composite):
        assert not is_prime(composite)


class TestGeneration:
    @pytest.mark.parametrize("ring_degree", [64, 256, 1024])
    @pytest.mark.parametrize("bits", [25, 30, 45])
    def test_congruence_and_size(self, ring_degree, bits):
        primes = generate_ntt_primes(4, bits, ring_degree)
        assert len(set(primes)) == 4
        for p in primes:
            assert is_prime(p)
            assert p % (2 * ring_degree) == 1
            assert p.bit_length() in (bits, bits + 1)

    def test_exclusion_respected(self):
        first = generate_ntt_primes(2, 28, 256)
        second = generate_ntt_primes(2, 28, 256, exclude=first)
        assert not set(first) & set(second)

    def test_rejects_non_power_of_two_degree(self):
        with pytest.raises(ValueError):
            generate_ntt_primes(1, 28, 100)

    def test_rejects_tiny_bit_size(self):
        with pytest.raises(ValueError):
            generate_ntt_primes(1, 8, 1024)

    def test_find_near_target(self):
        target = 2**28
        prime = find_ntt_prime_near(target, 512)
        assert is_prime(prime) and prime % 1024 == 1
        assert abs(prime - target) < 2**20

    def test_find_near_excludes(self):
        target = 2**28
        first = find_ntt_prime_near(target, 512)
        second = find_ntt_prime_near(target, 512, exclude=[first])
        assert first != second


class TestRoots:
    @pytest.mark.parametrize("ring_degree", [64, 256])
    def test_root_of_unity_order(self, ring_degree):
        q = generate_ntt_primes(1, 28, ring_degree)[0]
        order = 2 * ring_degree
        psi = find_root_of_unity(order, q)
        assert modmath.pow_mod(psi, order, q) == 1
        assert modmath.pow_mod(psi, order // 2, q) == q - 1

    def test_primitive_root_generates_group(self):
        q = 257
        g = find_primitive_root(q)
        seen = set()
        value = 1
        for _ in range(q - 1):
            value = (value * g) % q
            seen.add(value)
        assert len(seen) == q - 1

    def test_root_of_unity_rejects_bad_order(self):
        q = generate_ntt_primes(1, 28, 64)[0]
        bad_order = 3
        while (q - 1) % bad_order == 0:
            bad_order += 2
        with pytest.raises(ValueError):
            find_root_of_unity(bad_order, q)


@given(st.integers(min_value=3, max_value=10))
@settings(max_examples=8, deadline=None)
def test_generated_primes_are_distinct_property(count):
    primes = generate_ntt_primes(count, 24, 64)
    assert len(set(primes)) == count
