"""Tests for the RNSPoly container, automorphisms and the memory pool."""

import numpy as np
import pytest

from repro.core.automorphism import (
    conjugation_exponent,
    coeff_automorphism_map,
    rotation_to_exponent,
)
from repro.core.limb import LimbFormat
from repro.core.memory import MemoryPool, OutOfDeviceMemory
from repro.core.primes import generate_ntt_primes
from repro.core.rns_poly import RNSPoly

N = 64
PRIMES = generate_ntt_primes(3, 28, N)


def random_poly(seed=0, fmt=LimbFormat.COEFFICIENT):
    rng = np.random.default_rng(seed)
    coeffs = [int(v) for v in rng.integers(-50, 50, N)]
    poly = RNSPoly.from_int_coefficients(N, PRIMES, coeffs, fmt=fmt)
    return poly, coeffs


class TestMemoryPool:
    def test_charge_accounting(self):
        pool = MemoryPool()
        pool.charge(1000, "test")
        assert pool.bytes_in_use == 1024  # rounded to granularity
        pool.release(1000)
        assert pool.bytes_in_use == 0
        assert pool.allocation_count == 1
        assert pool.internal_fragmentation() == 0.0

    def test_peak_tracking(self):
        pool = MemoryPool()
        for _ in range(4):
            pool.charge(4096)
        assert pool.peak_bytes == 4 * 4096
        for _ in range(4):
            pool.release(4096)
        assert pool.bytes_in_use == 0
        assert pool.peak_bytes == 4 * 4096

    def test_capacity_enforced(self):
        pool = MemoryPool(capacity_bytes=2048)
        pool.charge(1024)
        with pytest.raises(OutOfDeviceMemory):
            pool.charge(2048)
        # A refused charge changes nothing.
        assert (pool.bytes_in_use, pool.allocation_count) == (1024, 1)

    def test_counters_are_not_constructor_fields(self):
        with pytest.raises(TypeError):
            MemoryPool(bytes_in_use=5)
        with pytest.raises(TypeError):
            MemoryPool(charge_hook=print)

    def test_double_release_credits_once(self):
        pool = MemoryPool()
        resident = RNSPoly.zeros(N, PRIMES, pool=pool)
        stack = RNSPoly.zeros(N, PRIMES, pool=pool)
        assert pool.bytes_in_use == 2 * resident.footprint_bytes()
        stack.release()
        stack.release()
        del stack  # __del__ is a third release
        assert pool.bytes_in_use == resident.footprint_bytes()


def one_limb_poly(q, seed, fmt=LimbFormat.COEFFICIENT):
    """A random single-limb polynomial."""
    rng = np.random.default_rng(seed)
    return RNSPoly.from_limb_arrays(N, [q], [rng.integers(0, q, N)], fmt)


def limb_values(poly):
    """Residues of a one-limb polynomial, read through its row view."""
    (row,) = poly.limb_arrays()
    return [int(x) for x in row]


class TestLimb:
    """A limb is a row of the stack; arithmetic happens on the polynomial."""

    def test_add_sub_roundtrip(self):
        q = PRIMES[0]
        a, b = one_limb_poly(q, 0), one_limb_poly(q, 100)
        assert limb_values(a.add(b).sub(b)) == limb_values(a)

    def test_multiply_requires_eval_format(self):
        a = RNSPoly.zeros(N, PRIMES[:1])
        with pytest.raises(ValueError):
            a.multiply(a)

    def test_format_conversion_roundtrip(self):
        poly = one_limb_poly(PRIMES[0], 1)
        evaluated = poly.to_evaluation()
        (row,) = evaluated.limb_arrays()
        assert evaluated.fmt is LimbFormat.EVALUATION and len(row) == N
        assert limb_values(evaluated.to_coefficient()) == limb_values(poly)

    def test_add_scalar_eval_vs_coeff_consistent(self):
        poly = one_limb_poly(PRIMES[0], 2)
        via_coeff = poly.add_scalar(17).to_evaluation()
        via_eval = poly.to_evaluation().add_scalar(17)
        assert limb_values(via_coeff) == limb_values(via_eval)

    def test_incompatible_moduli_rejected(self):
        a = RNSPoly.zeros(N, PRIMES[:1])
        b = RNSPoly.zeros(N, PRIMES[1:2])
        with pytest.raises(ValueError):
            a.add(b)


class TestAutomorphism:
    def test_map_requires_odd_exponent(self):
        with pytest.raises(ValueError):
            coeff_automorphism_map(N, 2)

    def test_rotation_exponent_is_power_of_five(self):
        assert rotation_to_exponent(N, 1) == 5
        assert rotation_to_exponent(N, 2) == 25 % (2 * N)

    def test_conjugation_exponent(self):
        assert conjugation_exponent(N) == 2 * N - 1

    def test_apply_matches_polynomial_substitution(self):
        q = PRIMES[0]
        rng = np.random.default_rng(3)
        coeffs = [int(v) for v in rng.integers(0, q, N)]
        k = 5
        poly = RNSPoly.from_limb_arrays(
            N, [q], [np.array(coeffs, dtype=np.uint64)], LimbFormat.COEFFICIENT
        )
        transformed = poly.automorphism(k)
        assert transformed.fmt is LimbFormat.COEFFICIENT
        expected = [0] * N
        for j, c in enumerate(coeffs):
            idx = (j * k) % (2 * N)
            if idx >= N:
                expected[idx - N] = (expected[idx - N] - c) % q
            else:
                expected[idx] = (expected[idx] + c) % q
        assert [int(x) for x in transformed.limb_arrays()[0]] == expected

    def test_inverse_automorphism_restores(self):
        poly, _ = random_poly(4)
        k = rotation_to_exponent(N, 3)
        k_inv = pow(k, -1, 2 * N)
        back = poly.automorphism(k).automorphism(k_inv)
        assert back.to_int_coefficients() == poly.to_int_coefficients()


class TestRNSPoly:
    def test_roundtrip_int_coefficients(self):
        poly, coeffs = random_poly(5)
        assert poly.to_int_coefficients() == coeffs

    def test_eval_roundtrip(self):
        poly, coeffs = random_poly(6)
        assert poly.to_evaluation().to_coefficient().to_int_coefficients() == coeffs

    def test_add_matches_integer_arithmetic(self):
        a, ca = random_poly(7)
        b, cb = random_poly(8)
        assert a.add(b).to_int_coefficients() == [x + y for x, y in zip(ca, cb)]

    def test_multiply_matches_negacyclic_reference(self):
        a, ca = random_poly(9, fmt=LimbFormat.EVALUATION)
        b, cb = random_poly(10, fmt=LimbFormat.EVALUATION)
        product = a.multiply(b).to_int_coefficients()
        expected = [0] * N
        for i, x in enumerate(ca):
            for j, y in enumerate(cb):
                idx, value = i + j, x * y
                if idx >= N:
                    idx, value = idx - N, -value
                expected[idx] += value
        assert product == expected

    def test_multiply_scalar_per_limb(self):
        poly, coeffs = random_poly(11)
        scaled = poly.multiply_scalar(3)
        assert scaled.to_int_coefficients() == [3 * c for c in coeffs]

    def test_drop_and_keep_limbs(self):
        poly, _ = random_poly(12)
        assert poly.keep_limbs(2).level_count == 2
        assert poly.keep_limbs(1).level_count == 1
        with pytest.raises(ValueError):
            poly.keep_limbs(0)

    def test_select_limbs(self):
        poly, _ = random_poly(13)
        selected = poly.take([0, 2])
        assert list(selected.moduli) == [PRIMES[0], PRIMES[2]]
        np.testing.assert_array_equal(selected.data, poly.data[[0, 2]])
        assert not np.shares_memory(selected.data, poly.data)

    def test_rescale_divides_by_last_prime(self):
        q_last = PRIMES[-1]
        values = [q_last * v for v in range(-10, 10)]
        poly = RNSPoly.from_int_coefficients(N, PRIMES, values)
        rescaled = poly.rescale_last()
        assert rescaled.level_count == 2
        assert rescaled.to_int_coefficients()[: len(values)] == [v // q_last for v in values]

    def test_rescale_requires_two_limbs(self):
        poly = RNSPoly.from_int_coefficients(N, PRIMES[:1], [1, 2, 3])
        with pytest.raises(ValueError):
            poly.rescale_last()

    def test_mixed_basis_rejected(self):
        a, _ = random_poly(14)
        b = RNSPoly.from_int_coefficients(N, PRIMES[:2], [1])
        with pytest.raises(ValueError):
            a.add(b)

    def test_footprint(self):
        poly, _ = random_poly(15)
        assert poly.footprint_bytes() == 3 * N * 8
