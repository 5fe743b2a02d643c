"""Tests for RNS bases, CRT recomposition and fast base conversion."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import modmath
from repro.core.primes import generate_ntt_primes
from repro.core.rns import BaseConverter, RNSBasis, digit_of_limb, partition_digits


def decompose(basis, values):
    """One residue row per modulus of ``basis``: the lift, row by row."""
    return list(modmath.lift_residues(values, modmath.moduli_column(basis.moduli)))


@pytest.fixture(scope="module")
def bases():
    source_primes = generate_ntt_primes(4, 28, 256)
    target_primes = generate_ntt_primes(5, 30, 256, exclude=source_primes)
    return RNSBasis(source_primes), RNSBasis(target_primes)


class TestRNSBasis:
    def test_modulus_is_product(self, bases):
        source, _ = bases
        product = 1
        for q in source.moduli:
            product *= q
        assert source.modulus == product

    def test_to_rns_and_reconstruct(self, bases):
        source, _ = bases
        value = 123456789123456789 % source.modulus
        residues = source.to_rns(value)
        assert source.crt_reconstruct(residues) == value

    def test_negative_values_centred_compose(self, bases):
        source, _ = bases
        limbs = decompose(source, [-5, 7, -1])
        composed = source.compose(limbs, centered=True)
        assert composed == [-5, 7, -1]

    def test_uncentred_compose(self, bases):
        source, _ = bases
        limbs = decompose(source, [-1])
        assert source.compose(limbs, centered=False) == [source.modulus - 1]

    def test_subbasis(self, bases):
        source, _ = bases
        sub = source.subbasis(2)
        assert sub.moduli == source.moduli[:2]

    def test_rejects_duplicate_moduli(self):
        with pytest.raises(ValueError):
            RNSBasis([17, 17])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            RNSBasis([])

    def test_digit_partition(self):
        digits = partition_digits(list(range(7)), 3)
        assert digits == [[0, 1, 2], [3, 4, 5], [6]]
        assert digit_of_limb(0, 7, 3) == 0
        assert digit_of_limb(5, 7, 3) == 1
        assert digit_of_limb(6, 7, 3) == 2

    def test_digit_partition_rejects_bad_dnum(self):
        with pytest.raises(ValueError):
            partition_digits([1, 2, 3], 0)


class TestBaseConversion:
    def test_exact_conversion_matches_value(self, bases):
        source, target = bases
        import random
        rng = random.Random(0)
        values = [rng.randrange(source.modulus // 7) for _ in range(32)]
        limbs = decompose(source, values)
        converted = BaseConverter(source, target).convert_exact(limbs)
        recomposed = RNSBasis(target.moduli).compose(converted, centered=False)
        assert recomposed == [v % target.modulus for v in values]

    def test_fast_conversion_error_is_multiple_of_source_modulus(self, bases):
        source, target = bases
        import random
        rng = random.Random(1)
        values = [rng.randrange(source.modulus) for _ in range(16)]
        limbs = decompose(source, values)
        converted = BaseConverter(source, target).convert(limbs)
        recomposed = RNSBasis(target.moduli).compose(converted, centered=False)
        for got, value in zip(recomposed, values):
            difference = (got - value) % target.modulus
            # The approximation error is alpha * Q_source with alpha < #limbs.
            assert difference % source.modulus == 0
            alpha = difference // source.modulus
            assert 0 <= alpha <= len(source)

    def test_converters_reject_overlapping_bases(self, bases):
        source, _ = bases
        with pytest.raises(ValueError):
            BaseConverter(source, source)

    def test_convert_validates_limb_count(self, bases):
        source, target = bases
        converter = BaseConverter(source, target)
        with pytest.raises(ValueError):
            converter.convert([np.zeros(4, dtype=np.uint64)])

    def test_shared_memory_estimate(self, bases):
        source, target = bases
        converter = BaseConverter(source, target)
        assert converter.shared_memory_bytes_per_thread() == 4 * len(source)

    def test_object_backend_conversion(self):
        source = RNSBasis(generate_ntt_primes(2, 59, 64))
        target = RNSBasis(generate_ntt_primes(2, 60, 64, exclude=source.moduli))
        values = [12345678901234567, 3]
        limbs = decompose(source, values)
        converted = BaseConverter(source, target).convert_exact(limbs)
        recomposed = target.compose(converted, centered=False)
        assert recomposed == values


@given(st.integers(min_value=0, max_value=2**80))
@settings(max_examples=100, deadline=None)
def test_crt_roundtrip_property(value):
    primes = generate_ntt_primes(4, 28, 64)
    basis = RNSBasis(primes)
    value %= basis.modulus
    assert basis.crt_reconstruct(basis.to_rns(value)) == value
