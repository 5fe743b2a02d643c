"""Tests for RNS bases, CRT recomposition and fast base conversion."""

import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ckks.ciphertext import Plaintext
from repro.ckks.context import Context
from repro.ckks.encryption import decode
from repro.ckks.params import CKKSParameters
from repro.core import modmath
from repro.core.limb import LimbFormat
from repro.core.primes import generate_ntt_primes
from repro.core.rns import BaseConverter, RNSBasis, partition_digits
from repro.core.rns_poly import RNSPoly
from tests.conftest import as_residue_array


def decompose(basis, values):
    """One residue row per modulus of ``basis``: the lift, row by row."""
    return list(modmath.lift_residues(values, modmath.moduli_column(basis.moduli)))


# -- oracles: exact Python-integer arithmetic, one coefficient at a time ------


def to_rns(basis, value):
    """The residue vector of a (possibly negative) integer."""
    return [int(value) % q for q in basis.moduli]


def crt_reconstruct(basis, residues):
    """The CRT sum of one residue per modulus: the value in ``[0, Q)``."""
    assert len(residues) == len(basis.moduli)
    total = 0
    for r, q_hat, q_hat_inv in zip(residues, basis.q_hat, basis.q_hat_inv):
        total += q_hat * ((int(r) * q_hat_inv) % (basis.modulus // q_hat))
    return total % basis.modulus


def centred(basis, value):
    """``value`` in ``[0, Q)`` mapped to ``(-Q/2, Q/2]``."""
    return value - basis.modulus if value > basis.modulus >> 1 else value


def convert_exact(source, target, limbs):
    """Exact base conversion: Equation 1 less its ``α·Q`` overshoot.

    ``α = round(Σ y_i / q_i)`` is the HPS floating-point estimate, exact
    for the parameter ranges used here.
    """
    scaled = [
        [int(v) * inv % q for v in limb]
        for limb, q, inv in zip(limbs, source.moduli, source.q_hat_inv)
    ]
    alphas = np.rint(sum(np.array([float(v) for v in y]) / float(q)
                         for y, q in zip(scaled, source.moduli)))
    return [
        as_residue_array(np.array([
            sum(y[j] * (h % p) for y, h in zip(scaled, source.q_hat))
            - int(alpha) * (source.modulus % p)
            for j, alpha in enumerate(alphas)
        ], dtype=object), p)
        for p in target.moduli
    ]


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
        residues = to_rns(source, value)
        assert crt_reconstruct(source, residues) == value

    def test_negative_values_centred_compose(self, bases):
        source, _ = bases
        limbs = decompose(source, [-5, 7, -1])
        composed = source.compose(limbs)
        assert composed.dtype == np.int64 and composed.tolist() == [-5, 7, -1]

    def test_uncentred_compose(self, bases):
        """The residues of ``Q - 1`` and ``Q/2 + 1`` compose centred."""
        source, _ = bases
        half = source.modulus >> 1
        limbs = decompose(source, [source.modulus - 1, half, half + 1])
        assert source.compose(limbs).tolist() == [-1, half, half + 1 - source.modulus]

    def test_rejects_duplicate_moduli(self):
        with pytest.raises(ValueError):
            RNSBasis([17, 17])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            RNSBasis([])

    def test_digit_partition(self):
        digits = partition_digits(list(range(7)), 3)
        assert digits == [[0, 1, 2], [3, 4, 5], [6]]

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
        converted = convert_exact(source, target, limbs)
        recomposed = RNSBasis(target.moduli).compose(converted)
        modulus = target.modulus
        assert [v % modulus for v in recomposed.tolist()] == [v % modulus for v in values]

    def test_fast_conversion_error_is_multiple_of_source_modulus(self, bases):
        source, target = bases
        import random
        rng = random.Random(1)
        values = [rng.randrange(source.modulus) for _ in range(16)]
        limbs = np.stack(decompose(source, values))
        converted = BaseConverter(source, target).convert_stack(limbs)
        recomposed = RNSBasis(target.moduli).compose(converted)
        for got, value in zip(recomposed.tolist(), values):
            difference = (got - value) % target.modulus
            # The approximation error is alpha * Q_source with alpha < #limbs.
            assert difference % source.modulus == 0
            alpha = difference // source.modulus
            assert 0 <= alpha <= len(source)

    def test_converters_reject_overlapping_bases(self, bases):
        source, _ = bases
        with pytest.raises(ValueError):
            BaseConverter(source, source)

    def test_object_backend_conversion(self):
        source = RNSBasis(generate_ntt_primes(2, 59, 64))
        target = RNSBasis(generate_ntt_primes(2, 60, 64, exclude=source.moduli))
        values = [12345678901234567, 3]
        limbs = decompose(source, values)
        converted = convert_exact(source, target, limbs)
        recomposed = target.compose(converted)
        assert recomposed.tolist() == values


@given(st.integers(min_value=0, max_value=2**80))
@settings(max_examples=100, deadline=None)
def test_crt_roundtrip_property(value):
    primes = generate_ntt_primes(4, 28, 64)
    basis = RNSBasis(primes)
    value %= basis.modulus
    assert crt_reconstruct(basis, to_rns(basis, value)) == value


# -- compose: Garner digits in words, int64 wherever a coefficient fits ------

#: Chains of each stack backend, ring degree 64.
_CHAIN_PRIMES = {
    "uint64": generate_ntt_primes(4, 28, 64),
    "uint64-one-word": generate_ntt_primes(2, 26, 64),
    "dword": generate_ntt_primes(1, 60, 64) + generate_ntt_primes(2, 59, 64),
    "dword-q-below-2^64": generate_ntt_primes(2, 32, 64),
    "exact": generate_ntt_primes(1, 63, 64) + generate_ntt_primes(2, 30, 64),
}


def _anchored(basis):
    """Integers at and around the values where compose changes path: 0,
    ±1, ±Q/2, ±(2**63 - 1) either side of the int64 boundary, past it, and
    ±(q_0 ··· q_i), where a high mixed-radix digit turns 1 over small low
    digits."""
    half, word = basis.modulus >> 1, (1 << 63) - 1
    anchors = [0, half, -half, word, -word, 1 << 64, -(1 << 64)]
    weight = 1
    for q in basis.moduli[:-1]:
        weight *= q
        anchors += [weight, -weight]
    return st.one_of(
        st.tuples(st.sampled_from(anchors), st.integers(-3, 3)).map(sum),
        st.integers(-(1 << 70), 1 << 70),
        st.integers(-half, half),
    ).map(lambda v: (v + half) % basis.modulus - half)


@pytest.mark.parametrize("chain", sorted(_CHAIN_PRIMES))
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_compose_matches_crt_reconstruct(chain, data):
    basis = RNSBasis(_CHAIN_PRIMES[chain])
    values = data.draw(st.lists(_anchored(basis), min_size=1, max_size=24))
    limbs = decompose(basis, np.array(values, dtype=object))
    oracle = [crt_reconstruct(basis, column) for column in zip(*limbs)]
    exact = modmath.backend_for_moduli(basis.moduli) == modmath.BACKEND_OBJECT
    want = [centred(basis, v) for v in oracle]
    got = basis.compose(limbs)
    assert got.tolist() == want
    # A word whenever every coefficient fits one; the object path for an
    # exact chain or a coefficient past int64.
    fits = all(-(1 << 63) <= v < 1 << 63 for v in want)
    assert got.dtype == (np.int64 if fits and not exact else np.object_)


_DECODE_CHAINS = {
    "uint64": dict(scale_bits=22, mult_depth=3, first_mod_bits=26),
    "dword": dict(scale_bits=59, mult_depth=2, first_mod_bits=60),
    "exact": dict(scale_bits=28, mult_depth=2, first_mod_bits=63),
}


@pytest.fixture(scope="module", params=sorted(_DECODE_CHAINS))
def decode_context(request):
    params = CKKSParameters(ring_degree=64, dnum=2, **_DECODE_CHAINS[request.param])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the exact-chain notice
        return Context(params)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_decode_is_bit_identical_to_the_python_int_oracle(decode_context, seed):
    context, rng = decode_context, random.Random(seed)
    basis = RNSBasis(context.moduli)
    half = basis.modulus >> 1
    picks = [0, 1, -1, half, -half, (1 << 63) - 1, -(1 << 63), 1 << 63]
    ints = [
        rng.choice(picks) if rng.random() < 0.2
        else rng.randrange(-(1 << rng.randrange(1, 80)), 1 << rng.randrange(1, 80))
        for _ in range(context.ring_degree)
    ]
    ints = [(v + half) % basis.modulus - half for v in ints]
    poly = RNSPoly.from_int_coefficients(
        context.ring_degree, context.moduli, ints, fmt=LimbFormat.EVALUATION
    )
    plaintext = Plaintext(poly=poly, scale=context.scale, slots=context.slots)
    oracle = context.encoder.project(np.array([float(v) for v in ints])) / context.scale
    np.testing.assert_array_equal(decode(context, plaintext), oracle)
