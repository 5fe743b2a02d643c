"""Shared fixtures: contexts, keys and evaluators at test-sized parameters.

Key generation is comparatively expensive, so the fixtures are
session-scoped; tests must not mutate the shared objects (all evaluator
operations return new ciphertexts, so this is the natural usage anyway).
"""

from __future__ import annotations

import contextlib
import dataclasses

import numpy as np
import pytest
from hypothesis import settings

from repro.api.backend import EvaluationBackend
from repro.api.session import CKKSSession
from repro.apps.linear_algebra import EncryptedLinearAlgebra
from repro.ckks.context import Context
from repro.ckks.encryption import Decryptor, Encryptor
from repro.ckks.evaluator import Evaluator
from repro.ckks.keys import KeyGenerator, KeySet
from repro.ckks.params import CKKSParameters, PARAMETER_SETS
from repro.core import modmath
from repro.core.limb import LimbFormat
from repro.core.ntt import get_stacked_engine
from repro.core.rns_poly import RNSPoly
from repro.openfhe.adapter import RawCiphertext, RawPolynomial


#: Every operation of the backend protocol (its public methods except
#: ``describe``).
BACKEND_OPERATIONS = tuple(
    name for name, member in vars(EvaluationBackend).items()
    if callable(member) and not name.startswith("_") and name != "describe"
)

#: The differential oracle's deeper profile (``tests/test_oracle.py``, run by
#: CI with ``--hypothesis-profile=oracle-deep``): five times its examples.
settings.register_profile("oracle-deep", max_examples=300, derandomize=True,
                          deadline=None)

#: Rotation steps made available in the shared key set.
TEST_ROTATIONS = (1, 2, 3, 4, 8, -1)


@pytest.fixture(scope="session")
def toy_params() -> CKKSParameters:
    """Small parameter set used by most functional tests."""
    return PARAMETER_SETS["toy"]


@pytest.fixture(scope="session")
def context(toy_params) -> Context:
    """Shared CKKS context at the toy parameter set."""
    return Context(toy_params)


@pytest.fixture(scope="session")
def keys(context) -> KeySet:
    """Shared key material (secret retained for decryption in tests)."""
    generator = KeyGenerator(context, seed=12345)
    rotations = list(TEST_ROTATIONS) + EncryptedLinearAlgebra.rotation_steps_for_sum(8)
    return generator.generate(sorted(set(rotations)), conjugation=True)


@pytest.fixture(scope="session")
def evaluator(context, keys) -> Evaluator:
    """Shared evaluator bound to the session keys."""
    return Evaluator(context, keys)


@pytest.fixture(scope="session")
def encryptor(context, keys) -> Encryptor:
    """Shared public-key encryptor."""
    return Encryptor(context, keys.public_key, seed=777)


@pytest.fixture(scope="session")
def decryptor(context, keys) -> Decryptor:
    """Shared decryptor (plays the client role of the integration tests)."""
    return Decryptor(context, keys.secret_key)


@pytest.fixture(scope="session")
def session(context, keys, evaluator, encryptor, decryptor) -> CKKSSession:
    """High-level session sharing the expensive session-scoped key material."""
    return CKKSSession(
        context=context,
        evaluator=evaluator,
        keys=keys,
        encryptor=encryptor,
        decryptor=decryptor,
        register_default=False,
    )


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    """Deterministic random generator for message sampling."""
    return np.random.default_rng(20250614)


@contextlib.contextmanager
def exact_integers():
    """Inside the block, every modulus takes the exact object path, a uint64
    chain's too (the word limits drop to 2).

    The caches that bake in the backend decision are cleared on entry and on
    exit, so the computation before and after the block is untouched: build
    a context inside the block and compute on it only inside one.
    """
    def clear_backend_caches():
        modmath._moduli_column_cached.cache_clear()
        get_stacked_engine.cache_clear()

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(modmath, "DWORD_MODULUS_LIMIT", 2)
        patch.setattr(modmath, "FAST_MODULUS_LIMIT", 2)
        clear_backend_caches()
        try:
            yield
        finally:
            clear_backend_caches()


@pytest.fixture
def object_backend():
    """A context manager: :func:`exact_integers` on a context that must warn
    it runs on the exact object backend."""
    @contextlib.contextmanager
    def oracle():
        with exact_integers(), pytest.warns(RuntimeWarning, match="object backend"):
            yield

    return oracle


def as_residue_array(values, q: int) -> np.ndarray:
    """Canonical residues of ``values`` for one modulus ``q``, same shape."""
    return modmath.lift_residues(values, modmath.moduli_column((q,)).reshape(()))


def coefficient_frame(raw: RawCiphertext) -> RawCiphertext:
    """``raw`` with both polynomials sent in coefficient format, the
    other limb format a v1 frame may carry (``fmt="coeff"``)."""
    def convert(poly: RawPolynomial) -> RawPolynomial:
        rows = RNSPoly(poly.moduli, poly.limbs, LimbFormat.EVALUATION).to_coefficient()
        return RawPolynomial(list(poly.moduli), rows.data, fmt="coeff")

    return dataclasses.replace(raw, c0=convert(raw.c0), c1=convert(raw.c1))


def int_coefficients(poly: RNSPoly) -> list[int]:
    """The signed integer coefficients of ``poly`` as Python ints."""
    return poly.to_coefficient().compose().tolist()


def times_int(ct, value: int):
    """``value·ct`` at ``ct``'s scale: every residue times ``value`` (the
    oracle of a ``×value`` folded into a product's tail)."""
    return ct.with_polys(ct.c0.multiply_scalar(value), ct.c1.multiply_scalar(value))


def assert_close(actual, expected, tolerance=5e-4):
    """Assert CKKS approximate equality with a default tolerance."""
    actual = np.asarray(actual)
    expected = np.asarray(expected)
    assert actual.shape == expected.shape
    error = float(np.max(np.abs(actual - expected))) if actual.size else 0.0
    assert error < tolerance, f"max error {error} exceeds tolerance {tolerance}"


def assert_same_ciphertext(a, b):
    """Assert two ciphertexts are bit-identical: shape, scale and residues."""
    assert (a.level, a.batch_size, a.scale) == (b.level, b.batch_size, b.scale)
    np.testing.assert_array_equal(a.c0.data, b.c0.data)
    np.testing.assert_array_equal(a.c1.data, b.c1.data)
