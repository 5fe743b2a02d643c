"""Tests of :class:`repro.api.session.CKKSSession`.

Session construction (presets, rotation autofill, from_client), the
client/server round trip, the key inventory in ``describe()``, and the
default-context wiring of the singleton in :mod:`repro.ckks.context`.
"""

import hashlib

import numpy as np
import pytest

from repro.api.session import CKKSSession, resolve_parameters, resolve_rotations
from repro.ckks.context import (
    clear_default_context,
    get_default_context,
    set_default_context,
)
from repro.ckks.keys import PublicKey, SecretKey
from repro.ckks.params import CKKSParameters, PARAMETER_SETS
from repro.openfhe.client import OpenFHEClient
from tests.conftest import assert_close

#: A deliberately tiny parameter set so per-test key generation stays fast.
TINY_PARAMS = CKKSParameters(
    ring_degree=1 << 8,
    mult_depth=4,
    scale_bits=22,
    dnum=2,
    first_mod_bits=26,
    label="tiny",
)


@pytest.fixture(scope="module")
def tiny_session():
    return CKKSSession.create(
        TINY_PARAMS, rotations="power-of-two", conjugation=True, seed=7,
        register_default=False,
    )


class TestResolvers:
    def test_resolve_parameters_passthrough(self):
        assert resolve_parameters(TINY_PARAMS) is TINY_PARAMS

    def test_resolve_parameters_preset(self):
        assert resolve_parameters("toy") is PARAMETER_SETS["toy"]

    def test_resolve_parameters_unknown_preset(self):
        with pytest.raises(ValueError, match="toy"):
            resolve_parameters("does-not-exist")

    def test_resolve_parameters_bad_type(self):
        with pytest.raises(TypeError):
            resolve_parameters(42)

    def test_resolve_rotations_explicit(self):
        assert resolve_rotations([3, 1, -2, 1, 0], 512) == [-2, 1, 3]

    def test_resolve_rotations_power_of_two(self):
        steps = resolve_rotations("power-of-two", 16)
        assert steps == [-8, -4, -2, -1, 1, 2, 4, 8]

    def test_resolve_rotations_mixed(self):
        steps = resolve_rotations([3, "pow2"], 8)
        assert steps == [-4, -2, -1, 1, 2, 3, 4]

    def test_resolve_rotations_none(self):
        assert resolve_rotations(None, 16) == []

    def test_resolve_rotations_unknown_spec(self):
        with pytest.raises(ValueError, match="rotation spec"):
            resolve_rotations("all-of-them", 16)


class TestCreate:
    def test_power_of_two_autofill_generates_keys(self, tiny_session):
        slots = TINY_PARAMS.slots
        expected = resolve_rotations("power-of-two", slots)
        assert sorted(tiny_session.keys.rotation_keys) == expected

    def test_autofilled_rotations_all_work(self, tiny_session):
        # The encoder replicates an 8-value message across all slots, so a
        # rotation by any step acts cyclically with period 8.
        values = np.arange(8) / 8.0
        ct = tiny_session.encrypt(values)
        for step in (1, 2, -4, 64):
            assert_close(
                tiny_session.decrypt(ct << step, 8).real,
                np.roll(values, -step),
                5e-3,
            )

    def test_round_trip(self, tiny_session):
        values = np.array([0.1, -0.2, 0.3])
        assert_close(tiny_session.decrypt(tiny_session.encrypt(values), 3).real, values, 5e-3)

    def test_describe_merges_key_inventory(self, tiny_session):
        summary = tiny_session.describe()
        assert summary["ring_degree"] == TINY_PARAMS.ring_degree
        assert summary["keys"]["relinearization"] is True
        assert summary["keys"]["conjugation"] is True
        assert summary["keys"]["rotation_steps"] == sorted(tiny_session.keys.rotation_keys)
        assert summary["keys"]["secret_available"] is True

    def test_server_keys_hold_no_secret(self, tiny_session):
        assert tiny_session.keys.secret_key is None

    def test_properties(self, tiny_session):
        assert tiny_session.params is TINY_PARAMS
        assert tiny_session.slots == TINY_PARAMS.slots
        assert tiny_session.max_level == TINY_PARAMS.mult_depth


def _reachable(root):
    """Every object reachable from ``root`` through the attributes of
    ``repro`` objects and through containers."""
    seen, stack = set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        yield obj
        if isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif type(obj).__module__.startswith("repro."):
            stack.extend(getattr(obj, "__dict__", {}).values())
            stack.extend(getattr(obj, slot) for cls in type(obj).__mro__
                         for slot in getattr(cls, "__slots__", ()) if hasattr(obj, slot))


class TestServerHalf:
    """The server half of a session encrypts under the public key and
    references no secret key; the client encrypts under its secret key."""

    #: sha256 of ``session.encrypt([0.5, -0.25])``'s rows at seed 11,
    #: the same public-key ciphertext the session encrypted before the
    #: client moved to secret-key encryption.
    PUBLIC_KEY_CIPHERTEXT = "d7ee0d4841079fb6581363326e6d4603b1566718a165eb1099818c84caafe5d4"

    def test_evaluator_and_its_encryptor_hold_no_secret_key(self):
        params = CKKSParameters(ring_degree=1 << 8, mult_depth=2, scale_bits=28,
                                dnum=2, first_mod_bits=30)
        for session in (
            CKKSSession.create(params, seed=11, register_default=False),
            CKKSSession.from_client(OpenFHEClient(params, seed=11), register_default=False),
        ):
            evaluator = session.evaluator
            assert isinstance(evaluator.encryptor.key, PublicKey)
            for root in (evaluator, evaluator.encryptor):
                assert not any(isinstance(obj, SecretKey) for obj in _reachable(root))
            # The walk does find the client's own key.
            assert any(isinstance(obj, SecretKey) for obj in _reachable(session.client.encryptor))
            ct = session.encrypt([0.5, -0.25]).handle
            sha = hashlib.sha256()
            for poly in (ct.c0, ct.c1):
                sha.update(np.asarray(poly.data).astype(">u8").tobytes())
            assert sha.hexdigest() == self.PUBLIC_KEY_CIPHERTEXT
            assert ct.c1.seed is None


class TestFromClient:
    def test_preserves_client_server_split(self):
        client = OpenFHEClient(TINY_PARAMS, seed=5)
        client.key_gen(rotations=[1], conjugation=False)
        session = CKKSSession.from_client(client, register_default=False)
        values = np.array([0.5, -0.25])
        raw = client.encrypt(values)
        uploaded = session.upload(raw)
        shifted = uploaded << 1
        raw_out = session.download(shifted)
        assert_close(client.decrypt(raw_out, 2).real, np.roll(values, -1), 5e-3)

    def test_generates_keys_when_missing(self):
        client = OpenFHEClient(TINY_PARAMS, seed=6)
        session = CKKSSession.from_client(
            client, rotations=[2], conjugation=True, register_default=False
        )
        assert client.has_keys
        assert 2 in session.keys.rotation_keys
        assert session.keys.conjugation_key is not None

    def test_extends_existing_keys(self):
        client = OpenFHEClient(TINY_PARAMS, seed=8)
        client.key_gen(rotations=[1])
        session = CKKSSession.from_client(
            client, rotations=[1, 4], conjugation=True, register_default=False
        )
        assert sorted(session.keys.rotation_keys) == [1, 4]
        assert session.keys.conjugation_key is not None

    def test_add_rotation_keys_after_creation(self):
        session = CKKSSession.create(TINY_PARAMS, rotations=[1], seed=9,
                                     register_default=False)
        values = np.arange(4) / 4.0
        ct = session.encrypt(values)
        with pytest.raises(KeyError, match="available rotation steps: 1"):
            ct << 2
        session.add_rotation_keys([2])
        assert_close(
            session.decrypt(ct << 2, 2).real,
            np.array([0.5, 0.75]),
            5e-3,
        )


class TestDefaultContextWiring:
    def test_create_registers_default_context(self):
        previous = set_default_context(None)
        try:
            session = CKKSSession.create(TINY_PARAMS, seed=1)
            assert get_default_context() is session.context
        finally:
            set_default_context(previous)

    def test_registered_session_restores_previous_default_on_close(self, context):
        previous = set_default_context(context)
        try:
            with CKKSSession.create(TINY_PARAMS, seed=2) as scoped:
                assert get_default_context() is scoped.context
            # register_default=True captured the pre-construction default;
            # leaving the with-block must restore it, not the session itself.
            assert get_default_context() is context
        finally:
            set_default_context(previous)

    def test_context_manager_restores_previous_default(self, tiny_session, context):
        previous = set_default_context(context)
        try:
            with CKKSSession(
                context=tiny_session.context,
                evaluator=tiny_session.evaluator,
                keys=tiny_session.keys,
                encryptor=tiny_session.backend.encryptor,
                register_default=False,
            ) as scoped:
                assert get_default_context() is scoped.context
            assert get_default_context() is context
        finally:
            set_default_context(previous)

    def test_clear_default_context(self):
        previous = set_default_context(None)
        try:
            clear_default_context()
            with pytest.raises(RuntimeError, match="no default CKKS context"):
                get_default_context()
        finally:
            set_default_context(previous)

    def test_close_is_idempotent(self, tiny_session, context):
        previous = set_default_context(context)
        try:
            scoped = CKKSSession(
                context=tiny_session.context,
                evaluator=tiny_session.evaluator,
                keys=tiny_session.keys,
                register_default=False,
            )
            with scoped:
                pass
            scoped.close()  # second close is a no-op
            assert get_default_context() is context
        finally:
            set_default_context(previous)


class TestErrorPaths:
    def test_decrypt_without_decryptor(self, tiny_session):
        server_only = CKKSSession(
            context=tiny_session.context,
            evaluator=tiny_session.evaluator,
            keys=tiny_session.keys,
            register_default=False,
        )
        ct = tiny_session.encrypt([0.5])
        with pytest.raises(RuntimeError, match="no decryptor"):
            server_only.decrypt(ct)

    def test_decrypt_rejects_symbolic_handles(self, tiny_session):
        cost = tiny_session.cost_backend()
        with pytest.raises(TypeError, match="cost-model"):
            tiny_session.decrypt(cost.encrypt([1.0]))

    def test_encrypt_without_encryptor(self, tiny_session):
        server_only = CKKSSession(
            context=tiny_session.context,
            evaluator=tiny_session.evaluator,
            keys=tiny_session.keys,
            register_default=False,
        )
        with pytest.raises(RuntimeError, match="no encryptor"):
            server_only.encrypt([0.5])

    def test_add_rotation_keys_requires_client(self, session):
        with pytest.raises(RuntimeError, match="without a client"):
            session.add_rotation_keys([16])

    def test_server_options_are_the_servers_own(self, tiny_session):
        # session.server names policy and backend; the rest is Server's
        # signature, forwarded as given -- an unknown keyword is its error.
        from repro.serve import RetryPolicy, SimulatedClock

        clock, retry = SimulatedClock(), RetryPolicy(max_retries=1)
        server = tiny_session.server(clock=clock, retry=retry)
        assert server.clock is clock and server.backend is tiny_session.backend
        assert server.retry is retry
        cost = tiny_session.cost_backend()
        assert tiny_session.server(backend=cost).backend is cost
        with pytest.raises(TypeError, match="metrics"):
            tiny_session.server(metrics=object())
