"""End-to-end bootstrapping tests (the paper's headline functionality)."""

from collections import Counter

import numpy as np
import pytest

from repro.ckks import chebyshev
from repro.ckks.bootstrap import BootstrapConfig, Bootstrapper
from repro.ckks.ciphertext import Ciphertext
from repro.ckks.context import Context
from repro.ckks.encryption import Decryptor, Encryptor
from repro.ckks.evaluator import Evaluator
from repro.ckks.keys import KeyGenerator, KeySet
from repro.ckks.params import PARAMETER_SETS
from repro.core.dispatch import DISPATCH
from repro.perf.workloads import BootstrapWorkload
from tests.conftest import assert_same_ciphertext, int_coefficients


@pytest.fixture(scope="module")
def bootstrap_setup():
    """Context, keys and bootstrapper at the toy-bootstrap parameter set."""
    params = PARAMETER_SETS["toy-bootstrap"]
    context = Context(params)
    generator = KeyGenerator(context, seed=2024)
    secret = generator.generate_secret()
    keys = KeySet(
        public_key=generator.generate_public(secret),
        relinearization_key=generator.generate_relinearization_key(secret),
        secret_key=secret,
    )
    evaluator = Evaluator(context, keys)
    bootstrapper = Bootstrapper(context, evaluator)
    for step in bootstrapper.required_rotations():
        keys.rotation_keys[step] = generator.generate_rotation_key(secret, step)
    keys.conjugation_key = generator.generate_conjugation_key(secret)
    return {
        "params": params,
        "context": context,
        "keys": keys,
        "evaluator": evaluator,
        "bootstrapper": bootstrapper,
        "encryptor": Encryptor(context, keys.public_key, seed=7),
        "decryptor": Decryptor(context, keys.secret_key),
    }


@pytest.fixture(scope="module")
def small_bootstrap():
    """The toy-bootstrap chain at a 64-coefficient ring: a fast bootstrap
    for bit-identity checks (not for precision)."""
    params = PARAMETER_SETS["toy-bootstrap"].with_overrides(ring_degree=1 << 6)
    context = Context(params)
    generator = KeyGenerator(context, seed=5)
    secret = generator.generate_secret()
    keys = KeySet(
        public_key=generator.generate_public(secret),
        relinearization_key=generator.generate_relinearization_key(secret),
        secret_key=secret,
    )
    evaluator = Evaluator(context, keys)
    bootstrapper = Bootstrapper(context, evaluator)
    for step in bootstrapper.required_rotations():
        keys.rotation_keys[step] = generator.generate_rotation_key(secret, step)
    keys.conjugation_key = generator.generate_conjugation_key(secret)
    return bootstrapper, Encryptor(context, keys.public_key, seed=3)


class TestBootstrapConfig:
    @pytest.mark.parametrize("overrides, error, field", [
        ({"double_angle_iterations": -1}, ValueError, "double_angle_iterations"),
        ({"chebyshev_degree": 2.5}, TypeError, "chebyshev_degree"),
    ], ids=["negative-iterations", "fractional-degree"])
    def test_invalid_config_rejected_up_front(self, small_bootstrap, overrides,
                                              error, field):
        # Regression: these raised a bare "negative shift count", an unrelated
        # TypeError, or nothing until the first linear transform.
        boot, _ = small_bootstrap
        with pytest.raises(error, match=field):
            Bootstrapper(boot.context, boot.evaluator, BootstrapConfig(**overrides))

    def test_dense_secret_rejected(self):
        params = PARAMETER_SETS["toy-bootstrap"].with_overrides(secret_hamming_weight=256)
        context = Context(params)
        keys = KeyGenerator(context, seed=1)
        secret = keys.generate_secret()
        key_set = KeySet(
            public_key=keys.generate_public(secret),
            relinearization_key=keys.generate_relinearization_key(secret),
            secret_key=secret,
        )
        with pytest.raises(ValueError):
            Bootstrapper(context, Evaluator(context, key_set))


class TestModRaise:
    def test_preserves_message(self, bootstrap_setup):
        encryptor, decryptor = bootstrap_setup["encryptor"], bootstrap_setup["decryptor"]
        evaluator, boot = bootstrap_setup["evaluator"], bootstrap_setup["bootstrapper"]
        message = np.array([0.25, -0.125, 0.0625, -0.03125])
        ct = evaluator.mod_reduce(encryptor.encrypt_values(message), 1)
        raised = boot.mod_raise(ct)
        assert raised.limb_count == len(bootstrap_setup["context"].moduli)
        # The raised ciphertext decrypts to m + q0*I; modulo-q0 reduction of
        # its coefficients recovers the message.
        plain = decryptor.decrypt(raised)
        q0 = bootstrap_setup["context"].moduli[0]
        coeffs = np.array(int_coefficients(plain.poly), dtype=np.float64)
        centred = coeffs - q0 * np.round(coeffs / q0)
        decoded = bootstrap_setup["context"].encoder.decode(centred, ct.scale, 4)
        assert np.max(np.abs(decoded.real - message)) < 1e-3


class TestFactoredDFT:
    def test_two_sparse_factors_need_sixteen_rotation_keys(self, bootstrap_setup):
        # 256 slots, CoeffToSlot applies G_2⁻¹ then G_1⁻¹: G_2 (the 16
        # multiples of 16) needs 3 baby and 3 giant rotations, G_1 (offsets
        # -15..15) 7 and 3; the dense E0 needed 30.
        boot = bootstrap_setup["bootstrapper"]
        assert [sum(map(len, t._diagonals.values())) for t in boot._coeff_to_slot] == [16, 31]
        assert len(boot.required_rotations()) == 16

    @pytest.mark.parametrize("ring", ["n9", "n6"])
    def test_levels_left_follow_the_closed_form(self, bootstrap_setup, small_bootstrap,
                                                ring):
        """The functional bootstrap spends the levels ``BootstrapWorkload``
        prices for the same configuration (Table VI's level schedule)."""
        if ring == "n9":
            boot, encryptor = bootstrap_setup["bootstrapper"], bootstrap_setup["encryptor"]
        else:
            boot, encryptor = small_bootstrap
        params, config = boot.context.params, boot.config
        ct = encryptor.encrypt_values(np.array([0.25, -0.125]), limb_count=1)
        expected = BootstrapWorkload(
            params, params.slots, chebyshev_degree=config.chebyshev_degree,
            double_angle_iterations=config.double_angle_iterations,
        ).remaining_levels
        assert boot.bootstrap(ct).level == expected


class ScopeCounter:
    """A :meth:`Dispatcher.profiling` observer counting scope entries by leaf
    name (``batch2/hmult`` counts as ``hmult``)."""

    def __init__(self) -> None:
        self.entries = Counter()

    def enter(self, name: str) -> None:
        self.entries[name.rsplit("/", 1)[-1]] += 1

    def exit(self, name: str) -> None:
        pass


class TestApproxModEval:
    """ApproxModEval on the bootstrap's own Chebyshev argument: the
    ``coeff_to_slot`` halves of a seeded exhausted ciphertext."""

    @pytest.fixture(scope="class")
    def halves(self, bootstrap_setup):
        evaluator, boot = bootstrap_setup["evaluator"], bootstrap_setup["bootstrapper"]
        message = np.random.default_rng(3).uniform(-0.4, 0.4, 8)
        exhausted = evaluator.mod_reduce(
            bootstrap_setup["encryptor"].encrypt_values(message), 1)
        return boot.coeff_to_slot(boot.mod_raise(exhausted))

    def test_fused_call_follows_the_level_plan(self, bootstrap_setup, halves,
                                               monkeypatch):
        """One fused B=2 call evaluates each node at the level its parent
        consumes it: the basis holds ``T_1 … T_4, T_6, T_8`` and ``T_16`` is
        squared once, from the memo, where its product needs it.  4 HMults
        (``T_3``, two ``q·T_8 + r`` and ``q·T_16 + r``), the 7 squares of
        ``T_2, T_4, T_8, T_6, T_16`` and the two double angles, and a rescale
        scope only for the two quotient blocks (12 with an ``at_level`` per
        realignment and a rescale per block, 28 with one per term)."""
        boot = bootstrap_setup["bootstrapper"]
        lazy_basis, built = chebyshev._chebyshev_basis, []
        lazy_double, doubled = chebyshev._double, Counter()

        def spy(*args):
            basis = lazy_basis(*args)
            built.append(sorted(basis))
            return basis

        def spy_double(evaluator, ct, level=None):
            doubled[ct.level if level is None else level + 1] += 1
            return lazy_double(evaluator, ct, level)

        monkeypatch.setattr(chebyshev, "_chebyshev_basis", spy)
        monkeypatch.setattr(chebyshev, "_double", spy_double)
        counter = ScopeCounter()
        with DISPATCH.profiling(counter):
            result = boot.approx_mod_eval(Ciphertext.fuse(list(halves)))
        top = halves[0].level
        # The even blocks read T_2, T_4, T_6; T_8 is the first giant step.
        assert built == [[1, 2, 3, 4, 6, 8]]
        # Squares run at T_1's, T_2's, T_3's and T_4's levels, T_16's on
        # T_8 one level below its own (a square per level it is built at),
        # and the double angles at the series' level and one below.
        assert doubled == Counter({top: 1, top - 1: 1, top - 2: 2, top - 4: 1,
                                   top - 6: 1, top - 7: 1})
        assert counter.entries["hmult"] == 4
        assert counter.entries["hsquare"] == 7
        assert counter.entries["rescale"] == 2
        assert counter.entries["at_level"] == 0
        # The ×2 and −1 ride in the squares' and products' tails.
        assert counter.entries["scalarmult"] == counter.entries["scalaradd"] == 0
        # ceil(log2(31)) + 1 levels for the series, one per double angle.
        assert result.level == top - 8

    def test_series_error_within_2_to_the_minus_17(self, bootstrap_setup, halves):
        """The decrypted series is within 2^-17 of the exact Chebyshev
        series at the decrypted argument, in every slot: the arithmetic
        error of the evaluation, with the approximation error left out."""
        boot, decryptor = bootstrap_setup["bootstrapper"], bootstrap_setup["decryptor"]
        slots = bootstrap_setup["context"].slots
        argument = halves[0]
        ys = decryptor.decrypt_values(argument, slots).real
        exact = np.polynomial.chebyshev.chebval(ys, boot._cos_coefficients)
        series = chebyshev.evaluate_chebyshev(
            bootstrap_setup["evaluator"], argument, boot._cos_coefficients)
        got = decryptor.decrypt_values(series, slots).real
        assert np.max(np.abs(got - exact)) <= 2.0 ** -17


class TestFullBootstrap:
    def test_refreshes_levels_and_preserves_message(self, bootstrap_setup):
        encryptor, decryptor = bootstrap_setup["encryptor"], bootstrap_setup["decryptor"]
        evaluator, boot = bootstrap_setup["evaluator"], bootstrap_setup["bootstrapper"]
        rng = np.random.default_rng(11)
        message = rng.uniform(-0.4, 0.4, 16)
        exhausted = evaluator.mod_reduce(encryptor.encrypt_values(message), 1)
        assert exhausted.level == 0
        refreshed = boot.bootstrap(exhausted)
        assert refreshed.level >= 3  # multiplicative budget restored
        decoded = decryptor.decrypt_values(refreshed, 16).real
        assert np.max(np.abs(decoded - message)) < 5e-2

    def test_computation_continues_after_bootstrap(self, bootstrap_setup):
        encryptor, decryptor = bootstrap_setup["encryptor"], bootstrap_setup["decryptor"]
        evaluator, boot = bootstrap_setup["evaluator"], bootstrap_setup["bootstrapper"]
        message = np.array([0.3, -0.2, 0.1, 0.25])
        exhausted = evaluator.mod_reduce(encryptor.encrypt_values(message), 1)
        refreshed = boot.bootstrap(exhausted)
        squared = evaluator.square(refreshed)
        assert squared.level == refreshed.level - 1
        decoded = decryptor.decrypt_values(squared, 4).real
        assert np.max(np.abs(decoded - message**2)) < 5e-2

    def test_precision_reported_in_bits(self, bootstrap_setup):
        from repro.ckks.noise import measured_precision_bits

        encryptor, decryptor = bootstrap_setup["encryptor"], bootstrap_setup["decryptor"]
        evaluator, boot = bootstrap_setup["evaluator"], bootstrap_setup["bootstrapper"]
        message = np.array([0.1, -0.3, 0.2, 0.05])
        refreshed = boot.bootstrap(
            evaluator.mod_reduce(encryptor.encrypt_values(message), 1)
        )
        decoded = decryptor.decrypt_values(refreshed, 4).real
        assert measured_precision_bits(message, decoded) > 4.0


class TestBatchedBootstrap:
    """``bootstrap`` runs both ApproxModEval halves as one fused ``B=2``
    ciphertext, and a fused input bootstraps every member at once."""

    @pytest.mark.parametrize("level", [0, 3])
    def test_equals_the_stage_by_stage_composition(self, small_bootstrap, level):
        boot, encryptor = small_bootstrap
        rng = np.random.default_rng(level)
        ct = encryptor.encrypt_values(rng.uniform(-0.4, 0.4, 8), limb_count=level + 1)
        raised = boot.mod_raise(ct)
        lower, upper = boot.coeff_to_slot(raised)
        expected = boot.slot_to_coeff(
            boot.approx_mod_eval(lower), boot.approx_mod_eval(upper), ct.scale
        )
        assert_same_ciphertext(boot.bootstrap(ct), expected)

    @pytest.mark.parametrize("members", [2, 3])
    def test_fused_input_is_bootstrapped_per_member(self, small_bootstrap, members):
        boot, encryptor = small_bootstrap
        rng = np.random.default_rng(members)
        cts = [
            encryptor.encrypt_values(rng.uniform(-0.4, 0.4, 8), limb_count=1)
            for _ in range(members)
        ]
        fused = boot.bootstrap(Ciphertext.fuse(cts))
        assert fused.batch_size == members
        for member, ct in zip(fused.split(), cts):
            assert_same_ciphertext(member, boot.bootstrap(ct))
