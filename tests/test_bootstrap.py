"""End-to-end bootstrapping tests (the paper's headline functionality)."""

import hashlib
from collections import Counter
from types import SimpleNamespace

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

    @pytest.mark.parametrize("length", [8, "full"])
    @pytest.mark.parametrize("ring", ["n9", "n6"])
    def test_levels_left_follow_the_closed_form(self, bootstrap_setup, small_bootstrap,
                                                ring, length):
        """The functional bootstrap of an ``s``-value message spends the
        levels ``BootstrapWorkload(params, s)`` prices for the same
        configuration (Table VI's level schedule): the sparse path's one
        factor each way leaves 5 levels at N=2⁹ for ``s = 8``, the full
        path's two leave 3 for ``s = 256``."""
        if ring == "n9":
            boot, encryptor = bootstrap_setup["bootstrapper"], bootstrap_setup["encryptor"]
        else:
            boot, encryptor = small_bootstrap
        params = boot.context.params
        slots = params.slots if length == "full" else length
        message = np.random.default_rng(slots).uniform(-0.4, 0.4, slots)
        ct = encryptor.encrypt_values(message, limb_count=1)
        assert (boot.sparse_plan(ct) is None) == (length == "full")
        expected = BootstrapWorkload(params, slots, chebyshev_degree=30,
                                     double_angle_iterations=2).remaining_levels
        assert boot.bootstrap(ct).level == expected
        if ring == "n9":
            assert expected == (3 if length == "full" else 5)


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

    @pytest.mark.parametrize("length", [8, 32], ids=["sparse", "full"])
    @pytest.mark.parametrize("level", [0, 3])
    def test_equals_the_stage_by_stage_composition(self, small_bootstrap, level, length):
        """The stage calls compose to ``bootstrap`` on either path; on the
        sparse one ``coeff_to_slot`` returns the packed ciphertext as both
        halves, so ApproxModEval on each and ``slot_to_coeff`` stay valid."""
        boot, encryptor = small_bootstrap
        rng = np.random.default_rng(level)
        ct = encryptor.encrypt_values(rng.uniform(-0.4, 0.4, length), limb_count=level + 1)
        raised = boot.mod_raise(ct)
        lower, upper = boot.coeff_to_slot(raised)
        assert (lower is upper) == (length == 8)
        expected = boot.slot_to_coeff(
            boot.approx_mod_eval(lower), boot.approx_mod_eval(upper), ct.scale
        )
        assert_same_ciphertext(boot.bootstrap(ct), expected)

    @pytest.mark.parametrize("length", [8, 32], ids=["sparse", "full"])
    @pytest.mark.parametrize("members", [2, 3])
    def test_fused_input_is_bootstrapped_per_member(self, small_bootstrap, members,
                                                    length):
        boot, encryptor = small_bootstrap
        rng = np.random.default_rng(members)
        cts = [
            encryptor.encrypt_values(rng.uniform(-0.4, 0.4, length), limb_count=1)
            for _ in range(members)
        ]
        fused_input = Ciphertext.fuse(cts)
        assert (boot.sparse_plan(fused_input) is None) == (length == 32)
        fused = boot.bootstrap(fused_input)
        assert fused.batch_size == members
        assert fused.encoded_length == (length,) * members
        for member, ct in zip(fused.split(), cts):
            assert_same_ciphertext(member, boot.bootstrap(ct))


class TestSparseBootstrap:
    """A message of ``s < N/2`` values bootstraps its own slots: the
    partial-sum trace, one DFT factor each way and one ApproxModEval at the
    input's batch width."""

    def test_precision_is_not_below_the_full_path(self, bootstrap_setup):
        """On the same sixteen 8-value ciphertexts, the sparse path's median
        precision is at least the full path's (an unknown length runs the
        full path on the same ciphertext)."""
        from repro.ckks.noise import measured_precision_bits

        evaluator, boot = bootstrap_setup["evaluator"], bootstrap_setup["bootstrapper"]
        decryptor = bootstrap_setup["decryptor"]
        encryptor = Encryptor(bootstrap_setup["context"],
                              bootstrap_setup["keys"].public_key, seed=16)
        rng = np.random.default_rng(16)
        bits = {"sparse": [], "full": []}
        for _ in range(16):
            message = rng.uniform(-0.4, 0.4, 8)
            sparse = evaluator.mod_reduce(encryptor.encrypt_values(message), 1)
            full = sparse.with_polys(sparse.c0, sparse.c1)
            full.encoded_length = None
            assert boot.sparse_plan(sparse) is not None and boot.sparse_plan(full) is None
            for path, ct in (("sparse", sparse), ("full", full)):
                decoded = decryptor.decrypt_values(boot.bootstrap(ct), 8).real
                bits[path].append(measured_precision_bits(message, decoded))
        assert np.median(bits["sparse"]) >= np.median(bits["full"])

    def test_a_full_slot_message_is_bootstrapped_as_before(self, bootstrap_setup):
        """A 256-value message at N=2⁹ runs the full-slot path, bit for bit:
        the digest is of the output the bootstrap gave before the sparse
        path existed."""
        context, keys = bootstrap_setup["context"], bootstrap_setup["keys"]
        message = np.random.default_rng(256).uniform(-0.4, 0.4, 256)
        ct = Encryptor(context, keys.public_key, seed=256).encrypt_values(
            message, limb_count=1)
        out = bootstrap_setup["bootstrapper"].bootstrap(ct)
        digest = hashlib.sha256(out.c0.data.tobytes() + out.c1.data.tobytes()).hexdigest()
        assert digest == "48ccdbd8054bec45f228f02a0bb56dcf7abd5cd527b213b4ae498eb9e4720556"
        assert (out.level, out.scale.hex()) == (3, "0x1.ffdd26c59d963p+26")

    def test_plans_use_only_the_declared_keys(self, bootstrap_setup, small_bootstrap):
        """Every sparse plan's trace and DFTs rotate by steps
        ``required_rotations`` already declares; at N=2⁹ the plans for
        ``s ≤ 16`` exist, at N=2⁶ ``s = 16`` needs another key and runs the
        full path."""
        for boot, periods in ((bootstrap_setup["bootstrapper"], {1, 2, 4, 8, 16}),
                              (small_bootstrap[0], {1, 2, 4, 8})):
            keys = set(boot.required_rotations())
            found = set()
            for s in (1, 2, 4, 8, 16, 32):
                # A length is all the plan reads off a ciphertext.
                plan = boot.sparse_plan(SimpleNamespace(batch_size=1, encoded_length=s))
                if plan is None:
                    continue
                found.add(s)
                assert set(plan.trace) | set(plan.coeff_to_slot.required_rotations()) \
                    | set(plan.slot_to_coeff.required_rotations()) <= keys
            assert found == periods
