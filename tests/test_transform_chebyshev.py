"""Tests for BSGS linear transforms and Chebyshev/Paterson-Stockmeyer evaluation."""

import math

import numpy as np
import pytest

from repro.ckks.chebyshev import (
    _chebyshev_basis,
    chebyshev_coefficients,
    chebyshev_divide,
    double_angle,
    evaluate_chebyshev,
)
from repro.ckks.encoding import rotation_group
from repro.ckks.linear_transform import LinearTransform, dft_factors, dft_levels
from repro.ckks.keyswitch import apply_key, decompose_and_mod_up
from repro.core import modmath
from repro.core.automorphism import rotation_to_exponent
from repro.core.limb import LimbFormat
from repro.core.rns_poly import RNSPoly
from tests.conftest import (
    assert_close,
    assert_same_ciphertext,
    int_coefficients,
    times_int,
)

from test_moddown_rescale import expected_residues


def decoding_matrix(ring_degree: int) -> np.ndarray:
    """Return ``E0``: the slots-from-lower-coefficients decoding matrix.

    ``E0[j, t] = ζ^{5^j * t}`` with ``ζ = exp(iπ/N)`` and ``t < N/2``.  The
    full canonical embedding of a real polynomial ``m`` satisfies
    ``σ(m) = E0 · (m_lo + i·m_hi)``, which is the identity CoeffToSlot and
    SlotToCoeff exploit.
    """
    n = ring_degree
    slots = n // 2
    zeta = np.exp(1j * np.pi / n)
    exponents = np.outer(rotation_group(n), np.arange(slots))
    return zeta ** (exponents % (2 * n))


def bit_reversal(slots: int) -> np.ndarray:
    """The permutation matrix ``P`` with ``(P·w)[i] = w[bitrev(i)]``."""
    width = slots.bit_length() - 1
    order = [int(format(i, f"0{width}b")[::-1], 2) for i in range(slots)]
    return np.eye(slots)[order]


def chained(factors) -> np.ndarray:
    """The product of ``factors`` applied first to last."""
    product = np.eye(len(factors[0]), dtype=complex)
    for factor in factors:
        product = factor @ product
    return product


def nonzero_diagonals(matrix: np.ndarray) -> int:
    """Generalized diagonals ``k`` with an entry ``M[j, (j + k) mod n] != 0``."""
    n = len(matrix)
    return sum(bool(np.any(np.diagonal(np.roll(matrix, -k, axis=1)))) for k in range(n))


def chebyshev_basis(evaluator, ct, degree: int) -> dict:
    """Ciphertexts of every ``T_1 ... T_degree`` at ``ct``, by the
    recurrences ``T_{2k} = 2*T_k^2 - 1`` and ``T_{2k+1} = 2*T_k*T_{k+1} - T_1``
    (the eager basis: the reference for the evaluator's lazy one)."""
    basis = {1: ct}
    for k in range(2, degree + 1):
        half = k // 2
        if k % 2 == 0:
            squared = evaluator.square(basis[half])
            term = times_int(squared, 2)
            basis[k] = evaluator.add_scalar(term, -1.0)
        else:
            prod = evaluator.multiply(basis[half], basis[half + 1])
            term = times_int(prod, 2)
            basis[k] = evaluator.sub(term, ct)
    return basis


def evaluate_chebyshev_direct(evaluator, ct, coefficients):
    """Reference evaluation materialising every Chebyshev basis polynomial,
    each term scaled and realigned on its own."""
    coefficients = np.asarray(coefficients, dtype=np.float64)
    degree = len(coefficients) - 1
    basis = chebyshev_basis(evaluator, ct, degree) if degree >= 1 else {}
    deepest = min((b.level for b in basis.values()), default=ct.level)
    target_level = deepest - 1
    result = None
    for k in range(1, degree + 1):
        if abs(coefficients[k]) < 1e-12:
            continue
        term = evaluator.multiply_scalar(basis[k], float(coefficients[k]))
        term = evaluator.adjust(term, target_level) if term.level > target_level else term
        result = term if result is None else evaluator.add(result, term)
    if result is None:
        result = evaluator.weighted_sum([(ct, 0.0)], target_level)
    return evaluator.add_scalar(result, float(coefficients[0]))


def chebyshev_series_value(coefficients, x: float) -> float:
    """Evaluate a Chebyshev series at a scalar point (plaintext reference)."""
    return sum(c * math.cos(k * math.acos(max(-1.0, min(1.0, x))))
               for k, c in enumerate(coefficients))


class TestChebyshevMath:
    def test_coefficients_reconstruct_function(self):
        coeffs = chebyshev_coefficients(lambda x: math.cos(2 * math.pi * x), 30)
        xs = np.linspace(-1, 1, 41)
        values = np.array([chebyshev_series_value(coeffs, x) for x in xs])
        assert_close(values, np.cos(2 * np.pi * xs), 1e-6)

    def test_low_degree_polynomial_exact(self):
        coeffs = chebyshev_coefficients(lambda x: 2 * x * x - 1, 2)
        assert coeffs[2] == pytest.approx(1.0, abs=1e-9)
        assert coeffs[0] == pytest.approx(0.0, abs=1e-9)

    def test_divide_reconstructs(self):
        rng = np.random.default_rng(0)
        coeffs = rng.normal(size=13)
        n = 4
        quotient, remainder = chebyshev_divide(coeffs, n)
        xs = np.linspace(-1, 1, 17)
        f = np.array([chebyshev_series_value(coeffs, x) for x in xs])
        q = np.array([chebyshev_series_value(quotient, x) for x in xs])
        r = np.array([chebyshev_series_value(remainder, x) for x in xs])
        t_n = np.cos(n * np.arccos(xs))
        assert_close(q * t_n + r, f, 1e-9)

    def test_divide_small_degree_is_remainder(self):
        quotient, remainder = chebyshev_divide([1.0, 2.0], 4)
        assert list(quotient) == [0.0]
        assert list(remainder) == [1.0, 2.0]

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            chebyshev_coefficients(math.cos, -1)


class TestHomomorphicChebyshev:
    @pytest.fixture(scope="class")
    def inputs(self, rng, encryptor):
        ys = rng.uniform(-0.9, 0.9, 8)
        return ys, encryptor.encrypt_values(ys)

    def test_direct_evaluation(self, evaluator, decryptor, inputs):
        ys, ct = inputs
        coeffs = chebyshev_coefficients(lambda x: 0.25 + x - 0.5 * x**3, 3)
        result = evaluate_chebyshev_direct(evaluator, ct, coeffs)
        assert_close(decryptor.decrypt_values(result, 8).real, 0.25 + ys - 0.5 * ys**3, 2e-3)

    def test_bsgs_ps_evaluation(self, evaluator, decryptor, inputs):
        ys, ct = inputs
        coeffs = chebyshev_coefficients(lambda x: np.cos(3 * x), 12)
        result = evaluate_chebyshev(evaluator, ct, coeffs)
        assert_close(decryptor.decrypt_values(result, 8).real, np.cos(3 * ys), 5e-3)

    def test_ps_matches_direct(self, evaluator, decryptor, inputs):
        ys, ct = inputs
        coeffs = chebyshev_coefficients(lambda x: 1.0 / (2.0 + x), 10)
        direct = decryptor.decrypt_values(evaluate_chebyshev_direct(evaluator, ct, coeffs), 8).real
        bsgs = decryptor.decrypt_values(evaluate_chebyshev(evaluator, ct, coeffs), 8).real
        assert_close(bsgs, direct, 5e-3)

    @pytest.mark.parametrize("degree", [0, 1, 2])
    def test_low_degree_is_one_block(self, evaluator, decryptor, inputs, degree):
        """Degree <= 2 is one weighted sum and one rescale: no product
        spends a level on a constant, and the result matches the oracle."""
        _, ct = inputs
        coeffs = [0.25, -0.5, 0.75][: degree + 1]
        result = evaluate_chebyshev(evaluator, ct, coeffs)
        assert result.level == ct.level - max(1, degree)
        direct = evaluate_chebyshev_direct(evaluator, ct, coeffs)
        assert_close(decryptor.decrypt_values(result, 8).real,
                     decryptor.decrypt_values(direct, 8).real, 2e-3)

    def test_lazy_basis_is_the_eager_one(self, evaluator, decryptor, inputs):
        """The lazy basis builds only the requested ``T_i`` and what their
        recurrences read.  ``T_2, T_4, T_8`` square the same operands as the
        eager basis and are bit-identical to its.  ``T_3`` multiplies ``T_1``
        mod-reduced (the eager basis realigns it) and sums ``− T_1`` into the
        product before its one rounding, so every coefficient is within one
        rounding, doubled, of the same product plus ``− T_1`` rescaled apart
        at the same weight, times 2.  ``T_6`` is exactly ``2·T_3² − 1`` of
        that ``T_3``."""
        ys, ct = inputs
        lazy = _chebyshev_basis(evaluator, ct, {6, 8})
        assert sorted(lazy) == [1, 2, 3, 4, 6, 8]
        eager = chebyshev_basis(evaluator, ct, 8)
        for i in (1, 2, 4, 8):
            assert_same_ciphertext(lazy[i], eager[i])
        t1, t2, t3 = lazy[1], lazy[2], lazy[3]
        product = evaluator.multiply(evaluator.mod_reduce(t1, t2.limb_count), t2)
        # ``×2`` after the sum: ``− T_1`` is weighted for half the product's scale.
        minus_t1 = evaluator.weighted_sum([(t1, -1.0)], product.level,
                                          scale=product.scale / 2)
        assert (t3.level, t3.scale) == (product.level, product.scale)
        modulus = math.prod(t3.moduli)
        for got, part, addend in ((t3.c0, product.c0, minus_t1.c0),
                                  (t3.c1, product.c1, minus_t1.c1)):
            want = int_coefficients(part.add(addend).multiply_scalar(2))
            gaps = {(g - w + modulus // 2) % modulus - modulus // 2
                    for g, w in zip(int_coefficients(got), want)}
            assert gaps <= {-2, 0, 2}
        assert_same_ciphertext(
            lazy[6], evaluator.add_scalar(times_int(evaluator.square(t3), 2), -1.0))
        for i, poly in lazy.items():
            assert poly.level == eager[i].level
            assert_close(decryptor.decrypt_values(poly, 8).real,
                         np.cos(i * np.arccos(ys)), 2e-3)

    def test_double_angle(self, evaluator, decryptor, encryptor, rng):
        ys = rng.uniform(-0.2, 0.2, 8)
        ct = encryptor.encrypt_values(np.cos(ys))
        result = double_angle(evaluator, ct, 2)
        assert_close(decryptor.decrypt_values(result, 8).real, np.cos(4 * ys), 5e-3)


@pytest.fixture(scope="module")
def lt_setup():
    """A small dedicated context with the rotation keys BSGS transforms need."""
    from repro.ckks.context import Context
    from repro.ckks.encryption import Decryptor, Encryptor
    from repro.ckks.evaluator import Evaluator
    from repro.ckks.keys import KeyGenerator
    from repro.ckks.params import CKKSParameters

    params = CKKSParameters(ring_degree=256, mult_depth=3, scale_bits=28,
                            dnum=2, first_mod_bits=30, label="lt-test")
    context = Context(params)
    probe = LinearTransform(context, np.ones((context.slots, context.slots)))
    rotations = sorted(
        set(range(1, probe.baby_steps))
        | {probe.baby_steps * j for j in range(1, probe.giant_steps)}
        | {step for factor in dft_factors(context.ring_degree, inverse=True)
           for step in LinearTransform(context, factor).required_rotations()}
    )
    keys = KeyGenerator(context, seed=99).generate(rotations, conjugation=True)
    return {
        "context": context,
        "evaluator": Evaluator(context, keys),
        "encryptor": Encryptor(context, keys.public_key, seed=5),
        "decryptor": Decryptor(context, keys.secret_key),
    }


@pytest.fixture(scope="module")
def small_context():
    """An N=2^6 context: construction checks need no keys."""
    from repro.ckks.context import Context
    from repro.ckks.params import CKKSParameters

    return Context(CKKSParameters(ring_degree=1 << 6, mult_depth=3, scale_bits=28,
                                  dnum=2, first_mod_bits=30, label="lt-small"))


def lt_baby_steps(context) -> int:
    """The baby-step count of a dense matrix's transform."""
    return LinearTransform(context, np.ones((context.slots, context.slots))).baby_steps


@pytest.fixture(scope="module")
def lt_chains(lt_setup):
    """``lt_setup`` and a dword (59-bit) twin at N=2^6."""
    from repro.ckks.context import Context
    from repro.ckks.encryption import Decryptor, Encryptor
    from repro.ckks.evaluator import Evaluator
    from repro.ckks.keys import KeyGenerator
    from repro.ckks.params import CKKSParameters

    params = CKKSParameters(ring_degree=1 << 6, mult_depth=3, scale_bits=59,
                            dnum=2, first_mod_bits=60, secret_hamming_weight=16,
                            label="lt-dword")
    context = Context(params)
    n1 = lt_baby_steps(context)
    rotations = sorted(set(range(1, n1)) | set(range(n1, context.slots, n1)))
    keys = KeyGenerator(context, seed=7).generate(rotations)
    dword = {
        "context": context,
        "evaluator": Evaluator(context, keys),
        "encryptor": Encryptor(context, keys.public_key, seed=8),
        "decryptor": Decryptor(context, keys.secret_key),
    }
    assert context.numeric_backend == "dword"
    return {"uint64": lt_setup, "dword": dword}


def banded_matrix(rng, slots: int, n1: int, shape: str) -> np.ndarray:
    """A random matrix whose nonzero generalized diagonals ``k`` are all
    (``dense``), only ``k < n1`` (``giant0-only``: no giant step rotates)
    or only ``k >= n1`` (``no-giant0``: every giant step rotates)."""
    dense = (rng.normal(size=(slots, slots)) + 1j * rng.normal(size=(slots, slots))) / slots
    rows = np.arange(slots)
    k = (np.arange(slots)[None, :] - rows[:, None]) % slots
    keep = {"dense": k >= 0, "giant0-only": k < n1, "no-giant0": k >= n1}[shape]
    return np.where(keep, dense, 0)


def giant_inner_products(transform, ev, ct) -> dict:
    """Each giant step's ``ptdot`` inner product over ``Q_l``, before rotation."""
    rotations = transform._baby_rotations(ev, ct)
    encoded = transform._encoded_diagonals(ct.limb_count)
    return {
        giant: ev.dot_product_plain([rotations[baby] for baby in plaintexts],
                                    list(plaintexts.values()), rescale=False)
        for giant, plaintexts in encoded.items()
    }


def merged_tail_operands(context, ev, inners: dict, n1: int):
    """``(A, D0, D1)``: the rotated inner products' hoisted key-switch
    accumulators summed over ``Q_l ∪ P``, and ``σ_j(u_j)`` plus the
    unrotated inner product summed over ``Q_l`` (``None`` where empty)."""
    accs = d0 = d1 = None

    def plus(total, poly):
        return poly if total is None else total.add(poly)

    for giant, inner in inners.items():
        if giant == 0:
            d0, d1 = plus(d0, inner.c0), plus(d1, inner.c1)
            continue
        step = giant * n1
        exponent = rotation_to_exponent(context.ring_degree, step)
        pair = apply_key(context, decompose_and_mod_up(context, inner.c1),
                         ev.keys.rotation_key(step, context.slots),
                         automorphism_exponent=exponent)
        accs = list(pair) if accs is None else [a.add(b) for a, b in zip(accs, pair)]
        d0 = plus(d0, inner.c0.automorphism(exponent))
    return accs, d0, d1


class TestLinearTransform:
    def test_decoding_matrix_identity(self, context):
        # sigma(m) = E0 (m_lo + i m_hi) for real coefficient vectors.
        n = 64
        e0 = decoding_matrix(n)
        rng = np.random.default_rng(0)
        coeffs = rng.normal(size=n)
        from repro.ckks.encoding import CKKSEncoder
        encoder = CKKSEncoder(n)
        sigma = encoder.project(coeffs)
        combined = coeffs[: n // 2] + 1j * coeffs[n // 2 :]
        assert_close(e0 @ combined, sigma, 1e-8)

    def test_apply_matches_numpy(self, lt_setup, rng):
        context = lt_setup["context"]
        slots = context.slots
        matrix = (rng.normal(size=(slots, slots)) + 1j * rng.normal(size=(slots, slots))) / slots
        message = rng.uniform(-0.5, 0.5, slots)
        transform = LinearTransform(context, matrix)
        ct = lt_setup["encryptor"].encrypt_values(message)
        result = transform.apply(lt_setup["evaluator"], ct)
        assert result.level == ct.level - 1
        assert_close(
            lt_setup["decryptor"].decrypt_values(result, slots),
            matrix @ message.astype(complex),
            1e-3,
        )

    def test_coeff_to_slot_chain_applied(self, lt_setup, rng):
        """The CoeffToSlot factors, applied one level each, decrypt to
        ``P·E0⁻¹`` times the slots: the coefficients in bit-reversed order."""
        context = lt_setup["context"]
        slots = context.slots
        message = rng.uniform(-0.5, 0.5, slots)
        ct = lt_setup["encryptor"].encrypt_values(message)
        result = ct
        for factor in dft_factors(context.ring_degree, inverse=True):
            result = LinearTransform(context, factor).apply(lt_setup["evaluator"], result)
        assert result.level == ct.level - dft_levels(slots)
        e0 = decoding_matrix(context.ring_degree)
        assert_close(
            lt_setup["decryptor"].decrypt_values(result, slots),
            bit_reversal(slots) @ np.linalg.solve(e0, message.astype(complex)),
            1e-3,
        )

    @pytest.mark.parametrize("shape", ["dense", "giant0-only", "no-giant0"])
    @pytest.mark.parametrize("chain", ["uint64", "dword"])
    def test_giant_steps_equal_the_pairwise_loop(self, lt_chains, chain, shape):
        """The giant steps end in one merged ModDown-rescale.

        (a) The output is ``round((A + P·D)/(P·q_l))`` on CRT-composed
        integers, with ``A`` the rotated inner products' key-switch
        accumulators over ``Q_l ∪ P`` and ``D`` the unrotated sums, both
        built here from the hoisted key-switch steps.  (b) It decrypts
        within 2^-20 of the ``rotate`` + ``add`` + ``rescale`` loop it
        replaced, and no farther from NumPy than that loop by more than
        those 2^-20: each tail rounds its value once (the loop's per-step
        ModDown errors shrink by ``q_l`` before its rescale rounds), so
        which of the two lands nearer on a given seed is chance.
        """
        setup = lt_chains[chain]
        context, ev = setup["context"], setup["evaluator"]
        rng = np.random.default_rng(17)
        slots = context.slots
        n1 = lt_baby_steps(context)
        matrix = banded_matrix(rng, slots, n1, shape)
        transform = LinearTransform(context, matrix, baby_steps=n1)
        message = rng.uniform(-0.5, 0.5, slots)
        ct = setup["encryptor"].encrypt_values(message)
        result = transform.apply(ev, ct)

        # (a) one exactly rounded division of A + P·D by P·q_l.
        inners = giant_inner_products(transform, ev, ct)
        accs, d0, d1 = merged_tail_operands(context, ev, inners, transform.baby_steps)
        assert (accs is None) == (shape == "giant0-only")
        assert (d1 is None) == (shape == "no-giant0")
        if d1 is None:
            d1 = RNSPoly.zeros(context.ring_degree, d0.moduli, fmt=LimbFormat.EVALUATION)
        if accs is None:
            extended = context.moduli_at(ct.limb_count) + context.special_moduli
            accs = [RNSPoly.zeros(context.ring_degree, extended, fmt=LimbFormat.EVALUATION)] * 2
        assert result.level == ct.level - 1
        # The diagonals sit at the scale that takes the level's ladder scale
        # to the next level's after the division by q_l.
        plain_scale = context.rescale_factor(
            ct.level - 1, context.scale_at(ct.level), context.scale_at(ct.level - 1))
        assert result.scale == ct.scale * plain_scale / ct.moduli[-1]
        for got, acc, d in zip((result.c0, result.c1), accs, (d0, d1)):
            np.testing.assert_array_equal(
                modmath.object_row(got.to_coefficient().data),
                expected_residues(context, acc, d, 1, ct.limb_count),
            )

        # (b) the pairwise loop: a ModDown per rotation, then a rescale.
        accumulator = None
        for giant, inner in inners.items():
            if giant:
                inner = ev.rotate(inner, giant * transform.baby_steps)
            accumulator = inner if accumulator is None else ev.add(accumulator, inner)
        pairwise = ev.rescale(accumulator)
        decrypt = setup["decryptor"].decrypt_values
        got, old = decrypt(result, slots), decrypt(pairwise, slots)
        assert np.max(np.abs(got - old)) <= 2.0 ** -20
        want = matrix @ message.astype(complex)
        assert np.max(np.abs(got - want)) <= np.max(np.abs(old - want)) + 2.0 ** -20

    @pytest.mark.parametrize("terms, message", [
        ("empty", "at least one term"),
        ("mixed-levels", "share one level"),
        ("level-0", "level-0"),
    ])
    def test_rotated_sum_rejects_bad_terms(self, lt_setup, terms, message):
        ev = lt_setup["evaluator"]
        ct = lt_setup["encryptor"].encrypt_values(np.ones(4))
        lower = ev.mod_reduce(ct, ct.limb_count - 1)
        pairs = {
            "empty": [],
            "mixed-levels": [(ct, 0), (lower, 0)],
            "level-0": [(ev.mod_reduce(ct, 1), 0)],
        }[terms]
        with pytest.raises(ValueError, match=message):
            ev.rotated_sum(pairs)

    def test_recorded_transform_is_scoped(self, lt_setup, rng):
        """Every event of a recorded transform carries an operation scope,
        the giant steps' key switches sit under ``hrotate`` and the merged
        tail under ``keyswitch/moddown``: no ``rescale`` scope is left."""
        from repro.core.dispatch import DISPATCH

        context, ev = lt_setup["context"], lt_setup["evaluator"]
        slots = context.slots
        matrix = rng.normal(size=(slots, slots)) / slots
        transform = LinearTransform(context, matrix)
        ct = lt_setup["encryptor"].encrypt_values(rng.uniform(-0.5, 0.5, slots))
        with DISPATCH.record() as trace:
            transform.apply(ev, ct)
        scopes = {event.scope for event in trace}
        assert all(scopes) and not any("rescale" in scope for scope in scopes)
        giant_switches = [
            event.scope for event in trace
            if event.kernel.name.startswith("ks-inner-product")
            and not event.scope.startswith("hoisted")
        ]
        assert giant_switches == ["hrotate/keyswitch"] * (transform.giant_steps - 1)
        tail = [event.kernel.name for event in trace if event.scope == "keyswitch/moddown"
                and event.kind == "transform"]
        alpha = len(context.special_moduli)
        limbs = ct.limb_count
        assert sorted(tail) == [f"intt[{alpha + 1}]"] * 2 + [f"ntt[{limbs - 1}]"] * 2

    def test_diagonal_matrix_uses_no_rotations(self, lt_setup):
        context = lt_setup["context"]
        transform = LinearTransform(context, np.eye(context.slots, dtype=complex))
        assert transform.required_rotations() == []

    @pytest.mark.parametrize("shape", [(3, 3), (4, 6), (256, 256), (128,)],
                             ids=["not-a-power-of-two", "non-dividing", "too-large",
                                  "vector"])
    def test_rejects_wrong_shape(self, lt_setup, shape):
        # A p_out x p_in matrix of powers of two dividing the slot count is a
        # periodic layout; anything else is refused.
        with pytest.raises(ValueError, match="matrix must be"):
            LinearTransform(lt_setup["context"], np.ones(shape, dtype=complex))

    @pytest.mark.parametrize("shape", [(16, 8), (8, 16), (16, 16)])
    def test_periodic_layout_matches_numpy(self, lt_setup, rng, shape):
        """A ``p_out x p_in`` matrix maps a message repeating every ``p_in``
        slots to the product repeating every ``p_out``, with at most
        ``p_in`` diagonals and only rotations whose keys are loaded."""
        context, ev = lt_setup["context"], lt_setup["evaluator"]
        p_out, p_in = shape
        matrix = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) / p_in
        keys = set(ev.keys.rotation_keys)
        transform = LinearTransform(context, matrix, rotations=keys)
        assert sum(map(len, transform._diagonals.values())) <= p_in
        assert set(transform.required_rotations()) <= keys
        message = rng.uniform(-0.5, 0.5, p_in)
        result = transform.apply(ev, lt_setup["encryptor"].encrypt_values(message))
        assert_close(lt_setup["decryptor"].decrypt_values(result, context.slots),
                     np.tile(matrix @ message, context.slots // p_out), 1e-3)

    def test_periodic_layout_without_a_serving_key_is_refused(self, small_context):
        with pytest.raises(ValueError, match="no baby-step split"):
            LinearTransform(small_context, np.ones((8, 8)), rotations=[1])

    @pytest.mark.parametrize("size", ["tiny", "large"])
    def test_zero_diagonals_are_relative_to_the_matrix(self, lt_setup, size):
        """A diagonal is zero relative to the matrix's largest entry.

        Regression: an absolute 1e-12 threshold dropped every diagonal of a
        dense matrix scaled by 1e-13 (``apply`` then called a nonzero matrix
        identically zero), and kept float residue of 1e-8 on the zero
        diagonals of a band scaled by 1e6."""
        context = lt_setup["context"]
        slots = context.slots
        rng = np.random.default_rng(3)
        if size == "tiny":
            matrix = 1e-13 * rng.normal(size=(slots, slots))
            expected = slots
        else:
            n1 = lt_baby_steps(context)
            band = banded_matrix(rng, slots, n1, "giant0-only")
            matrix = 1e6 * band + 1e-8 * np.where(band == 0, 1.0, 0.0)
            expected = n1
        transform = LinearTransform(context, matrix)
        assert sum(map(len, transform._diagonals.values())) == expected
        ct = lt_setup["encryptor"].encrypt_values(np.ones(4))
        assert transform.apply(lt_setup["evaluator"], ct).level == ct.level - 1

    def test_rejects_zero_matrix(self, lt_setup):
        context = lt_setup["context"]
        transform = LinearTransform(context, np.zeros((context.slots, context.slots), dtype=complex))
        ct = lt_setup["encryptor"].encrypt_values(np.ones(4))
        with pytest.raises(ValueError):
            transform.apply(lt_setup["evaluator"], ct)

    @pytest.mark.parametrize("baby_steps, error, message", [
        (0, ValueError, "baby_steps must be >= 1"),
        (-4, ValueError, "baby_steps must be >= 1"),
        (True, TypeError, "baby_steps must be an integer"),
        (2.0, TypeError, "baby_steps must be an integer"),
    ], ids=["zero", "negative", "bool", "float"])
    def test_rejects_bad_baby_steps(self, small_context, baby_steps, error, message):
        # Regression: 0 raised ZeroDivisionError, and -4, True and 2.0 were
        # accepted (-4 built no diagonals at all).
        context = small_context
        with pytest.raises(error, match=message):
            LinearTransform(context, np.eye(context.slots, dtype=complex),
                            baby_steps=baby_steps)

    @pytest.mark.parametrize("fill", ["all-nan", "one-nan", "one-inf"])
    def test_rejects_non_finite_matrix(self, small_context, fill):
        # Regression: an all-NaN matrix was reported as identically zero,
        # and one NaN entry only failed in apply after every baby step ran.
        context = small_context
        matrix = np.eye(context.slots, dtype=complex)
        if fill == "all-nan":
            matrix[:] = np.nan
        else:
            matrix[3, 5] = np.nan if fill == "one-nan" else np.inf
        with pytest.raises(ValueError, match="finite"):
            LinearTransform(context, matrix)

    def test_required_rotations_within_slot_range(self, lt_setup, rng):
        context = lt_setup["context"]
        matrix = rng.normal(size=(context.slots, context.slots)) / context.slots
        transform = LinearTransform(context, matrix)
        steps = transform.required_rotations()
        assert steps and all(0 < s < context.slots for s in steps)


class TestDFTFactors:
    """The bootstrap's DFTs are ``dft_levels`` sparse factors of ``E0``."""

    @pytest.mark.parametrize("log_n", range(5, 10))
    def test_factor_chain_is_the_dft(self, log_n):
        n = 1 << log_n
        slots = n // 2
        forward = dft_factors(n)
        inverse = dft_factors(n, inverse=True)
        assert len(forward) == len(inverse) == dft_levels(slots)
        e0 = decoding_matrix(n)
        assert np.max(np.abs(chained(forward) @ bit_reversal(slots) - e0)) < 1e-12
        assert np.max(np.abs(chained(inverse) @ e0 - bit_reversal(slots))) < 1e-12

    @pytest.mark.parametrize("log_n", range(5, 10))
    def test_factors_are_sparse(self, log_n):
        """A factor of ``r`` butterfly stages has ``2^(r+1) − 1`` nonzero
        diagonals, or ``2^r`` when its offsets wrap mod ``slots`` (the last
        factor, which holds the widest stage); its inverse has the same."""
        n = 1 << log_n
        slots = n // 2
        levels = dft_levels(slots)
        stages = log_n - 1
        runs = [stages * (i + 1) // levels - stages * i // levels for i in range(levels)]
        forward = dft_factors(n)
        inverse = dft_factors(n, inverse=True)[::-1]
        for index, (r, factor, undo) in enumerate(zip(runs, forward, inverse)):
            expected = (1 << r) if index == levels - 1 else (2 << r) - 1
            assert nonzero_diagonals(factor) == nonzero_diagonals(undo) == expected
        if n == 1 << 9:
            assert [nonzero_diagonals(f) for f in forward] == [31, 16]


class TestFusedCircuits:
    """A fused ciphertext walks whole circuits: bit-identical per member.

    Neither module knows about batches -- they only speak to the
    evaluator, which reads the member count off its operand.
    """

    @staticmethod
    def _assert_members_equal(fused, per_member):
        members = fused.split()
        assert len(members) == len(per_member) == 3
        for member, reference in zip(members, per_member):
            assert member.level == reference.level
            assert member.scale == reference.scale
            assert np.array_equal(member.c0.data, reference.c0.data)
            assert np.array_equal(member.c1.data, reference.c1.data)

    def test_linear_transform_on_a_fused_ciphertext(self, lt_setup, rng):
        from repro.ckks.ciphertext import Ciphertext

        context = lt_setup["context"]
        slots = context.slots
        matrix = (rng.normal(size=(slots, slots)) + 1j * rng.normal(size=(slots, slots))) / slots
        transform = LinearTransform(context, matrix)
        messages = [rng.uniform(-0.5, 0.5, slots) for _ in range(3)]
        cts = [lt_setup["encryptor"].encrypt_values(m) for m in messages]
        fused = transform.apply(lt_setup["evaluator"], Ciphertext.fuse(cts))
        assert fused.batch_size == 3
        self._assert_members_equal(
            fused, [transform.apply(lt_setup["evaluator"], ct) for ct in cts]
        )
        assert_close(
            lt_setup["decryptor"].decrypt_values(fused.split()[2], slots),
            matrix @ messages[2].astype(complex),
            1e-3,
        )

    def test_chebyshev_on_a_fused_ciphertext(self, evaluator, decryptor, encryptor, rng):
        from repro.ckks.ciphertext import Ciphertext

        rows = [rng.uniform(-0.9, 0.9, 8) for _ in range(3)]
        cts = [encryptor.encrypt_values(ys) for ys in rows]
        coeffs = chebyshev_coefficients(lambda x: np.cos(3 * x), 12)
        fused = evaluate_chebyshev(evaluator, Ciphertext.fuse(cts), coeffs)
        self._assert_members_equal(
            fused, [evaluate_chebyshev(evaluator, ct, coeffs) for ct in cts]
        )
        assert_close(
            decryptor.decrypt_values(fused.split()[1], 8).real, np.cos(3 * rows[1]), 5e-3
        )
