"""The merged ModDown-rescale tail of HMult and HSquare.

A rescaling product divides the relinearisation key switch's accumulators
``acc`` (over ``Q_l ∪ P``) plus the tensor's ``d`` (over ``Q_l``) by
``P·q_l`` in one exactly rounded conversion
(:func:`repro.ckks.keyswitch.mod_down_rescale_many`).  The contract, on
every word-size chain, both member counts and two levels:

(a) every output residue is ``round((acc + P·d) / (P·q_l))``, computed here
    from CRT-composed Python integers;
(b) the output is bit-identical to the two-step tail it replaces -- a
    ModDown (:func:`mod_down_many`), the relinearisation add and a
    rescale (:meth:`RNSPoly.rescale_last_many`) -- on these fixed seeds.

And a rescaling product of a level-0 operand fails before it launches
anything, on the data plane and on its symbolic twin.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.ckks import chebyshev
from repro.ckks.keyswitch import (
    apply_key,
    decompose_and_mod_up,
    mod_down_many,
    mod_down_rescale_many,
)
from repro.core import modmath
from repro.core.rns_poly import RNSPoly
from tests.conftest import assert_same_ciphertext, int_coefficients, times_int

from test_recorded_stream import CHAINS, make_session


@pytest.fixture(scope="module")
def sessions():
    # The exact chain computes on Python integers: a smaller ring.
    return {
        chain: make_session(chain, ring_log2=5 if chain == "exact" else 6, dnum=2)
        for chain in CHAINS
    }


def tensor(x, y, square: bool):
    """The evaluator's tensor product ``(d0, d1, d2)`` of two handles."""
    if square:
        d1 = x.c0.multiply(x.c1)
        d1 = d1.add(d1)
        return x.c0.multiply(x.c0), d1, x.c1.multiply(x.c1)
    return (
        x.c0.multiply(y.c0),
        RNSPoly.multiply_accumulate([(x.c0, y.c1), (x.c1, y.c0)]),
        x.c1.multiply(y.c1),
    )


def integers(poly: RNSPoly, members: int) -> list[list[int]]:
    """Each member's coefficients as Python integers (CRT-composed)."""
    return [int_coefficients(member) for member in poly.split(members)]


def expected_residues(context, acc, d, members: int, limb_count: int) -> np.ndarray:
    """``round((acc + P·d) / (P·q_l))`` mod ``q_0..q_{l-1}``, member-major."""
    big_p = context.p_modulus
    big_m = big_p * context.moduli[limb_count - 1]
    moduli = context.moduli[: limb_count - 1]
    rows = []
    for acc_m, d_m in zip(integers(acc, members), integers(d, members)):
        # M is odd, so round-half-up is the rounding: there is no tie.
        rounded = [(2 * (a + big_p * b) + big_m) // (2 * big_m)
                   for a, b in zip(acc_m, d_m)]
        rows += [[value % q for value in rounded] for q in moduli]
    return np.array(rows, dtype=object)


@pytest.mark.parametrize("square", [False, True], ids=["hmult", "hsquare"])
@pytest.mark.parametrize("levels_down", [0, 2], ids=["top", "two-down"])
@pytest.mark.parametrize("members", [1, 3], ids=["B1", "B3"])
@pytest.mark.parametrize("chain", sorted(CHAINS))
def test_the_tail_rounds_once_and_equals_the_two_step_tail(
        chain, members, levels_down, square, sessions):
    session = sessions[chain]
    context, evaluator = session.context, session.evaluator
    rng = np.random.default_rng(41)

    def operand():
        rows = [rng.uniform(-1, 1, 8) for _ in range(members)]
        ct = session.encrypt_batch(rows) if members > 1 else session.encrypt(rows[0])
        return ct.at_level(ct.level - levels_down).handle

    x, y = operand(), operand()
    limb_count = x.limb_count
    d0, d1, d2 = tensor(x, y, square)
    decomposed = decompose_and_mod_up(context, d2)
    accs = list(apply_key(context, decomposed, session.keys.relinearization_key))
    merged = mod_down_rescale_many(context, accs, [d0, d1])

    # The evaluator ends its product in exactly this tail.
    product = evaluator.square(x) if square else evaluator.multiply(x, y)
    for got, want in zip((product.c0, product.c1), merged):
        np.testing.assert_array_equal(got.data, want.data)

    # (a) one exactly rounded division by P·q_l.
    for acc, d, got in zip(accs, (d0, d1), merged):
        want = expected_residues(context, acc, d, members, limb_count)
        np.testing.assert_array_equal(
            modmath.object_row(got.to_coefficient().data), want
        )

    # (b) the parent's ModDown, relinearisation add and rescale.
    delta0, delta1 = mod_down_many(context, accs)
    two_step = RNSPoly.rescale_last_many([d0.add(delta0), d1.add(delta1)])
    for got, want in zip(merged, two_step):
        assert got.moduli == want.moduli
        np.testing.assert_array_equal(got.data, want.data)


@pytest.mark.parametrize("op", ["multiply", "square", "multiply-mixed-levels"])
def test_a_level0_product_fails_before_it_launches(op, sessions):
    session = sessions["uint64"]
    for producer in (session.backend, session.cost_backend()):
        low = producer.encrypt(np.linspace(-1, 1, 8), level=0)
        high = producer.encrypt(np.linspace(-1, 1, 8))
        with session.trace() as trace:
            with pytest.raises(ValueError, match="level-0"):
                if op == "square":
                    producer.square(low)
                elif op == "multiply":
                    producer.multiply(low, low)
                else:
                    producer.multiply(high, low)
        assert trace.kernel_count == 0 and len(trace) == 0, producer.name


@pytest.mark.parametrize("members", [1, 3], ids=["B1", "B3"])
@pytest.mark.parametrize("chain", ["uint64", "dword"])
def test_a_double_folds_its_x2_and_minus_1_into_the_tail(chain, members, sessions):
    """``2·x² − 1`` as one HSquare (the ``×2`` scaling the tail's
    constants, the ``− 1`` added before the division as a multiple of
    ``q_l``) is bit-identical to a square, a ``×2`` of every residue and
    ``add_scalar(·, −1)``, and launches no scalar kernel of its own."""
    session = sessions[chain]
    evaluator = session.evaluator
    rng = np.random.default_rng(43)
    rows = [rng.uniform(-1, 1, 8) for _ in range(members)]
    x = (session.encrypt_batch(rows) if members > 1 else session.encrypt(rows[0])).handle
    with session.trace() as trace:
        folded = chebyshev._double(evaluator, x)
    assert not {"scalarmult", "scalaradd"} & {
        k.name.split("[")[0] for k in trace.kernels()}
    two_step = evaluator.add_scalar(
        times_int(evaluator.square(x), 2), -1.0)
    assert_same_ciphertext(folded, two_step)


@pytest.mark.parametrize("members", [1, 3], ids=["B1", "B3"])
@pytest.mark.parametrize("chain", ["uint64", "dword"])
def test_a_product_term_carries_its_addends_within_one_rounding(chain, members, sessions):
    """``product_sum(a, b, l, [(r1, c1), (r2, c2)], constant=k)`` rounds
    once: every coefficient of both components is within 1 of
    ``multiply(a, b)`` plus ``weighted_sum([(r1, c1), (r2, c2)])`` at the
    product's scale plus ``k``, which round the product and the addends
    apart.  ``r2`` sits a level higher and is mod-reduced."""
    session = sessions[chain]
    evaluator = session.evaluator
    rng = np.random.default_rng(47)

    def operand(down):
        rows = [rng.uniform(-1, 1, 8) for _ in range(members)]
        ct = session.encrypt_batch(rows) if members > 1 else session.encrypt(rows[0])
        return ct.at_level(ct.level - down).handle

    a, b, r1, r2 = operand(1), operand(1), operand(1), operand(0)
    level = a.level - 1
    terms, constant = [(r1, 0.375), (r2, -1.25)], 0.5
    with session.trace() as trace:
        fused = evaluator.product_sum(a, b, level, terms, constant=constant)
    # One HMult's kernels: the addends ride in the tensor launch.
    assert "rescale" not in {k.name.split("[")[0] for k in trace.kernels()}
    product = evaluator.multiply(a, b)
    apart = evaluator.add_scalar(evaluator.add(
        product, evaluator.weighted_sum(terms, level, scale=product.scale)), constant)
    assert (fused.level, fused.scale) == (apart.level, apart.scale)
    modulus = math.prod(fused.moduli)
    for got, want in ((fused.c0, apart.c0), (fused.c1, apart.c1)):
        for got_m, want_m in zip(integers(got, members), integers(want, members)):
            gap = [(g - w + modulus // 2) % modulus - modulus // 2
                   for g, w in zip(got_m, want_m)]
            assert max(map(abs, gap)) <= 1
