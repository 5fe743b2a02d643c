"""Unit and property tests for the modular-arithmetic primitives: the
scalar helpers and the batched ``stack_*`` kernels (Table III reductions)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import modmath
from repro.core.primes import generate_ntt_primes

PRIMES = {
    "small": generate_ntt_primes(1, 20, 64)[0],
    "fast": generate_ntt_primes(1, 30, 1024)[0],
    "word": generate_ntt_primes(1, 59, 1024)[0],
    "exact": generate_ntt_primes(1, 63, 64)[0],
}


@pytest.fixture(params=sorted(PRIMES))
def modulus(request):
    return PRIMES[request.param]


class TestScalarHelpers:
    def test_inv_mod(self, modulus):
        for value in (2, 3, 12345 % modulus):
            inv = modmath.inv_mod(value, modulus)
            assert (value * inv) % modulus == 1

    def test_pow_mod_fermat(self, modulus):
        assert modmath.pow_mod(7, modulus - 1, modulus) == 1


def one_row(values, q):
    """A one-row stack of ``values`` in the backend ``q`` selects, plus its column."""
    col = modmath.moduli_column([q])
    return modmath.lift_residues([values], col), col


def row_values(stack):
    """Python-integer residues of a one-row stack."""
    return [int(x) for x in stack[0]]


class TestVectorised:
    """The ``stack_*`` kernels on a one-row stack against Python integers."""

    @pytest.fixture(params=["fast", "word"])
    def vec_modulus(self, request):
        return PRIMES[request.param]

    def _random(self, q, n=257, seed=0):
        rng = np.random.default_rng(seed)
        values = [int(rng.integers(0, q)) for _ in range(n)]
        return one_row(values, q)[0], values

    def test_dtype_selection(self):
        fast = modmath.as_residue_array([1, 2], PRIMES["fast"])
        word = modmath.as_residue_array([1, 2], PRIMES["word"])
        exact = modmath.as_residue_array([1, 2], (1 << 62) + 1)
        # A residue below 2**62 is one uint64 word, for one modulus or a stack.
        assert fast.dtype == np.uint64 and word.dtype == np.uint64
        assert exact.dtype == np.object_
        stack, col = one_row([1, 2], PRIMES["word"])
        assert stack.dtype == np.uint64 and stack.shape == (1, 2)
        assert modmath.stack_backend(col) == modmath.BACKEND_DWORD

    def test_vec_add(self, vec_modulus):
        q = vec_modulus
        a, av = self._random(q, seed=1)
        b, bv = self._random(q, seed=2)
        out = modmath.stack_add_mod(a, b, modmath.moduli_column([q]))
        assert row_values(out) == [(x + y) % q for x, y in zip(av, bv)]

    def test_vec_sub(self, vec_modulus):
        q = vec_modulus
        a, av = self._random(q, seed=3)
        b, bv = self._random(q, seed=4)
        out = modmath.stack_sub_mod(a, b, modmath.moduli_column([q]))
        assert row_values(out) == [(x - y) % q for x, y in zip(av, bv)]

    def test_vec_mul(self, vec_modulus):
        q = vec_modulus
        a, av = self._random(q, seed=5)
        b, bv = self._random(q, seed=6)
        out = modmath.stack_mul_mod(a, b, modmath.moduli_column([q]))
        assert row_values(out) == [(x * y) % q for x, y in zip(av, bv)]

    def test_vec_mul_scalar(self, vec_modulus):
        q = vec_modulus
        a, av = self._random(q, seed=7)
        out = modmath.stack_scalar_mod(a, [12345], modmath.moduli_column([q]))
        assert row_values(out) == [(x * 12345) % q for x in av]

    def test_vec_neg(self, vec_modulus):
        q = vec_modulus
        a, av = self._random(q, seed=8)
        out = modmath.stack_neg_mod(a, modmath.moduli_column([q]))
        assert row_values(out) == [(-x) % q for x in av]

    def test_switch_modulus_centred(self):
        q_from, q_to = PRIMES["fast"], PRIMES["small"]
        values = [1, 2, q_from - 1, q_from - 2, q_from // 2]
        row = modmath.as_residue_array(np.array(values, dtype=object), q_from)
        out = modmath.stack_switch_modulus_many(
            row[None, :], q_from, modmath.moduli_column([q_to]))
        half = q_from >> 1
        expected = [((v - q_from) if v > half else v) % q_to for v in values]
        assert row_values(out) == expected

    def test_as_residue_array_negative_values(self):
        q = PRIMES["fast"]
        arr = modmath.as_residue_array(np.array([-1, -q, q + 5], dtype=object), q)
        assert [int(x) for x in arr] == [q - 1, 0, 5]

    def test_zeros(self, vec_modulus):
        z = modmath.stack_zeros(1, 16, modmath.moduli_column([vec_modulus]))
        assert z.shape[0] == 1 and z.shape[-1] == 16
        assert row_values(z) == [0] * 16


class TestStackEdgeCases:
    """Wrap-around edges and Table III reductions on a one-row stack, for
    every backend the ``modulus`` fixture selects (``small``/``fast``:
    uint64, ``word``: dword, ``exact``: object)."""

    @staticmethod
    def _apply(kernel, q, *operands):
        col = modmath.moduli_column([q])
        rows = [one_row(list(values), q)[0] for values in operands]
        return row_values(kernel(*rows, col))

    def test_backend_of_each_modulus(self, modulus):
        expected = {
            PRIMES["small"]: modmath.BACKEND_UINT64,
            PRIMES["fast"]: modmath.BACKEND_UINT64,
            PRIMES["word"]: modmath.BACKEND_DWORD,
            PRIMES["exact"]: modmath.BACKEND_OBJECT,
        }[modulus]
        assert modmath.stack_backend(modmath.moduli_column([modulus])) == expected

    def test_add_wraps(self, modulus):
        q = modulus
        assert self._apply(modmath.stack_add_mod, q, [q - 1, q - 1], [1, q - 1]) == [
            0, q - 2]

    def test_add_no_wrap(self, modulus):
        assert self._apply(modmath.stack_add_mod, modulus, [2, 0], [3, 0]) == [5, 0]

    def test_sub_wraps(self, modulus):
        q = modulus
        assert self._apply(modmath.stack_sub_mod, q, [0, 0], [1, q - 1]) == [q - 1, 1]

    def test_neg_zero(self, modulus):
        assert self._apply(modmath.stack_neg_mod, modulus, [0, 0]) == [0, 0]

    def test_neg_inverse(self, modulus):
        q = modulus
        values = [1, 5, q // 2, q - 1]
        col = modmath.moduli_column([q])
        row = one_row(values, q)[0]
        total = modmath.stack_add_mod(row, modmath.stack_neg_mod(row, col), col)
        assert row_values(total) == [0] * len(values)

    def test_mul_matches_python(self, modulus):
        q = modulus
        a, b = q - 3, q - 7
        assert self._apply(modmath.stack_mul_mod, q, [a], [b]) == [(a * b) % q]

    def test_mul_of_largest_residues(self, modulus):
        q = modulus
        assert self._apply(modmath.stack_mul_mod, q, [q - 1], [q - 1]) == [1]

    def test_mul_reduces_random_products(self, modulus):
        q = modulus
        rng = np.random.default_rng(0)
        a = [int(rng.integers(0, min(q, 1 << 62))) % q for _ in range(200)]
        b = [int(rng.integers(0, min(q, 1 << 62))) % q for _ in range(200)]
        a[:2], b[:2] = [q - 1, 0], [q - 1, q - 1]
        assert self._apply(modmath.stack_mul_mod, q, a, b) == [
            (x * y) % q for x, y in zip(a, b)]

    def test_constant_multiply_matches_mul(self, modulus):
        q = modulus
        rng = np.random.default_rng(1)
        values = [0, 1, q - 1] + [int(rng.integers(0, min(q, 1 << 62))) for _ in range(29)]
        row, col = one_row(values, q)
        for constant in [0, 1, q - 1] + [int(rng.integers(0, min(q, 1 << 62))) for _ in range(12)]:
            out = modmath.stack_scalar_mod(row, [constant], col)
            assert row_values(out) == [(v * constant) % q for v in values]

    def test_dot_matches_sum_of_products(self, modulus):
        q = modulus
        rng = np.random.default_rng(2)
        col = modmath.moduli_column([q])
        values = [
            ([int(rng.integers(0, min(q, 1 << 62))) for _ in range(16)],
             [q - 1] * 8 + [int(rng.integers(0, min(q, 1 << 62))) for _ in range(8)])
            for _ in range(6)
        ]
        pairs = [(one_row(x, q)[0], one_row(y, q)[0]) for x, y in values]
        expected = [sum(x[j] * y[j] for x, y in values) % q for j in range(16)]
        assert row_values(modmath.stack_dot_mod(pairs, col)) == expected


@pytest.mark.parametrize("name", ["small", "fast", "word"])
def test_lazy_shoup_stays_in_its_bound(name):
    """A word-backend Shoup product is congruent and below 2q (uint64) or 4q (dword)."""
    q = PRIMES[name]
    col = modmath.moduli_column([q])
    dword = modmath.stack_is_dword(col)
    rng = np.random.default_rng(3)
    values = [0, 1, q - 1] + [int(rng.integers(0, q)) for _ in range(61)]
    row = one_row(values, q)[0]
    for w in (1, q - 1, int(rng.integers(0, q))):
        constant = modmath.scalar_column([w], col)
        companion = (modmath.dword_shoup_column(constant, col) if dword
                     else modmath.shoup_column(constant, col))
        lazy = modmath.stack_shoup_mul(row, constant, companion, col, lazy=True)
        bound = (4 if dword else 2) * q
        assert all(int(x) < bound and int(x) % q == v * w % q
                   for x, v in zip(lazy[0], values))


@given(a=st.integers(min_value=0, max_value=2**59), b=st.integers(min_value=0, max_value=2**59))
@settings(max_examples=200, deadline=None)
def test_dword_barrett_mul_property(a, b):
    q = PRIMES["word"]
    col = modmath.moduli_column([q])
    x, y = one_row([a % q], q)[0], one_row([b % q], q)[0]
    assert row_values(modmath.stack_mul_mod(x, y, col)) == [((a % q) * (b % q)) % q]


@given(a=st.integers(min_value=0, max_value=2**62), b=st.integers(min_value=0, max_value=2**62))
@settings(max_examples=200, deadline=None)
def test_dword_shoup_matches_barrett_property(a, b):
    q = PRIMES["word"]
    col = modmath.moduli_column([q])
    x = one_row([a % q], q)[0]
    constant = modmath.scalar_column([b % q], col)
    shoup = modmath.stack_shoup_mul(
        x, constant, modmath.dword_shoup_column(constant, col), col)
    assert row_values(shoup) == row_values(modmath.stack_mul_mod(x, constant, col))


@given(st.lists(st.integers(min_value=-(2**40), max_value=2**40), min_size=1, max_size=64))
@settings(max_examples=100, deadline=None)
def test_vector_add_neg_is_zero_property(values):
    q = PRIMES["fast"]
    stack, col = one_row(values, q)
    total = modmath.stack_add_mod(stack, modmath.stack_neg_mod(stack, col), col)
    assert row_values(total) == [0] * len(values)


# ---------------------------------------------------------------------------
# the one signed-integers -> residues lift
# ---------------------------------------------------------------------------

#: One column per stack dtype decision: single-word, double-word, exact.
LIFT_MODULI = {
    "uint64": generate_ntt_primes(3, 28, 64),
    "dword": generate_ntt_primes(3, 59, 64),
    "object": [(1 << 62) + 57, generate_ntt_primes(1, 63, 64)[0], 97],
}
_WORD_EDGE = (1 << 62) - 1


def _lift_values(moduli, *, past_int64):
    edges = [0, -1, _WORD_EDGE, -_WORD_EDGE, -(1 << 63), (1 << 63) - 1]
    for q in moduli:
        edges += [q, -q, q - 1, 1 - q]
    if past_int64:
        edges += [1 << 63, -(1 << 63) - 1, (1 << 64) + 3, -(1 << 200)]
    bound = (1 << 200) if past_int64 else _WORD_EDGE
    return st.lists(
        st.sampled_from(edges) | st.integers(min_value=-bound, max_value=bound),
        min_size=0, max_size=32,
    )


class TestLiftResidues:
    """``lift_residues`` equals per-element ``int(v) % q``, whatever the dtypes."""

    @staticmethod
    def _check(values, moduli):
        col = modmath.moduli_column(moduli)
        lifted = modmath.lift_residues(values, col)
        assert lifted.dtype == col.dtype and lifted.shape == (len(moduli), len(values))
        assert [[int(x) for x in row] for row in lifted] == [
            [int(v) % q for v in values] for q in moduli
        ]

    @pytest.mark.parametrize("name", sorted(LIFT_MODULI))
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_int64_input(self, name, data):
        moduli = LIFT_MODULI[name]
        values = data.draw(_lift_values(moduli, past_int64=False))
        self._check(np.array(values, dtype=np.int64), moduli)

    @pytest.mark.parametrize("name", sorted(LIFT_MODULI))
    @pytest.mark.parametrize("container", [list, lambda v: np.array(v, dtype=object)])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_exact_input(self, name, container, data):
        moduli = LIFT_MODULI[name]
        self._check(container(data.draw(_lift_values(moduli, past_int64=True))), moduli)

    def test_unsigned_words_are_not_reinterpreted_as_signed(self):
        values = np.array([(1 << 64) - 1, 1 << 63, 5], dtype=np.uint64)
        self._check(values, LIFT_MODULI["dword"])

    def test_rows_reduce_against_their_own_modulus(self):
        moduli = LIFT_MODULI["dword"]
        rows = np.array([[-1, q, q + 5] for q in moduli], dtype=np.int64)
        lifted = modmath.lift_residues(rows, modmath.moduli_column(moduli))
        assert lifted.tolist() == [[q - 1, 0, 5] for q in moduli]

    @given(st.lists(st.floats(min_value=-2.0**70, max_value=2.0**70), max_size=32)
           | st.lists(st.integers(-(1 << 20), 1 << 20).map(lambda k: k + 0.5), max_size=32))
    @settings(max_examples=100, deadline=None)
    def test_rint_integers_is_python_round(self, floats):
        rounded = modmath.rint_integers(np.array(floats, dtype=np.float64))
        assert [int(v) for v in rounded] == [int(round(v)) for v in floats]
        small = all(abs(round(v)) < (1 << 62) for v in floats)
        assert rounded.dtype == (np.int64 if small else np.object_)


# ---------------------------------------------------------------------------
# double-word stack kernels (products of residues in [2**31, 2**62))
# ---------------------------------------------------------------------------

#: Moduli straddling the dword regime: just above the single-word cutoff
#: (2**31), at the paper's word size (59 bits) and just under the dword
#: cap (2**62).
DWORD_PRIME_SETS = {
    "near-2^31": generate_ntt_primes(3, 32, 64),
    "59-bit": generate_ntt_primes(3, 59, 64),
    "near-2^62": generate_ntt_primes(3, 62, 64),
}


def test_backend_decision_boundaries():
    assert modmath.backend_for_moduli([(1 << 31) - 1]) == modmath.BACKEND_UINT64
    assert modmath.backend_for_moduli([1 << 31]) == modmath.BACKEND_DWORD
    assert modmath.backend_for_moduli([(1 << 62) - 1]) == modmath.BACKEND_DWORD
    assert modmath.backend_for_moduli([1 << 62]) == modmath.BACKEND_OBJECT
    # Mixed chains classify on the widest modulus.
    assert modmath.backend_for_moduli([17, 1 << 40]) == modmath.BACKEND_DWORD


class TestDwordStackKernels:
    """Dword ``stack_*`` kernels are bit-identical to the object oracle."""

    N = 64

    def _operands(self, name, seed):
        moduli = DWORD_PRIME_SETS[name]
        col = modmath.moduli_column(moduli)
        assert modmath.stack_backend(col) == modmath.BACKEND_DWORD
        obj_col = np.array([int(q) for q in moduli], dtype=object).reshape(-1, 1)
        rng = np.random.default_rng(seed)
        a_obj = np.array(
            [[int(x) for x in rng.integers(0, q, self.N)] for q in moduli],
            dtype=object,
        )
        b_obj = np.array(
            [[int(x) for x in rng.integers(0, q, self.N)] for q in moduli],
            dtype=object,
        )
        a = modmath.coerce_stack(a_obj, col)
        b = modmath.coerce_stack(b_obj, col)
        assert a.dtype == b.dtype == np.uint64 and a.shape == a_obj.shape
        return moduli, col, obj_col, a_obj, b_obj, a, b

    @staticmethod
    def _assert_same(dword_out, obj_out):
        assert dword_out.dtype == np.uint64 and dword_out.shape == obj_out.shape
        assert dword_out.tolist() == [[int(x) for x in row] for row in obj_out]

    @pytest.mark.parametrize("name", sorted(DWORD_PRIME_SETS))
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_elementwise_matches_object(self, name, seed):
        _, col, obj_col, a_obj, b_obj, a, b = self._operands(name, seed)
        self._assert_same(
            modmath.stack_add_mod(a, b, col), (a_obj + b_obj) % obj_col
        )
        self._assert_same(
            modmath.stack_sub_mod(a, b, col), (a_obj - b_obj) % obj_col
        )
        self._assert_same(
            modmath.stack_mul_mod(a, b, col), (a_obj * b_obj) % obj_col
        )
        self._assert_same(modmath.stack_neg_mod(a, col), (-a_obj) % obj_col)

    @pytest.mark.parametrize("name", sorted(DWORD_PRIME_SETS))
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_constant_multiplies_match_object(self, name, seed):
        moduli, col, obj_col, a_obj, _, a, _ = self._operands(name, seed)
        rng = np.random.default_rng(seed + 1)
        scalars = [int(rng.integers(0, q)) for q in moduli]
        obj_scalars = np.array(scalars, dtype=object).reshape(-1, 1)
        self._assert_same(
            modmath.stack_scalar_mod(a, scalars, col),
            (a_obj * obj_scalars) % obj_col,
        )
        constants = modmath.scalar_column(scalars, col)
        shoup = modmath.dword_shoup_column(constants, col)
        self._assert_same(
            modmath.stack_shoup_mul(a, constants, shoup, col),
            (a_obj * obj_scalars) % obj_col,
        )

    @pytest.mark.parametrize("name", sorted(DWORD_PRIME_SETS))
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_dot_product_matches_object(self, name, seed):
        _, col, obj_col, *_ = self._operands(name, seed)
        pairs, expected = [], None
        for term in range(5):  # > 4 terms exercises accumulator handling
            _, _, _, x_obj, y_obj, x, y = self._operands(name, seed + 7 * term)
            pairs.append((x, y))
            product = (x_obj * y_obj) % obj_col
            expected = (
                product if expected is None else (expected + product) % obj_col
            )
        self._assert_same(modmath.stack_dot_mod(pairs, col), expected)

    @pytest.mark.parametrize("name", sorted(DWORD_PRIME_SETS))
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_switch_modulus_matches_object(self, name, seed):
        moduli, _, _, a_obj, *_ = self._operands(name, seed)
        q_from = moduli[-1]
        target = moduli[:-1]
        col = modmath.moduli_column(target)
        row = modmath.coerce_stack(
            a_obj[-1:].copy(), modmath.moduli_column([q_from])
        )[0]
        switched = modmath.stack_switch_modulus_many(row[None, :], q_from, col)
        half = q_from >> 1
        centred = [
            int(v) - q_from if int(v) > half else int(v) for v in a_obj[-1]
        ]
        expected = np.array(
            [[c % q for c in centred] for q in target], dtype=object
        )
        self._assert_same(switched, expected)


# ---------------------------------------------------------------------------
# the three-product Shoup quotient and the constant-side dot product
# ---------------------------------------------------------------------------

#: Where the lazy ``[0, 4q)`` bound is tightest: just above the single-word
#: cutoff, at the paper's 59-bit word (eight lazy terms fit a word) and
#: just below 2**62 (``4q`` all but fills it, one term per fold).
SHOUP_MODULI = {
    "above-2^31": generate_ntt_primes(1, 32, 64, descending_from_top=False)[0],
    "2^59": generate_ntt_primes(1, 59, 64)[0],
    "below-2^62": generate_ntt_primes(1, 62, 64)[0],
}

_WORD_VALUES = st.lists(
    st.sampled_from([0, 1, (1 << 64) - 1, (1 << 63), (1 << 62) - 1])
    | st.integers(min_value=0, max_value=(1 << 64) - 1),
    min_size=1, max_size=16,
)


@pytest.mark.parametrize("name", sorted(SHOUP_MODULI))
@given(xs=_WORD_VALUES, w=st.integers(min_value=0, max_value=(1 << 62) - 1))
@settings(max_examples=80, deadline=None)
def test_three_product_quotient_bounds(name, xs, w):
    """For any uint64 ``x`` the estimate is at most 3 short and never over."""
    q = SHOUP_MODULI[name]
    w %= q
    col = modmath.moduli_column([q])
    x = np.array([xs], dtype=np.uint64)
    constant = np.array([[w]], dtype=np.uint64)
    companion = modmath.dword_shoup_column(constant, col)
    assert int(companion[0, 0]) == (w << 64) // q
    estimate = modmath._dword_shoup_quotient(
        x, companion >> np.uint64(32), companion & np.uint64(0xFFFFFFFF),
        np.empty_like(x), np.empty_like(x),
    )
    lazy = modmath.stack_shoup_mul(x, constant, companion, col, lazy=True)
    exact = modmath.stack_shoup_mul(x, constant, companion, col)
    for value, est, low, canonical in zip(xs, estimate[0], lazy[0], exact[0]):
        quotient = value * w // q
        assert quotient - 3 <= int(est) <= quotient
        assert int(low) < 4 * q and int(low) % q == value * w % q
        assert int(canonical) == value * w % q


#: Chains for the accumulation budget: near 2**59 the sum of lazy terms
#: runs several terms before a fold, near 2**62 one term per fold.
BUDGET_CHAINS = {
    "near-2^59": generate_ntt_primes(3, 59, 64),
    "near-2^62": generate_ntt_primes(3, 62, 64),
}


class TestConstantSideDot:
    """``stack_dot_mod`` with Shoup companions equals the object oracle.

    A companion term takes any uint64 ``x``: ``wide`` draws ``x`` from the
    whole word, and ``3q`` keeps only the rare draws whose lazy term lies
    in ``[3q, 4q)`` -- the terms that overflow a word next to a folded sum
    near 2**62 unless the schedule halves them first.
    """

    @staticmethod
    def _pairs(moduli, count, seed, draw="canonical"):
        col = modmath.moduli_column(moduli)
        rng = np.random.default_rng(seed)

        def one(q, size):
            high = (1 << 64) - 1 if draw != "canonical" else q
            x = rng.integers(0, high, (1, size), dtype=np.uint64)
            y = rng.integers(0, q, (1, size), dtype=np.uint64)
            return x, y

        def pair():
            xs, ys = [], []
            for q in moduli:
                if draw == "3q":
                    qcol = modmath.moduli_column([q])
                    x, y = one(q, 40000)
                    lazy = modmath.stack_shoup_mul(
                        x, y, modmath.dword_shoup_column(y, qcol), qcol, lazy=True
                    )
                    keep = np.flatnonzero(lazy[0] >= np.uint64(3 * q))[:8]
                    assert keep.size == 8
                    x, y = x[:, keep], y[:, keep]
                else:
                    x, y = one(q, 8)
                xs.append(x)
                ys.append(y)
            x, y = np.concatenate(xs), np.concatenate(ys)
            return x, y, modmath.dword_shoup_column(y, col)

        return col, [pair() for _ in range(count)]

    @staticmethod
    def _oracle(moduli, pairs):
        return [
            [sum(int(x[i, j]) * int(y[i, j]) for x, y, _ in pairs) % q
             for j in range(pairs[0][0].shape[1])]
            for i, q in enumerate(moduli)
        ]

    @pytest.mark.parametrize("chain", sorted(BUDGET_CHAINS))
    @pytest.mark.parametrize("count", range(1, 9))
    @pytest.mark.parametrize("draw", ["canonical", "wide", "3q"])
    def test_every_fold_schedule_matches_object(self, chain, count, draw):
        moduli = BUDGET_CHAINS[chain]
        col, pairs = self._pairs(moduli, count, seed=count, draw=draw)
        out = modmath.stack_dot_mod(pairs, col)
        assert out.dtype == np.uint64
        assert out.tolist() == self._oracle(moduli, pairs)
        if draw == "canonical":
            # Barrett products (no companions) and a mixed list agree.
            barrett = modmath.stack_dot_mod([p[:2] for p in pairs], col)
            assert barrett.tolist() == out.tolist()
            mixed = [p if i % 2 else p[:2] for i, p in enumerate(pairs)]
            assert modmath.stack_dot_mod(mixed, col).tolist() == out.tolist()

    def test_out_receives_the_sum(self):
        moduli = BUDGET_CHAINS["near-2^62"]
        col, pairs = self._pairs(moduli, 5, seed=11)
        out = np.empty((len(moduli), 16), dtype=np.uint64)[:, ::2]
        assert modmath.stack_dot_mod(pairs, col, out=out) is out
        assert out.tolist() == self._oracle(moduli, pairs)

    def test_recorded_kernel_reads_the_products_alone(self):
        from repro.core.dispatch import DISPATCH

        col, pairs = self._pairs(BUDGET_CHAINS["near-2^59"], 2, seed=5)
        with DISPATCH.record() as trace:
            modmath.stack_dot_mod(pairs, col)
        (event,) = trace.events
        assert event.kernel.name.startswith("stack-dot")
        assert len(event.reads) == 4
        assert event.kernel.bytes_read == 4 * pairs[0][0].nbytes


class TestVectorizedCompanions:
    """``dword_shoup_column`` equals ``floor(c * 2**64 / q)`` without objects."""

    @pytest.mark.parametrize("name", sorted(DWORD_PRIME_SETS))
    def test_matches_object_formula(self, name):
        moduli = DWORD_PRIME_SETS[name]
        col = modmath.moduli_column(moduli)
        rng = np.random.default_rng(17)
        constants = np.stack([
            np.concatenate([[0, 1, q - 1], rng.integers(0, q, 61)]).astype(np.uint64)
            for q in moduli
        ])
        companion = modmath.dword_shoup_column(constants, col)
        assert companion.dtype == np.uint64
        assert companion.tolist() == [
            [(int(c) << 64) // q for c in row] for row, q in zip(constants, moduli)
        ]

    def test_even_modulus_is_refused(self):
        col = modmath.moduli_column([(1 << 40) + 2])
        with pytest.raises(ValueError, match="odd modulus"):
            modmath.dword_shoup_column(np.ones((1, 4), dtype=np.uint64), col)


@pytest.mark.parametrize(
    "cached, build",
    [
        (modmath._moduli_column_cached, lambda m: modmath.moduli_column(m).tolist()),
        (modmath._dword_tables_cached,
         lambda m: [c.tolist() for c in vars(modmath._dword_tables(
             modmath.moduli_column(m))).values()]),
    ],
    ids=["moduli_column", "dword_tables"],
)
def test_tuple_caches_are_bounded(cached, build):
    """1,000 distinct moduli tuples leave at most 128 entries, same answers."""
    first = (generate_ntt_primes(1, 59, 64)[0], (1 << 40) + 1)
    before = build(first)
    for k in range(1000):
        build((first[0], (1 << 40) + 2 * k + 3))
    assert cached.cache_info().currsize <= 128
    assert build(first) == before
