"""Unit and property tests for the modular-arithmetic primitives: the
scalar helpers and the batched ``stack_*`` kernels (Table III reductions)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import modmath
from repro.core.primes import generate_ntt_primes
from tests.conftest import as_residue_array

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
        fast = as_residue_array([1, 2], PRIMES["fast"])
        word = as_residue_array([1, 2], PRIMES["word"])
        exact = as_residue_array([1, 2], (1 << 62) + 1)
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
        row = as_residue_array(np.array(values, dtype=object), q_from)
        out = modmath.stack_switch_modulus_many(
            row[None, :], q_from, modmath.moduli_column([q_to]))
        half = q_from >> 1
        expected = [((v - q_from) if v > half else v) % q_to for v in values]
        assert row_values(out) == expected

    def test_as_residue_array_negative_values(self):
        q = PRIMES["fast"]
        arr = as_residue_array(np.array([-1, -q, q + 5], dtype=object), q)
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
# the word kernel against the exact oracle
# ---------------------------------------------------------------------------

#: Word chains on both sides of 2**31 and up to the 2**62 cap: the kernel's
#: 64-bit accumulator serves the first three, its 128-bit one the rest.
WORD_CHAINS = {
    "28/30-bit": generate_ntt_primes(2, 28, 64) + generate_ntt_primes(1, 30, 64),
    "below-2^31": generate_ntt_primes(3, 31, 64),
    "above-2^31": generate_ntt_primes(3, 32, 64, descending_from_top=False),
    "59/60-bit": generate_ntt_primes(2, 59, 64) + generate_ntt_primes(1, 60, 64),
    "below-2^62": generate_ntt_primes(3, 62, 64),
}


def test_backend_decision_boundaries():
    assert modmath.backend_for_moduli([(1 << 31) - 1]) == modmath.BACKEND_UINT64
    assert modmath.backend_for_moduli([1 << 31]) == modmath.BACKEND_DWORD
    assert modmath.backend_for_moduli([(1 << 62) - 1]) == modmath.BACKEND_DWORD
    assert modmath.backend_for_moduli([1 << 62]) == modmath.BACKEND_OBJECT
    # Mixed chains classify on the widest modulus.
    assert modmath.backend_for_moduli([17, 1 << 40]) == modmath.BACKEND_DWORD


def _exact(a) -> np.ndarray:
    """An operand as Python integers, same shape."""
    return modmath.object_row(np.ravel(a)).reshape(np.shape(a))


def _oracle(pairs, moduli) -> list:
    """``(Σ x·y) mod q`` in Python integers, broadcast like the kernel."""
    col = np.array(moduli, dtype=object).reshape(-1, 1)
    return (sum(_exact(x) * _exact(y) for x, y in pairs) % col).tolist()


def _residues(rng, moduli, shape, extreme=False) -> np.ndarray:
    """Residues canonical for every row they meet: an ``(L, N)`` stack, an
    ``(L, 1)`` column, or a ``(1, N)`` row below the smallest modulus --
    all ``q - 1`` when ``extreme``, the largest products there are."""
    high = np.array(moduli, dtype=np.uint64).reshape(-1, 1)
    if shape[0] == 1:
        high = high.min(keepdims=True)
    if extreme:
        return np.broadcast_to(high - np.uint64(1), shape).copy()
    return rng.integers(0, high, shape, dtype=np.uint64)


#: Operand shapes of one dot-product term: ``x`` a stack or a broadcast
#: row, ``y`` a stack or a column of per-row constants.
_TERM_SHAPES = st.tuples(st.sampled_from(["stack", "row"]),
                         st.sampled_from(["stack", "column"]))

#: Row lengths around the kernel's eight-word vector rows and its 256-word
#: blocks: a scalar tail alone (5), vector bodies alone (8, 24, 40, 2**9,
#: 2**13) and both, over a partial last block (300 = 296 + 4).
ROW_LENGTHS = [5, 8, 24, 40, 300, 1 << 9, 1 << 13]


class TestWordKernel:
    """Products, per-row constants, dot products and the add family on word
    moduli are bit-identical to Python integers: the 64-bit and 128-bit
    accumulators, every fold schedule, vector rows and their scalar tails,
    broadcast and strided operands, aliased outputs."""

    N = 24

    @pytest.mark.parametrize("chain", sorted(WORD_CHAINS))
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1), extreme=st.booleans())
    @settings(max_examples=15, deadline=None)
    def test_elementwise_matches_object(self, chain, seed, extreme):
        moduli = WORD_CHAINS[chain]
        col = modmath.moduli_column(moduli)
        obj_col = np.array(moduli, dtype=object).reshape(-1, 1)
        rng = np.random.default_rng(seed)
        a = _residues(rng, moduli, (len(moduli), self.N), extreme)
        b = _residues(rng, moduli, (len(moduli), self.N))
        a_obj, b_obj = _exact(a), _exact(b)
        assert modmath.stack_add_mod(a, b, col).tolist() == ((a_obj + b_obj) % obj_col).tolist()
        assert modmath.stack_sub_mod(a, b, col).tolist() == ((a_obj - b_obj) % obj_col).tolist()
        assert modmath.stack_neg_mod(a, col).tolist() == ((-a_obj) % obj_col).tolist()
        assert modmath.stack_mul_mod(a, b, col).tolist() == _oracle([(a, b)], moduli)
        scalars = [q - 1 if extreme else int(rng.integers(0, q)) for q in moduli]
        assert modmath.stack_scalar_mod(a, scalars, col).tolist() == _oracle(
            [(a, np.array(scalars, dtype=object).reshape(-1, 1))], moduli)
        # Re-reducing the last row into the others (centred).
        switched = modmath.stack_switch_modulus_many(a[-1:], moduli[-1], col[:-1])
        centred = [v - moduli[-1] if v > moduli[-1] >> 1 else v for v in a_obj[-1]]
        assert switched.tolist() == [[v % q for v in centred] for q in moduli[:-1]]

    @pytest.mark.parametrize("chain", sorted(WORD_CHAINS))
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           shapes=st.lists(_TERM_SHAPES, min_size=1, max_size=20),
           extreme=st.booleans())
    @settings(max_examples=15, deadline=None)
    def test_dot_matches_object(self, chain, seed, shapes, extreme):
        moduli = WORD_CHAINS[chain]
        rng = np.random.default_rng(seed)
        rows = len(moduli)
        size = {"stack": (rows, self.N), "row": (1, self.N), "column": (rows, 1)}
        pairs = [
            (_residues(rng, moduli, size[x], extreme),
             _residues(rng, moduli, size[y], extreme))
            for x, y in shapes
        ]
        got = modmath.stack_dot_mod(pairs, modmath.moduli_column(moduli))
        assert got.dtype == np.uint64 and got.tolist() == _oracle(pairs, moduli)

    @pytest.mark.parametrize("chain", sorted(WORD_CHAINS))
    @pytest.mark.parametrize("terms", [1, 2, 3, 4, 5, 8, 15, 16, 17, 24])
    def test_every_fold_schedule_matches_object(self, chain, terms):
        """The largest sums there are -- every residue ``q - 1`` -- on each
        side of a fold: four products per 64-bit sum below 2**31, fifteen
        per 128-bit sum near 2**62, and one broadcast row and one column of
        constants in every second term."""
        moduli = WORD_CHAINS[chain]
        rows = len(moduli)
        shapes = [((rows, self.N), (rows, self.N)), ((1, self.N), (rows, 1))]
        pairs = [
            tuple(_residues(None, moduli, shape, extreme=True) for shape in shapes[t % 2])
            for t in range(terms)
        ]
        got = modmath.stack_dot_mod(pairs, modmath.moduli_column(moduli))
        assert got.tolist() == _oracle(pairs, moduli)

    @pytest.mark.parametrize("addends", [False, True], ids=["head", "head+addend"])
    @pytest.mark.parametrize("chain", sorted(WORD_CHAINS))
    def test_head_fold_matches_object(self, chain, addends):
        """The rescale / ModDown tail ``c·(head − x) [+ e·addend]`` of two
        members, one dot per member block: random and all-``q - 1``
        operands and constants, into fresh rows and in place over ``x``."""
        moduli = WORD_CHAINS[chain]
        rows, members = len(moduli), 2
        col = modmath.moduli_column(moduli)
        obj_col = np.array(moduli * members, dtype=object).reshape(-1, 1)
        rng = np.random.default_rng(rows)
        for extreme in (False, True):
            def stack(count=1):
                return _residues(rng, moduli * count, (rows * count, self.N), extreme)

            def constants():
                return [q - 1 if extreme else int(rng.integers(0, q)) for q in moduli]

            x, c = stack(members), constants()
            e = constants() if addends else None
            blocks = [stack() for _ in range(members * (2 if addends else 1))]
            heads = blocks[::2] if addends else blocks
            want = np.array(c * members, dtype=object).reshape(-1, 1) * (
                _exact(np.concatenate(heads)) - _exact(x))
            if addends:
                want += (np.array(e * members, dtype=object).reshape(-1, 1)
                         * _exact(np.concatenate(blocks[1::2])))
            want = (want % obj_col).tolist()
            fold = modmath.head_fold(c, col, e)
            fresh = np.zeros_like(x)
            fold([x, *blocks], [fresh])
            assert fresh.tolist() == want
            fold([x, *blocks], [x])
            assert x.tolist() == want

    @pytest.mark.parametrize("source_bits, target_bits", [(60, 28), (62, 61), (28, 60)],
                             ids=["60-to-28", "62-to-61", "28-to-60"])
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           terms=st.integers(min_value=1, max_value=24), extreme=st.booleans())
    @settings(max_examples=15, deadline=None)
    def test_conversion_across_widths_matches_object(self, source_bits, target_bits,
                                                     seed, terms, extreme):
        """Base conversion's accumulation: source rows canonical for wider
        (or narrower) source moduli -- the ``bound`` -- broadcast against
        columns of target constants.  A 64-bit sum of 60-bit rows times
        28-bit constants would overflow; the kernel reads the bound."""
        source = generate_ntt_primes(terms, source_bits, 64)
        target = generate_ntt_primes(3, target_bits, 64)
        rng = np.random.default_rng(seed)
        pairs = [
            (_residues(rng, [q], (1, self.N), extreme), _residues(rng, target, (3, 1), extreme))
            for q in source
        ]
        got = modmath.stack_dot_mod(pairs, modmath.moduli_column(target), bound=max(source))
        assert got.tolist() == _oracle(pairs, target)
        # The same sum from one (terms, N) stack and one (3, terms) matrix,
        # into every other row of a buffer.
        buffer = np.zeros((6, self.N), dtype=np.uint64)
        modmath.matrix_dot_mod(
            np.hstack([y for _, y in pairs]), np.vstack([x for x, _ in pairs]),
            modmath.moduli_column(target), out=buffer[::2], bound=max(source))
        assert buffer[::2].tolist() == got.tolist() and not buffer[1::2].any()

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           terms=st.integers(min_value=17, max_value=40), extreme=st.booleans())
    @settings(max_examples=10, deadline=None)
    def test_long_dot_at_62_bits_folds_before_the_word_fills(self, seed, terms, extreme):
        """At q near 2**62 a product is near 2**124, so at most 15 fit a
        128-bit sum next to a residue: 17 terms and more fold."""
        moduli = WORD_CHAINS["below-2^62"]
        rng = np.random.default_rng(seed)
        pairs = [
            (_residues(rng, moduli, (3, self.N), extreme), _residues(rng, moduli, (3, self.N), extreme))
            for _ in range(terms)
        ]
        got = modmath.stack_dot_mod(pairs, modmath.moduli_column(moduli))
        assert got.tolist() == _oracle(pairs, moduli)

    @pytest.mark.parametrize("n", [5, 24, 300])
    @pytest.mark.parametrize("chain", sorted(WORD_CHAINS))
    def test_strided_operands_are_read_in_place(self, chain, n):
        """Row slices, every other column, a reversed moduli column, a
        reversed row and a strided ``out``, with no staging copy to get
        them right (the scalar code: a vector row reads unit strides)."""
        moduli = WORD_CHAINS[chain]
        rng = np.random.default_rng(8)
        wide = np.repeat(_residues(rng, moduli, (3, 2 * n)), 2, axis=0)
        x = wide[::2, ::2]                       # every other row and column
        y = wide[::-1][1::2, 1::2]               # the same moduli, reversed
        assert not x.flags.c_contiguous and y.strides[0] < 0
        col = modmath.moduli_column(moduli)
        out = np.zeros((3, 2 * n), dtype=np.uint64)[:, ::2]
        assert modmath.stack_mul_mod(x, y[::-1], col, out=out) is out
        assert out.tolist() == _oracle([(x, y[::-1])], moduli)
        reverse = col[::-1]
        got = modmath.stack_dot_mod([(x[::-1], y), (x[:1], reverse)], reverse)
        assert got.tolist() == _oracle([(x[::-1], y), (x[:1], reverse)], moduli[::-1])
        # Rows read back to front beside contiguous ones.
        backwards, ahead = wide[::2, ::-2].copy()[:, ::-1], wide[::2, :n]
        got = modmath.stack_add_mod(backwards, ahead, col)
        assert got.tolist() == ((_exact(backwards) + _exact(ahead))
                                % np.array(moduli, dtype=object).reshape(-1, 1)).tolist()
        got = modmath.stack_dot_mod([(backwards, ahead), (ahead, col)], col)
        assert got.tolist() == _oracle([(backwards, ahead), (ahead, col)], moduli)

    @pytest.mark.parametrize("n", ROW_LENGTHS)
    @pytest.mark.parametrize("chain", sorted(WORD_CHAINS))
    def test_out_may_alias_an_input(self, chain, n):
        moduli = WORD_CHAINS[chain]
        col = modmath.moduli_column(moduli)
        rng = np.random.default_rng(9)
        a, b = (_residues(rng, moduli, (3, n)) for _ in range(2))
        expected = {
            "mul": _oracle([(a, b)], moduli),
            "scalar": _oracle([(a, col - np.uint64(1))], moduli),
            "dot": _oracle([(a, b), (b, a), (a, a)], moduli),
        }
        for name, run in {
            "mul": lambda x: modmath.stack_mul_mod(x, b, col, out=x),
            "scalar": lambda x: modmath.stack_scalar_mod(
                x, [q - 1 for q in moduli], col, out=x),
            "dot": lambda x: modmath.stack_dot_mod([(x, b), (b, x), (x, x)], col, out=x),
        }.items():
            x = a.copy()
            assert run(x) is x and x.tolist() == expected[name]
        # An output that overlaps an input without being it: one column over.
        wide = np.concatenate([a, a[:, :1]], axis=1)
        out = wide[:, 1:]
        modmath.stack_dot_mod([(wide[:, :-1], b), (b, wide[:, :-1])], col, out=out)
        assert out.tolist() == _oracle([(a, b), (b, a)], moduli)

    @pytest.mark.parametrize("n", ROW_LENGTHS)
    @pytest.mark.parametrize("chain", sorted(WORD_CHAINS))
    def test_rows_of_every_length_match_object(self, chain, n):
        """A product, a per-row constant and a three-term sum over stacks,
        a broadcast row and a column of constants, random and all
        ``q - 1``: eight-word vector bodies, scalar tails, and both."""
        moduli = WORD_CHAINS[chain]
        col = modmath.moduli_column(moduli)
        rng = np.random.default_rng(n)
        for extreme in (False, True):
            stack, other = (_residues(rng, moduli, (3, n), extreme) for _ in range(2))
            row = _residues(rng, moduli, (1, n), extreme)
            column = _residues(rng, moduli, (3, 1), extreme)
            assert modmath.stack_mul_mod(stack, other, col).tolist() == _oracle(
                [(stack, other)], moduli)
            assert modmath.stack_mul_mod(row, column, col).tolist() == _oracle(
                [(row, column)], moduli)
            pairs = [(stack, other), (row, column), (other, column)]
            assert modmath.stack_dot_mod(pairs, col).tolist() == _oracle(pairs, moduli)

    @pytest.mark.parametrize("target_bits", [30, 31])
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           bound=st.integers(min_value=2, max_value=2**31 - 1),
           terms=st.integers(min_value=1, max_value=24), extreme=st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_bounded_rows_below_2_31_match_object(self, target_bits, seed, bound,
                                                   terms, extreme):
        """Base conversion into targets near 2**31 from rows below any
        ``bound`` under 2**31 -- the vector rows' limit -- with every fold
        schedule up to 24 terms; all ``bound - 1`` when ``extreme``."""
        n = 43
        target = generate_ntt_primes(3, target_bits, 64)
        rng = np.random.default_rng(seed)
        pairs = [
            (np.full((1, n), bound - 1, dtype=np.uint64) if extreme
             else rng.integers(0, bound, (1, n), dtype=np.uint64),
             _residues(rng, target, (3, 1), extreme))
            for _ in range(terms)
        ]
        got = modmath.stack_dot_mod(pairs, modmath.moduli_column(target), bound=bound)
        assert got.tolist() == _oracle(pairs, target)

    @pytest.mark.parametrize("target_bits", [28, 31])
    @pytest.mark.parametrize("bound", [(1 << 31) + 1, 1 << 32, (1 << 32) + 7, 1 << 45])
    def test_bounds_past_2_31_stay_exact(self, bound, target_bits):
        """Rows at or past 2**31 into 28- and 31-bit targets (the scalar
        code, whose 31-bit rows past 2**32 take the 128-bit sum): 17 terms
        of the largest rows the bound allows."""
        target = generate_ntt_primes(3, target_bits, 64)
        pairs = [(np.full((1, 300), bound - 1, dtype=np.uint64),
                  _residues(None, target, (3, 1), extreme=True))] * 17
        got = modmath.stack_dot_mod(pairs, modmath.moduli_column(target), bound=bound)
        assert got.tolist() == _oracle(pairs, target)

    @pytest.mark.parametrize("n", [5, 40, 300])
    def test_one_call_mixes_vector_and_scalar_rows(self, n):
        """28-bit rows (vector) between 60-bit ones (scalar, 128-bit sums)
        in one call: products, sums and the add family."""
        moduli = [*generate_ntt_primes(2, 28, 64), *generate_ntt_primes(2, 60, 64)]
        moduli = [moduli[0], moduli[2], moduli[1], moduli[3]]
        col = modmath.moduli_column(moduli)
        obj = np.array(moduli, dtype=object).reshape(-1, 1)
        rng = np.random.default_rng(n)
        for extreme in (False, True):
            a, b = (_residues(rng, moduli, (4, n), extreme) for _ in range(2))
            column = _residues(rng, moduli, (4, 1), extreme)
            pairs = [(a, b), (b, column), (a, a)]
            assert modmath.stack_dot_mod(pairs, col).tolist() == _oracle(pairs, moduli)
            assert modmath.stack_mul_mod(a, b, col).tolist() == _oracle([(a, b)], moduli)
            assert modmath.stack_sub_mod(a, b, col).tolist() == (
                (_exact(a) - _exact(b)) % obj).tolist()

    @pytest.mark.parametrize("n", ROW_LENGTHS)
    @pytest.mark.parametrize("chain", sorted(WORD_CHAINS))
    def test_add_family_matches_object(self, chain, n):
        """Add, subtract, negate and add a constant per row over stacks,
        ``(1, N)`` rows and ``(L, 1)`` columns, random and all ``q - 1``;
        into fresh rows, over either operand, and over the reversed moduli
        column :meth:`repro.core.rns.RNSBasis.compose` passes."""
        moduli = WORD_CHAINS[chain]
        col = modmath.moduli_column(moduli)
        obj = np.array(moduli, dtype=object).reshape(-1, 1)
        rng = np.random.default_rng(n)
        family = {
            "add": (modmath.stack_add_mod, lambda x, y: x + y),
            "sub": (modmath.stack_sub_mod, lambda x, y: x - y),
        }
        for extreme in (False, True):
            a = _residues(rng, moduli, (3, n), extreme)
            others = {
                "stack": _residues(rng, moduli, (3, n)),
                "row": _residues(rng, moduli, (1, n), extreme),
                "column": _residues(rng, moduli, (3, 1), extreme),
            }
            for shape, b in others.items():
                for name, (op, exact) in family.items():
                    for x, y in ((a, b), (b, a)):
                        want = (exact(_exact(x), _exact(y)) % obj).tolist()
                        assert op(x, y, col).tolist() == want, (name, shape)
                    if shape == "stack":
                        want = (exact(_exact(a), _exact(b)) % obj).tolist()
                        for target in (0, 1):
                            x, y = a.copy(), b.copy()
                            out = (x, y)[target]
                            assert op(x, y, col, out=out) is out and out.tolist() == want
            assert modmath.stack_neg_mod(a, col).tolist() == ((-_exact(a)) % obj).tolist()
            x = a.copy()
            assert modmath.stack_neg_mod(x, col, out=x) is x
            assert x.tolist() == ((-_exact(a)) % obj).tolist()
            scalars = [q - 1 if extreme else int(rng.integers(0, q)) for q in moduli]
            want = ((_exact(a) + np.array(scalars, dtype=object).reshape(-1, 1)) % obj).tolist()
            assert modmath.stack_add_scalar_mod(a, scalars, col).tolist() == want
            x = a.copy()
            assert modmath.stack_add_scalar_mod(x, scalars, col, out=x) is x
            assert x.tolist() == want
            # Garner's step: rows over the reversed column, in place.
            x, y = a[::-1].copy(), others["stack"][::-1].copy()
            want = ((_exact(x) - _exact(y)) % obj[::-1]).tolist()
            assert modmath.stack_sub_mod(x, y, col[::-1], out=x).tolist() == want
        # An output that overlaps an input without being it: one column over.
        wide = np.concatenate([a, a[:, :1]], axis=1)
        out = wide[:, 1:]
        modmath.stack_sub_mod(wide[:, :-1], others["stack"], col, out=out)
        assert out.tolist() == ((_exact(a) - _exact(others["stack"])) % obj).tolist()

    def test_recorded_dot_reads_the_products_alone(self):
        from repro.core.dispatch import DISPATCH

        moduli = WORD_CHAINS["59/60-bit"]
        rng = np.random.default_rng(5)
        pairs = [tuple(_residues(rng, moduli, (3, self.N)) for _ in range(2))
                 for _ in range(2)]
        with DISPATCH.record() as trace:
            modmath.stack_dot_mod(pairs, modmath.moduli_column(moduli))
        (event,) = trace.events
        assert event.kernel.name.startswith("stack-dot")
        assert len(event.reads) == 4
        assert event.kernel.bytes_read == 4 * pairs[0][0].nbytes


@pytest.mark.parametrize(
    "cached, build",
    [
        (modmath._moduli_column_cached, lambda m: modmath.moduli_column(m).tolist()),
    ],
    ids=["moduli_column"],
)
def test_tuple_caches_are_bounded(cached, build):
    """1,000 distinct moduli tuples leave at most 128 entries, same answers."""
    first = (generate_ntt_primes(1, 59, 64)[0], (1 << 40) + 1)
    before = build(first)
    for k in range(1000):
        build((first[0], (1 << 40) + 2 * k + 3))
    assert cached.cache_info().currsize <= 128
    assert build(first) == before
