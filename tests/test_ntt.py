"""Tests for the negacyclic NTT: twiddle tables, the oracle and the engine."""

import contextlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import modmath, ntt
from repro.core.dispatch import DISPATCH
from repro.core.fusion import TraceProgram
from repro.core.ntt import (
    Fused,
    StackedNTTEngine,
    bit_reverse_indices,
    get_stacked_engine,
    kernel_tables,
    reference_transform,
    twiddle_tables,
)
from repro.core.primes import find_root_of_unity, generate_ntt_primes
from repro.gpu.kernel import ELEMENT_BYTES, ntt_kernel


def schoolbook_negacyclic(a, b, q, n):
    """Reference O(N^2) negacyclic multiplication."""
    result = [0] * n
    for i in range(n):
        ai = int(a[i])
        if ai == 0:
            continue
        for j in range(n):
            idx = i + j
            value = ai * int(b[j])
            if idx >= n:
                idx -= n
                value = -value
            result[idx] = (result[idx] + value) % q
    return result


def forward(values, q):
    """Oracle forward NTT of one residue vector, as Python integers."""
    return [int(x) for x in reference_transform([values], [q])[0]]


def inverse(values, q):
    """Oracle inverse NTT of one residue vector, as Python integers."""
    return [int(x) for x in reference_transform([values], [q], inverse=True)[0]]


@pytest.fixture(params=[(32, 25), (128, 28), (64, 59)], ids=["n32", "n128", "n64w59"])
def ring(request):
    """``(N, q)`` on the uint64 (n32, n128) and dword (n64w59) regimes."""
    n, bits = request.param
    return n, generate_ntt_primes(1, bits, n)[0]


class TestRadix2:
    def test_roundtrip(self, ring):
        n, q = ring
        rng = np.random.default_rng(0)
        a = [int(rng.integers(0, q)) for _ in range(n)]
        assert inverse(forward(a, q), q) == a

    def test_convolution_theorem(self, ring):
        n, q = ring
        rng = np.random.default_rng(1)
        a = [int(rng.integers(0, q)) for _ in range(n)]
        b = [int(rng.integers(0, q)) for _ in range(n)]
        pointwise = [(x * y) % q for x, y in zip(forward(a, q), forward(b, q))]
        assert inverse(pointwise, q) == schoolbook_negacyclic(a, b, q, n)

    def test_forward_is_linear(self, ring):
        n, q = ring
        rng = np.random.default_rng(2)
        a = [int(rng.integers(0, q)) for _ in range(n)]
        b = [int(rng.integers(0, q)) for _ in range(n)]
        lhs = forward([(x + y) % q for x, y in zip(a, b)], q)
        rhs = [(x + y) % q for x, y in zip(forward(a, q), forward(b, q))]
        assert lhs == rhs

    def test_constant_polynomial_transform(self, ring):
        n, q = ring
        assert forward([7] + [0] * (n - 1), q) == [7] * n

    def test_n_inverse(self, ring):
        n, q = ring
        assert (twiddle_tables(n, q)[2] * n) % q == 1

    def test_shoup_twiddles_shape(self, ring):
        # The kernel multiplies by twiddles through Shoup companions
        # (Table III): floor(w * 2**64 / q) next to each twiddle w, on
        # every word modulus; the inverse's entry 0 holds N^-1.
        n, q = ring
        forward, inverse, n_inv = twiddle_tables(n, q)
        tables = kernel_tables(n, q)
        assert tables.shape == (2, n, 2) and tables.dtype == np.uint64
        assert tables[..., 0].tolist() == [forward.tolist(), [n_inv, *inverse[1:].tolist()]]
        assert [int(s) for s in tables[..., 1].ravel()] == [
            (int(w) << 64) // q for w in tables[..., 0].ravel()
        ]

    @pytest.mark.parametrize("n, bits", [(32, 25), (128, 28), (64, 59), (16, 63)],
                             ids=["n32", "n128", "n64w59", "n16w63"])
    def test_twiddles_are_the_powers_of_psi(self, n, bits):
        # Built by doubling, the tables equal the powers one at a time, on
        # the word path and the exact one.
        q = generate_ntt_primes(1, bits, n)[0]
        forward, inverse, _ = twiddle_tables(n, q)
        psi = find_root_of_unity(2 * n, q)
        rev = bit_reverse_indices(n)
        for table, root in ((forward, psi), (inverse, pow(psi, -1, q))):
            powers = [1]
            for _ in range(n - 1):
                powers.append(powers[-1] * root % q)
            assert [int(w) for w in table] == [powers[i] for i in rev]

    def test_rejects_bad_degree(self):
        q = generate_ntt_primes(1, 25, 32)[0]
        with pytest.raises(ValueError):
            twiddle_tables(31, q)

    def test_rejects_unfriendly_modulus(self):
        # 97 is not 1 mod 128; 65 = 5 * 13 and 289 = 17**2 are 1 mod 2N but
        # composite, so no root search may run on them.
        for n, q in [(64, 97), (32, 65), (8, 289)]:
            with pytest.raises(ValueError, match="not NTT-friendly"):
                twiddle_tables(n, q)

    def test_engine_cache_reuses_instances(self):
        q = generate_ntt_primes(1, 25, 64)[0]
        assert twiddle_tables(64, q) is twiddle_tables(64, q)
        assert get_stacked_engine(64, (q,)) is get_stacked_engine(64, (q,))


class TestKernel:
    """The engine's compiled radix-2 kernel (``core/word_kernel.c``) against the
    schoolbook product and the oracle."""

    @staticmethod
    def _engine_multiply(a, b, q, n):
        engine = get_stacked_engine(n, (q,))
        fa = engine.forward(np.array([a], dtype=np.uint64))
        fb = engine.forward(np.array([b], dtype=np.uint64))
        product = modmath.stack_mul_mod(fa, fb, modmath.moduli_column([q]))
        return [int(x) for x in engine.inverse(product)[0]]

    @pytest.mark.parametrize("n,bits", [(64, 25), (256, 28)])
    def test_matches_schoolbook(self, n, bits):
        q = generate_ntt_primes(1, bits, n)[0]
        rng = np.random.default_rng(5)
        a = [int(rng.integers(0, q)) for _ in range(n)]
        b = [int(rng.integers(0, q)) for _ in range(n)]
        assert self._engine_multiply(a, b, q, n) == schoolbook_negacyclic(a, b, q, n)

    def test_roundtrip(self):
        n = 64
        q = generate_ntt_primes(1, 25, n)[0]
        engine = get_stacked_engine(n, (q,))
        rng = np.random.default_rng(6)
        a = rng.integers(0, q, size=(1, n)).astype(np.uint64)
        assert np.array_equal(engine.inverse(engine.forward(a)), a)

    def test_agrees_with_radix2_in_evaluation_products(self):
        n = 64
        q = generate_ntt_primes(1, 25, n)[0]
        rng = np.random.default_rng(7)
        a = [int(rng.integers(0, q)) for _ in range(n)]
        b = [int(rng.integers(0, q)) for _ in range(n)]
        pointwise = [(x * y) % q for x, y in zip(forward(a, q), forward(b, q))]
        assert self._engine_multiply(a, b, q, n) == inverse(pointwise, q)

    def test_memory_passes_matches_figure3(self):
        # Figure 3's "4 memory accesses per element" is the NTT kernel's
        # traffic in the cost model.
        n, limbs = 64, 3
        kernel = ntt_kernel("ntt", limbs, n)
        assert kernel.bytes_read + kernel.bytes_written == 4 * limbs * n * ELEMENT_BYTES


class TestBitReversal:
    def test_is_involution(self):
        indices = bit_reverse_indices(64)
        assert np.array_equal(indices[indices], np.arange(64))

    def test_small_case(self):
        assert list(bit_reverse_indices(8)) == [0, 4, 2, 6, 1, 5, 3, 7]

    @pytest.mark.parametrize("n", [0, 3, 6, 12])
    def test_rejects_non_power_of_two(self, n):
        # bit_reverse_indices(6) was [0 2 1 3 0 2]: not a permutation.
        with pytest.raises(ValueError, match="power of two"):
            bit_reverse_indices(n)


class TestKernelExactness:
    """The kernel on extreme residues and lazy ``[0, 2q)`` input, on primes
    just below 2**31 and just below the 2**62 word cap, where the lazy
    ``[0, 4q)`` butterflies leave no slack in the word."""

    @pytest.mark.parametrize("bits", [31, 62])
    @pytest.mark.parametrize("log_n", range(3, 16))
    def test_extreme_rows_match_reference(self, log_n, bits):
        n = 1 << log_n
        q = generate_ntt_primes(1, bits, n)[0]
        moduli = (q,) * 4
        engine = get_stacked_engine(n, moduli)
        stack = np.array([
            [q - 1] * n,
            [q // 2 + 1] * n,
            [0, q - 1] * (n // 2),
            [2 * q - 1] * n,
        ], dtype=np.uint64)
        assert engine.forward(stack).tolist() == reference_transform(
            stack, moduli).tolist()
        assert engine.inverse(stack).tolist() == reference_transform(
            stack, moduli, inverse=True).tolist()

    def test_uint64_stack_at_n15_matches_reference(self):
        # Lazy [0, 2q) input on two 31-bit primes at N = 2**15, both
        # directions.
        n = 1 << 15
        moduli = tuple(generate_ntt_primes(2, 31, n))
        engine = get_stacked_engine(n, moduli)
        assert engine.backend == modmath.BACKEND_UINT64
        rng = np.random.default_rng(11)
        stack = rng.integers(0, 2 * min(moduli), (2, n), dtype=np.uint64)
        forward = engine.forward(stack)
        assert forward.tolist() == reference_transform(stack, moduli).tolist()
        assert engine.inverse(stack).tolist() == reference_transform(
            stack, moduli, inverse=True).tolist()


class TestKernelBuild:
    """The kernel is built with the system C compiler and reads one
    C-contiguous uint64 row per modulus."""

    def test_a_missing_compiler_is_named(self, monkeypatch):
        monkeypatch.setattr(modmath, "_COMPILER", "no-such-cc")
        modmath.word_kernel.cache_clear()
        try:
            with pytest.raises(RuntimeError, match="no-such-cc"):
                StackedNTTEngine(64, tuple(generate_ntt_primes(2, 26, 64)))
        finally:
            modmath.word_kernel.cache_clear()

    @pytest.mark.parametrize("bits", [26, 59], ids=["uint64", "dword"])
    def test_a_non_contiguous_stack_transforms_correctly(self, bits):
        n = 64
        moduli = tuple(generate_ntt_primes(3, bits, n))
        rng = np.random.default_rng(4)
        wide = rng.integers(0, min(moduli), (6, 2 * n), dtype=np.uint64)
        stack = wide[::2, ::2]  # every other row and column
        assert not stack.flags.c_contiguous
        engine = get_stacked_engine(n, moduli)
        for inverse in (False, True):
            want = reference_transform(stack, moduli, inverse=inverse).tolist()
            transform = engine.inverse if inverse else engine.forward
            assert transform(stack).tolist() == want
            assert transform(stack, consume=True).tolist() == want


@given(st.lists(st.integers(min_value=0, max_value=2**25 - 1), min_size=32, max_size=32))
@settings(max_examples=30, deadline=None)
def test_roundtrip_property(values):
    q = generate_ntt_primes(1, 26, 32)[0]
    assert inverse(forward(values, q), q) == [v % q for v in values]


#: Distinct 28-bit primes, NTT-friendly up to N = 2**13: more than the
#: twelve rows of a long stack at N = 2**10.
_LAYOUT_POOL = tuple(generate_ntt_primes(14, 28, 1 << 13))

#: Rows a layout keeps above N = 2**11, where the oracle is slow.
_LARGE_RING_ROWS = 3


def _long_stack_rows(n: int) -> int:
    """Rows of a long stack at ring ``n``: 384 KiB at 32 bytes a
    coefficient (twelve rows at N = 2**10, 768 at N = 2**4)."""
    return max(1, (384 << 10) // (32 * n))


@st.composite
def stacked_layouts(draw):
    """``(N, moduli, seed)``: a ring and a row layout of a stacked transform.

    Distinct moduli, member-major tilings of a base (a fused batch), runs of
    one modulus (ModUp's limb-major layout) and random runs of random
    moduli, each sometimes a long stack (:func:`_long_stack_rows`); above
    N = 2**11 the first ``_LARGE_RING_ROWS`` rows of one.
    """
    n = 1 << draw(st.integers(4, 13))
    long_rows = _long_stack_rows(n)
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    base = [int(q) for q in rng.permutation(_LAYOUT_POOL)[: draw(st.integers(1, 6))]]
    repeats = draw(st.integers(2, 3))
    if draw(st.booleans()):
        repeats += long_rows // len(base)  # a long stack
    kind = draw(st.sampled_from(["distinct", "tiled", "runs", "irregular"]))
    if kind == "distinct":
        moduli = rng.permutation(_LAYOUT_POOL)[: draw(st.integers(1, len(_LAYOUT_POOL)))]
    elif kind == "tiled":
        moduli = base * repeats
    elif kind == "runs":
        moduli = np.repeat(base, repeats)
    else:
        picks = rng.choice(base, 2 * len(base))
        moduli = np.repeat(picks, rng.integers(1, repeats, len(picks), endpoint=True))
    if n > 1 << 11:
        moduli = moduli[:_LARGE_RING_ROWS]
    return n, tuple(int(q) for q in moduli), seed


@given(stacked_layouts(), st.booleans(),
       st.sampled_from(["stack", "sources", "prologue", "epilogue"]))
@settings(max_examples=100, deadline=None)
def test_stacked_transform_matches_reference_on_any_layout(layout, inverse, route):
    """Every row layout, both directions and every way a call hands over its
    rows: bit-identical to the oracle, one recorded launch per segment."""
    n, moduli, seed = layout
    rng = np.random.default_rng(seed)
    col = modmath.moduli_column(moduli)
    x = rng.integers(0, 1 << 62, (len(moduli), n), dtype=np.uint64) % (2 * col)
    want = np.array(reference_transform(x, moduli, inverse=inverse), dtype=np.uint64)
    engine = get_stacked_engine(n, moduli)
    transform = engine.inverse if inverse else engine.forward
    cuts = sorted(rng.choice(np.arange(1, len(moduli)), min(3, len(moduli) - 1),
                             replace=False).tolist())
    parts = np.diff([0, *cuts, len(moduli)]).tolist()
    with DISPATCH.record() as trace:
        if route == "stack":
            got = transform(x)
        elif route == "sources":
            got = transform(sources=np.split(x, cuts), segments=parts)
        elif route == "prologue":
            got = transform(segments=parts, prologue=Fused(
                "copy", 1.0, (x,), lambda reads, writes: np.copyto(writes[0], reads[0])))
        else:
            addend = x % col
            want += addend
            got = transform(x.copy(), consume=True, segments=parts, epilogue=Fused(
                "add", 1.0, (addend,),
                lambda reads, writes: np.add(reads[0], reads[1], out=writes[0])))
    np.testing.assert_array_equal(got, want)
    launches = 1 if route == "stack" else len(parts)
    assert [e.kernel.name.split("[")[0] for e in trace] == [
        "intt" if inverse else "ntt"] * launches


class TestOperandChecks:
    """forward/inverse reject stacks that are not one row per modulus."""

    @pytest.mark.parametrize("bits", [26, 59], ids=["uint64", "dword"])
    @pytest.mark.parametrize("rows", [1, 3])
    def test_row_count_mismatch_raises(self, bits, rows):
        moduli = tuple(generate_ntt_primes(2, bits, 64))
        engine = get_stacked_engine(64, moduli)
        stack = np.ones((rows, 64), dtype=np.uint64)
        for transform in (engine.forward, engine.inverse):
            with pytest.raises(ValueError, match="does not match the engine"):
                transform(stack)

    def test_wrong_rank_or_degree_raises(self):
        # Any non-2-D operand is refused on both word backends -- (2, 2, 64)
        # was the double-word plane layout before storage became one word.
        for bits in (26, 59):
            moduli = tuple(generate_ntt_primes(2, bits, 64))
            engine = get_stacked_engine(64, moduli)
            for shape in [(2, 32), (2, 2, 64), (2, 3, 64), (2,), (2, 2, 2, 64)]:
                with pytest.raises(ValueError, match="does not match the engine"):
                    engine.forward(np.ones(shape, dtype=np.uint64))


class TestFusedOperands:
    """The operands of one engine call: segments, sources, prologue, epilogue."""

    @pytest.fixture()
    def engine(self):
        return get_stacked_engine(64, tuple(generate_ntt_primes(3, 26, 64)))

    @staticmethod
    def stack(engine, seed=3):
        rng = np.random.default_rng(seed)
        return np.stack([rng.integers(0, q, 64, dtype=np.uint64) for q in engine.moduli])

    @pytest.mark.parametrize("recording", [False, True], ids=["untraced", "traced"])
    def test_operands_are_validated_whether_or_not_a_trace_is_live(self, engine, recording):
        # Regression: segments were only checked inside the recorder, so a
        # bad call returned normally untraced and raised under a trace.
        x = self.stack(engine)
        fold = Fused("fold", 1.0, (x[:2],), lambda reads, writes: None)
        bad_calls = [
            (dict(stack=x, segments=[1]), r"segments \[1\] do not cover 3 rows"),
            (dict(stack=x, segments=[3, 0]), "do not cover 3 rows"),
            (dict(stack=x, sources=[x]), "exactly one of"),
            (dict(), "exactly one of"),
            (dict(sources=[x[:2]]), "does not match the engine"),
            (dict(sources=[x[:1], x[1:]], segments=[2, 1], epilogue=fold), "epilogue reads"),
            (dict(stack=x, epilogue=fold._replace(reads=(x[:, :8],))), "epilogue reads"),
        ]
        with DISPATCH.record() if recording else contextlib.nullcontext():
            for kwargs, message in bad_calls:
                for transform in (engine.forward, engine.inverse):
                    with pytest.raises(ValueError, match=message):
                        transform(**kwargs)

    def test_sources_prologue_and_epilogue_run_around_one_transform(self, engine):
        x = self.stack(engine)
        want = engine.forward(x)
        np.testing.assert_array_equal(engine.forward(sources=[x[:1], x[1:]]), want)
        seen = []

        def fill(reads, writes):
            np.copyto(writes[0], reads[0])

        def bump(reads, writes):
            seen.append(len(reads))
            np.add(reads[0], reads[1], out=writes[0])

        got = engine.forward(
            segments=[1, 2],
            prologue=Fused("fill", 1.0, (x,), fill),
            epilogue=Fused("bump", 1.0, (np.ones_like(x),), bump),
        )
        np.testing.assert_array_equal(got, want + 1)
        assert seen == [2]  # once, over every segment: transformed rows + reads

    def test_a_segment_records_its_share_and_replays(self, engine):
        x = self.stack(engine)
        ones = np.ones_like(x)

        def bump(reads, writes):
            np.add(reads[0], reads[1], out=writes[0])

        with DISPATCH.record(executable=True) as trace:
            out = engine.inverse(
                sources=[x[:1], x[1:]], segments=[1, 2],
                epilogue=Fused("bump", 3.0, (ones,), bump),
            )
        assert [e.kernel.name for e in trace] == ["intt[1]", "intt[2]"]
        # The inverse's N^-1 Shoup multiply plus the declared epilogue.
        assert [e.kernel.int_ops for e in trace] == [
            ntt_kernel("intt", rows, 64, fused_ops_per_element=5.0 + 3.0).int_ops
            for rows in (1, 2)
        ]
        assert [[v.shape for v in e.read_views] for e in trace] == [
            [(1, 64), (1, 64)], [(2, 64), (2, 64)],
        ]
        TraceProgram(trace).verify()
        np.testing.assert_array_equal(out, engine.inverse(x) + 1)


@pytest.mark.parametrize("bits", [28, 59], ids=["uint64", "dword"])
@pytest.mark.parametrize("inverse", [False, True], ids=["forward", "inverse"])
def test_a_transform_allocates_nothing_per_call(inverse, bits):
    # The kernel works in the rows it transforms: a consumed stack is
    # transformed in place, with no temporary of its size.
    n = 1 << 9
    moduli = tuple(generate_ntt_primes(4, bits, n))
    engine = get_stacked_engine(n, moduli * 2)
    stack = np.zeros((len(engine.moduli), n), dtype=np.uint64)
    transform = engine.inverse if inverse else engine.forward
    transform(stack, consume=True)  # tables built, kernel loaded
    tracemalloc.start()
    try:
        assert transform(stack, consume=True) is stack
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < stack.nbytes // 8


#: A chain just below the dword cap: ``4q`` all but fills the word, so the
#: three-product quotient's ``[0, 4q)`` products and the forward stages'
#: ``[0, 4q)`` rows leave no slack.
_NEAR_CAP = tuple(generate_ntt_primes(3, 62, 64))


@given(st.lists(st.integers(min_value=0, max_value=(1 << 62) - 1),
                min_size=3 * 64, max_size=3 * 64))
@settings(max_examples=25, deadline=None)
def test_stacked_roundtrip_near_dword_cap(values):
    engine = get_stacked_engine(64, _NEAR_CAP)
    assert engine.backend == modmath.BACKEND_DWORD
    stack = np.array(values, dtype=np.uint64).reshape(3, 64) % modmath.moduli_column(_NEAR_CAP)
    forward = engine.forward(stack)
    assert forward.tolist() == reference_transform(stack, _NEAR_CAP).tolist()
    assert engine.inverse(stack).tolist() == reference_transform(
        stack, _NEAR_CAP, inverse=True
    ).tolist()
    assert engine.inverse(forward).tolist() == stack.tolist()


#: The widest uint64 chain at the ring every uint64 workload uses
#: (N = 2**13): 31-bit primes.
_NEAR_UINT64_CAP = tuple(generate_ntt_primes(3, 31, 1 << 13))


@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.sampled_from(["canonical", "lazy", "extreme"]))
@settings(max_examples=8, deadline=None)
def test_stacked_roundtrip_near_uint64_cap(seed, kind):
    n = 1 << 13
    engine = get_stacked_engine(n, _NEAR_UINT64_CAP)
    assert engine.backend == modmath.BACKEND_UINT64
    col = modmath.moduli_column(_NEAR_UINT64_CAP)
    rng = np.random.default_rng(seed)
    if kind == "extreme":
        # The largest residues, those around q/2, and their neighbours.
        choices = np.concatenate([col - 1, col // 2, col // 2 + 1, np.ones_like(col)], axis=1)
        stack = np.take_along_axis(choices, rng.integers(0, 4, (3, n)), axis=1)
    else:
        bound = 2 * col if kind == "lazy" else col
        stack = rng.integers(0, 1 << 62, (3, n), dtype=np.uint64) % bound
    forward = engine.forward(stack)
    assert forward.tolist() == reference_transform(stack, _NEAR_UINT64_CAP).tolist()
    assert engine.inverse(stack).tolist() == reference_transform(
        stack, _NEAR_UINT64_CAP, inverse=True
    ).tolist()
    assert engine.inverse(forward).tolist() == (stack % col).tolist()
