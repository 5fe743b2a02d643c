"""The evaluation-format automorphism against the round trip it replaced.

``RNSPoly.automorphism`` on an evaluation-format operand used to be
``to_coefficient().automorphism(k).to_evaluation()``; it is now one gather
with :func:`repro.core.automorphism.eval_automorphism_map`.  The round trip
survives here, as the oracle: the permutation, every rotation path built on
it and the keys generated from the shared coefficient map are compared bit
for bit with what the old route computes.
"""

from __future__ import annotations

import hashlib
import warnings
from functools import lru_cache

import numpy as np
import pytest

from repro.api import CKKSSession
from repro.ckks.keys import KeyGenerator
from repro.ckks.keyswitch import (
    DecomposedPolynomial,
    apply_key,
    decompose_and_mod_up,
    key_switch,
    mod_down_many,
)
from repro.ckks.params import CKKSParameters
from repro.core import modmath
from repro.core.automorphism import (
    coeff_automorphism_map,
    conjugation_exponent,
    eval_automorphism_map,
    rotation_to_exponent,
)
from repro.core.fusion import TraceProgram, expand_stages, fuse_trace
from repro.core.limb import LimbFormat
from repro.core.ntt import reference_transform
from repro.core.primes import generate_ntt_primes
from repro.core.rns_poly import RNSPoly
from repro.perf.calibration import kernel_kind

#: Two-limb chains, one per word arithmetic (bit sizes of the two primes).
CHAINS = {
    "uint64": (28, 28),
    "dword": (59, 59),
    "object": (63, 28),
    "mixed": (60, 28),
}
RING_DEGREES = [1 << 4, 1 << 9, 1 << 12]
MEMBERS = [1, 3, 8]


def exponents(n: int) -> dict[str, int]:
    """Every tested Galois element of the degree-``n`` ring, by label."""
    named = {f"rot{s:+d}": rotation_to_exponent(n, s) for s in (1, -1, 2, -2, 3)}
    named["rotN/4"] = rotation_to_exponent(n, n // 4)
    named["conj"] = conjugation_exponent(n)
    return named


EXPONENT_LABELS = list(exponents(16))


def substitute(rows: np.ndarray, k: int, moduli) -> np.ndarray:
    """``a(X) -> a(X^k)`` on coefficient rows, straight from the definition."""
    n = rows.shape[1]
    col = np.array([int(q) for q in moduli], dtype=object)
    out = np.empty_like(rows)
    for j in range(n):
        exponent = (j * k) % (2 * n)
        column = rows[:, j]
        out[:, exponent % n] = column if exponent < n else (-column) % col
    return out


def chain_moduli(n: int, chain: str) -> list[int]:
    bits = CHAINS[chain]
    if bits[0] == bits[1]:
        return generate_ntt_primes(2, bits[0], n)
    return [generate_ntt_primes(1, b, n)[0] for b in bits]


@lru_cache(maxsize=None)
def oracle_case(n: int, chain: str):
    """``(moduli, evaluation rows, oracle image per exponent)`` at B = 8.

    Rows are member-major, so the first ``B·L`` rows are the B-member
    operand and one oracle pass serves every member count.  The oracle is
    iNTT -> coefficient substitution -> NTT on exact Python integers.
    """
    moduli = chain_moduli(n, chain)
    tiled = moduli * max(MEMBERS)
    rng = np.random.default_rng(n)
    coeff = np.array(
        [[int(v) for v in rng.integers(0, q, n)] for q in tiled], dtype=object
    )
    evaluated = reference_transform(coeff, tiled)
    back = reference_transform(evaluated, tiled, inverse=True)
    assert np.array_equal(back, coeff)
    images = {
        label: reference_transform(substitute(back, k, tiled), tiled)
        for label, k in exponents(n).items()
    }
    return moduli, evaluated, images


def eval_poly(n: int, chain: str, members: int) -> RNSPoly:
    moduli, evaluated, _ = oracle_case(n, chain)
    rows = len(moduli) * members
    return RNSPoly.from_limb_arrays(
        n, moduli * members, list(evaluated[:rows]), LimbFormat.EVALUATION
    )


def as_ints(poly: RNSPoly) -> list[list[int]]:
    return [[int(v) for v in row] for row in poly.data]


class TestEvaluationPermutation:
    @pytest.mark.parametrize("label", EXPONENT_LABELS)
    @pytest.mark.parametrize("members", MEMBERS, ids=lambda b: f"B{b}")
    @pytest.mark.parametrize("chain", list(CHAINS))
    @pytest.mark.parametrize("n", RING_DEGREES, ids=lambda n: f"N{n}")
    def test_gather_equals_the_round_trip_oracle(self, n, chain, members, label):
        poly = eval_poly(n, chain, members)
        expected_dtype = np.object_ if chain == "object" else np.uint64
        assert poly.data.dtype == expected_dtype
        image = poly.automorphism(exponents(n)[label])
        assert image.fmt is LimbFormat.EVALUATION
        assert image.moduli == poly.moduli
        assert image.data.dtype == expected_dtype
        oracle = oracle_case(n, chain)[2][label][: len(poly.moduli)]
        assert np.array_equal(modmath.object_row(image.data), oracle)

    @pytest.mark.parametrize("chain", list(CHAINS))
    @pytest.mark.parametrize("fmt", list(LimbFormat), ids=lambda f: f.name.lower())
    def test_group_structure_and_format_in_both_formats(self, chain, fmt):
        n = 1 << 9
        poly = eval_poly(n, chain, 3)
        if fmt is LimbFormat.COEFFICIENT:
            poly = poly.to_coefficient()
        named = exponents(n)
        for k in named.values():
            image = poly.automorphism(k)
            assert image.fmt is fmt
            # sigma_k o sigma_k^-1 = id
            assert as_ints(image.automorphism(pow(k, -1, 2 * n))) == as_ints(poly)
            # sigma_k' o sigma_k = sigma_(k k')
            for k2 in (named["rot+2"], named["conj"]):
                assert as_ints(image.automorphism(k2)) == as_ints(
                    poly.automorphism(k * k2)
                )

    def test_many_is_the_per_polynomial_map(self):
        n = 1 << 9
        a, b = eval_poly(n, "mixed", 3), eval_poly(n, "mixed", 3).negate()
        k = rotation_to_exponent(n, 3)
        many = RNSPoly.automorphism_many([a, b], k)
        assert [as_ints(p) for p in many] == [
            as_ints(a.automorphism(k)), as_ints(b.automorphism(k))
        ]
        with pytest.raises(ValueError):
            RNSPoly.automorphism_many([a, b.to_coefficient()], k)


class TestIndexMaps:
    @pytest.mark.parametrize("n", [1 << 4, 1 << 9])
    def test_coefficient_map_is_the_definition(self, n):
        rows = np.arange(1, n + 1, dtype=object).reshape(1, n)
        q = 1 << 40  # signs stay visible: no coefficient is 0 mod q
        for k in exponents(n).values():
            source, sign = coeff_automorphism_map(n, k)
            mapped = (sign * rows[:, source]) % q
            assert np.array_equal(mapped, substitute(rows, k, [q]))

    def test_maps_are_cached_per_residue_and_read_only(self):
        n = 1 << 6
        assert eval_automorphism_map(n, 5) is eval_automorphism_map(n, 5 + 2 * n)
        assert eval_automorphism_map(n, -1) is eval_automorphism_map(n, 2 * n - 1)
        assert coeff_automorphism_map(n, 5)[0] is coeff_automorphism_map(n, 5 - 2 * n)[0]
        for table in (eval_automorphism_map(n, 5), *coeff_automorphism_map(n, 5)):
            assert table.dtype == np.int64 and not table.flags.writeable
        assert sorted(eval_automorphism_map(n, 25)) == list(range(n))
        with pytest.raises(ValueError):
            eval_automorphism_map(n, 4)


# ---------------------------------------------------------------------------
# rotation paths on live ciphertexts
# ---------------------------------------------------------------------------

BACKEND_PARAMS = {
    "uint64": dict(scale_bits=22, first_mod_bits=26),
    "dword": dict(scale_bits=59, first_mod_bits=60),
    "mixed": dict(scale_bits=28, first_mod_bits=60),
    "object": dict(scale_bits=28, first_mod_bits=63),
}
ROTATIONS = [1, 2, -1]


@lru_cache(maxsize=None)
def backend_session(backend: str) -> CKKSSession:
    params = CKKSParameters(
        ring_degree=1 << 8, mult_depth=3, dnum=2, secret_hamming_weight=16,
        label=f"automorphism-{backend}", **BACKEND_PARAMS[backend],
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # object-backend notice
        session = CKKSSession.create(
            params, rotations=ROTATIONS, conjugation=True, seed=5,
            register_default=False,
        )
    expected = {"mixed": "dword"}.get(backend, backend)
    assert session.numeric_backend == expected
    return session


def round_trip(poly: RNSPoly, exponent: int) -> RNSPoly:
    """The parent's evaluation-format automorphism (the oracle route)."""
    assert poly.fmt is LimbFormat.EVALUATION
    return poly.to_coefficient().automorphism(exponent).to_evaluation()


def digest(*polys: RNSPoly) -> str:
    sha = hashlib.sha256()
    for poly in polys:
        sha.update(repr(as_ints(poly)).encode())
    return sha.hexdigest()


@pytest.mark.parametrize("members", [1, 3], ids=["B1", "B3"])
@pytest.mark.parametrize("backend", list(BACKEND_PARAMS))
class TestRotationPathsKeepTheParentsAlgebra:
    """Same digits, same keys, same ModDown: every residue is unchanged."""

    @staticmethod
    def operand(session, members):
        rng = np.random.default_rng(members)
        rows = rng.uniform(-1, 1, (members, 8))
        backend = session.backend
        return backend.encrypt_batch(rows) if members > 1 else backend.encrypt(rows[0])

    def golden_switch(self, session, ct, exponent, key) -> str:
        c0 = round_trip(ct.c0, exponent)
        delta0, delta1 = key_switch(session.context, round_trip(ct.c1, exponent), key)
        return digest(c0.add(delta0), delta1)

    def test_rotate_and_conjugate(self, backend, members):
        session = backend_session(backend)
        ct = self.operand(session, members)
        n = session.context.ring_degree
        for step in ROTATIONS:
            out = session.backend.rotate(ct, step)
            assert digest(out.c0, out.c1) == self.golden_switch(
                session, ct, rotation_to_exponent(n, step),
                session.keys.rotation_keys[step],
            )
        out = session.backend.conjugate(ct)
        assert digest(out.c0, out.c1) == self.golden_switch(
            session, ct, conjugation_exponent(n), session.keys.conjugation_key
        )

    def test_hoisted_rotations(self, backend, members):
        session = backend_session(backend)
        context = session.context
        ct = self.operand(session, members)
        outs = session.backend.hoisted_rotations(ct, ROTATIONS)
        assert list(outs) == ROTATIONS
        decomposed = decompose_and_mod_up(context, ct.c1)
        for step in ROTATIONS:
            exponent = rotation_to_exponent(context.ring_degree, step)
            permuted = DecomposedPolynomial(
                [round_trip(d, exponent) for d in decomposed.extended_digits],
                decomposed.limb_count,
            )
            delta0, delta1 = mod_down_many(context, list(apply_key(
                context, permuted, session.keys.rotation_keys[step]
            )))
            golden = digest(round_trip(ct.c0, exponent).add(delta0), delta1)
            assert digest(outs[step].c0, outs[step].c1) == golden


# ---------------------------------------------------------------------------
# the recorded kernel: one gather per site, never inside a pointwise chain
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def trace_session():
    params = CKKSParameters(
        ring_degree=1 << 10, mult_depth=4, scale_bits=28, dnum=2,
        first_mod_bits=30, label="automorphism-trace",
    )
    return CKKSSession.create(
        params, rotations=[1, 2, 4], seed=7, register_default=False
    )


PROGRAMS = {
    "hmult-then-rotate": lambda a, b: (a * b) << 1,
    "rotate-many": lambda a, b: a.rotate_many([1, 2, 4]),
}


class TestRecordedGather:
    @pytest.mark.parametrize(
        "stage_launches", [False, True], ids=["fused", "stage-granular"]
    )
    @pytest.mark.parametrize("program", list(PROGRAMS))
    def test_executable_trace_replays_and_never_fuses_the_gather(
            self, trace_session, program, stage_launches):
        rng = np.random.default_rng(3)
        a = trace_session.encrypt(rng.uniform(-1, 1, 16))
        b = trace_session.encrypt(rng.uniform(-1, 1, 16))
        with trace_session.trace(executable=True) as trace:
            PROGRAMS[program](a, b)
        if stage_launches:
            trace = expand_stages(trace)
        gathers = [e for e in trace.events if e.kernel.name.startswith("automorph")]
        assert gathers and all(e.kind == "gather" for e in gathers)
        assert all(kernel_kind(e.kernel.name) == "automorphism" for e in gathers)
        fused = fuse_trace(trace)
        if stage_launches:
            assert fused.chains
        for chain in fused.chains:
            assert not any(name.startswith("automorph") for name in chain.kernels)
        if not stage_launches:  # the expansion prices; only the record runs
            TraceProgram(trace).verify()

    def test_hrotate_holds_exactly_the_transforms_of_a_key_switch(self, trace_session):
        ct = trace_session.encrypt(np.linspace(-1, 1, 16))
        with trace_session.trace() as rotate_trace:
            ct << 1
        with trace_session.trace() as switch_trace:
            key_switch(
                trace_session.context, ct.handle.c1,
                trace_session.keys.rotation_keys[1],
            )

        def transforms(trace):
            return [
                (e.leaf, e.kernel.name) for e in trace.events if e.kind == "transform"
            ]

        assert transforms(rotate_trace) == transforms(switch_trace)
        assert {leaf for leaf, _ in transforms(rotate_trace)} == {"modup", "moddown"}
        automorphs = [e for e in rotate_trace.events if e.kind == "gather"]
        assert len(automorphs) == 1 and automorphs[0].scope == "hrotate"
        # c0 and c1 in one launch: reads 2, writes 2.
        limb_bytes = ct.handle.c0.footprint_bytes()
        assert automorphs[0].kernel.bytes_read == 2 * limb_bytes
        assert automorphs[0].kernel.bytes_written == 2 * limb_bytes

    def test_hoisted_step_is_two_gathers(self, trace_session):
        ct = trace_session.encrypt(np.linspace(-1, 1, 16))
        with trace_session.trace() as trace:
            ct.rotate_many([1, 2, 4])
        gathers = [e for e in trace.events if e.kind == "gather"]
        # Per step: all dnum extended digits in one launch, c0 in another.
        assert [e.leaf for e in gathers] == ["keyswitch", "hoisted"] * 3
        assert sum(e.kind == "transform" and e.leaf == "modup"
                   for e in trace.events) == 1 + trace_session.params.dnum


# ---------------------------------------------------------------------------
# satellites: key lookup by Galois element, one author for the Galois map
# ---------------------------------------------------------------------------


class TestRotationKeyServesEveryCongruentStep:
    @pytest.fixture(scope="class")
    def session(self):
        params = CKKSParameters(
            ring_degree=1 << 8, mult_depth=3, scale_bits=22, dnum=2,
            first_mod_bits=26, label="rotation-key-residue",
        )
        return CKKSSession.create(
            params, rotations=[-1, 3], seed=9, register_default=False
        )

    def test_congruent_steps_use_the_loaded_key(self, session):
        assert session.slots == 128
        x = session.encrypt(np.arange(8) / 8.0)
        right, left3 = x.rotate(-1), x.rotate(3)
        for step, same in ((127, right), (-125, left3), (3 + 128, left3)):
            out = x.rotate(step)
            assert as_ints(out.handle.c0) == as_ints(same.handle.c0)
            assert as_ints(out.handle.c1) == as_ints(same.handle.c1)
        many = x.rotate_many([3, 131])
        assert list(many) == [3, 131]
        assert as_ints(many[131].handle.c0) == as_ints(many[3].handle.c0)
        assert as_ints(many[131].handle.c1) == as_ints(many[3].handle.c1)
        np.testing.assert_allclose(
            session.decrypt(many[131], 8), session.decrypt(left3, 8),
            atol=1e-3,
        )
        # The key set stays keyed by the requested steps.
        assert sorted(session.keys.rotation_keys) == [-1, 3]

    def test_cost_backend_agrees(self, session):
        twin = session.cost_backend()
        handle = twin.encrypt(np.zeros(8))
        twin.rotate(handle, 127)
        twin.hoisted_rotations(handle, [3, 131, -125])
        with pytest.raises(KeyError, match="no rotation key for 5 steps"):
            twin.rotate(handle, 5)

    def test_a_missing_element_still_names_the_inventory(self, session):
        x = session.encrypt(np.arange(8) / 8.0)
        with pytest.raises(KeyError, match=r"no rotation key for 126 steps "
                                           r"\(available rotation steps: -1, 3\)"):
            x.rotate(126)
        with pytest.raises(KeyError, match="no rotation key for 2 steps"):
            x.rotate_many([3, 2])


class TestKeygenSharesTheCoefficientMap:
    def test_same_seed_keys_match_a_per_coefficient_reference(self):
        params = CKKSParameters(
            ring_degree=1 << 7, mult_depth=2, scale_bits=22, dnum=2,
            first_mod_bits=26, label="keygen-galois",
        )
        session = CKKSSession.create(params, seed=1, register_default=False)
        context, n = session.context, 1 << 7
        keys = KeyGenerator(context, seed=77).generate([1, -3], conjugation=True)

        # Replay the generator's draw sequence with the automorphism of the
        # secret written out coefficient by coefficient.
        reference = KeyGenerator(context, seed=77)
        secret = reference.generate_secret()
        reference.generate_public(secret)
        reference.generate_relinearization_key(secret)
        galois = [rotation_to_exponent(n, 1), rotation_to_exponent(n, -3),
                  conjugation_exponent(n)]
        generated = [keys.rotation_keys[1], keys.rotation_keys[-3],
                     keys.conjugation_key]
        assert np.array_equal(secret.coefficients, keys.secret_key.coefficients)
        for k, key in zip(galois, generated):
            image = [0] * n
            for j, c in enumerate(secret.coefficients):
                exponent = (j * k) % (2 * n)
                image[exponent % n] = c if exponent < n else -c
            expected = reference.generate_switching_key(image, secret)
            for (b, a), (b_ref, a_ref) in zip(key.digits, expected.digits):
                assert as_ints(b) == as_ints(b_ref)
                assert as_ints(a) == as_ints(a_ref)
