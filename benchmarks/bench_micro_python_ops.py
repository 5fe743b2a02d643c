"""Microbenchmarks of the functional Python kernels (reduced parameters).

These complement the paper-scale model benches: they measure the actual
Python implementation of the core kernels (NTT, base conversion,
homomorphic primitives) at the toy parameter set, mirroring the
microbenchmark suite FIDESlib ships with Google Benchmark.  The
homomorphic primitives are driven through the high-level API
(:class:`~repro.api.session.CKKSSession` + ``CipherVector`` operators),
so the measured path is the one applications actually use.
"""

import numpy as np
import pytest

from repro.api import CKKSSession
from repro.ckks.params import CKKSParameters
from repro.core.ntt import get_stacked_engine

#: The limb-batch acceptance configuration: N = 2^13, the size used by the
#: committed ``BENCH_limbstack.json`` speedup record.
N13_PARAMS = CKKSParameters(
    ring_degree=1 << 13,
    mult_depth=6,
    scale_bits=28,
    dnum=3,
    first_mod_bits=30,
    label="micro-n13",
)


@pytest.fixture(scope="module")
def functional_setup():
    session = CKKSSession.create(
        "toy", rotations=[1], seed=3, register_default=False
    )
    rng = np.random.default_rng(0)
    ct_a = session.encrypt(rng.uniform(-1, 1, 16))
    ct_b = session.encrypt(rng.uniform(-1, 1, 16))
    return {"session": session, "ct_a": ct_a, "ct_b": ct_b}


@pytest.fixture(scope="module")
def n13_setup():
    session = CKKSSession.create(
        N13_PARAMS, rotations=[1], seed=3, register_default=False
    )
    rng = np.random.default_rng(0)
    ct_a = session.encrypt(rng.uniform(-1, 1, 16))
    ct_b = session.encrypt(rng.uniform(-1, 1, 16))
    return {"session": session, "ct_a": ct_a, "ct_b": ct_b}


def _one_row(context, seed):
    """The engine over ``q_0`` alone and a random one-row stack for it."""
    q = context.moduli[0]
    engine = get_stacked_engine(context.ring_degree, (q,))
    rng = np.random.default_rng(seed)
    return engine, rng.integers(0, q, (1, context.ring_degree)).astype(np.uint64)


def test_micro_ntt_forward(benchmark, functional_setup):
    engine, data = _one_row(functional_setup["session"].context, 1)
    benchmark(engine.forward, data)


def test_micro_ntt_inverse(benchmark, functional_setup):
    engine, data = _one_row(functional_setup["session"].context, 2)
    benchmark(engine.inverse, engine.forward(data))


def test_micro_base_conversion(benchmark, functional_setup):
    context = functional_setup["session"].context
    converter = context.modup_converter(len(context.moduli), 0)
    limbs = [
        np.random.default_rng(i).integers(0, q, context.ring_degree).astype(np.uint64)
        for i, q in enumerate(converter.source.moduli)
    ]
    benchmark(converter.convert, limbs)


def test_micro_hadd(benchmark, functional_setup):
    ct_a, ct_b = functional_setup["ct_a"], functional_setup["ct_b"]
    benchmark(lambda: ct_a + ct_b)


def test_micro_hmult(benchmark, functional_setup):
    ct_a, ct_b = functional_setup["ct_a"], functional_setup["ct_b"]
    benchmark(lambda: ct_a * ct_b)


def test_micro_rescale(benchmark, functional_setup):
    session = functional_setup["session"]
    raw = session.evaluator.multiply(
        functional_setup["ct_a"].handle, functional_setup["ct_b"].handle, rescale=False
    )
    unscaled = session.wrap(raw)
    benchmark(unscaled.rescale)


def test_micro_rotation(benchmark, functional_setup):
    ct_a = functional_setup["ct_a"]
    benchmark(lambda: ct_a << 1)


def test_micro_hmult_rescale_n13(benchmark, n13_setup):
    """HMult + relinearize + rescale at N = 2^13 (the limb-batch headline).

    The committed ``BENCH_limbstack.json`` records this exact operation
    measured before and after the flat limb-stack refactor.
    """
    ct_a, ct_b = n13_setup["ct_a"], n13_setup["ct_b"]
    benchmark(lambda: ct_a * ct_b)


def test_micro_stacked_ntt_n13(benchmark, n13_setup):
    """One stacked forward NTT over every limb of an N = 2^13 polynomial."""
    session = n13_setup["session"]
    context = session.context
    engine = get_stacked_engine(context.ring_degree, tuple(context.moduli))
    stack = n13_setup["ct_a"].handle.c0.stack.data
    benchmark(engine.forward, stack)
