"""Process-global caches are bounded (ROADMAP 5(c)) and read-only.

A long-lived process (a server, a test session) meets new ring degrees,
moduli tuples, rotation exponents and parameter sets; a ``functools`` cache
with ``maxsize=None`` would keep every one of them.  Each cache in the
package names a finite bound that the measured workloads stay under.  So does a
per-object cache keyed by a value the caller picks (the bootstrap's
transforms and encoded diagonals, keyed by input scale): it is an LRU.

A cached table is shared by every caller on every thread, so every array
reachable from one is frozen: an in-place write raises instead of
poisoning every later use.
"""

from __future__ import annotations

import gc
import importlib
import pkgutil

import numpy as np
import pytest

import repro
from repro.ckks.encoding import rotation_group
from repro.core import modmath
from repro.core.ntt import (
    get_stacked_engine,
    kernel_tables,
    reference_transform,
    twiddle_tables,
)
from repro.core.primes import generate_ntt_primes


def _functools_caches():
    """``(qualified name, cache)`` for every functools cache in ``repro.*``."""
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for name, value in vars(module).items():
            found = [(name, value)]
            if isinstance(value, type):  # cached methods
                found += [(f"{name}.{attr}", member)
                          for attr, member in vars(value).items()]
            for qualname, candidate in found:
                if callable(getattr(candidate, "cache_parameters", None)):
                    yield f"{info.name}.{qualname}", candidate


def test_every_functools_cache_has_a_finite_bound():
    caches = dict(_functools_caches())
    assert "repro.core.ntt.twiddle_tables" in caches  # the scan sees them
    unbounded = sorted(
        name for name, cache in caches.items()
        if cache.cache_parameters()["maxsize"] is None
    )
    assert not unbounded, unbounded


def _arrays(value, seen: set) -> list[np.ndarray]:
    """Every ndarray reachable from ``value``: through containers, object
    attributes and the arrays a view is a view of."""
    if id(value) in seen:
        return []
    seen.add(id(value))
    if isinstance(value, np.ndarray):
        return [value] + _arrays(value.base, seen)
    if isinstance(value, dict):
        children = list(value.values())
    elif isinstance(value, (list, tuple)):
        children = list(value)
    elif hasattr(value, "__dict__") and not isinstance(value, type):
        children = list(vars(value).values())
    else:
        return []
    return [array for child in children for array in _arrays(child, seen)]


_UINT64 = tuple(generate_ntt_primes(3, 28, 1 << 10))
_DWORD = tuple(generate_ntt_primes(3, 59, 1 << 10))
_UINT64_WIDE = tuple(generate_ntt_primes(2, 28, 1 << 15))

CACHED = {
    "rotation_group": lambda: rotation_group(1 << 10),
    "twiddle_tables": lambda: twiddle_tables(1 << 10, _DWORD[0]),
    "kernel_tables": lambda: kernel_tables(1 << 10, _UINT64[0]),
    "moduli_column": lambda: modmath.moduli_column(_DWORD),
    "engine-uint64": lambda: get_stacked_engine(1 << 10, _UINT64),
    "engine-dword": lambda: get_stacked_engine(1 << 10, _DWORD),
    "engine-uint64-2^15": lambda: get_stacked_engine(1 << 15, _UINT64_WIDE),
}


@pytest.mark.parametrize("name", sorted(CACHED))
def test_every_cached_array_is_read_only(name):
    arrays = _arrays(CACHED[name](), set())
    assert arrays  # the walk reaches the tables
    writable = [a.shape for a in arrays if a.flags.writeable]
    assert not writable, f"{name}: writable arrays of shape {writable}"


@pytest.mark.parametrize("moduli", [_UINT64, _DWORD], ids=["uint64", "dword"])
def test_the_walk_reaches_every_engine_table(moduli):
    engine = get_stacked_engine(1 << 10, moduli)
    tables = [*engine._tables.values(), engine._row_tables]
    reached = {id(a) for a in _arrays(engine, set())}
    assert {id(a) for a in tables} <= reached


def test_an_engine_points_into_kernel_tables():
    """At N = 2**15 an engine's rows point into the cached
    ``kernel_tables`` arrays, read-only, which it holds and never copies;
    the NTT keeps no other cache."""
    n = 1 << 15
    engine = get_stacked_engine(n, _UINT64_WIDE)
    tables = [kernel_tables(n, q) for q in _UINT64_WIDE]
    assert all(engine._tables[q] is table for q, table in zip(_UINT64_WIDE, tables))
    assert engine._row_tables.tolist() == [
        [table[d].ctypes.data for table in tables] for d in (0, 1)]
    assert not [a.shape for a in _arrays(tables, set()) if a.flags.writeable]
    ntt_caches = {name for name, _ in _functools_caches()
                  if name.startswith("repro.core.ntt.")}
    assert ntt_caches == {"repro.core.ntt.twiddle_tables", "repro.core.ntt.kernel_tables",
                          "repro.core.ntt.get_stacked_engine"}


@pytest.mark.parametrize("moduli", [_UINT64, _DWORD], ids=["uint64", "dword"])
def test_an_engine_outlives_a_cleared_table_cache(moduli):
    """The engine owns the tables its rows point at: with the table caches
    cleared (and their arrays collected were nothing else holding them),
    a live engine still transforms like the oracle."""
    n = 1 << 10
    engine = get_stacked_engine(n, moduli)
    twiddle_tables.cache_clear()
    kernel_tables.cache_clear()
    gc.collect()
    np.zeros((64, n), dtype=np.uint64).fill(1)  # reuse any freed memory
    rng = np.random.default_rng(5)
    stack = rng.integers(0, min(moduli), (len(moduli), n), dtype=np.uint64)
    for inverse in (False, True):
        got = (engine.inverse if inverse else engine.forward)(stack)
        assert got.tolist() == reference_transform(stack, moduli, inverse=inverse).tolist()


def test_a_cached_table_refuses_an_in_place_write():
    with pytest.raises(ValueError, match="read-only"):
        rotation_group(1 << 10)[:] += 1


def test_bootstrap_transforms_are_keyed_by_level():
    """``Bootstrapper`` builds its one SlotToCoeff chain with CoeffToSlot,
    and each factor encodes its diagonals once per level: repeated
    bootstraps reuse them, and inputs at many scales add no chain and, on
    one level, no encoded set (the sets are bounded by the chain length).
    The full-slot chains run on a full-slot message; a sparse one builds
    one plan per replication period, reused at every scale."""
    from repro.api import CKKSSession
    from repro.ckks.bootstrap import Bootstrapper
    from repro.ckks.linear_transform import dft_levels
    from repro.ckks.params import PARAMETER_SETS

    params = PARAMETER_SETS["toy-bootstrap"].with_overrides(ring_degree=1 << 6)
    session = CKKSSession.create(params, seed=3, conjugation=True, register_default=False)
    boot = Bootstrapper(session.context, session.evaluator)
    session.add_rotation_keys(boot.required_rotations())
    ev = session.evaluator
    values = np.linspace(-0.4, 0.4, params.slots)
    levels = dft_levels(params.slots)
    chains = {"c2s": boot._coeff_to_slot, "s2c": boot._slot_to_coeff}

    def cached():
        """Each factor with its encoded diagonal sets."""
        return {(key, i): (transform, *transform._encoded.values())
                for key, chain in chains.items() for i, transform in enumerate(chain)}

    assert all(not transform._encoded for transform, *_ in cached().values())
    ct = ev.encrypt(values, level=0)
    boot.bootstrap(ct)
    steady = cached()
    assert len(steady) == 2 * levels and all(len(entry) == 2 for entry in steady.values())
    boot.bootstrap(ct)
    again = cached()
    assert again.keys() == steady.keys()
    assert all(a is b for key in steady for a, b in zip(again[key], steady[key]))

    top = ev.encrypt(values)
    scales = [2.0 ** (18 + k) for k in range(10)]
    reference = boot.slot_to_coeff(top, top, params.scale)
    for scale in scales:
        result = boot.slot_to_coeff(top, top, scale)
        assert result.scale == reference.scale * (scale / params.scale)
    assert boot._slot_to_coeff is chains["s2c"]
    assert cached().keys() == steady.keys()

    transform = boot._coeff_to_slot[0]
    bootstrap_limbs = set(transform._encoded)
    for scale in scales:
        transform.apply(ev, ev.encrypt(values, scale=scale))
    assert set(transform._encoded) == bootstrap_limbs | {top.limb_count}

    assert not boot._sparse
    for scale in scales:
        boot.bootstrap(ev.encrypt(values[:8], scale=scale, level=0))
    plan = boot._sparse[8]
    assert list(boot._sparse) == [8]
    assert [len(t._encoded) for t in (plan.coeff_to_slot, plan.slot_to_coeff)] == [1, 1]


@pytest.mark.parametrize("scale_bits, first_mod_bits", [(22, 26), (59, 60)],
                         ids=["uint64", "dword"])
def test_a_fused_key_switch_leaves_no_state_behind(scale_bits, first_mod_bits):
    """Key material is read-only once loaded: after a plain HMult has built
    the context's converters, a fused B=3 HMult on a fresh ``Context``
    leaves no new array reachable from the context or the key set -- a
    fused operand's key tiles die with the key switch."""
    from repro.ckks.ciphertext import Ciphertext
    from repro.ckks.context import Context
    from repro.ckks.encryption import Encryptor
    from repro.ckks.evaluator import Evaluator
    from repro.ckks.keys import KeyGenerator
    from repro.ckks.params import CKKSParameters

    params = CKKSParameters(
        ring_degree=1 << 6, mult_depth=3, scale_bits=scale_bits, dnum=2,
        first_mod_bits=first_mod_bits, secret_hamming_weight=16,
        label=f"read-only-keys-{scale_bits}",
    )
    context = Context(params)
    keys = KeyGenerator(context, seed=5).generate([])
    evaluator = Evaluator(context, keys)
    encryptor = Encryptor(context, keys.public_key, seed=6)
    values = np.linspace(-0.5, 0.5, 8)
    cts = [encryptor.encrypt_values(values * (k + 1)) for k in range(3)]
    evaluator.multiply(cts[0], cts[1])  # builds the converters at this level
    fused = Ciphertext.fuse(cts)
    held = _arrays((context, keys), set())  # held, so no id is recycled
    before = {id(a) for a in held}
    evaluator.multiply(fused, fused)
    new = [a.shape for a in _arrays((context, keys), set()) if id(a) not in before]
    assert held and not new, f"arrays left behind: {new}"
