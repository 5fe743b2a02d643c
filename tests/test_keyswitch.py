"""Hybrid key switching on word moduli equals the exact oracle.

The key multiply is one word-kernel dot product per component and key-row
window (:func:`repro.ckks.keyswitch.apply_key`): 128-bit sums on a dword
chain, whose digits read the key's residues as they are.  The tests pin
that a key switch is bit-identical to the same computation on exact Python
integers, at the top level and below it, and that it replays from an
executable trace, fused and stage-granular.
"""

import numpy as np
import pytest

from repro.api import CKKSSession
from repro.ckks.context import Context
from repro.ckks.keys import KeyGenerator
from repro.ckks.keyswitch import key_switch
from repro.ckks.params import CKKSParameters
from repro.core import modmath
from repro.core.dispatch import DISPATCH
from repro.core.fusion import TraceProgram, expand_stages, fuse_trace
from repro.core.limb import LimbFormat
from repro.core.rns_poly import RNSPoly


def _params(scale_bits=59, first_mod_bits=60, **extra):
    return CKKSParameters(
        ring_degree=1 << 6, mult_depth=3, scale_bits=scale_bits, dnum=2,
        first_mod_bits=first_mod_bits, secret_hamming_weight=16,
        label=f"keyswitch-{scale_bits}-{first_mod_bits}", **extra,
    )


def _key_switches(params):
    """The relinearization key switch of a random polynomial at the top
    level and two limbs (two key-row windows), as Python integers."""
    context = Context(params)
    key = KeyGenerator(context, seed=9).generate([]).relinearization_key
    results = []
    for limb_count in (len(context.moduli), 2):
        moduli = context.moduli_at(limb_count)
        rng = np.random.default_rng(limb_count)
        rows = [rng.integers(0, q, context.ring_degree, dtype=np.uint64) for q in moduli]
        poly = RNSPoly.from_limb_arrays(
            context.ring_degree, moduli, rows, LimbFormat.EVALUATION
        )
        results += [p.data.tolist() for p in key_switch(context, poly, key)]
    return context, [[[int(x) for x in row] for row in data] for data in results]


class TestBitIdentity:
    @pytest.mark.parametrize(
        "params",
        [_params(), _params(28, 60, special_mod_bits=28)],
        ids=["59-bit", "60+28-bit"],
    )
    def test_key_switch_equals_the_object_oracle(self, params, object_backend):
        """Top level and below it, every residue."""
        context, word = _key_switches(params)
        assert context.numeric_backend == modmath.BACKEND_DWORD
        with object_backend():
            oracle_context, exact = _key_switches(params)
        assert oracle_context.numeric_backend == modmath.BACKEND_OBJECT
        assert word == exact

    @pytest.fixture(scope="class")
    def session(self):
        session = CKKSSession.create(
            _params(), rotations=[1], seed=5, register_default=False,
        )
        assert session.numeric_backend == modmath.BACKEND_DWORD
        return session

    @pytest.mark.parametrize("stage_launches", [False, True],
                             ids=["fused", "stage-granular"])
    @pytest.mark.parametrize("members", [1, 3], ids=["B1", "B3"])
    def test_dword_key_switches_replay(self, session, members, stage_launches):
        rng = np.random.default_rng(31)

        def operand():
            rows = [rng.uniform(-1, 1, 8) for _ in range(members)]
            return session.encrypt_batch(rows) if members > 1 else \
                session.encrypt(rows[0])

        x, y = operand(), operand()
        low = (x * y).rescale()  # below the top level: two key-row windows
        with DISPATCH.record(executable=True) as trace:
            x * y
            x << 1
            low << 1
        if not stage_launches:
            TraceProgram(trace).verify()
            return
        # Unfused, each component's two-digit dot product at the top level
        # is a multiply and a multiply-add reading the products' operands.
        # Two levels down one digit is left, and its inner product stays
        # one launch.
        staged = expand_stages(trace)
        products = [e for e in staged if e.kernel.name.startswith("ks-")]
        assert [e.kernel.name.split("[")[0] for e in products] == \
            ["ks-mul", "ks-mul-add"] * 4 + ["ks-inner-product"]
        assert [len(e.read_views) for e in products[:-1]] == [2, 3] * 4
        assert fuse_trace(staged).fused_trace.int_ops == pytest.approx(staged.int_ops)
