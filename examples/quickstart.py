"""Quickstart: encrypt, compute homomorphically with operators, decrypt.

Mirrors the paper's architecture through the high-level API: a
:class:`~repro.api.session.CKKSSession` bundles the OpenFHE-style client
(key generation, encoding, encryption, decryption) with the server-side
evaluator (the FIDESlib role), and homomorphic arithmetic is written with
:class:`~repro.api.vector.CipherVector` operators instead of evaluator
verbs.  The same program is then replayed on the GPU cost model -- the
reproduction's core loop: verify functionally, cost on the model.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro.api import CipherVector, CKKSSession
from repro.ckks.params import CKKSParameters
from repro.gpu.platforms import GPU_RTX_4090
from repro.perf.trace_model import TraceCostModel


def main() -> None:
    # 1. One session object: parameters, client-side keys, server evaluator.
    params = CKKSParameters(
        ring_degree=1 << 10,   # N = 1024 (reduced, insecure, for the demo)
        mult_depth=6,          # L = 6 multiplicative levels
        scale_bits=28,         # Δ = 2^28
        dnum=3,                # hybrid key-switching digits
    )
    session = CKKSSession.create(params, rotations=[1, 2], conjugation=True, seed=1)

    a = np.array([0.25, -0.5, 1.0, 0.75])
    b = np.array([1.5, 0.25, -1.0, 0.5])
    ct_a = session.encrypt(a)
    ct_b = session.encrypt(b)

    # 2. Server side: homomorphic computation as plain arithmetic.
    ct_sum = ct_a + ct_b
    ct_product = ct_a * ct_b
    ct_poly = 2.0 * (ct_a * ct_b) + 1.0
    ct_rotated = ct_a << 1

    # 3. Client side again: decrypt and verify.
    print("CKKS quickstart", params.describe())
    print(f"{'operation':<18} {'expected':<42} decrypted")
    for name, ct, expected in (
        ("a + b", ct_sum, a + b),
        ("a * b", ct_product, a * b),
        ("2*a*b + 1", ct_poly, 2 * a * b + 1),
        ("a << 1", ct_rotated, np.roll(a, -1)),
    ):
        decrypted = session.decrypt(ct, len(expected)).real
        error = np.max(np.abs(decrypted - expected))
        print(f"{name:<18} {np.round(expected, 4)!s:<42} {np.round(decrypted, 4)}  (max err {error:.2e})")

    # 4. The same program on the cost-model backend: no data, only the
    #    level/scale trajectory -- and, because it emits its closed-form
    #    kernels onto the same trace seam the data plane records through,
    #    a kernel trace that prices like a recorded one.
    model = session.cost_backend()
    sym_a = CipherVector(model, model.encrypt(a))
    sym_b = CipherVector(model, model.encrypt(b))
    with session.trace() as trace:
        sym_poly = 2.0 * (sym_a * sym_b) + 1.0
    assert (sym_poly.level, sym_poly.scale) == (ct_poly.level, ct_poly.scale)
    modeled = TraceCostModel(GPU_RTX_4090).price(trace).makespan
    kernels = ", ".join(f"{scope} x{n}" for scope, n in trace.summary()["scopes"].items())
    print(f"\ncost model replay: level {sym_poly.level}, kernels per scope [{kernels}], "
          f"{trace.bytes_moved / 1e6:.1f} MB moved, "
          f"{trace.kernel_count} kernel launches, "
          f"modeled {modeled * 1e6:.1f} us on an RTX 4090")


if __name__ == "__main__":
    main()
