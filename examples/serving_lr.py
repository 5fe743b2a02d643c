"""Serving demo: encrypted LR scoring through the dynamic-batching server.

A mixed request stream -- two logistic-regression models, requests
arriving at staggered simulated times -- flows through
:meth:`~repro.api.session.CKKSSession.server`: the serving plane buckets
requests by ``(ring_degree, level, scale, program)``, fuses each bucket
into one ``(B·L, N)`` kernel stream when the
:class:`~repro.serve.BatchingPolicy` fires (full batch or ``max_wait``
deadline), and resolves every request's future with a result that is
**bit-identical** to scoring it alone on the sequential evaluator --
which this demo asserts, score by score.

Run with:  python examples/serving_lr.py
"""

from __future__ import annotations

import numpy as np

from repro.api import CKKSSession
from repro.apps.logistic_regression import EncryptedLRScorer, sigmoid_poly
from repro.serve import BatchingPolicy, SimulatedClock

FEATURES = 4
REQUESTS_PER_MODEL = 6


def main() -> None:
    rng = np.random.default_rng(7)
    session = CKKSSession.create(
        "toy",
        rotations=EncryptedLRScorer.required_rotations(FEATURES),
        seed=11,
    )

    # Two plaintext models scoring encrypted feature vectors: requests for
    # different models never fuse (the program is part of the shape key).
    scorers = [
        EncryptedLRScorer(session, rng.uniform(-1.0, 1.0, FEATURES))
        for _ in range(2)
    ]
    programs = [scorer.program() for scorer in scorers]

    clock = SimulatedClock()
    policy = BatchingPolicy(max_batch_size=4, max_wait=2e-3)
    server = session.server(policy, clock=clock)

    # Offered load: requests alternate between the models, arriving every
    # 0.5 ms of simulated time; poll after each arrival like a real loop.
    feature_rows, requests = [], []
    for index in range(2 * REQUESTS_PER_MODEL):
        row = rng.uniform(-1.0, 1.0, FEATURES)
        feature_rows.append(row)
        requests.append(
            server.submit(programs[index % 2], session.encrypt(row))
        )
        server.poll()
        clock.advance(5e-4)
    server.drain()  # dispatch the stragglers at their deadlines

    print(f"serving demo [{session.params.describe()}]")
    print(f"fused-batch histogram: {server.metrics.batch_histogram()}")
    print(
        f"p50/p95 queueing latency: {server.metrics.p50_latency * 1e3:.2f} / "
        f"{server.metrics.p95_latency * 1e3:.2f} ms (simulated)"
    )

    print(f"{'model':<6} {'expected':>10} {'decrypted':>10} {'batch':>6}")
    for index, (request, row) in enumerate(zip(requests, feature_rows)):
        scorer = scorers[index % 2]
        response = request.response()

        # Bit-identity: the served result equals the sequential evaluator's.
        reference = scorer.score(request.vector)
        assert np.array_equal(
            request.result().handle.c0.data, reference.handle.c0.data
        )
        assert np.array_equal(
            request.result().handle.c1.data, reference.handle.c1.data
        )

        decrypted = float(session.decrypt(request.result(), 1).real[0])
        expected = float(sigmoid_poly(np.array([scorer.weights @ row]))[0])
        assert abs(decrypted - expected) < 5e-3
        print(
            f"{index % 2:<6} {expected:>10.5f} {decrypted:>10.5f} "
            f"{response.batch_size:>6}"
        )
    print("all responses bit-identical to sequential scoring")


if __name__ == "__main__":
    main()
