"""Encrypted logistic-regression training (the Table VII workload, reduced size).

Trains a logistic-regression model on an encrypted synthetic
loan-eligibility mini-batch through the high-level API
(:class:`~repro.api.session.CKKSSession` + operator-overloaded
ciphertexts) and compares the decrypted model against the plaintext
reference trained on the same data.  The same training step is then
replayed on the cost-model backend at the paper's LR parameter set to
reproduce the GPU-scale cost -- one program, two backends.

Run with:  python examples/encrypted_logistic_regression.py
"""

from __future__ import annotations

import time

import numpy as np

from repro.api import CKKSSession, CostModelBackend
from repro.apps.dataset import make_loan_dataset
from repro.apps.logistic_regression import (
    EncryptedLogisticRegression,
    PlaintextLogisticRegression,
)
from repro.ckks.params import PARAMETER_SETS
from repro.gpu.platforms import GPU_RTX_4090
from repro.perf.fideslib_model import FIDESlibModel


def main() -> None:
    # Reduced problem: 8 samples per batch, 4 features (paper: 1024 x 32).
    batch_size, features = 8, 4
    data = make_loan_dataset(samples=64, features=features,
                             pad_to_power_of_two=False, noise=0.1, seed=3)

    params = PARAMETER_SETS["toy-deep"]
    context_keys_start = time.time()
    session = CKKSSession.create(
        params,
        rotations=EncryptedLogisticRegression.required_rotations(batch_size),
        seed=11,
    )
    print(f"session ready in {time.time() - context_keys_start:.1f}s "
          f"({params.describe()}, {len(session.context.moduli)} limbs)")

    plaintext_model = PlaintextLogisticRegression(learning_rate=2.0)
    encrypted_model = EncryptedLogisticRegression(
        backend=session, feature_count=features, learning_rate=2.0,
    )

    iterations = 2
    batches = list(data.batches(batch_size))[:iterations]
    for index, (x, y) in enumerate(batches):
        start = time.time()
        columns, label_ct = encrypted_model.encrypt_batch(x, y)
        encrypted_model.train_batch(columns, label_ct, batch_size)
        plaintext_model.fit_batch(x, y)
        print(f"iteration {index + 1}: encrypted step took {time.time() - start:.1f}s")

    encrypted_weights = encrypted_model.decrypt_weights(session)
    print("\nplaintext weights :", np.round(plaintext_model.weights, 4))
    print("encrypted weights :", np.round(encrypted_weights, 4))
    print("max difference    :", f"{np.max(np.abs(encrypted_weights - plaintext_model.weights)):.2e}")

    # The trained (encrypted) model still classifies the dataset well.
    plaintext_model.weights = encrypted_weights
    accuracy = plaintext_model.accuracy(data.features, data.labels)
    print(f"accuracy of the encrypted-trained model: {accuracy:.2%}")

    raw = session.download(encrypted_model.weights[0])
    kib = 2 * len(raw.c0.limbs) * session.context.ring_degree * 8 // 1024
    print(f"one weight ciphertext occupies about {kib} KiB when exported through the adapter")

    # The same training step on the GPU cost model at paper-LR parameters.
    paper_params = PARAMETER_SETS["paper-lr"]
    gpu = FIDESlibModel(GPU_RTX_4090, paper_params, limb_batch=4)
    cost_model = CostModelBackend.for_model(gpu)
    cost_lr = EncryptedLogisticRegression(
        backend=cost_model, feature_count=features, learning_rate=2.0,
    )
    x, y = batches[0]
    columns, label_ct = cost_lr.encrypt_batch(x, y)
    with session.trace() as trace:
        cost_lr.train_batch(columns, label_ct, batch_size)
    modelled = gpu.pricer.price(trace).makespan
    print(f"\nsame step on the cost model at {paper_params.describe()}: "
          f"{trace.kernel_count} kernel launches, modelled {modelled * 1e3:.1f} ms "
          f"on an RTX 4090")


if __name__ == "__main__":
    main()
