"""Realistic encrypted workloads built on the high-level :mod:`repro.api`.

Every workload is written once against the
:class:`~repro.api.backend.EvaluationBackend` seam: it verifies
functionally on an :class:`~repro.ckks.evaluator.Evaluator` (the
functional backend, ``session.backend``) and costs on a :class:`~repro.api.backend.CostModelBackend` at paper-scale
parameters.

* :mod:`repro.apps.dataset` -- synthetic loan-eligibility data standing in
  for the proprietary 45,000-sample dataset of the paper's LR experiment.
* :mod:`repro.apps.logistic_regression` -- encrypted mini-batch logistic
  regression training (Table VII's workload) plus a plaintext reference.
* :mod:`repro.apps.linear_algebra` -- encrypted slot sums (the
  rotate-and-add tree the regression reduces its gradients with).
"""

from repro.apps.dataset import make_loan_dataset
from repro.apps.logistic_regression import (
    EncryptedLogisticRegression,
    PlaintextLogisticRegression,
)
from repro.apps.linear_algebra import EncryptedLinearAlgebra

__all__ = [
    "make_loan_dataset",
    "EncryptedLogisticRegression",
    "PlaintextLogisticRegression",
    "EncryptedLinearAlgebra",
]
