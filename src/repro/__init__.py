"""repro: a Python reproduction of FIDESlib (ISPASS 2025).

FIDESlib is an open-source server-side CKKS GPU library interoperable with
OpenFHE clients.  This package rebuilds the complete system in Python:

* :mod:`repro.api` -- the high-level entry point: :class:`CKKSSession`
  (one object bundling params, context, keys and evaluator),
  :class:`CipherVector` (one operator-overloaded handle over one
  ciphertext or a fused cross-ciphertext batch) and the pluggable :class:`EvaluationBackend` seam that runs the same program
  functionally or against the GPU cost model.
* :mod:`repro.core` -- power-of-two polynomial ring arithmetic under
  word-sized moduli (modular arithmetic, NTT, RNS, limb containers).
* :mod:`repro.ckks` -- the CKKS scheme itself: encoding, encryption,
  homomorphic arithmetic, hybrid key switching, rotations and full
  bootstrapping.
* :mod:`repro.openfhe` -- the client-side reference library and the thin
  adapter layer that mirrors the paper's OpenFHE interoperation.
* :mod:`repro.gpu` -- a GPU execution-model substrate (devices, streams,
  kernels, L2 cache, memory pools) standing in for physical CUDA hardware.
* :mod:`repro.perf` -- execution plans mapping CKKS operations onto the GPU
  model for FIDESlib, Phantom and OpenFHE CPU baselines.
* :mod:`repro.serve` -- the serving plane: a shape-bucketed request queue
  with dynamic batching (:class:`~repro.serve.Server`, reachable as
  ``session.server()``) that turns a live request stream into fused
  ``(B·L, N)`` batches, bit-identical to sequential execution -- plus the
  fault-tolerant control plane: typed :class:`ServeError` responses,
  admission control, deadline/retry semantics and deterministic fault
  injection (:class:`FaultPlan`) for chaos replay.
* :mod:`repro.obs` -- the unified observability plane: a labeled metrics
  registry with Prometheus exposition, request-lifecycle spans on the
  simulated clock, Chrome-trace/Perfetto timeline export of kernel
  schedules plus spans, and per-scope profiling rollups
  (:class:`~repro.obs.Observability`, reachable as
  ``session.observability()``).
* :mod:`repro.apps` -- realistic encrypted workloads (logistic regression,
  linear algebra, statistics) written once against the backend seam.
* :mod:`repro.bench` -- Google-Benchmark-style reporting used by the
  benchmark harness.
"""

from repro.api import (
    CKKSSession,
    CipherVector,
    CostModelBackend,
    EvaluationBackend,
)
from repro.ckks.params import CKKSParameters, PARAMETER_SETS
from repro.ckks.context import Context
from repro.ckks.ciphertext import Ciphertext, Plaintext
from repro.ckks.keys import KeySet, KeyGenerator
from repro.serve.errors import (
    DeadlineExceeded,
    DeviceLost,
    DrainFailed,
    RequestRejected,
    ServeError,
    TransientFault,
)
from repro.serve.faults import FaultEvent, FaultInjector, FaultPlan
from repro.obs import MetricsRegistry, Observability

__all__ = [
    "MetricsRegistry",
    "Observability",
    "CKKSSession",
    "CipherVector",
    "EvaluationBackend",
    "CostModelBackend",
    "CKKSParameters",
    "PARAMETER_SETS",
    "Context",
    "Ciphertext",
    "Plaintext",
    "KeySet",
    "KeyGenerator",
    "ServeError",
    "RequestRejected",
    "DeadlineExceeded",
    "TransientFault",
    "DrainFailed",
    "DeviceLost",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "__version__",
]

__version__ = "1.3.0"
