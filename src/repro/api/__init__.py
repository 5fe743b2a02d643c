"""High-level API: sessions, operator-overloaded handles, backend seam.

This package is the canonical way to use the library (the lower layers
stay available underneath):

* :class:`~repro.api.session.CKKSSession` -- one object bundling
  parameters, context, keys, encryptor/decryptor and the server-side
  evaluator, with the paper's client/server split preserved.
* :class:`~repro.api.vector.CipherVector` -- operator-overloaded
  ciphertext handles (``+ - * **2 << >>``) dispatching to
  HAdd/PtAdd/ScalarAdd/HMult/PtMult/ScalarMult/HSquare/HRotate by operand
  type; one handle holds one ciphertext or a fused batch of them.
* :class:`~repro.api.backend.EvaluationBackend` -- the pluggable seam:
  the session's :class:`~repro.ckks.evaluator.Evaluator` is the
  functional backend and executes for real,
  :class:`~repro.api.backend.CostModelBackend` replays the same program
  symbolically, emitting each operation's closed-form kernels onto the
  execution-plane dispatcher -- so ``session.trace()`` and a priced
  :class:`~repro.serve.Server` record, price
  (:class:`~repro.perf.trace_model.TraceCostModel`) and roll up
  (:class:`~repro.obs.rollup.ScopeRollup`) either backend the same way.
"""

from repro.api.backend import (
    CostModelBackend,
    EvaluationBackend,
    SymbolicCiphertext,
    as_backend,
)
from repro.api.session import CKKSSession, resolve_parameters, resolve_rotations
from repro.api.vector import CipherVector, as_vector

__all__ = [
    "CKKSSession",
    "CipherVector",
    "EvaluationBackend",
    "CostModelBackend",
    "SymbolicCiphertext",
    "as_backend",
    "as_vector",
    "resolve_parameters",
    "resolve_rotations",
]
