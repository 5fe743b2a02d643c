"""Encrypted logistic-regression training (the Table VII workload).

Follows the mini-batch gradient-descent approach of Han et al. [51] that
the paper benchmarks: features and labels are encrypted column-wise
(one ciphertext per feature column, samples in the slots), the model is a
set of encrypted per-feature weight ciphertexts, and each iteration
evaluates the polynomial-approximated sigmoid and the gradient entirely
under encryption.

The model is written against the backend seam of :mod:`repro.api`: on an
:class:`~repro.ckks.evaluator.Evaluator` (the functional backend) it
trains for real at reduced problem sizes, while the *same* training step replayed on a
:class:`~repro.api.backend.CostModelBackend` reproduces the paper-scale
GPU cost (see :class:`repro.perf.workloads.LogisticRegressionWorkload`
for the closed-form counterpart).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.api.backend import as_backend
from repro.api.vector import CipherVector, as_vector
from repro.apps.dataset import _next_power_of_two
from repro.apps.linear_algebra import EncryptedLinearAlgebra
from repro.ckks.context import reply_limbs

#: Degree-3 least-squares approximation of the sigmoid on [-6, 6]
#: (the approximation used by Han et al. for encrypted LR training).
SIGMOID_COEFFS = (0.5, 0.197, 0.0, -0.004)


#: Multiplicative levels of :class:`EncryptedLRScorer`'s circuit: the
#: PtMult, the square (beside ``c3·z``) and the cubic product.
SCORE_DEPTH = 3


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Exact sigmoid (plaintext reference)."""
    return 1.0 / (1.0 + np.exp(-x))


def sigmoid_poly(x: np.ndarray) -> np.ndarray:
    """The degree-3 polynomial sigmoid approximation used under encryption."""
    c0, c1, c2, c3 = SIGMOID_COEFFS
    return c0 + c1 * x + c2 * x**2 + c3 * x**3


@dataclass
class PlaintextLogisticRegression:
    """Plaintext mini-batch gradient descent (reference for the tests)."""

    learning_rate: float = 1.0
    use_polynomial_sigmoid: bool = True
    weights: np.ndarray | None = None

    def fit_batch(self, features: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """Run one gradient-descent step on a mini-batch; returns weights."""
        samples, dim = features.shape
        if self.weights is None:
            self.weights = np.zeros(dim)
        logits = features @ self.weights
        activation = sigmoid_poly(logits) if self.use_polynomial_sigmoid else sigmoid(logits)
        gradient = features.T @ (activation - labels) / samples
        self.weights = self.weights - self.learning_rate * gradient
        return self.weights

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Return class predictions for ``features``."""
        if self.weights is None:
            raise RuntimeError("model has not been trained")
        return (features @ self.weights > 0).astype(np.float64)

    def accuracy(self, features: np.ndarray, labels: np.ndarray) -> float:
        """Classification accuracy on the given data."""
        return float(np.mean(self.predict(features) == labels))


@dataclass
class EncryptedLogisticRegression:
    """Mini-batch logistic regression trained on encrypted data.

    Parameters
    ----------
    backend:
        An :class:`~repro.api.backend.EvaluationBackend` (or a
        :class:`~repro.api.session.CKKSSession`).  The backend needs
        rotation keys for the powers of two below the batch size
        (rotation sums over the samples).
    feature_count:
        Number of (padded) features; one ciphertext per feature column.
    learning_rate:
        Gradient-descent step size.
    """

    backend: object
    feature_count: int
    learning_rate: float = 1.0
    weights: list[CipherVector] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.backend = as_backend(self.backend)
        self._linalg = EncryptedLinearAlgebra(self.backend)

    # ------------------------------------------------------------------

    @staticmethod
    def required_rotations(batch_size: int) -> list[int]:
        """Rotation keys needed to train with mini-batches of ``batch_size``."""
        return EncryptedLinearAlgebra.rotation_steps_for_sum(batch_size)

    def _encrypt(self, values) -> CipherVector:
        return CipherVector(self.backend, self.backend.encrypt(values))

    def encrypt_batch(self, features: np.ndarray, labels: np.ndarray
                      ) -> tuple[list[CipherVector], CipherVector]:
        """Encrypt a mini-batch column-wise: one ciphertext per feature."""
        samples, dim = features.shape
        if dim != self.feature_count:
            raise ValueError("feature dimension mismatch")
        columns = [self._encrypt(features[:, j]) for j in range(dim)]
        label_ct = self._encrypt(labels)
        return columns, label_ct

    def initialise_weights(self) -> None:
        """Encrypt an all-zero weight vector (one broadcast ciphertext per feature)."""
        self.weights = [self._encrypt(np.zeros(1)) for _ in range(self.feature_count)]

    # ------------------------------------------------------------------

    def _logits(self, columns: list[CipherVector]) -> CipherVector:
        terms = [column * weight for column, weight in zip(columns, self.weights)]
        logits = terms[0]
        for term in terms[1:]:
            logits = logits + term
        return logits

    def _sigmoid(self, logits: CipherVector) -> CipherVector:
        c0, c1, _, c3 = SIGMOID_COEFFS
        linear = logits * c1
        cubed = (logits ** 2) * logits
        return linear + cubed * c3 + c0

    def train_batch(self, columns: list[CipherVector], label_ct: CipherVector,
                    batch_size: int) -> None:
        """Run one encrypted gradient-descent step on an encrypted mini-batch."""
        if not self.weights:
            self.initialise_weights()
        logits = self._logits(columns)
        activation = self._sigmoid(logits)
        residual = activation - label_ct
        scale = -self.learning_rate / batch_size
        new_weights = []
        for column, weight in zip(columns, self.weights):
            correlation = residual * column
            gradient = self._linalg.sum_slots(correlation, batch_size)
            new_weights.append(weight + gradient * scale)
        self.weights = new_weights

    def decrypt_weights(self, decryptor) -> np.ndarray:
        """Decrypt the current model (client-side operation).

        ``decryptor`` may be a :class:`~repro.ckks.encryption.Decryptor`
        or a :class:`~repro.api.session.CKKSSession`.
        """
        if hasattr(decryptor, "decrypt_values"):
            values = [decryptor.decrypt_values(w.handle, 1) for w in self.weights]
        else:
            values = [decryptor.decrypt(w, 1) for w in self.weights]
        return np.array([float(v[0].real) for v in values])


@dataclass
class EncryptedLRScorer:
    """Encrypted inference with a plaintext model (the serving workload).

    The scoring counterpart of :class:`EncryptedLogisticRegression`: the
    server holds trained weights in the clear and scores *encrypted*
    feature vectors -- each request one ciphertext with the features in
    its leading slots.  The score ``sigmoid_poly(w·x)`` lands in slot 0.

    The circuit is written once against the
    :class:`~repro.api.vector.CipherVector` operator surface, so
    :meth:`score` issues the identical op sequence for one request
    (``batch_size=1``) and for a fused inference batch (one ``(B·L, N)``
    kernel stream) -- which is what makes the two bit-identical member by
    member.  The cubic sigmoid term is factored as ``c3·x·(x² + c1/c3)``,
    whose two ciphertext factors sit at the same level by construction.

    Requires rotation keys for the powers of two below the padded feature
    count (:meth:`required_rotations`).  The circuit is 3 levels deep, and
    its first step mod-reduces the input to ``min(x.limb_count, 3 + k)``
    limbs, where ``k`` is :func:`~repro.ckks.context.reply_limbs` of
    :attr:`output_bound`: every HMult, rotation and rescale runs on the limbs
    the depth and the score need, and the score leaves with ``k`` limbs.
    """

    backend: object
    weights: np.ndarray

    def __post_init__(self) -> None:
        self.backend = as_backend(self.backend)
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.weights.ndim != 1 or self.weights.size == 0:
            raise ValueError("weights must be a non-empty 1-D vector")
        padded = _next_power_of_two(self.weights.size)
        self._padded_count = padded
        self._padded_weights = np.zeros(padded)
        self._padded_weights[: self.weights.size] = self.weights

    @property
    def output_bound(self) -> float:
        """A bound on ``|sigmoid_poly(w·x)|`` for features in [−1, 1]:
        ``Σ|c_i|·W^i`` with ``W = Σ|w_j|`` bounding ``|w·x|``."""
        total = float(np.abs(self.weights).sum())
        return sum(abs(c) * total**i for i, c in enumerate(SIGMOID_COEFFS))

    @property
    def feature_count(self) -> int:
        """Number of model features (unpadded)."""
        return int(self.weights.size)

    @staticmethod
    def required_rotations(feature_count: int) -> list[int]:
        """Rotation keys needed to score ``feature_count`` features."""
        return EncryptedLinearAlgebra.rotation_steps_for_sum(
            _next_power_of_two(feature_count)
        )

    # ------------------------------------------------------------------

    def _score(self, x):
        """The shared circuit over a (possibly fused) CipherVector."""
        c0, c1, _, c3 = SIGMOID_COEFFS
        backend = x.backend
        k = reply_limbs(backend.moduli, backend.scale_ladder, self.output_bound)
        x = x.mod_reduce(min(x.limb_count, SCORE_DEPTH + k))
        masked = x * self._padded_weights          # PtMult: w_j * x_j per slot
        logits = masked
        for step in EncryptedLinearAlgebra.rotation_steps_for_sum(self._padded_count):
            logits = logits + (logits << step)     # rotate-and-add: slot0 = w.x
        squared = logits.square()                  # z^2          (level l-1)
        shifted = squared + (c1 / c3)              # z^2 + c1/c3  (level l-1)
        scaled = logits * c3                       # c3 z         (level l-1)
        cubic = shifted * scaled                   # c1 z + c3 z^3 (level l-2)
        return cubic + c0

    def score(self, vector: CipherVector) -> CipherVector:
        """Score one encrypted feature vector, or every member of a fused batch.

        The members of a fused result are bit-identical to scoring each
        member alone.
        """
        return self._score(as_vector(self.backend, vector))

    def program(self):
        """This scorer as a serving-plane :class:`~repro.serve.OpProgram`.

        The program key includes the exact model bytes, so two servers (or
        two models on one server) never fuse each other's requests.
        """
        from repro.serve.request import OpProgram

        return OpProgram(
            f"lr-score[d={self.feature_count}]",
            self._score,
            key=("lr-score", self.feature_count, self.weights.tobytes()),
        )


__all__ = [
    "PlaintextLogisticRegression",
    "EncryptedLogisticRegression",
    "EncryptedLRScorer",
    "SIGMOID_COEFFS",
    "sigmoid",
    "sigmoid_poly",
]
