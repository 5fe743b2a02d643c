"""``CipherVector``: an operator-overloaded handle over a backend ciphertext.

Arithmetic on encrypted vectors reads like NumPy instead of nested
evaluator verbs::

    ct_poly = 2.0 * (ct_a * ct_b) + 1.0      # ScalarMult(HMult(..)) + ScalarAdd
    shifted = ct_a << 3                       # HRotate by 3 slots
    energy  = (ct_a ** 2) + (ct_b ** 2)       # HSquare + HAdd

Each operator dispatches on the operand type -- another
:class:`CipherVector` (HAdd/HMult), a pre-encoded
:class:`~repro.ckks.ciphertext.Plaintext` or a raw value array
(PtAdd/PtMult), or a real scalar (ScalarAdd/ScalarMult) -- and routes to
the vector's :class:`~repro.api.backend.EvaluationBackend`, so the same
program runs functionally or against the GPU cost model.  Scale-ladder
management stays inside the backend/evaluator: mismatched scales raise
before any polynomial arithmetic happens.

One handle also stands for ``B`` independent encrypted vectors walking the
same circuit (the throughput plane): a fused handle issues **one** backend
operation -- fused ``(B·L, N)`` kernels on the functional backend --
instead of ``B`` sequential ones::

    batch = session.encrypt_batch([req_0, req_1, ..., req_7])
    scored = 2.0 * (batch * batch) + 1.0      # one fused kernel stream
    for vec in scored.split():                # back to per-request handles
        ...

Plaintext, raw-array and scalar operands broadcast to every member;
another fused handle combines member-wise.
"""

from __future__ import annotations

import numbers
from typing import Sequence

import numpy as np

from repro.ckks.ciphertext import Plaintext, check_sum

#: Operand kinds an operator can dispatch to.
_CT, _PLAIN, _SCALAR = "ciphertext", "plaintext", "scalar"


class CipherVector:
    """``batch_size`` encrypted (or symbolic) vectors bound to one backend."""

    # Keep NumPy from absorbing us into object arrays; reflected operators
    # (ndarray + CipherVector) must reach __radd__ and friends.
    __array_ufunc__ = None
    __array_priority__ = 1000

    __slots__ = ("backend", "handle")

    def __init__(self, backend, handle) -> None:
        self.backend = backend
        self.handle = handle

    # -- metadata -----------------------------------------------------------

    @property
    def batch_size(self) -> int:
        """Number of member vectors fused into this handle (usually 1)."""
        return self.handle.batch_size

    def __len__(self) -> int:
        return self.batch_size

    @property
    def level(self) -> int:
        """Remaining multiplicative depth (common to every member)."""
        return self.handle.level

    @property
    def scale(self) -> float:
        """Current scaling factor."""
        return self.handle.scale

    @property
    def slots(self) -> int:
        """Number of message slots."""
        return self.handle.slots

    @property
    def limb_count(self) -> int:
        """Number of RNS limbs currently attached."""
        return self.handle.limb_count

    @property
    def encoded_length(self) -> int | tuple | None:
        """Values a decrypt decodes by default: the longest message an
        operator combined into this vector (``None``: every slot), one per
        member of a fused handle."""
        return self.handle.encoded_length

    def __repr__(self) -> str:
        fused = f"B={self.batch_size}, " if self.batch_size > 1 else ""
        return (
            f"CipherVector({fused}level={self.level}, scale={self.scale:.6g}, "
            f"slots={self.slots}, backend={getattr(self.backend, 'name', '?')})"
        )

    # -- dispatch helpers ---------------------------------------------------

    def _wrap(self, handle) -> "CipherVector":
        return CipherVector(self.backend, handle)

    def _classify(self, other):
        """Classify an operand, returning ``(kind, value)`` or ``None``."""
        if isinstance(other, CipherVector):
            if other.backend is not self.backend:
                raise ValueError(
                    "cannot combine CipherVectors from different backends; "
                    "re-encrypt or re-wrap the operand on one backend first"
                )
            return _CT, other.handle
        if isinstance(other, Plaintext):
            return _PLAIN, other
        if isinstance(other, (bool,)):
            return None
        if isinstance(other, numbers.Real):
            return _SCALAR, float(other)
        if isinstance(other, numbers.Complex):
            raise TypeError(
                "complex scalars are not supported as broadcast constants; "
                "encode a full slot vector instead"
            )
        if isinstance(other, (list, tuple, np.ndarray)):
            return _PLAIN, np.asarray(other)
        return None

    def _operand(self, other):
        """``other``'s backend handle: it must be a CipherVector on this
        vector's backend."""
        kind = self._classify(other)
        if kind is None or kind[0] != _CT:
            raise TypeError(f"expected a CipherVector operand, got {type(other).__name__}")
        return kind[1]

    # -- additions ----------------------------------------------------------

    def __add__(self, other):
        kind = self._classify(other)
        if kind is None:
            return NotImplemented
        tag, value = kind
        if tag == _CT:
            return self._wrap(self.backend.add(self.handle, value))
        if tag == _PLAIN:
            return self._wrap(self.backend.add_plain(self.handle, value))
        return self._wrap(self.backend.add_scalar(self.handle, value))

    __radd__ = __add__

    def __sub__(self, other):
        kind = self._classify(other)
        if kind is None:
            return NotImplemented
        tag, value = kind
        if tag == _CT:
            return self._wrap(self.backend.sub(self.handle, value))
        if tag == _PLAIN:
            return self._wrap(self.backend.sub_plain(self.handle, value))
        return self._wrap(self.backend.add_scalar(self.handle, -value))

    def __rsub__(self, other):
        kind = self._classify(other)
        if kind is None:
            return NotImplemented
        tag, value = kind
        negated = self.backend.negate(self.handle)
        if tag == _CT:  # pragma: no cover - ct - ct resolves via __sub__
            return self._wrap(self.backend.add(negated, value))
        if tag == _PLAIN:
            return self._wrap(self.backend.add_plain(negated, value))
        return self._wrap(self.backend.add_scalar(negated, value))

    def __neg__(self):
        return self._wrap(self.backend.negate(self.handle))

    # -- multiplications ----------------------------------------------------

    def __mul__(self, other):
        kind = self._classify(other)
        if kind is None:
            return NotImplemented
        tag, value = kind
        if tag == _CT:
            return self._wrap(self.backend.multiply(self.handle, value))
        if tag == _PLAIN:
            return self._wrap(self.backend.multiply_plain(self.handle, value))
        return self._wrap(self.backend.multiply_scalar(self.handle, value))

    __rmul__ = __mul__

    def __pow__(self, exponent):
        if not isinstance(exponent, numbers.Integral) or exponent < 1:
            raise ValueError(
                f"only positive integer powers are supported, got {exponent!r}"
            )
        exponent = int(exponent)
        if exponent == 1:
            return self
        if exponent == 2:
            return self.square()
        # Square-and-multiply; the backend aligns mismatched levels.
        result: CipherVector | None = None
        base = self
        while exponent:
            if exponent & 1:
                result = base if result is None else result * base
            exponent >>= 1
            if exponent:
                base = base.square()
        return result

    def square(self) -> "CipherVector":
        """Homomorphic squaring (``HSquare``), cheaper than a general HMult."""
        return self._wrap(self.backend.square(self.handle))

    # -- rotations ----------------------------------------------------------

    def __lshift__(self, steps):
        if not isinstance(steps, numbers.Integral):
            return NotImplemented
        return self.rotate(int(steps))

    def __rshift__(self, steps):
        if not isinstance(steps, numbers.Integral):
            return NotImplemented
        return self.rotate(-int(steps))

    def rotate(self, steps: int) -> "CipherVector":
        """Rotate the message vector left by ``steps`` slots (``HRotate``)."""
        return self._wrap(self.backend.rotate(self.handle, steps))

    def rotate_many(self, steps: Sequence[int]) -> dict[int, "CipherVector"]:
        """Rotate by many step counts sharing one ModUp (hoisting, §III-F.6)."""
        rotated = self.backend.hoisted_rotations(self.handle, steps)
        return {step: self._wrap(handle) for step, handle in rotated.items()}

    def conj(self) -> "CipherVector":
        """Conjugate the message vector (``HConjugate``)."""
        return self._wrap(self.backend.conjugate(self.handle))

    # -- level and scale management -----------------------------------------

    def rescale(self) -> "CipherVector":
        """Drop the last limb, dividing the scale by its prime."""
        return self._wrap(self.backend.rescale(self.handle))

    def mod_reduce(self, limb_count: int) -> "CipherVector":
        """Drop limbs down to ``limb_count`` without rescaling: exact, at the
        same scale (see :meth:`~repro.ckks.evaluator.Evaluator.mod_reduce`)."""
        return self._wrap(self.backend.mod_reduce(self.handle, limb_count))

    def at_level(self, level: int) -> "CipherVector":
        """Return a copy adjusted down to ``level`` at the ladder scale."""
        return self._wrap(self.backend.at_level(self.handle, level))

    # -- sums that share one rescale -------------------------------------------

    @staticmethod
    def weighted_sum(terms, level: int, scale: float | None = None,
                     constant: float = 0.0) -> "CipherVector":
        """``Σ c_i·x_i + constant`` at ``level`` after one rescale.

        ``terms`` are ``(CipherVector, coefficient)`` pairs on one backend;
        its ``weighted_sum``
        (:meth:`~repro.ckks.evaluator.Evaluator.weighted_sum`) weighs every
        term for ``scale`` (default: the ladder scale of ``level``) in one
        launch.
        """
        terms = list(terms)
        if not terms:
            check_sum("weighted_sum", terms, level, constant)  # raises
        first = terms[0][0]
        handles = [(first._operand(vector), c) for vector, c in terms]
        return first._wrap(first.backend.weighted_sum(handles, level, scale, constant))

    def product_sum(self, b, level: int, addends=(), multiplier: int = 1,
                    constant: float = 0.0) -> "CipherVector":
        """``multiplier·self·b + Σ c_i·x_i + constant`` at ``level`` as one
        HMult (an HSquare when ``b is self``), rounded once.

        ``addends`` are ``(CipherVector, coefficient)`` pairs; see
        :meth:`~repro.ckks.evaluator.Evaluator.product_sum`.
        """
        handles = [(self._operand(vector), c) for vector, c in addends]
        return self._wrap(self.backend.product_sum(
            self.handle, self._operand(b), level, handles, multiplier, constant))

    # -- fuse / split -------------------------------------------------------

    def split(self) -> list["CipherVector"]:
        """Unfuse into per-member handles (see ``session.batch``).

        On the functional backend the members are zero-copy views of the
        fused buffers; they stay valid as long as this handle (or a copy of
        the member) is alive.
        """
        return [self._wrap(h) for h in self.backend.batch_split(self.handle)]


def as_vector(backend, value) -> CipherVector:
    """Normalise a ciphertext-ish value into a :class:`CipherVector`.

    Accepts an existing vector (validating backend identity) or a raw
    backend handle (:class:`~repro.ckks.ciphertext.Ciphertext` or
    :class:`~repro.api.backend.SymbolicCiphertext`).
    """
    if isinstance(value, CipherVector):
        if value.backend is not backend:
            raise ValueError("CipherVector belongs to a different backend")
        return value
    return CipherVector(backend, value)


__all__ = ["CipherVector", "as_vector"]
