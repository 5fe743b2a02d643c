"""Requests, responses and op programs of the serving plane.

A serving request wraps one encrypted input (a
:class:`~repro.api.vector.CipherVector`) together with the
:class:`OpProgram` to evaluate on it -- "score with LR model M",
"evaluate polynomial P" -- plus a future-style completion handle the
submitting client polls.  Requests carrying the *same* program and the
same ciphertext shape are what the bucket queue fuses into one
``(B·L, N)`` kernel stream.

Programs are written once against the
:class:`~repro.api.vector.CipherVector` operator surface (``+ - * **``
``<< >>`` ``square/rescale/mod_reduce/at_level/conj``, and
``weighted_sum`` / ``product_sum``, which fold scalars into a rescale the
operation already pays for), so the executor can run the
identical op sequence either per request (singleton buckets) or on one
handle fused across a drained bucket -- the evaluator takes the member
count from its operand, which is exactly why batched responses are
bit-identical to sequential execution.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

from repro.api.vector import CipherVector
from repro.ckks.context import ladder_scale, reply_limbs, rescale_factor

#: Process-wide request id source (ids only need to be unique per server,
#: but a shared counter keeps logs unambiguous across servers).
_REQUEST_IDS = itertools.count()


class OpProgram:
    """A named homomorphic program applied uniformly to every request.

    ``fn`` receives one :class:`CipherVector` -- a single request for
    singleton buckets, a fused ``batch_size=B`` handle otherwise -- and
    must issue the *same* operation sequence on either (one operator
    surface guarantees this when the program is written once).

    Program identity (``key``) is part of the serving shape key: two
    requests fuse only when their programs compare equal.  The default key
    is the name, so two differently-parameterised programs must carry
    distinct names or explicit keys.
    """

    __slots__ = ("name", "fn", "key")

    def __init__(self, name: str, fn: Callable, *, key: tuple | None = None) -> None:
        self.name = str(name)
        self.fn = fn
        self.key = key if key is not None else (self.name,)

    def __call__(self, handle):
        return self.fn(handle)

    def __eq__(self, other) -> bool:
        return isinstance(other, OpProgram) and self.key == other.key

    def __hash__(self) -> int:
        return hash(("OpProgram", self.key))

    def __repr__(self) -> str:
        return f"OpProgram({self.name!r})"

    @classmethod
    def polynomial(cls, coeffs, *, name: str | None = None) -> "OpProgram":
        """Evaluate ``c0 + c1·x + ... + cd·x^d`` under encryption, in Horner
        form.

        Trailing zero coefficients are dropped, so ``d`` is the degree that
        remains.  ``c_d·x + c_{d-1}`` is one weighted sum (one launch and one
        rescale), and each ``t·x + c_i`` after it is one product sum: an
        HMult with ``c_i`` riding in its merged ModDown-rescale.  That is one
        rescale and ``d − 1`` HMults in all -- no HSquare, no realignment and
        no rescale per coefficient -- and ``d`` levels.

        The first step mod-reduces ``x`` to ``min(x.limb_count, d + k)``
        limbs, where ``k`` is :func:`~repro.ckks.context.reply_limbs` of the
        output bound ``Σ|c_i|`` (inputs in [−1, 1]): the circuit runs on the
        limbs its depth and its output need, and the result has ``k`` limbs
        (fewer only when ``x`` arrived with fewer than ``d + k``).  The
        weighted sum's scale is planned back from the end
        (``rescale_factor`` on the backend's chain), so the result lands on
        the ladder scale of its level.
        """
        coeffs = [float(c) for c in coeffs]
        while coeffs and coeffs[-1] == 0.0:
            coeffs.pop()
        if len(coeffs) < 2:
            raise ValueError(
                "a serving polynomial needs at least one non-zero "
                "non-constant coefficient (a constant program has no "
                "ciphertext input)"
            )
        degree = len(coeffs) - 1
        label = name if name is not None else f"poly-deg{degree}"
        bound = sum(abs(c) for c in coeffs)

        def evaluate(x):
            backend = x.backend
            k = reply_limbs(backend.moduli, backend.scale_ladder, bound)
            x = x.mod_reduce(min(x.limb_count, degree + k))
            bottom = x.level - degree
            # The scale t needs one level above each product for the last
            # product to land on the ladder.
            scale = ladder_scale(backend.scale_ladder, bottom)
            for level in range(bottom, x.level - 1):
                scale = rescale_factor(backend.moduli, level, x.scale, scale)
            t = CipherVector.weighted_sum([(x, coeffs[degree])], x.level - 1,
                                          scale=scale, constant=coeffs[degree - 1])
            for c in reversed(coeffs[:degree - 1]):
                t = t.product_sum(x, t.level - 1, constant=c)
            return t

        return cls(label, evaluate, key=("polynomial", tuple(coeffs)))


@dataclass
class Response:
    """Completion record of one request: the result plus timing metadata.

    ``latency`` is simulated queueing delay (dispatch minus arrival on the
    server's deterministic clock); modeled GPU execution time lives in the
    server's :class:`~repro.serve.metrics.ServeMetrics` instead, because it
    is a property of the fused batch, not of one member.
    """

    request_id: int
    vector: CipherVector | None
    batch_size: int
    arrival_time: float
    dispatch_time: float
    error: Exception | None = None

    @property
    def ok(self) -> bool:
        """True when the program completed without raising."""
        return self.error is None

    @property
    def error_kind(self) -> str | None:
        """Structured error tag: the typed error's class name, None when ok.

        Stable values are the :mod:`repro.serve.errors` taxonomy
        (``"RequestRejected"``, ``"DeadlineExceeded"``, ``"DrainFailed"``);
        program bugs surface their own exception class name.  Replay
        drivers and benchmarks aggregate on this instead of
        string-matching messages.
        """
        return None if self.error is None else type(self.error).__name__

    @property
    def latency(self) -> float:
        """Simulated queueing latency (seconds on the server clock)."""
        return self.dispatch_time - self.arrival_time


class Request:
    """A queued serving request with a future-style completion handle."""

    __slots__ = ("id", "program", "vector", "arrival_time", "deadline", "_response")

    def __init__(self, program: OpProgram, vector: CipherVector, *,
                 arrival_time: float, deadline: float | None = None) -> None:
        if not isinstance(program, OpProgram):
            raise TypeError(
                f"expected an OpProgram, got {type(program).__name__}; wrap "
                f"callables with OpProgram(name, fn) so bucketing has a "
                f"program identity to key on"
            )
        self.id = next(_REQUEST_IDS)
        self.program = program
        self.vector = vector
        self.arrival_time = float(arrival_time)
        self.deadline = None if deadline is None else float(deadline)
        self._response: Response | None = None

    # -- future surface ------------------------------------------------------

    def done(self) -> bool:
        """Whether the request has been executed (successfully or not)."""
        return self._response is not None

    def response(self) -> Response:
        """The completion record; raises while the request is still queued."""
        if self._response is None:
            raise RuntimeError(
                f"request {self.id} ({self.program.name}) is still queued; "
                f"drive the server (poll/flush) before reading the response"
            )
        return self._response

    def result(self) -> CipherVector:
        """The result handle; re-raises the program's error if it failed."""
        response = self.response()
        if response.error is not None:
            raise response.error
        return response.vector

    def resolve(self, vector: CipherVector | None, *, batch_size: int,
                dispatch_time: float, error: Exception | None = None) -> Response:
        """Attach the completion record (called by the executor once)."""
        if self._response is not None:
            raise RuntimeError(f"request {self.id} was already resolved")
        self._response = Response(
            request_id=self.id,
            vector=vector,
            batch_size=batch_size,
            arrival_time=self.arrival_time,
            dispatch_time=float(dispatch_time),
            error=error,
        )
        return self._response

    def __repr__(self) -> str:
        state = "done" if self.done() else "queued"
        return f"Request(id={self.id}, program={self.program.name!r}, {state})"


__all__ = ["OpProgram", "Request", "Response"]
