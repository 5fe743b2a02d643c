"""Typed failure semantics of the serving plane.

Every way a request can fail in production maps to one class here, so a
client never sees a bare traceback from deep inside the data plane: a
:class:`~repro.serve.request.Response` either carries a result or one of
these typed errors (read it through ``response().error`` /
``response().error_kind``).  The taxonomy:

* :class:`RequestRejected` -- the request never entered the queue:
  admission control shed it (queue bound or memory high watermark) or the
  vector failed shape validation at :meth:`~repro.serve.executor.Server.submit`.
* :class:`DeadlineExceeded` -- the request was admitted but its absolute
  simulated-clock deadline passed before a drain could serve it (e.g. the
  drain loop spent the slack in retry backoff).
* :class:`TransientFault` -- a retryable drain failure (injected by a
  :class:`~repro.serve.faults.FaultInjector` or a recoverable device
  hiccup).  Clients never see this directly: the server retries with
  backoff and only surfaces :class:`DrainFailed` once the budget is spent.
* :class:`DrainFailed` -- a drain kept failing past the
  :class:`~repro.serve.policy.RetryPolicy` budget; the last underlying
  error is chained as ``__cause__``.

All of these derive from :class:`ServeError`, which is what the top-level
``repro`` package exports for catch-all handling.
"""

from __future__ import annotations


class ServeError(RuntimeError):
    """Base class of every typed serving-plane failure."""


class RequestRejected(ServeError):
    """The request was refused at submission (admission control/validation).

    ``reason`` is a stable machine-readable tag: ``"queue-full"``,
    ``"memory-pressure"``, ``"invalid-shape"``, ``"invalid-level"`` or
    ``"invalid-scale"``.
    """

    def __init__(self, message: str, *, reason: str = "rejected") -> None:
        super().__init__(message)
        self.reason = reason


class DeadlineExceeded(ServeError):
    """An admitted request's absolute deadline passed before execution."""


class TransientFault(ServeError):
    """A retryable drain failure (the server retries with backoff)."""


class DrainFailed(ServeError):
    """A drain exhausted its retry budget; the last error is ``__cause__``."""


__all__ = [
    "ServeError",
    "RequestRejected",
    "DeadlineExceeded",
    "TransientFault",
    "DrainFailed",
]
