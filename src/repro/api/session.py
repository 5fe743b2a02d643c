"""``CKKSSession``: the one-object entry point to the library.

The paper's usability pitch (§III-E, Table I) is a single ``Context``
object plus composable primitives.  ``CKKSSession`` bundles the whole
client/server wiring -- parameters, context, key material,
encryptor/decryptor and the server-side evaluator -- behind two
constructors::

    session = CKKSSession.create("toy", rotations=[1, 2], conjugation=True)
    ct = session.encrypt([0.25, -0.5, 1.0])
    result = 2.0 * (ct * ct) + 1.0            # CipherVector operators
    values = session.decrypt(result, 3)

The client/server split of the paper is preserved: ``create`` builds an
:class:`~repro.openfhe.client.OpenFHEClient` internally and hands only the
secret-stripped key set to the server-side evaluator, while
:meth:`CKKSSession.from_client` adopts an existing client.  Sessions also
wire the FIDESlib-style singleton context
(:func:`~repro.ckks.context.set_default_context`): creating a session
registers its context as the process default, and using the session as a
context manager restores the previous default on exit.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

import numpy as np

from repro.api.backend import CostModelBackend, TracingBackend
from repro.api.vector import CipherVector
from repro.core.dispatch import KernelTrace, get_dispatcher
from repro.ckks.ciphertext import Ciphertext, Plaintext
from repro.ckks.context import Context, set_default_context
from repro.ckks.encryption import encode as encode_plaintext
from repro.ckks.evaluator import Evaluator
from repro.ckks.keys import KeySet
from repro.ckks.params import CKKSParameters, PARAMETER_SETS
from repro.openfhe.adapter import RawCiphertext, export_ciphertext, import_ciphertext
from repro.openfhe.client import OpenFHEClient
from repro.perf.costmodel import CKKSOperationCosts

#: Accepted spellings of the power-of-two rotation autofill spec.
_POWER_OF_TWO_SPECS = frozenset({"power-of-two", "power_of_two", "pow2"})


def resolve_parameters(params_or_preset: CKKSParameters | str) -> CKKSParameters:
    """Resolve a parameter set from an object or a preset name."""
    if isinstance(params_or_preset, CKKSParameters):
        return params_or_preset
    if isinstance(params_or_preset, str):
        try:
            return PARAMETER_SETS[params_or_preset]
        except KeyError:
            presets = ", ".join(sorted(PARAMETER_SETS))
            raise ValueError(
                f"unknown parameter preset {params_or_preset!r}; "
                f"available presets: {presets}"
            ) from None
    raise TypeError(
        f"expected CKKSParameters or a preset name, got {type(params_or_preset).__name__}"
    )


def resolve_rotations(spec, slots: int) -> list[int]:
    """Expand a rotation-key spec into a sorted list of step counts.

    ``spec`` may be ``None``, an iterable of integers, the string
    ``"power-of-two"`` (autofill of every ``±2^i`` below ``slots``), or an
    iterable mixing both.
    """
    if spec is None:
        return []
    if isinstance(spec, str):
        spec = [spec]
    steps: set[int] = set()
    for item in spec:
        if isinstance(item, str):
            if item not in _POWER_OF_TWO_SPECS:
                raise ValueError(
                    f"unknown rotation spec {item!r}; expected an integer or "
                    f"'power-of-two'"
                )
            power = 1
            while power < slots:
                steps.add(power)
                steps.add(-power)
                power <<= 1
        else:
            step = int(item)
            if step != 0:
                steps.add(step)
    return sorted(steps)


class CKKSSession:
    """A bundled CKKS deployment: context, keys, client and evaluator.

    Most users go through :meth:`create` or :meth:`from_client`; the
    direct constructor accepts pre-built components (the tests use it to
    share expensive session-scoped key material).

    ``session.backend is session.evaluator``: the evaluator is the
    functional backend, bound to this session's encryptor.  A pre-built
    evaluator bound to another encryptor (or none) is left untouched; the
    session evaluates on a sibling over the same context and keys.
    """

    def __init__(
        self,
        *,
        context: Context,
        evaluator: Evaluator,
        keys: KeySet | None = None,
        encryptor=None,
        decryptor=None,
        client: OpenFHEClient | None = None,
        register_default: bool = True,
    ) -> None:
        self.context = context
        self.keys = keys if keys is not None else evaluator.keys
        self.client = client
        self._encryptor = encryptor if encryptor is not None else (
            client.encryptor if client is not None else None
        )
        self._decryptor = decryptor if decryptor is not None else (
            client.decryptor if client is not None else None
        )
        if evaluator.encryptor is not self._encryptor:
            evaluator = Evaluator(
                evaluator.context, evaluator.keys, encryptor=self._encryptor
            )
        self.evaluator = self.backend = evaluator
        #: Numeric stack backend the context's moduli select (``uint64``,
        #: ``dword`` or ``object``) -- surfaced so deployments can assert
        #: they stayed on a vectorized path.
        self.numeric_backend = context.numeric_backend
        self._previous_default: Context | None = None
        self._active = False
        if register_default:
            self._previous_default = set_default_context(context)
            self._active = True

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def create(
        cls,
        params_or_preset: CKKSParameters | str = "toy",
        *,
        rotations=(),
        conjugation: bool = False,
        seed: int | None = None,
        register_default: bool = True,
    ) -> "CKKSSession":
        """Create a full session: parameters, client, keys and evaluator.

        ``rotations`` accepts explicit step counts or the
        ``"power-of-two"`` autofill (see :func:`resolve_rotations`); the
        corresponding rotation keys are generated up front so
        ``CipherVector`` rotations cannot hit a missing-key error later.
        """
        params = resolve_parameters(params_or_preset)
        client = OpenFHEClient(params, seed=seed)
        steps = resolve_rotations(rotations, params.slots)
        server_keys = client.key_gen(steps, conjugation=conjugation)
        evaluator = Evaluator(client.context, server_keys, encryptor=client.encryptor)
        return cls(
            context=client.context,
            evaluator=evaluator,
            keys=server_keys,
            client=client,
            register_default=register_default,
        )

    @classmethod
    def from_client(
        cls,
        client: OpenFHEClient,
        *,
        rotations=(),
        conjugation: bool = False,
        register_default: bool = True,
    ) -> "CKKSSession":
        """Adopt an existing client, preserving the paper's client/server split.

        If the client has not generated keys yet, ``key_gen`` runs with
        the requested rotations; otherwise any missing rotation (and
        conjugation) keys are generated on top of the existing material.
        """
        steps = resolve_rotations(rotations, client.params.slots)
        if not client.has_keys:
            server_keys = client.key_gen(steps, conjugation=conjugation)
        else:
            server_keys = client.add_rotation_keys(steps) if steps else \
                client.keys.without_secret()
            if conjugation and server_keys.conjugation_key is None:
                server_keys = client.add_conjugation_key()
        evaluator = Evaluator(client.context, server_keys, encryptor=client.encryptor)
        return cls(
            context=client.context,
            evaluator=evaluator,
            keys=server_keys,
            client=client,
            register_default=register_default,
        )

    # ------------------------------------------------------------------
    # properties
    # ------------------------------------------------------------------

    @property
    def params(self) -> CKKSParameters:
        """The session's CKKS parameter set."""
        return self.context.params

    @property
    def slots(self) -> int:
        """Number of message slots ``N/2``."""
        return self.context.slots

    @property
    def max_level(self) -> int:
        """Top multiplicative level ``L``."""
        return self.context.max_level

    # ------------------------------------------------------------------
    # encode / encrypt / decrypt / upload
    # ------------------------------------------------------------------

    def encrypt(self, values, *, scale: float | None = None,
                level: int | None = None) -> CipherVector:
        """Encode and encrypt values into an operator-ready handle."""
        return CipherVector(self.backend, self.backend.encrypt(values, scale=scale, level=level))

    def encrypt_batch(self, value_rows, *, scale: float | None = None,
                      level: int | None = None) -> CipherVector:
        """Encrypt one vector per row and fuse them into a throughput-plane batch.

        The returned handle evaluates all members with fused ``(B·L, N)``
        kernels -- one launch per operation for the whole batch (see the
        README's throughput-plane section for when batching pays off and
        its ``B·L·N``-byte memory trade-off); ``.split()`` unfuses it.
        """
        return CipherVector(
            self.backend,
            self.backend.encrypt_batch(value_rows, scale=scale, level=level),
        )

    def batch(self, vectors) -> CipherVector:
        """Fuse existing same-shape handles into one ``batch_size=B`` handle.

        Accepts :class:`CipherVector` handles (or raw backend handles) that
        share one level, scale and shape; mixed-level input is rejected
        with a descriptive error.
        """
        handles = [
            v.handle if isinstance(v, CipherVector) else v for v in vectors
        ]
        return CipherVector(self.backend, self.backend.batch_from(handles))

    def encode(self, values, *, like: CipherVector | Ciphertext | None = None,
               for_multiplication: bool = True, scale: float | None = None) -> Plaintext:
        """Encode values, optionally matched to a ciphertext's level/scale."""
        if like is not None:
            ct = like.handle if isinstance(like, CipherVector) else like
            return self.evaluator.encode_for(ct, values, for_multiplication=for_multiplication)
        return encode_plaintext(self.context, values, scale=scale)

    def decrypt(self, ciphertext, length: int | None = None) -> np.ndarray:
        """Decrypt a CipherVector, Ciphertext or RawCiphertext (client role)."""
        if self._decryptor is None:
            raise RuntimeError(
                "this session has no decryptor (server-side session); decrypt "
                "on the client that owns the secret key"
            )
        if isinstance(ciphertext, CipherVector):
            ciphertext = ciphertext.handle
        if isinstance(ciphertext, RawCiphertext):
            ciphertext = import_ciphertext(self.context, ciphertext)
        if not isinstance(ciphertext, Ciphertext):
            raise TypeError(
                f"cannot decrypt a {type(ciphertext).__name__}; cost-model "
                f"handles carry no message data"
            )
        if ciphertext.batch_size > 1:
            raise ValueError(
                f"cannot decrypt a fused batch of {ciphertext.batch_size} "
                f"ciphertexts in one call; split() it and decrypt the members"
            )
        return self._decryptor.decrypt_values(ciphertext, length)

    def upload(self, raw: RawCiphertext) -> CipherVector:
        """Import a raw adapter ciphertext into the server-side session."""
        return self.wrap(import_ciphertext(self.context, raw))

    def download(self, vector: CipherVector | Ciphertext) -> RawCiphertext:
        """Export a ciphertext through the adapter layer (for the client)."""
        ct = vector.handle if isinstance(vector, CipherVector) else vector
        return export_ciphertext(ct, parameter_tag=self.params.describe())

    def wrap(self, ciphertext: Ciphertext) -> CipherVector:
        """Wrap an existing server-side ciphertext in a CipherVector."""
        return CipherVector(self.backend, ciphertext)

    # ------------------------------------------------------------------
    # key management
    # ------------------------------------------------------------------

    def add_rotation_keys(self, rotations) -> None:
        """Generate additional rotation keys (requires the owning client)."""
        if self.client is None:
            raise RuntimeError(
                "this session was built without a client; generate rotation keys "
                "through the KeyGenerator that produced its key set"
            )
        steps = resolve_rotations(rotations, self.slots)
        refreshed = self.client.add_rotation_keys(steps)
        self.keys.rotation_keys.update(refreshed.rotation_keys)

    # ------------------------------------------------------------------
    # backends
    # ------------------------------------------------------------------

    def cost_backend(self, costs: CKKSOperationCosts | None = None,
                     *, check_keys: bool = True) -> CostModelBackend:
        """A cost-model twin of this session's functional backend.

        The returned backend tracks levels and scales against this
        session's real moduli chain, so a program replayed on it follows
        the exact trajectory of the functional backend, and it emits the
        kernel stream *this data plane* launches for each operation --
        fused, every limb of a stack in one kernel
        (``CKKSOperationCosts(limb_batch=None, fusion=True)``) -- in the
        same operation scopes, so both backends fill a ``session.trace()``
        alike.  Pass ``costs`` to price another library's decomposition
        instead (FIDESlib's limb-batched kernels, Phantom's unfused ones;
        see :meth:`CostModelBackend.for_model`).  With ``check_keys``
        (default) it also raises the same ``KeyError`` the evaluator would
        for rotations whose keys were never generated.
        """
        if costs is None:
            costs = CKKSOperationCosts(self.params, limb_batch=None, fusion=True)
        return CostModelBackend.from_context(
            self.context, costs=costs,
            key_inventory=self.keys if check_keys else None,
        )

    @contextmanager
    def trace(self, trace: KernelTrace | None = None, *,
              executable: bool = False) -> Iterator[KernelTrace]:
        """Record the kernel stream of everything executed in the with-block.

        Yields a :class:`~repro.core.dispatch.KernelTrace` that fills with
        the kernels the data plane executes -- real shapes, operation
        scopes and dependency edges -- regardless of which handles or
        backends issue them::

            with session.trace() as trace:
                result = 2.0 * (ct * ct) + 1.0
            report = TraceCostModel(GPU_RTX_4090).price(trace)

        Execution is unchanged by recording (ciphertext outputs stay
        bit-identical).  Pass an existing trace to append to it.  With
        ``executable=True`` the trace captures replay thunks and buffer
        views, so it can be re-run through
        :class:`~repro.core.fusion.TraceProgram` or optimized by
        :func:`repro.core.fusion.fuse_trace`, and
        :func:`repro.core.fusion.expand_stages` derives from it the unfused
        GPU baseline -- transforms and key-switch inner products at
        per-stage launch granularity -- that the fusions are priced
        against.  For tracing scoped to a single backend rather than a code
        region, see :class:`~repro.api.backend.TracingBackend`.
        """
        with get_dispatcher().record(trace, executable=executable) as active:
            yield active

    def tracing_backend(self, trace: KernelTrace | None = None) -> TracingBackend:
        """A wrapper of this session's backend that records every operation."""
        return TracingBackend(self.backend, trace=trace)

    # ------------------------------------------------------------------
    # serving plane
    # ------------------------------------------------------------------

    def observability(self, *, enabled=True, registry=None, clock=None,
                      watch_default_pool=True):
        """The unified observability plane (:class:`repro.obs.Observability`).

        Returns a facade bundling a metrics registry, a span tracer, the
        per-scope rollup and the Perfetto export timelines.  Hand it to
        :meth:`server` to record the full request lifecycle::

            obs = session.observability()
            server = session.server(
                BatchingPolicy(max_batch_size=8),
                trace_costs=TraceCostModel(GPU_RTX_4090),
                observability=obs,
            )
            ...
            print(obs.to_prometheus())            # metrics dump
            print(obs.report().to_text())          # per-scope rollup
            obs.export_chrome_trace("trace.perfetto.json")

        ``enabled=False`` returns an inert facade (every hook early-outs;
        a server given one behaves exactly as one given no observability
        at all).  ``watch_default_pool`` (default) publishes the
        process-wide :data:`repro.core.memory.default_pool` accounting as
        ``memory_pool_*`` gauges.
        """
        from repro.core.memory import default_pool
        from repro.obs import Observability

        obs = Observability(enabled=enabled, registry=registry, clock=clock)
        if watch_default_pool:
            obs.watch_pool(default_pool)
        return obs

    def server(self, policy=None, *, backend=None, **options):
        """A dynamic-batching server over this session (the serving plane).

        Returns a :class:`repro.serve.Server`: a shape-bucketed request
        queue that fuses compatible requests into ``(B·L, N)`` batches
        under a :class:`~repro.serve.policy.BatchingPolicy`, driven on a
        deterministic simulated clock::

            from repro.serve import BatchingPolicy, OpProgram

            server = session.server(BatchingPolicy(max_batch_size=8,
                                                   max_wait=2e-3))
            score = OpProgram.polynomial([1.0, 0.0, 2.0])   # 1 + 2x^2
            requests = [server.submit(score, session.encrypt(row))
                        for row in inputs]
            server.drain()                    # fuse + execute everything
            values = [session.decrypt(r.result(), n) for r in requests]

        ``backend`` overrides the session's functional backend (e.g.
        ``session.cost_backend()`` serves symbolically).  Every other
        keyword (``trace_costs=``, ``admission=``, ``retry=``,
        ``fault_plan=``, ``observability=``, ...) is an option of
        :class:`~repro.serve.Server`, documented there and forwarded as
        given.
        """
        from repro.serve import Server

        return Server(
            backend if backend is not None else self.backend, policy, **options
        )

    # ------------------------------------------------------------------
    # lifecycle / default-context wiring
    # ------------------------------------------------------------------

    def __enter__(self) -> "CKKSSession":
        if not self._active:
            # Sessions built with register_default=True already captured the
            # previous default at construction; don't overwrite it with
            # ourselves here, or close() could never restore it.
            self._previous_default = set_default_context(self.context)
            self._active = True
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def close(self) -> None:
        """Restore the previously registered default context."""
        if self._active:
            set_default_context(self._previous_default)
            self._previous_default = None
            self._active = False

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------

    def describe(self) -> dict:
        """Context summary merged with the key inventory."""
        summary = self.context.describe()
        summary["keys"] = {
            "relinearization": self.keys.relinearization_key is not None,
            "rotation_steps": sorted(self.keys.rotation_keys),
            "conjugation": self.keys.conjugation_key is not None,
            "secret_available": self.client is not None or self.keys.secret_key is not None,
        }
        return summary


__all__ = ["CKKSSession", "resolve_parameters", "resolve_rotations"]
