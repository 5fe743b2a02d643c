"""The five benchmark workloads.

Each workload owns its parameter set, builds its session and inputs in
``setup`` (inputs come from the ``--seed`` generator; key and model seeds
are fixed), runs one closed-loop unit of work in ``iteration`` and checks
every output it produced in ``collect`` (cheap, right after the untimed
end of an iteration) and ``verify`` (expensive, after the timed phase).

``iteration`` takes a span recorder (see :mod:`layers`): every public
call into a layer is wrapped in ``spans.span("<layer>.<call>", group)``,
which is a shared no-op in the untraced run.  ``group`` is the side of
the request the call runs on -- ``client``, ``wire`` or ``server`` -- and
feeds the request roll-up.

Why these five: see ``README.md`` and the ``why`` lines of
``BENCHMARK.json``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from calibration import Reference
from repro import CKKSParameters, CKKSSession, PARAMETER_SETS
from repro.apps.logistic_regression import EncryptedLRScorer, sigmoid_poly
from repro.ckks.bootstrap import Bootstrapper
from repro.ckks.encryption import encode
from repro.ckks.noise import measured_precision_bits
from repro.openfhe.adapter import export_ciphertext, import_ciphertext
from repro.openfhe.client import OpenFHEClient
from repro.openfhe.serialization import deserialize_ciphertext, serialize_ciphertext
from repro.serve import BatchingPolicy, OpProgram

#: The ROADMAP profile set (uint64 backend).
P13 = CKKSParameters(ring_degree=2**13, mult_depth=6, scale_bits=28, dnum=3,
                     first_mod_bits=30)
#: Paper-class 59-bit moduli on the double-word (hi/lo plane) backend.
P59 = CKKSParameters(ring_degree=2**12, mult_depth=5, scale_bits=59, dnum=2,
                     first_mod_bits=60, secret_hamming_weight=16)
#: Bootstrappable preset: N=2^9, 17 limbs, sparse secret.
PB = PARAMETER_SETS["toy-bootstrap"]

#: Rotation steps every non-bootstrap session carries: 1 and 2 serve the
#: d=4 LR inner product, 4 completes the hoisted ``rotate_many([1, 2, 4])``.
ROTATIONS = (1, 2, 4)
KEY_SEED = 3
LR_WEIGHTS = np.random.default_rng(42).uniform(-1.0, 1.0, 4)
POLY_COEFFS = (0.5, 0.25, 0.0, -0.02)
#: Message length of the primitive operands (the encoder replicates it over
#: all slots, so rotations act cyclically on these values).
MESSAGE_LENGTH = 64

#: The fixed primitive mix: (span name, repetitions).  19 operations.
OP_MIX = (
    ("evaluator.hmult_rescale", 2),
    ("evaluator.hmult_rescale_mid", 2),
    ("evaluator.hrotate", 2),
    ("evaluator.hrotate_mid", 1),
    ("evaluator.ptmult_rescale", 2),
    ("evaluator.rotate_many3", 1),
    ("evaluator.hsquare", 1),
    ("evaluator.hadd", 8),
)
OPS_PER_MIX = sum(count for _, count in OP_MIX)


@dataclass
class Check:
    """Outcome of verifying one kind of output: how many operations it
    stands for, whether they passed, and the measured precision."""

    label: str
    operations: int
    ok: bool
    precision_bits: float | None = None
    detail: str = ""


def precision_check(label, operations, expected, actual, floor_bits) -> Check:
    bits = measured_precision_bits(np.asarray(expected), np.asarray(actual).real)
    return Check(label, operations, bits >= floor_bits, bits,
                 f"{bits:.2f} bits (floor {floor_bits})")


class MixOperands:
    """Resident operands of the primitive mix: ``a, b`` at the top level,
    ``c, d`` at mid level, and a plaintext vector."""

    def __init__(self, session: CKKSSession, rng: np.random.Generator) -> None:
        self.session = session
        mid = session.max_level // 2
        self.length = min(MESSAGE_LENGTH, session.slots)
        draw = lambda: rng.uniform(-1.0, 1.0, self.length)  # noqa: E731
        self.va, self.vb, self.vc, self.vd, self.plain = (draw() for _ in range(5))
        self.a = session.encrypt(self.va)
        self.b = session.encrypt(self.vb)
        self.c = session.encrypt(self.vc, level=mid)
        self.d = session.encrypt(self.vd, level=mid)

    def run(self, spans) -> dict:
        """One mix; returns the last result of every operation kind."""
        a, b, c, d, plain = self.a, self.b, self.c, self.d, self.plain
        calls = {
            "evaluator.hmult_rescale": lambda: a * b,
            "evaluator.hmult_rescale_mid": lambda: c * d,
            "evaluator.hrotate": lambda: a << 1,
            "evaluator.hrotate_mid": lambda: c << 1,
            "evaluator.ptmult_rescale": lambda: a * plain,
            "evaluator.rotate_many3": lambda: a.rotate_many(ROTATIONS),
            "evaluator.hsquare": lambda: a.square(),
            "evaluator.hadd": lambda: a + b,
        }
        results = {}
        for name, count in OP_MIX:
            call = calls[name]
            for _ in range(count):
                with spans.span(name, "server"):
                    results[name] = call()
        return results

    def checks(self, results: dict, floor_bits: float) -> list[Check]:
        """Decrypt each kind's last result and compare with NumPy."""
        va, vb, vc, vd = self.va, self.vb, self.vc, self.vd
        expected = {
            "evaluator.hmult_rescale": va * vb,
            "evaluator.hmult_rescale_mid": vc * vd,
            "evaluator.hrotate": np.roll(va, -1),
            "evaluator.hrotate_mid": np.roll(vc, -1),
            "evaluator.ptmult_rescale": va * self.plain,
            "evaluator.hsquare": va * va,
            "evaluator.hadd": va + vb,
        }
        decrypt = lambda vec: self.session.decrypt(vec, self.length)  # noqa: E731
        checks = []
        for name, count in OP_MIX:
            if name == "evaluator.rotate_many3":
                rotated = results[name]
                worst = min(
                    (precision_check(name, count, np.roll(va, -step),
                                     decrypt(rotated[step]), floor_bits)
                     for step in ROTATIONS),
                    key=lambda check: check.precision_bits,
                )
                checks.append(worst)
            else:
                checks.append(precision_check(
                    name, count, expected[name], decrypt(results[name]), floor_bits
                ))
        return checks


class Workload:
    """Base: a session on one parameter set plus the benchmark hooks."""

    name = ""
    params = P13
    smoke_ring_log2 = 7
    rotations = ROTATIONS
    conjugation = False
    #: ``repro.serve.Server`` of the workloads that go through one.
    server = None
    #: User-level operations one iteration completes (requests, homomorphic
    #: operations or bootstraps): the unit of ``attempted`` and ``failed``.
    ops_per_iteration = 1
    #: Whether ``collect`` checks a fresh output after every iteration (the
    #: other workloads check a fixed set of outputs once, in ``verify``).
    checks_every_iteration = False
    #: Wire sizes of one request and its reply; level the refreshed
    #: ciphertext comes back at.  Zero where the workload has none.
    request_bytes = 0
    response_bytes = 0
    levels_left = 0

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.rng = np.random.default_rng(seed)
        if smoke:  # the same chain at a tiny ring
            self.params = self.params.with_overrides(ring_degree=1 << self.smoke_ring_log2)
        self.setup_phases: dict[str, float] = {}
        self.checks: list[Check] = []
        #: Iterations that raised (each fails ``ops_per_iteration`` operations).
        self.raised = 0
        #: Iterations that ran to the end and were collected.
        self.completed = 0
        self._mix: MixOperands | None = None
        self.reference = Reference()

    # -- set-up ----------------------------------------------------------

    def create_session(self) -> None:
        """Context, keys and session, each phase timed on its own."""
        t0 = time.perf_counter()
        self.client = OpenFHEClient(self.params, seed=KEY_SEED)
        t1 = time.perf_counter()
        self.session = CKKSSession.from_client(
            self.client, rotations=self.rotations, conjugation=self.conjugation,
            register_default=False,
        )
        t2 = time.perf_counter()
        self.setup_phases["context.create_s"] = t1 - t0
        self.setup_phases["keys.keygen_s"] = t2 - t1

    def setup(self) -> None:
        self.create_session()
        t0 = time.perf_counter()
        self.build_inputs()
        self.setup_phases["setup.inputs_s"] = time.perf_counter() - t0

    def build_inputs(self) -> None:
        raise NotImplementedError

    # -- the measured unit -------------------------------------------------

    def iteration(self, spans):
        raise NotImplementedError

    def collect(self, output) -> None:
        """Cheap per-iteration verification/bookkeeping (untimed)."""

    def verify(self) -> None:
        """Expensive verification after the timed phase (untimed)."""

    # -- hooks for the per-layer passes ---------------------------------------

    def mix_operands(self) -> MixOperands:
        """Operands for the evaluator pass (built on first use)."""
        if self._mix is None:
            self._mix = MixOperands(self.session, np.random.default_rng(7))
        return self._mix

    def direct_buckets(self) -> list[tuple[OpProgram, list]]:
        """The iteration's server-side work as ``(program, vectors)`` buckets,
        for running it without the serve layer; empty when there is none."""
        return []


class _ServeWorkload(Workload):
    """Shared pieces of the two workloads that go through ``repro.serve``."""

    max_batch = 1

    def create_server(self) -> None:
        self.scorer = EncryptedLRScorer(self.session, LR_WEIGHTS)
        self.lr_program = self.scorer.program()
        self.server = self.session.server(BatchingPolicy(max_batch_size=self.max_batch))


class LRRoundTrip(_ServeWorkload):
    """The request a user waits for: client -> wire -> server -> wire -> client."""

    name = "lr_roundtrip_b1"
    floor_bits = 10.0
    checks_every_iteration = True

    def build_inputs(self) -> None:
        self.create_server()
        self.tag = self.params.describe()
        self._last_upload = None

    def iteration(self, spans):
        client, session = self.client, self.session
        x = self.rng.uniform(-1.0, 1.0, LR_WEIGHTS.size)
        with spans.span("encoding.encode", "client"):
            plaintext = encode(client.context, x)
        with spans.span("encryption.encrypt", "client"):
            ciphertext = client.encryptor.encrypt(plaintext)
        with spans.span("adapter.export", "client"):
            raw = export_ciphertext(ciphertext, parameter_tag=self.tag)
        with spans.span("serialization.serialize", "wire"):
            blob = serialize_ciphertext(raw)
        with spans.span("serialization.deserialize", "wire"):
            received = deserialize_ciphertext(blob)
        with spans.span("adapter.import", "server"):
            vector = session.upload(received)
        with spans.span("serve.submit", "server"):
            request = self.server.submit(self.lr_program, vector)
        with spans.span("serve.flush", "server"):
            self.server.flush()
        with spans.span("adapter.export", "server"):
            reply = session.download(request.result())
        with spans.span("serialization.serialize", "wire"):
            reply_blob = serialize_ciphertext(reply)
        with spans.span("serialization.deserialize", "wire"):
            reply_raw = deserialize_ciphertext(reply_blob)
        with spans.span("adapter.import", "client"):
            result = import_ciphertext(client.context, reply_raw)
        with spans.span("encryption.decrypt", "client"):
            decrypted = client.decryptor.decrypt(result)
        with spans.span("encoding.decode", "client"):
            values = client.decode(decrypted, 1)
        self.request_bytes, self.response_bytes = len(blob), len(reply_blob)
        self._last_upload = vector
        return x, values

    def collect(self, output) -> None:
        x, values = output
        expected = sigmoid_poly(np.array([LR_WEIGHTS @ x]))
        self.checks.append(precision_check("trip", 1, expected, values, self.floor_bits))

    def direct_buckets(self):
        return [(self.lr_program, [self._last_upload])]


class ServeBurst(_ServeWorkload):
    """Two shape buckets, two fused B=8 drains; no client, no wire."""

    name = "serve_burst_b8"
    max_batch = 8
    ops_per_iteration = 16
    lr_floor_bits = 10.0
    poly_floor_bits = 12.0

    def build_inputs(self) -> None:
        self.create_server()
        self.poly_program = OpProgram.polynomial(POLY_COEFFS)
        self.rows = [self.rng.uniform(-1.0, 1.0, LR_WEIGHTS.size)
                     for _ in range(self.ops_per_iteration)]
        self.vectors = [self.session.encrypt(row) for row in self.rows]
        self.programs = [self.lr_program if i % 2 == 0 else self.poly_program
                         for i in range(self.ops_per_iteration)]
        self.first_results = None
        self.request_failures = [False] * self.ops_per_iteration

    def iteration(self, spans):
        requests = []
        for program, vector in zip(self.programs, self.vectors):
            with spans.span("serve.submit", "server"):
                requests.append(self.server.submit(program, vector))
        with spans.span("serve.flush", "server"):
            self.server.flush()
        return requests

    def collect(self, requests) -> None:
        # Operations are pure and inputs fixed, so every burst must return
        # the bits of the first one; only that first set is kept for the
        # sequential comparison in verify().
        if self.first_results is None:
            self.first_results = [
                r.result().handle if r.response().ok else None for r in requests
            ]
        for i, request in enumerate(requests):
            reference = self.first_results[i]
            if reference is None or not request.response().ok \
                    or not same_bits(request.result().handle, reference):
                self.request_failures[i] = True

    def verify(self) -> None:
        for i, (program, vector, row) in enumerate(
                zip(self.programs, self.vectors, self.rows)):
            served = self.first_results[i]
            is_lr = program is self.lr_program
            label = f"request[{i}]:{'lr' if is_lr else 'poly'}"
            if self.request_failures[i] or served is None:
                self.checks.append(Check(label, 1, False,
                                         detail="not ok or bits changed between bursts"))
                continue
            sequential = (self.scorer.score(vector) if is_lr else program(vector)).handle
            if not same_bits(served, sequential):
                self.checks.append(Check(label, 1, False,
                                         detail="differs from sequential execution"))
                continue
            if is_lr:
                expected = sigmoid_poly(np.array([LR_WEIGHTS @ row]))
                actual = self.session.decrypt(served, 1)
                floor = self.lr_floor_bits
            else:
                expected = np.polynomial.polynomial.polyval(row, POLY_COEFFS)
                actual = self.session.decrypt(served, row.size)
                floor = self.poly_floor_bits
            self.checks.append(precision_check(label, 1, expected, actual, floor))
        mean = self.server.metrics.mean_batch_size
        if mean != self.max_batch:
            self.checks.append(Check("mean_batch_size", 1, False,
                                     detail=f"{mean} != {self.max_batch}"))

    def direct_buckets(self):
        return [
            (program, [v for p, v in zip(self.programs, self.vectors) if p is program])
            for program in (self.lr_program, self.poly_program)
        ]


class Primitives(Workload):
    """The paper's Table V: a fixed mix on resident ciphertexts."""

    name = "primitives_n13"
    floor_bits = 10.0
    ops_per_iteration = OPS_PER_MIX

    def build_inputs(self) -> None:
        self.operands = MixOperands(self.session, self.rng)
        self.last_results = None

    def iteration(self, spans):
        return self.operands.run(spans)

    def collect(self, results) -> None:
        self.last_results = results

    def verify(self) -> None:
        self.checks.extend(self.operands.checks(self.last_results, self.floor_bits))

    def mix_operands(self) -> MixOperands:
        return self.operands


class PrimitivesDword(Primitives):
    """The same mix and code path on ``(L, 2, N)`` hi/lo planes."""

    name = "primitives_dword59"
    params = P59
    floor_bits = 35.0

    def create_session(self) -> None:
        super().create_session()
        if self.session.numeric_backend != "dword":
            raise RuntimeError(
                f"{self.name} must run on the dword backend, got "
                f"{self.session.numeric_backend!r}"
            )


class BootstrapToy(Workload):
    """The paper's headline feature (Table VI) at toy size."""

    name = "bootstrap_toy"
    params = PB
    smoke_ring_log2 = 5
    conjugation = True
    floor_bits = 5.0
    checks_every_iteration = True
    min_level = 3
    pool_size = 4
    message_length = 8

    def create_session(self) -> None:
        super().create_session()
        t0 = time.perf_counter()
        self.bootstrapper = Bootstrapper(self.session.context, self.session.evaluator)
        self.session.add_rotation_keys(self.bootstrapper.required_rotations())
        self.setup_phases["keys.keygen_s"] += time.perf_counter() - t0

    def build_inputs(self) -> None:
        self.messages = [self.rng.uniform(-0.4, 0.4, self.message_length)
                         for _ in range(self.pool_size)]
        self.inputs = [self.session.encrypt(m, level=0).handle for m in self.messages]
        self.cursor = 0

    def iteration(self, spans):
        index = self.cursor % self.pool_size
        self.cursor += 1
        ct = self.inputs[index]
        bs = self.bootstrapper
        if not spans.enabled:
            return index, bs.bootstrap(ct)
        # Traced: the stages of ``bootstrap()``, one public call per span
        # (inputs are at level 0, where it restores ``ct.scale`` too).
        with spans.span("bootstrap.mod_raise", "server"):
            raised = bs.mod_raise(ct)
        with spans.span("bootstrap.coeff_to_slot", "server"):
            lower, upper = bs.coeff_to_slot(raised)
        with spans.span("bootstrap.approx_mod_eval", "server"):
            lower = bs.approx_mod_eval(lower)
            upper = bs.approx_mod_eval(upper)
        with spans.span("bootstrap.slot_to_coeff", "server"):
            refreshed = bs.slot_to_coeff(lower, upper, ct.scale)
        refreshed.encoded_length = ct.encoded_length
        refreshed.slots = ct.slots
        return index, refreshed

    def collect(self, output) -> None:
        index, refreshed = output
        self.levels_left = refreshed.level
        message = self.messages[index]
        check = precision_check(
            "bootstrap", 1, message,
            self.session.decrypt(refreshed, self.message_length), self.floor_bits,
        )
        if refreshed.level < self.min_level:
            check.ok = False
            check.detail += f"; level {refreshed.level} < {self.min_level}"
        self.checks.append(check)


def same_bits(a, b) -> bool:
    """Bit-identity of two ciphertexts (both components)."""
    return (np.array_equal(a.c0.stack.data, b.c0.stack.data)
            and np.array_equal(a.c1.stack.data, b.c1.stack.data))


WORKLOADS = {
    cls.name: cls
    for cls in (LRRoundTrip, ServeBurst, Primitives, PrimitivesDword, BootstrapToy)
}
