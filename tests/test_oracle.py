"""One differential oracle: generated programs across the configuration lattice.

One ``hypothesis`` property draws a program of 1–6 steps over every
operation of the backend protocol -- on an input ``x`` per member and a
constant ``y`` the members share (a served program holds it and fuses it to
each drain) -- and one lattice point: the chain (uint64 28/30-bit, dword
59/60-bit, mixed 60+28, exact past 2**62), B in {1, 3, 8} (fused by
``encrypt_batch`` or ``batch_from``, split by ``batch_split``), the mode
(eager, ``session.trace()``, or an executable trace ``TraceProgram``
replays and the results are read back from), serving (none, or a ``Server``
under a seeded chaos ``FaultPlan``) and threads (one, or two more on the
same session).  It asserts that

1. every member of every result is, residue for residue, the program run
   alone at B=1, eager, on exact Python integers: the chain's session with
   every modulus on the object path (``conftest.exact_integers``), fed the
   same input residues;
2. the cost-model twin agrees on level, scale, encoded length and member
   count after every step -- the twin is also the generator's type system:
   a step is drawn only if it takes it -- and, in a recording mode, emits
   as many kernels as the run records, within 5% of its bytes per kernel
   kind (``reconcile_trace``);
3. decrypted, every result is the program run in plain NumPy over the slots,
   to :data:`PRECISION_FLOOR` bits.

A failure prints the shrunk ``case=Case(...)``: paste it into an
``@example(case=Case(...))`` above the property to replay it.  CI also runs
``pytest tests/test_oracle.py --hypothesis-profile=oracle-deep``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from functools import cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api import CKKSSession
from repro.api.vector import CipherVector
from repro.ckks.params import CKKSParameters
from repro.core.fusion import TraceProgram, expand_stages, fuse_trace
from repro.core.limb import LimbFormat
from repro.core.rns_poly import RNSPoly
from repro.perf.calibration import reconcile_trace
from repro.serve import (BatchingPolicy, FaultPlan, OpProgram, ReplayDriver, RetryPolicy,
                         Server, burst_arrivals)
from tests.conftest import BACKEND_OPERATIONS, exact_integers
from test_recorded_stream import stream_digest
from test_threading import _run_threads

#: ``chain -> (scale_bits, first_mod_bits, log2 N, numeric backend)``: the
#: chains of ``tests/test_recorded_stream.py``; the exact one computes on
#: Python integers, so on a smaller ring.
CHAINS = {
    "uint64": (28, 30, 7, "uint64"),
    "dword": (59, 60, 7, "dword"),
    "mixed": (28, 60, 7, "dword"),
    "exact": (59, 63, 5, "object"),
}
MEMBERS = (1, 3, 8)
MODES = ("eager", "traced", "replay")
#: Depth of every chain: inputs start at its top level or up to two below.
DEPTH = 4
#: Rotation keys every session holds; a program rotates by these and by 0.
ROTATIONS = (1, 2, 3, -1)
#: Longest message (the exact chain has 16 slots).
MAX_LENGTH = 16
#: Bits every decrypted result keeps against the plain-NumPy run.
PRECISION_FLOOR = 10
#: Typed errors a served request may fail with (``tests/test_faults.py``).
SERVE_ERRORS = {"RequestRejected", "DeadlineExceeded", "DrainFailed"}

#: Drawn examples per run (beside the :data:`FLOOR` below): 60, or the
#: deeper profile's when it is loaded (``oracle-deep``, ``conftest.py``).
EXAMPLES = (settings.default.max_examples
            if settings.get_current_profile_name() == "oracle-deep" else 60)


# ----------------------------------------------------------------------
# programs
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Case:
    """One drawn example: a lattice point, the two inputs and a program.

    ``steps`` are ``(operation, operand indices, parameters)``; an index
    points into the handles made so far, ``x`` and ``y`` first.
    """

    chain: str
    members: int
    fused_by: str
    mode: str
    serving: bool
    threads: int
    levels: tuple
    lengths: tuple
    seed: int
    steps: tuple = ()


def plain_values(length: int, seed: int) -> np.ndarray:
    """The raw plaintext a step with parameters ``(length, seed)`` passes."""
    return np.random.default_rng(seed).uniform(-1, 1, length)


def x_message(case: Case, member: int) -> np.ndarray:
    return np.random.default_rng([case.seed, 1, member]).uniform(-1, 1, case.lengths[0])


def y_message(case: Case) -> np.ndarray:
    return np.random.default_rng([case.seed, 2]).uniform(-1, 1, case.lengths[1])


def apply(backend, op: str, args: list, params: tuple) -> list:
    """One step on any backend (evaluator, twin or :class:`Plain`): its results."""
    if op in ("add", "sub", "multiply"):
        return [getattr(backend, op)(*args)]
    if op in ("negate", "square", "conjugate", "rescale"):
        return [getattr(backend, op)(args[0])]
    if op in ("add_plain", "sub_plain"):
        return [getattr(backend, op)(args[0], plain_values(*params))]
    if op in ("add_scalar", "multiply_scalar", "rotate", "mod_reduce", "at_level"):
        return [getattr(backend, op)(args[0], params[0])]
    if op == "multiply_plain":
        length, seed, rescale = params
        return [backend.multiply_plain(args[0], plain_values(length, seed),
                                       rescale=rescale)]
    if op == "hoisted_rotations":
        return list(backend.hoisted_rotations(args[0], params[0]).values())
    if op == "dot_product_plain":
        return [backend.dot_product_plain(args, [plain_values(*p) for p in params])]
    if op == "weighted_sum":
        coefficients, level, constant = params
        return [backend.weighted_sum(list(zip(args, coefficients)), level,
                                     constant=constant)]
    coefficients, level, multiplier, constant = params  # product_sum
    return [backend.product_sum(args[0], args[1], level, list(zip(args[2:], coefficients)),
                                multiplier=multiplier, constant=constant)]


def run(backend, inputs, steps) -> list:
    """Every handle the program makes, its inputs first."""
    pool = list(inputs)
    for op, operands, params in steps:
        pool += apply(backend, op, [pool[i] for i in operands], params)
    return pool


class Plain:
    """The backend protocol on plaintext slot vectors: the precision reference.

    A message of ``n`` values fills the slots with period ``next_pow2(n)``,
    as the encoder replicates it; every operation acts slot by slot on the
    last axis (a leading axis holds the members).
    """

    def __init__(self, slots: int) -> None:
        self.slots = slots

    def slotwise(self, values) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        period = 1 << (len(values) - 1).bit_length()
        return np.tile(np.pad(values, (0, period - len(values))), self.slots // period)

    def add(self, a, b): return a + b
    def sub(self, a, b): return a - b
    def negate(self, a): return -a
    def add_plain(self, a, values): return a + self.slotwise(values)
    def sub_plain(self, a, values): return a - self.slotwise(values)
    def add_scalar(self, a, value): return a + value
    def multiply(self, a, b): return a * b
    def square(self, a): return a * a
    def multiply_scalar(self, a, value): return a * value
    def rotate(self, a, steps): return np.roll(a, -steps, axis=-1)
    def conjugate(self, a): return np.conj(a)
    def rescale(self, a): return a
    def mod_reduce(self, a, limb_count): return a
    def at_level(self, a, level): return a

    def multiply_plain(self, a, values, rescale): return a * self.slotwise(values)
    def hoisted_rotations(self, a, steps): return {k: self.rotate(a, k) for k in steps}

    def dot_product_plain(self, handles, rows):
        return sum(h * self.slotwise(row) for h, row in zip(handles, rows))

    def weighted_sum(self, terms, level, constant):
        return sum(c * h for h, c in terms) + constant

    def product_sum(self, a, b, level, addends, multiplier, constant):
        return multiplier * a * b + sum(c * h for h, c in addends) + constant


def make_session(chain: str) -> CKKSSession:
    scale_bits, first_mod_bits, ring_log2, _ = CHAINS[chain]
    params = CKKSParameters(
        ring_degree=1 << ring_log2, mult_depth=DEPTH, scale_bits=scale_bits, dnum=2,
        first_mod_bits=first_mod_bits, secret_hamming_weight=16,
        label=f"oracle-{chain}",
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the object path warns
        return CKKSSession.create(params, rotations=list(ROTATIONS), conjugation=True,
                                  seed=5, register_default=False)


@cache
def session_of(chain: str) -> CKKSSession:
    session = make_session(chain)
    assert session.numeric_backend == CHAINS[chain][3]
    return session


@cache
def exact_session_of(chain: str) -> CKKSSession:
    """The chain's session on exact integers, built (and only ever used)
    inside :func:`exact_integers`; the same seed gives the same keys."""
    session = make_session(chain)
    assert session.numeric_backend == "object"
    return session


@cache
def twin_of(chain: str):
    return session_of(chain).cost_backend()


class Pool:
    """The generator's state: the twin's handles and the plain values (one
    row per member) of everything the program has made so far."""

    def __init__(self, chain: str, handles: list, values: list) -> None:
        self.twin = twin_of(chain)
        self.plain = Plain(self.twin.params.slots)
        self.handles = handles
        self.values = values
        self.log_moduli = np.cumsum([np.log2(float(q)) for q in self.twin.moduli])

    def on_ladder(self, i: int) -> bool:
        """Within 2**8 of its level's ladder scale: not a raw product."""
        handle = self.handles[i]
        return abs(np.log2(handle.scale / self.twin.scale_ladder[handle.level])) < 8

    def decryptable(self, handle, values) -> bool:
        """``|m|·scale`` eight times inside the modulus it decrypts under."""
        peak = max(float(np.max(np.abs(values))), 2.0 ** -30)
        return np.log2(handle.scale * peak) + 3 < self.log_moduli[handle.limb_count - 1]

    def attempt(self, step) -> bool:
        """Take the step if the twin does and every result decrypts."""
        op, operands, params = step
        try:
            handles = apply(self.twin, op, [self.handles[i] for i in operands], params)
        except (ValueError, KeyError):
            return False
        values = apply(self.plain, op, [self.values[i] for i in operands], params)
        if not all(map(self.decryptable, handles, values)):
            return False
        self.handles += handles
        self.values += values
        return True


#: Operations by what their first operand needs: any handle on the scale
#: ladder, one at level 1 or above (they rescale), or a raw product.
ANY_LEVEL = ("add", "sub", "negate", "conjugate", "add_scalar", "add_plain",
             "sub_plain", "rotate", "hoisted_rotations", "mod_reduce", "at_level")
RESCALING = ("multiply", "square", "multiply_scalar", "multiply_plain",
             "dot_product_plain", "weighted_sum", "product_sum")
OPERATIONS = ANY_LEVEL + RESCALING + ("rescale",)
SCALARS = (0.5, -0.25, 0.75, -1.0)
COEFFICIENTS = (0.5, -0.75, 0.25, 1.0)
CONSTANTS = (0.0, 0.125, -0.5)


def operand_choices(pool: Pool) -> dict:
    """Per operation, the handles it may take first (empty: none)."""
    size = len(pool.handles)
    ladder = [i for i in range(size) if pool.on_ladder(i)]
    levelled = [i for i in ladder if pool.handles[i].level > 0]
    raised = [i for i in range(size) if i not in ladder and pool.handles[i].level > 0]
    return {op: ladder if op in ANY_LEVEL else levelled if op in RESCALING else raised
            for op in OPERATIONS}


@st.composite
def one_step(draw, pool: Pool, op: str, firsts: list):
    """A step of ``op`` on the pool's handles (whether the twin takes it is
    :meth:`Pool.attempt`'s to decide)."""
    length, seed = st.integers(1, MAX_LENGTH), st.integers(0, 2 ** 16)
    i = draw(st.sampled_from(firsts))
    level = pool.handles[i].level
    choices = operand_choices(pool)

    def partner(candidates):
        # Prefer an operand of another length: the result takes the longest.
        length = pool.handles[i].encoded_length
        return draw(st.sampled_from(
            [j for j in candidates if pool.handles[j].encoded_length != length]
            or candidates))

    if op in ("add", "sub"):
        return op, (i, partner(choices["add"])), ()
    if op in ("negate", "conjugate", "square", "rescale"):
        return op, (i,), ()
    if op in ("add_plain", "sub_plain"):
        return op, (i,), (draw(length), draw(seed))
    if op in ("add_scalar", "multiply_scalar"):
        return op, (i,), (draw(st.sampled_from(SCALARS)),)
    if op == "multiply_plain":
        return op, (i,), (draw(length), draw(seed), draw(st.booleans()))
    if op == "rotate":
        return op, (i,), (draw(st.sampled_from((0,) + ROTATIONS)),)
    if op == "hoisted_rotations":
        steps = draw(st.lists(st.sampled_from((0,) + ROTATIONS), min_size=1,
                              max_size=3, unique=True))
        return op, (i,), (tuple(steps),)
    if op == "mod_reduce":
        return op, (i,), (draw(st.integers(1, level + 1)),)
    if op == "at_level":
        return op, (i,), (draw(st.integers(0, level)),)
    levelled = choices["multiply"]
    if op == "multiply":
        return op, (i, partner(levelled)), ()
    # The sums: ``product_sum``'s ``b`` is ``a`` itself for an HSquare.
    operands = (i,)
    if op == "product_sum":
        others = [j for j in levelled if j != i]
        square = not others or draw(st.booleans())
        operands += (i if square else draw(st.sampled_from(others)),)
    operands += tuple(draw(st.lists(st.sampled_from(levelled), max_size=2)))
    if op == "dot_product_plain":
        return op, operands, tuple((draw(length), draw(seed)) for _ in operands)
    low = min(pool.handles[j].level for j in operands)
    target = low - 1 - draw(st.integers(0, low - 1))
    constant = draw(st.sampled_from(CONSTANTS))
    terms = operands if op == "weighted_sum" else operands[2:]
    coefficients = tuple(draw(st.sampled_from(COEFFICIENTS)) for _ in terms)
    if op == "weighted_sum":
        return op, operands, (coefficients, target, constant)
    return op, operands, (coefficients, target, draw(st.sampled_from((1, 2, -1))), constant)


@st.composite
def cases(draw) -> Case:
    """A lattice point and a program of 1–6 steps the twin takes.

    The program walks an order drawn over every operation: each step is the
    next one in it the pool can take (a raw product is rescaled first), so
    one program mixes many operations.
    """
    mode = draw(st.sampled_from(MODES))
    serving = mode != "replay" and draw(st.booleans())
    case = Case(
        chain=draw(st.sampled_from(sorted(CHAINS))),
        members=draw(st.sampled_from(MEMBERS)),
        fused_by=draw(st.sampled_from(("encrypt_batch", "batch_from"))),
        mode=mode,
        serving=serving,
        threads=1 if serving else draw(st.sampled_from((1, 2))),
        levels=(draw(st.integers(DEPTH - 2, DEPTH)), draw(st.integers(DEPTH - 2, DEPTH))),
        lengths=(draw(st.integers(1, MAX_LENGTH)), draw(st.integers(1, MAX_LENGTH))),
        seed=draw(st.integers(0, 2 ** 16)),
    )
    twin = twin_of(case.chain)
    plain = Plain(twin.params.slots)
    x_rows = [x_message(case, m) for m in range(case.members)]
    pool = Pool(case.chain,
                [twin.encrypt(x_rows[0], level=case.levels[0]),
                 twin.encrypt(y_message(case), level=case.levels[1])],
                [np.stack([plain.slotwise(row) for row in x_rows]),
                 plain.slotwise(y_message(case))])
    order = draw(st.permutations(OPERATIONS))
    steps, turn = [], 0
    for _ in range(draw(st.integers(1, 6))):
        for _attempt in range(4):
            choices = operand_choices(pool)
            if choices["rescale"]:
                op = "rescale"  # a raw product is rescaled next
            else:
                while not choices[order[turn % len(order)]]:
                    turn += 1
                op = order[turn % len(order)]
                turn += 1
            step = draw(one_step(pool, op, choices[op]))
            if pool.attempt(step):
                steps.append(step)
                break
    return replace(case, steps=tuple(steps))


# ----------------------------------------------------------------------
# the runs
# ----------------------------------------------------------------------


def metadata(handle) -> tuple:
    return handle.level, handle.scale, handle.encoded_length, handle.batch_size


def residues(handle, fetch=lambda data: data) -> tuple:
    return fetch(handle.c0.data).tolist(), fetch(handle.c1.data).tolist()


def fused(backend, handles: list):
    """``handles`` as one handle (the only one, unfused)."""
    return backend.batch_from(handles) if len(handles) > 1 else handles[0]


def exact_runs(case: Case, members: list, y, twin_single: list) -> list:
    """Per member, every handle's residues from the exact B=1 eager run,
    whose metadata is the twin's (``twin_single``) after every step."""
    out = []
    with exact_integers():
        backend = exact_session_of(case.chain).backend

        def exact(ct):
            return ct.with_polys(*(RNSPoly(p.moduli, p.data, LimbFormat.EVALUATION)
                                   for p in (ct.c0, ct.c1)))

        for member in members:
            pool = run(backend, [exact(member), exact(y)], case.steps)
            assert list(map(metadata, pool)) == list(map(metadata, twin_single))
            out.append([residues(h) for h in pool])
    return out


def under_test(case: Case, session, inputs) -> tuple:
    """The program on the fused ``inputs()`` in ``case.mode`` (a recording
    mode records the fusing too): ``(handles, fetch, trace)``, where
    ``fetch(data)`` reads the residues the mode produced for ``data`` and
    ``trace`` is the recording (``None`` when eager)."""
    if case.mode == "eager":
        return run(session.backend, inputs(), case.steps), lambda data: data, None
    with session.trace(executable=case.mode == "replay") as trace:
        pool = run(session.backend, inputs(), case.steps)
    if case.mode == "traced":
        return pool, lambda data: data, trace
    program = TraceProgram(trace)
    program.verify()
    staged = expand_stages(trace)
    assert fuse_trace(staged).fused_trace.int_ops == pytest.approx(staged.int_ops)
    summary = fuse_trace(trace).summary()
    assert summary["int_ops_after"] == pytest.approx(summary["int_ops_before"])
    assert summary["bytes_moved_after"] <= summary["bytes_moved_before"]
    if all(e.replay is not None for e in staged):
        assert stream_digest(staged) == stream_digest(trace)
    program.verify()  # expanding leaves the record replayable, and it re-runs

    def fetch(data):
        try:
            return program.output(data)
        except KeyError:  # no kernel wrote it: an input, or a window of one
            return data

    return pool, fetch, trace


def serve(case: Case, session, members: list, y) -> dict:
    """Serve each member as a request under a chaos plan: ``{member: result}``
    for the OK responses (every failure is a typed error)."""
    def fn(vector):
        inputs = [vector.handle, fused(vector.backend, [y] * vector.batch_size)]
        return CipherVector(vector.backend, run(vector.backend, inputs, case.steps)[-1])

    plan = FaultPlan.generate(case.seed, duration=0.02, oom_fraction=0.5,
                              oom_window=0.005, transients=1)
    server = Server(session, BatchingPolicy(max_batch_size=case.members, max_wait=1e-3),
                    retry=RetryPolicy(max_retries=3, backoff=1e-5), fault_plan=plan)
    vectors = [CipherVector(session.backend, m) for m in members]
    driver = ReplayDriver(server, OpProgram(f"oracle-{case.seed}", fn),
                          lambda i: vectors[i], deadline_offset=0.02)
    arrivals = burst_arrivals(case.members, bursts=2, burst_gap=0.005, seed=case.seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # a fused drain degraded
        if case.mode == "traced":
            with session.trace():
                driver.run(arrivals)
        else:
            driver.run(arrivals)
    served = {}
    for m, request in enumerate(driver.requests):
        response = request.response()
        if response.ok:
            served[m] = request.result().handle
        else:
            assert response.error_kind in SERVE_ERRORS, response.error_kind
    return served


def assert_precise(session, handle, expected) -> None:
    got = session.decrypt(handle, session.slots)
    error = float(np.max(np.abs(got - expected)))
    bound = 2.0 ** -PRECISION_FLOOR * max(1.0, float(np.max(np.abs(expected))))
    assert error <= bound, f"{error:.3g} > {bound:.3g}"


def check(case: Case) -> None:
    session, twin = session_of(case.chain), twin_of(case.chain)
    backend = session.backend
    rows = [x_message(case, m) for m in range(case.members)]
    x_level, y_level = case.levels
    if case.members > 1 and case.fused_by == "encrypt_batch":
        x = backend.encrypt_batch(rows, level=x_level)
        members = backend.batch_split(x)
    else:
        members = [backend.encrypt(row, level=x_level) for row in rows]
        x = None
    y = backend.encrypt(y_message(case), level=y_level)

    def inputs():
        return [fused(backend, members) if x is None else x,
                fused(backend, [y] * case.members)]

    # The twin at B=1 (the oracle's shape) and fused (the run under test).
    y_twin = twin.encrypt(y_message(case), level=y_level)
    twin_single = run(twin, [twin.encrypt(rows[0], level=x_level), y_twin], case.steps)
    x_twin = twin.encrypt_batch(rows, level=x_level) if case.members > 1 else \
        twin.encrypt(rows[0], level=x_level)
    with session.trace() as twin_trace:
        twin_fused = run(twin, [x_twin, fused(twin, [y_twin] * case.members)], case.steps)
    oracle = exact_runs(case, members, y, twin_single)
    plain = Plain(session.slots)
    expected = run(plain, [np.stack([plain.slotwise(row) for row in rows]),
                           plain.slotwise(y_message(case))], case.steps)

    def precise(handle, k, m):
        values = np.broadcast_to(expected[k], (case.members, session.slots))[m]
        assert_precise(session, handle, values)

    if case.serving:
        for m, result in serve(case, session, members, y).items():
            assert metadata(result) == metadata(twin_single[-1])
            assert residues(result) == tuple(oracle[m][-1]), f"served member {m}"
            precise(result, -1, m)
        return

    def one_run(index=0, barrier=None):
        if barrier is not None:
            barrier.wait()  # the threads run at once
        return under_test(case, session, inputs)

    runs = [one_run()]
    if case.threads > 1:
        runs += _run_threads(one_run, count=case.threads)
    assert len({None if trace is None else stream_digest(trace)
                for *_, trace in runs}) == 1, \
        "a thread's trace differs from the single-thread trace"
    recorded = runs[0][2]
    if recorded is not None:
        assert recorded.kernel_count == twin_trace.kernel_count
        report = reconcile_trace(recorded, twin_trace.kernels(), name="twin")
        assert report.within(kernel_tolerance=0.05, bytes_tolerance=0.05), \
            report.describe()
    for pool, fetch, _ in runs:
        for k, (handle, ghost) in enumerate(zip(pool, twin_fused, strict=True)):
            assert metadata(handle) == metadata(ghost), f"handle {k}"
            split = backend.batch_split(handle) if case.members > 1 else [handle]
            for m, member in enumerate(split):
                assert metadata(member) == metadata(twin_single[k])
                assert residues(member, fetch) == tuple(oracle[m][k]), \
                    f"handle {k}, member {m}"
    for k, handle in enumerate(runs[0][0]):
        split = backend.batch_split(handle) if case.members > 1 else [handle]
        for m, member in enumerate(split):
            precise(member, k, m)


#: A floor of coverage that does not depend on the draw: together these take
#: every operation, chain, member count, mode, serving and thread setting.
FLOOR = (
    Case(chain="uint64", members=3, fused_by="batch_from", mode="replay",
         serving=False, threads=2, levels=(4, 3), lengths=(5, 12), seed=11, steps=(
             ("multiply_plain", (0,), (7, 3, False)), ("rescale", (2,), ()),
             ("product_sum", (3, 1, 0), ((0.5,), 1, 2, 0.125)),
             ("mod_reduce", (4,), (2,)),
             ("weighted_sum", (0, 1), ((0.5, -0.25), 2, -0.5)),
             ("hoisted_rotations", (6,), ((0, 1, -1),)))),
    Case(chain="mixed", members=8, fused_by="encrypt_batch", mode="traced",
         serving=True, threads=1, levels=(3, 4), lengths=(16, 3), seed=5, steps=(
             ("square", (0,), ()), ("sub", (2, 1), ()), ("rotate", (3,), (2,)),
             ("dot_product_plain", (4, 0), ((4, 9), (16, 2))),
             ("conjugate", (5,), ()), ("add_scalar", (6,), (0.5,)))),
    Case(chain="dword", members=1, fused_by="encrypt_batch", mode="eager",
         serving=False, threads=1, levels=(4, 4), lengths=(2, 9), seed=7, steps=(
             ("at_level", (0,), (3,)), ("multiply", (2, 1), ()),
             ("multiply_scalar", (3,), (-0.25,)), ("negate", (4,), ()),
             ("add_plain", (5,), (13, 4)), ("sub_plain", (6,), (3, 8)),
             ("add", (7, 0), ()))),
    Case(chain="exact", members=3, fused_by="encrypt_batch", mode="replay",
         serving=False, threads=1, levels=(4, 4), lengths=(9, 4), seed=3, steps=(
             ("rotate", (0,), (-1,)), ("multiply", (2, 1), ()))),
)

#: The twin's drifts from the recorded run, one pinned case each: a hoisted
#: call whose every step is 0 mod slots paid a ModUp the twin does not emit
#: (7 launches against 0); ``x + x`` reads its one operand once where the
#: twin's HAdd charged two reads (0.667x the bytes); and a no-op rotation,
#: level change or mod-reduce is a handle over the same polynomials, so
#: ``x + (x << 0)`` reads one operand, where the twin's copy charged two.
DRIFTS = (
    Case(chain="uint64", members=3, fused_by="encrypt_batch", mode="traced",
         serving=False, threads=1, levels=(4, 4), lengths=(4, 4), seed=1, steps=(
             ("hoisted_rotations", (0,), ((0,),)),)),
    Case(chain="mixed", members=1, fused_by="encrypt_batch", mode="replay",
         serving=False, threads=1, levels=(4, 4), lengths=(4, 4), seed=2, steps=(
             ("add", (0, 0), ()),)),
    Case(chain="uint64", members=1, fused_by="encrypt_batch", mode="traced",
         serving=False, threads=1, levels=(4, 4), lengths=(4, 4), seed=3, steps=(
             ("rotate", (0,), (0,)), ("add", (0, 2), ()),
             ("at_level", (0,), (4,)), ("add", (0, 4), ()),
             ("mod_reduce", (0,), (5,)), ("add", (0, 6), ()))),
)


@settings(max_examples=EXAMPLES, derandomize=True, deadline=None)
@given(case=cases())
def test_every_run_is_the_exact_sequential_run(case):
    check(case)


for _case in FLOOR + DRIFTS:
    test_every_run_is_the_exact_sequential_run = example(case=_case)(
        test_every_run_is_the_exact_sequential_run)


def test_programs_draw_every_protocol_operation():
    """A new operation on the backend protocol joins the generator."""
    sources = {"encrypt", "encrypt_batch", "batch_from", "batch_split"}
    assert set(OPERATIONS) == set(BACKEND_OPERATIONS) - sources
