"""Backend-seam tests: functional vs cost-model parity.

The acceptance property of the backend seam: the same ``CipherVector``
program object runs unmodified on both the functional backend (the
session's :class:`~repro.ckks.evaluator.Evaluator`) and
:class:`~repro.api.backend.CostModelBackend`, with identical level/scale
trajectories, and the cost backend emits its closed-form kernels onto the
same trace seam the functional data plane records through, so the GPU
models price either.
"""

from collections import Counter

import numpy as np
import pytest

from repro.api.backend import (
    CostModelBackend,
    EvaluationBackend,
    as_backend,
)
from repro.api.session import CKKSSession
from repro.api.vector import CipherVector
from repro.apps.logistic_regression import EncryptedLogisticRegression
from repro.ckks.context import Context
from repro.ckks.params import PARAMETER_SETS, CKKSParameters
from repro.core.dispatch import DISPATCH
from repro.gpu.platforms import GPU_RTX_4090
from repro.perf.calibration import kernel_kind
from repro.perf.costmodel import CKKSOperationCosts
from tests.conftest import assert_close
from tests.test_dispatch_trace import OP_SURFACE


def polynomial_program(x, y, trace):
    """A small polynomial-evaluation program, backend-agnostic.

    ``trace`` collects every intermediate handle so the test can compare
    the full level/scale trajectory, not just the final state.
    """
    product = x * y
    trace.append(product)
    doubled = 2.0 * product
    trace.append(doubled)
    shifted = doubled + 1.0
    trace.append(shifted)
    squared = shifted ** 2
    trace.append(squared)
    rotated = squared << 1
    trace.append(rotated)
    mixed = rotated + x.at_level(rotated.level)
    trace.append(mixed)
    masked = mixed * np.linspace(0.0, 1.0, x.slots)
    trace.append(masked)
    return masked


class TestFunctionalCostParity:
    def test_identical_level_scale_trajectories(self, session):
        """The acceptance test: one program, two backends, same trajectory."""
        functional = session.backend
        costmodel = session.cost_backend()

        rng = np.random.default_rng(42)
        a = rng.uniform(-0.5, 0.5, 8)
        b = rng.uniform(-0.5, 0.5, 8)

        fn_trace, cm_trace = [], []
        fn_result = polynomial_program(session.encrypt(a), session.encrypt(b), fn_trace)
        with session.trace() as kernels:
            cm_result = polynomial_program(
                CipherVector(costmodel, costmodel.encrypt(a)),
                CipherVector(costmodel, costmodel.encrypt(b)),
                cm_trace,
            )

        assert len(fn_trace) == len(cm_trace)
        for step, (fn, cm) in enumerate(zip(fn_trace, cm_trace)):
            assert fn.level == cm.level, f"level diverged at step {step}"
            assert fn.scale == pytest.approx(cm.scale, rel=1e-12), \
                f"scale diverged at step {step}"
        assert fn_result.level == cm_result.level
        assert fn_result.scale == pytest.approx(cm_result.scale, rel=1e-12)

        # The cost side really emitted kernels while it tracked the ladder.
        assert kernels.kernel_count > 0
        assert kernels.bytes_moved > 0
        assert functional is session.evaluator
        assert isinstance(functional, EvaluationBackend)

    def test_functional_result_is_correct(self, session, rng):
        a = rng.uniform(-0.5, 0.5, 8)
        b = rng.uniform(-0.5, 0.5, 8)
        result = polynomial_program(session.encrypt(a), session.encrypt(b), [])
        mask = np.linspace(0.0, 1.0, session.slots)
        expected = (np.roll((2 * a * b + 1) ** 2, -1) + a) * mask[:8]
        assert_close(session.decrypt(result, 8).real, expected, 2e-2)

    def test_error_paths_match(self, session):
        """Both backends reject the same invalid programs the same way."""
        functional = session.backend
        costmodel = session.cost_backend()
        fn_ct = session.encrypt([0.5]).at_level(0)
        cm_ct = CipherVector(costmodel, costmodel.encrypt([0.5], level=0))

        for vec in (fn_ct, cm_ct):
            with pytest.raises(ValueError, match="level-0"):
                vec * 2.0
            with pytest.raises(ValueError, match="rescale a level-0"):
                vec.rescale()
            with pytest.raises(ValueError, match="higher level"):
                vec.at_level(3)

    def test_missing_rotation_keys_match(self, session):
        costmodel = session.cost_backend()
        cm_ct = CipherVector(costmodel, costmodel.encrypt([0.5]))
        with pytest.raises(KeyError, match="available rotation steps"):
            cm_ct << 7
        # without key checking the same rotation is allowed
        permissive = session.cost_backend(check_keys=False)
        rotated = CipherVector(permissive, permissive.encrypt([0.5])) << 7
        assert rotated.level == session.max_level


BACKENDS = {
    "functional": lambda session: session.backend,
    "costmodel": lambda session: session.cost_backend(),
}


class TestSharedMatchingRule:
    """One level/scale matching rule and one set of operand errors
    (``repro.ckks.ciphertext``), so the evaluator and the symbolic backend
    cannot drift apart."""

    @pytest.mark.parametrize("op", sorted(OP_SURFACE))
    def test_op_surface_at_mismatched_levels(self, session, op):
        def run(backend):
            x = CipherVector(backend, backend.encrypt(np.full(8, 0.5)))
            y = CipherVector(backend, backend.encrypt(np.full(8, 0.25)))
            result = OP_SURFACE[op](x, y.at_level(y.level - 1))
            handles = result.values() if isinstance(result, dict) else [result]
            return [(h.level, h.scale) for h in handles]

        functional, symbolic = (run(make(session)) for make in BACKENDS.values())
        assert [level for level, _ in functional] == [level for level, _ in symbolic]
        assert [scale for _, scale in functional] == pytest.approx(
            [scale for _, scale in symbolic], rel=1e-12
        )

    @pytest.mark.parametrize("case", [
        "scale-mismatch", "level-0-multiply-scalar", "dot-empty",
        "dot-surplus-rows", "dot-missing-rows", "add-inf", "multiply-nan",
        "weighted-sum-empty", "weighted-sum-below", "product-sum-multiplier",
    ])
    def test_operand_errors_are_the_same_error(self, session, case):
        def attempt(backend):
            fresh = lambda **kw: backend.encrypt([0.5], **kw)  # noqa: E731
            if case == "scale-mismatch":
                return lambda: backend.add(fresh(), fresh(scale=2.0 ** 20))
            if case == "level-0-multiply-scalar":
                return lambda: backend.multiply_scalar(fresh(level=0), 2.0)
            # Regression: a non-finite scalar escaped the evaluator as a bare
            # OverflowError / "cannot convert float NaN to integer", and the
            # symbolic backend accepted it.
            if case == "add-inf":
                return lambda: backend.add_scalar(fresh(), float("inf"))
            if case == "multiply-nan":
                return lambda: backend.multiply_scalar(fresh(), float("nan"))
            if case == "weighted-sum-empty":
                return lambda: backend.weighted_sum([], 1)
            if case == "weighted-sum-below":
                return lambda: backend.weighted_sum([(fresh(level=1), 0.5)], 1)
            if case == "product-sum-multiplier":
                return lambda: backend.product_sum(fresh(), fresh(), 1, multiplier=0.5)
            handles, rows = {
                "dot-empty": (0, 0), "dot-surplus-rows": (1, 2),
                "dot-missing-rows": (2, 1),
            }[case]
            return lambda: backend.dot_product_plain(
                [fresh() for _ in range(handles)], [[1.0]] * rows
            )

        raised = []
        for make in BACKENDS.values():
            with pytest.raises(ValueError) as info:
                attempt(make(session))()
            raised.append(str(info.value))
        assert raised[0] == raised[1]
        if case in ("add-inf", "multiply-nan"):
            operation, value = {"add-inf": ("add_scalar", "inf"),
                                "multiply-nan": ("multiply_scalar", "nan")}[case]
            assert operation in raised[0] and value in raised[0]

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    @pytest.mark.parametrize("handles, rows", [(1, 2), (2, 1)],
                             ids=["surplus-rows", "missing-rows"])
    def test_dot_product_plain_rejects_unequal_operands(
            self, session, backend, handles, rows):
        # Regression: the functional backend used to zip() the pairs and
        # silently drop surplus rows.
        backend = BACKENDS[backend](session)
        cts = [backend.encrypt([0.5]) for _ in range(handles)]
        with pytest.raises(ValueError, match="equally many"):
            backend.dot_product_plain(cts, [[1.0]] * rows)


#: Sub-scopes only the recorded data plane opens inside an operation.
RECORDED_ONLY = {"modup", "moddown", "keyswitch"}


def operation_scopes(trace):
    """Distinct operation-scope paths of a trace, in first-appearance order.

    Drops unscoped kernels (server-side plaintext encoding, a bare level
    adjustment) and the key-switch sub-scopes the closed form does not open.
    """
    return [
        scope for scope in trace.scopes()
        if scope and not RECORDED_ONLY & set(scope.split("/"))
    ]


class TestSymbolicEmission:
    """The cost backend emits onto the dispatcher seam and keeps no books."""

    def test_scopes_and_totals_of_a_program(self, session):
        costmodel = session.cost_backend()
        ct = CipherVector(costmodel, costmodel.encrypt([0.5]))
        other = CipherVector(costmodel, costmodel.encrypt([0.5]))
        with session.trace() as trace:
            _ = 2.0 * (ct * other) + 1.0
        assert trace.scopes() == [
            "hmult", "scalarmult", "scalarmult/rescale", "scalaradd",
        ]
        costs, limbs = costmodel.costs, ct.limb_count
        expected = [
            costs.product_rescale(limbs),
            costs.weighted_sum(limbs - 1, 1, 1, False), costs.rescale(limbs - 1),
            costs.scalar_add(limbs - 2),
        ]
        assert [k.name for k in trace.kernels()] == [
            k.name for cost in expected for k in cost.kernels
        ]
        assert trace.bytes_moved == sum(c.bytes_moved for c in expected)
        assert trace.int_ops == sum(c.int_ops for c in expected)
        assert trace.kernel_count == sum(c.kernel_count for c in expected)

    def test_hoisted_rotations_emitted_once(self, session):
        costmodel = session.cost_backend()
        ct = CipherVector(costmodel, costmodel.encrypt([0.5]))
        with session.trace() as trace:
            rotated = ct.rotate_many([1, 2, 4])
        assert set(rotated) == {1, 2, 4}
        assert trace.scopes() == ["hoisted"]
        assert [k.name for k in trace.kernels()] == [
            k.name for k in costmodel.costs.hoisted_rotations(ct.limb_count, 3).kernels
        ]

    def test_session_twin_emits_the_data_planes_hmult(self):
        """Regression: the twin used to limb-batch by ``params.limb_batch`` (43 vs 20,
        the separate-rescale stream; 15 with the merged ModDown-rescale)."""
        params = CKKSParameters(
            ring_degree=1 << 13, mult_depth=5, scale_bits=28, dnum=3,
            first_mod_bits=30, label="twin-13-5",
        )
        session = CKKSSession.create(params, seed=11, register_default=False)
        values = np.linspace(-1.0, 1.0, 8)
        traces = []
        for backend in (session.backend, session.cost_backend()):
            x, y = (CipherVector(backend, backend.encrypt(values)) for _ in range(2))
            with session.trace() as trace:
                x * y
            traces.append(trace)
        functional, symbolic = traces
        assert functional.kernel_count == symbolic.kernel_count == 15
        assert functional.bytes_moved == symbolic.bytes_moved == 21_626_880
        kinds = [
            Counter(kernel_kind(k.name) for k in trace.kernels()) for trace in traces
        ]
        assert kinds[0] == kinds[1] == {
            "ntt": 5, "intt": 3, "baseconv": 5, "elementwise": 2,
        }

    def test_both_backends_fill_a_trace_with_the_same_operation_scopes(self, session):
        rows = [np.linspace(-0.5, 0.5, 8)] * 4
        for fused in (False, True):
            scopes = []
            for backend in (session.backend, session.cost_backend()):
                handles = [
                    backend.encrypt_batch(rows) if fused else backend.encrypt(rows[0])
                    for _ in range(2)
                ]
                with session.trace() as trace:
                    polynomial_program(*(CipherVector(backend, h) for h in handles), [])
                scopes.append(operation_scopes(trace))
            assert scopes[0] == scopes[1]
            prefix = "batch4/" if fused else ""
            assert {f"{prefix}hmult", f"{prefix}hrotate"} <= set(scopes[1])
            assert f"{prefix}hmult/{prefix}rescale" not in scopes[1]

    def test_recording_captures_symbolic_kernels(self, session):
        cost = session.cost_backend()
        with session.trace() as trace:
            ct = cost.encrypt([0.25, -0.5])
            cost.multiply(ct, ct)
        assert trace.kernel_count > 0
        assert trace.scopes() == ["hmult"]

    def test_unobserved_program_builds_no_kernel_and_keeps_no_state(self, session):
        class NoBuilders:
            def __getattr__(self, name):
                def build(*args):
                    raise AssertionError(f"costs.{name} ran outside a recording")
                return build

        costmodel = session.cost_backend(costs=NoBuilders())
        state = dict(vars(costmodel))
        assert not DISPATCH.recording
        for _ in range(3):
            polynomial_program(
                CipherVector(costmodel, costmodel.encrypt([0.5])),
                CipherVector(costmodel, costmodel.encrypt([0.5])),
                [],
            )
        assert vars(costmodel) == state


class TestPaperScaleCostModel:
    """At paper-scale parameters the twin runs on the real context."""

    def test_paper_context_tracks_levels(self):
        params = PARAMETER_SETS["paper-default"]
        backend = CostModelBackend(Context(params))
        ct = CipherVector(backend, backend.encrypt([0.5]))
        result = (ct * ct) + 1.0
        assert result.level == params.mult_depth - 1
        assert result.scale == pytest.approx(backend.context.scale_at(result.level),
                                             rel=1e-12)
        assert result.scale == pytest.approx(params.scale)

    def test_gpu_model_executes_ledger(self):
        from repro.perf.fideslib_model import FIDESlibModel

        params = PARAMETER_SETS["paper-default"]
        model = FIDESlibModel(GPU_RTX_4090, params, limb_batch=4)
        backend = CostModelBackend.for_model(model)
        ct = CipherVector(backend, backend.encrypt([0.5]))
        with DISPATCH.record() as trace:
            _ = 2.0 * (ct * ct) + 1.0
        elapsed = model.pricer.price(trace).makespan
        assert elapsed > 0
        # A single HMult at full level dominates; sanity-check magnitude.
        hmult_alone = model.time_operation("HMult")
        assert elapsed >= hmult_alone

    def test_apps_run_symbolically(self):
        """Whole applications run unmodified on the cost backend."""
        params = PARAMETER_SETS["paper-lr"]
        lr_backend = CostModelBackend(
            Context(params), costs=CKKSOperationCosts(params, limb_batch=None)
        )
        model = EncryptedLogisticRegression(backend=lr_backend, feature_count=4)
        rng = np.random.default_rng(0)
        columns, labels = model.encrypt_batch(
            rng.uniform(-1, 1, (8, 4)), rng.integers(0, 2, 8).astype(float)
        )
        with DISPATCH.record() as trace:
            model.train_batch(columns, labels, batch_size=8)
        operations = Counter(
            event.scope for event in trace
            if event.kernel.name.startswith(("tensor[", "automorph["))
        )
        assert operations["hmult"] >= 5
        assert operations["hrotate"] >= 3


class TestBackendProtocol:
    def test_as_backend_accepts_sessions_and_backends(self, session):
        assert as_backend(session) is session.backend
        assert as_backend(session.backend) is session.backend

    def test_as_backend_rejects_other_objects(self):
        with pytest.raises(TypeError):
            as_backend(object())

    def test_functional_backend_without_encryptor(self, evaluator):
        assert evaluator.encryptor is None
        with pytest.raises(RuntimeError, match="no encryptor"):
            evaluator.encrypt([1.0])

    def test_describe(self, session):
        fn = session.backend.describe()
        cm = session.cost_backend().describe()
        assert fn["backend"] == "functional"
        assert cm["backend"] == "costmodel"


#: Messages and scales the encoder refuses, with what the error names
#: (scale ``None``: the default; the too-long message is sized to the
#: session's slots in the test).
BAD_MESSAGES = {
    "scale-zero": ([0.5], 0.0, "scale"),
    "scale-negative": ([0.5], -1.0, "scale"),
    "scale-nan": ([0.5], float("nan"), "scale"),
    "scale-inf": ([0.5], float("inf"), "scale"),
    "empty": ([], None, "empty"),
    "too-long": (None, None, "at most"),
    "nan-entry": ([0.5, float("nan")], None, "non-finite"),
    # Used to be raveled, with the first axis recorded as its length: a
    # (2, 2) message decrypted to 2 of its 4 values.
    "matrix": (np.arange(4).reshape(2, 2) / 10, None, r"shape \(2, 2\)"),
    "cube": (np.arange(8).reshape(2, 2, 2) / 10, None, r"shape \(2, 2, 2\)"),
}


class TestMessageRule:
    """Both producers refuse the same messages (``check_message``)."""

    @pytest.mark.parametrize("case", sorted(BAD_MESSAGES))
    def test_both_producers_refuse(self, session, case):
        values, scale, names = BAD_MESSAGES[case]
        if values is None:
            values = np.zeros(session.slots + 1)
        for backend in (session.backend, session.cost_backend()):
            with pytest.raises(ValueError, match=names):
                backend.encrypt(values, scale=scale)
