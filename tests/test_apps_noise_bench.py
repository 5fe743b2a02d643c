"""Tests for the application workloads, noise estimation and bench reporting."""

import re
from pathlib import Path

import numpy as np
import pytest

from repro.apps.dataset import make_loan_dataset
from repro.apps.linear_algebra import EncryptedLinearAlgebra
from repro.apps.logistic_regression import (
    EncryptedLogisticRegression,
    PlaintextLogisticRegression,
    sigmoid,
    sigmoid_poly,
)
from repro.bench.reporting import BenchmarkTable, format_seconds, speedup
from repro.ckks.noise import (
    estimate_noise_bits,
    fresh_encryption_noise_bits,
    key_switch_noise_bits,
    measured_precision_bits,
    precision_bits_from_error,
)
from repro.ckks.params import PARAMETER_SETS
from tests.conftest import BACKEND_OPERATIONS, assert_close


def assert_retired_everywhere(retired: re.Pattern) -> None:
    """No file of src/, benchmarks/*.py, examples/, tests/ or README.md
    matches ``retired`` (this file, which has to spell the names, excepted)."""
    repo = Path(__file__).parent.parent
    scanned = [repo / "README.md", *sorted((repo / "benchmarks").glob("*.py"))]
    for folder in ("src", "examples", "tests"):
        scanned += sorted((repo / folder).rglob("*.py"))
    assert len(scanned) > 100
    for path in scanned:
        if path != Path(__file__):
            found = retired.findall(path.read_text(encoding="utf-8"))
            assert not found, (str(path.relative_to(repo)), found)


class TestDataset:
    def test_shapes_and_padding(self):
        data = make_loan_dataset(samples=200, features=25, seed=1)
        assert data.features.shape == (200, 32)
        assert data.padded_feature_count == 32 and data.feature_count == 25
        assert np.all(data.features[:, 25:] == 0)

    def test_labels_binary_and_balanced(self):
        data = make_loan_dataset(samples=2000, features=10, seed=2)
        assert set(np.unique(data.labels)) <= {0.0, 1.0}
        assert 0.2 < np.mean(data.labels) < 0.8

    def test_batches(self):
        data = make_loan_dataset(samples=64, features=4, seed=3)
        batches = list(data.batches(16))
        assert len(batches) == 4
        assert batches[0][0].shape == (16, 4)

    def test_reproducible(self):
        a = make_loan_dataset(samples=50, features=5, seed=7)
        b = make_loan_dataset(samples=50, features=5, seed=7)
        assert np.array_equal(a.features, b.features)

    def test_validation(self):
        with pytest.raises(ValueError):
            make_loan_dataset(samples=0)


class TestPlaintextLogisticRegression:
    def test_training_improves_accuracy(self):
        data = make_loan_dataset(samples=4000, features=8, noise=0.1, seed=4)
        model = PlaintextLogisticRegression(learning_rate=2.0)
        for features, labels in data.batches(256):
            model.fit_batch(features, labels)
        assert model.accuracy(data.features, data.labels) > 0.8

    def test_sigmoid_approximation_close_near_zero(self):
        xs = np.linspace(-2, 2, 21)
        assert np.max(np.abs(sigmoid(xs) - sigmoid_poly(xs))) < 0.06

    def test_predict_requires_training(self):
        with pytest.raises(RuntimeError):
            PlaintextLogisticRegression().predict(np.zeros((1, 2)))


class TestEncryptedLinearAlgebra:
    def test_sum_slots(self, session, rng):
        values = rng.uniform(-1, 1, 8)
        linalg = EncryptedLinearAlgebra(session)
        result = linalg.sum_slots(session.encrypt(values), 8)
        assert_close(session.decrypt(result, 1).real, [values.sum()], 2e-3)

    def test_accepts_raw_ciphertexts(self, session, encryptor, decryptor, rng):
        """The app layer still accepts bare Ciphertext handles."""
        values = rng.uniform(-1, 1, 8)
        linalg = EncryptedLinearAlgebra(session.backend)
        result = linalg.sum_slots(encryptor.encrypt_values(values), 8)
        assert_close(decryptor.decrypt_values(result.handle, 1).real, [values.sum()], 2e-3)

    def test_rotation_steps_requires_power_of_two(self):
        with pytest.raises(ValueError):
            EncryptedLinearAlgebra.rotation_steps_for_sum(6)


class TestEncryptedLogisticRegression:
    def test_one_encrypted_step_matches_plaintext(self, session):
        data = make_loan_dataset(samples=8, features=4, noise=0.1, seed=9)
        features, labels = data.features[:, :4], data.labels
        plain = PlaintextLogisticRegression(learning_rate=1.0)
        plain.fit_batch(features, labels)

        encrypted = EncryptedLogisticRegression(
            backend=session, feature_count=4, learning_rate=1.0
        )
        columns, label_ct = encrypted.encrypt_batch(features, labels)
        encrypted.train_batch(columns, label_ct, batch_size=8)
        weights = encrypted.decrypt_weights(session)
        assert np.max(np.abs(weights - plain.weights)) < 5e-2

    def test_required_rotations(self):
        assert EncryptedLogisticRegression.required_rotations(8) == [1, 2, 4]

    def test_encrypt_batch_validates_dimensions(self, session):
        model = EncryptedLogisticRegression(backend=session, feature_count=4)
        with pytest.raises(ValueError):
            model.encrypt_batch(np.zeros((8, 5)), np.zeros(8))


class TestNoiseEstimation:
    params = PARAMETER_SETS["toy"]

    def test_fresh_noise_positive(self):
        assert fresh_encryption_noise_bits(self.params) > 0

    def test_key_switch_noise_finite(self):
        assert 0 < key_switch_noise_bits(self.params) < 60

    def test_estimate_accumulates(self):
        short = estimate_noise_bits(self.params, ["encrypt"])
        long = estimate_noise_bits(self.params, ["encrypt", "hmult", "rescale", "hmult"])
        assert long > short

    def test_unknown_operation_rejected(self):
        with pytest.raises(ValueError):
            estimate_noise_bits(self.params, ["teleport"])

    def test_precision_bits(self):
        assert precision_bits_from_error(0.0) == 60.0
        assert precision_bits_from_error(0.25) == pytest.approx(2.0)
        assert measured_precision_bits([1.0, 2.0], [1.0, 2.25]) == pytest.approx(2.0)

    def test_measured_precision_validates_shapes(self):
        with pytest.raises(ValueError):
            measured_precision_bits([1.0], [1.0, 2.0])


class TestBenchReporting:
    def test_format_seconds_units(self):
        assert format_seconds(5e-6).endswith("µs")
        assert format_seconds(5e-3).endswith("ms")
        assert format_seconds(5.0).endswith("s")

    def test_speedup(self):
        assert speedup(1.0, 0.5) == 2.0
        with pytest.raises(ValueError):
            speedup(1.0, 0.0)

    def test_table_rendering(self):
        table = BenchmarkTable("Table V", note="toy data")
        table.add_row(Operation="HMult", FIDESlib="1.08 ms", Speedup=374.6)
        table.add_row(Operation="HAdd", FIDESlib="50.7 µs")
        text = table.to_text()
        assert "Table V" in text and "HMult" in text
        assert table.columns == ["Operation", "FIDESlib", "Speedup"]
        assert table.column_values("FIDESlib") == ["1.08 ms", "50.7 µs"]

    def test_benchmark_scripts_are_modeled_and_independent(self):
        # A measured number has one home, benchmarks/e2e: no script outside
        # it reads a wall clock.
        wall_clock_allowed: set[str] = set()
        root = Path(__file__).parent.parent / "benchmarks"
        scripts = sorted(root.glob("*.py"))
        assert len(scripts) > len(wall_clock_allowed)
        for path in scripts:
            timed = re.search(r"perf_counter|time\.time|timeit",
                              path.read_text(encoding="utf-8")) is not None
            assert timed == (path.name in wall_clock_allowed), path.name
        # common.py (parameter set + artefact writer) is the only script
        # another file under benchmarks/ may import.
        siblings = {path.stem for path in scripts} - {"common"}
        for path in sorted(root.rglob("*.py")):
            imported = set(re.findall(
                r"^\s*(?:from|import)\s+(\w+)",
                path.read_text(encoding="utf-8"), flags=re.MULTILINE,
            ))
            assert not imported & siblings, (path.name, imported & siblings)

    def test_a_modeled_second_has_one_pipeline(self):
        # kernel list -> KernelTrace -> TraceCostModel.price -> ScopeRollup.
        # Outside repro/gpu (which defines them), the roofline model and the
        # stream scheduler are built in exactly one module ...
        repo = Path(__file__).parent.parent
        src = repo / "src"
        builders = {
            str(path.relative_to(src))
            for path in src.rglob("*.py")
            if "repro/gpu/" not in path.as_posix()
            and re.search(r"\b(KernelCostModel|StreamScheduler)\(",
                          path.read_text(encoding="utf-8"))
        }
        assert builders == {"repro/perf/trace_model.py"}
        # ... and the retired second path leaves no name behind (this file,
        # which has to spell the names, is the one exception).
        retired = re.compile(
            r"GPUDevice|ExecutionResult|CostLedger|batched_cost|ScopeCost"
            r"|\.total_time\b"
        )
        assert_retired_everywhere(retired)

    def test_a_serve_count_has_one_store(self):
        # One resolution path: Request.resolve has a single call site in
        # the serving plane (Server._resolve), so a response, its outcome
        # counter and its spans are written together ...
        repo = Path(__file__).parent.parent
        serve = {
            path.name: path.read_text(encoding="utf-8")
            for path in sorted((repo / "src" / "repro" / "serve").glob("*.py"))
        }
        call_sites = [name for name, text in serve.items()
                      for _ in re.findall(r"\.resolve\(", text)]
        assert call_sites == ["executor.py"]
        # ... the registry's instruments are the store, so nothing under
        # repro/serve restates a total or registers a read-time collector ...
        for name, text in serve.items():
            assert not re.findall(r"set_total\(|register_collector\(", text), name
        # ... and the retired restating chain leaves no name behind.
        assert_retired_everywhere(re.compile(
            r"bind_registry|watch_metrics|ReplayReport\.publish"
            r"|replay_(?:requests|events|errors)_total"
            r"|replay_availability|replay_latency_seconds"
        ))

    def test_an_operation_is_written_where_it_does_work(self, session):
        # CipherVector -> Evaluator -> RNSPoly -> stack kernel.  The
        # evaluator is the functional backend ...
        import ast
        import importlib.util

        import repro.core.dispatch
        from repro.api.backend import CostModelBackend, EvaluationBackend
        from repro.ckks.evaluator import Evaluator
        from repro.core.rns_poly import RNSPoly

        assert isinstance(session.evaluator, EvaluationBackend)
        assert session.backend is session.evaluator
        operations = set(BACKEND_OPERATIONS)
        assert operations <= set(vars(Evaluator))
        # ... under repro/api only the symbolic backend writes the surface
        # again (the handle and the session spell the few verbs users
        # call) ...
        spelled = {}
        src = Path(__file__).parent.parent / "src"
        for path in sorted((src / "repro" / "api").glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not isinstance(node, ast.ClassDef):
                    continue
                names = {
                    target.id
                    for stmt in node.body if isinstance(stmt, ast.Assign)
                    for target in stmt.targets if isinstance(target, ast.Name)
                } | {
                    stmt.name for stmt in node.body
                    if isinstance(stmt, ast.FunctionDef)
                }
                if names & operations:
                    spelled[node.name] = names & operations
        assert spelled == {
            "EvaluationBackend": operations,
            "CostModelBackend": operations,
            "CipherVector": {"square", "rotate", "rescale", "mod_reduce", "at_level",
                             "weighted_sum", "product_sum"},
            "CKKSSession": {"encrypt", "encrypt_batch"},
        }
        assert not {"_match", "_match_for_product"} & set(vars(CostModelBackend))
        # ... the matching rule and the shared operand errors are written
        # once (repro/ckks/ciphertext.py) ...
        sources = [p.read_text(encoding="utf-8") for p in src.rglob("*.py")]
        for phrase in (
            "scale mismatch at equal level", "cannot adjust to a higher level",
            "cannot change scale in place", "no limb left to drop",
            "needs at least one ciphertext/plaintext pair",
            "needs equally many ciphertexts and plaintexts",
        ):
            assert sum(text.count(phrase) for text in sources) == 1, phrase
        # ... a polynomial is one object (no storage class beside it), there
        # is one replayer, and the two forwarding layers leave no name behind.
        assert importlib.util.find_spec("repro.core.limb_stack") is None
        assert not set(vars(RNSPoly)) & {
            "from_stack", "multiply_scalars", "add_scalars_broadcast",
        }
        assert not hasattr(repro.core.dispatch, "TraceProgram")
        assert_retired_everywhere(re.compile(
            r"FunctionalBackend|FusedProgram|executable_recording"
        ))
