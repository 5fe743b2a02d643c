"""Table VII: logistic-regression iteration and iteration+bootstrap times."""

import numpy as np
import pytest

from repro.api import CostModelBackend
from repro.apps.logistic_regression import EncryptedLogisticRegression
from repro.bench.reporting import BenchmarkTable, format_seconds, speedup
from repro.core.dispatch import DISPATCH
from repro.gpu.platforms import GPU_RTX_4090
from repro.perf.fideslib_model import FIDESlibModel
from repro.perf.openfhe_model import OpenFHEModel
from repro.perf.workloads import LogisticRegressionWorkload


@pytest.fixture(scope="module")
def lr_models(lr_params):
    return {
        "workload": LogisticRegressionWorkload(lr_params),
        "fideslib": FIDESlibModel(GPU_RTX_4090, lr_params, limb_batch=4),
        "baseline": OpenFHEModel(lr_params, variant="baseline"),
        "hexl": OpenFHEModel(lr_params, variant="hexl"),
    }


@pytest.mark.parametrize("with_bootstrap", [False, True], ids=["iteration", "iteration+bootstrap"])
def test_table7_lr(benchmark, lr_models, with_bootstrap):
    """Model one Table VII row and benchmark the FIDESlib evaluation path."""
    workload = lr_models["workload"]
    fides = lr_models["fideslib"]
    build = (
        workload.build_iteration_with_bootstrap if with_bootstrap else workload.build_iteration
    )
    cost = build(fides.costs)
    gpu_time = benchmark(fides.execute, cost).makespan
    base_time = lr_models["baseline"].time_cost(build(lr_models["baseline"].costs))
    hexl_time = lr_models["hexl"].time_cost(build(lr_models["hexl"].costs))
    benchmark.extra_info.update(
        {
            "configuration": "Iteration + Bootstrap" if with_bootstrap else "Iteration",
            "openfhe": format_seconds(base_time),
            "hexl_24_threads": format_seconds(hexl_time),
            "fideslib_rtx4090": format_seconds(gpu_time),
            "speedup_vs_openfhe": round(speedup(base_time, gpu_time), 1),
        }
    )
    assert gpu_time < hexl_time < base_time


def test_table7_program_on_cost_backend(benchmark, lr_params, lr_models):
    """Cost the *actual* LR training program through the backend seam.

    The same :class:`EncryptedLogisticRegression` step that the functional
    tests verify at toy parameters is replayed symbolically on a
    :class:`CostModelBackend` at the paper's LR parameter set, and the
    kernel trace it emits is priced on the FIDESlib GPU model -- the
    written-once / costed-on-GPU loop of the reproduction.
    """
    batch_size, features = 8, 4
    rng = np.random.default_rng(0)

    def run_program():
        backend = CostModelBackend.for_model(lr_models["fideslib"])
        model = EncryptedLogisticRegression(backend=backend, feature_count=features)
        with DISPATCH.record() as trace:
            columns, labels = model.encrypt_batch(
                rng.uniform(-1, 1, (batch_size, features)),
                rng.integers(0, 2, batch_size).astype(float),
            )
            model.train_batch(columns, labels, batch_size)
        return trace

    trace = benchmark(run_program)
    gpu_time = lr_models["fideslib"].pricer.price(trace).makespan
    scopes = trace.leaf_segments()
    benchmark.extra_info.update(
        {
            "kernels": trace.kernel_count,
            "fideslib_rtx4090": format_seconds(gpu_time),
        }
    )
    assert "hmult" in scopes    # X·w products + sigmoid cube
    assert "hrotate" in scopes  # gradient rotation sums
    assert gpu_time > 0


def test_table7_summary(lr_models):
    """Print the full reproduced Table VII."""
    table = BenchmarkTable("Table VII: logistic-regression training performance")
    workload = lr_models["workload"]
    for label, build in (
        ("Iteration", workload.build_iteration),
        ("Iteration + Bootstrap", workload.build_iteration_with_bootstrap),
    ):
        fides = lr_models["fideslib"]
        gpu = fides.execute(build(fides.costs)).makespan
        base = lr_models["baseline"].time_cost(build(lr_models["baseline"].costs))
        hexl = lr_models["hexl"].time_cost(build(lr_models["hexl"].costs))
        table.add_row(
            Configuration=label,
            OpenFHE=format_seconds(base),
            HEXL24=format_seconds(hexl),
            FIDESlib=format_seconds(gpu),
            Speedup=f"{speedup(base, gpu):.0f}x",
        )
    print()
    print(table.to_text())
    assert len(table.rows) == 2
