"""Reproduce the paper's headline performance tables from the execution model.

Prints Table V (primitive latency), Table VI (bootstrapping) and Table VII
(logistic regression) using the FIDESlib/Phantom/OpenFHE execution models
at the paper's parameters on the Table IV platforms.

Run with:  python examples/performance_reproduction.py
"""

from __future__ import annotations

from repro.bench.reporting import BenchmarkTable, format_seconds, speedup
from repro.ckks.params import PARAMETER_SETS
from repro.gpu.platforms import ALL_GPUS, GPU_RTX_4090, platform_table
from repro.perf.fideslib_model import FIDESlibModel
from repro.perf.openfhe_model import OpenFHEModel
from repro.perf.phantom_model import PhantomModel
from repro.perf.workloads import BootstrapWorkload, LogisticRegressionWorkload


def table_iv() -> None:
    table = BenchmarkTable("Table IV: compute platforms")
    for row in platform_table():
        table.add_row(**row)
    print(table.to_text(), "\n")


def table_v() -> None:
    params = PARAMETER_SETS["paper-default"]
    fides = FIDESlibModel(GPU_RTX_4090, params, limb_batch=4)
    phantom = PhantomModel(GPU_RTX_4090, params)
    baseline = OpenFHEModel(params, variant="baseline")
    hexl = OpenFHEModel(params, variant="hexl")
    table = BenchmarkTable("Table V: CKKS primitives, [2^16, 29, 59, 4], level 29")
    for op in ("ScalarAdd", "PtAdd", "HAdd", "ScalarMult", "PtMult", "Rescale",
               "HRotate", "HMult"):
        base_time = baseline.time_operation(op)
        fides_time = fides.time_operation(op)
        table.add_row(
            Operation=op,
            OpenFHE=format_seconds(base_time),
            HEXL24=format_seconds(hexl.time_operation(op)),
            Phantom=format_seconds(phantom.time_operation(op)) if phantom.supports(op) else "N/A",
            FIDESlib=format_seconds(fides_time),
            Speedup=f"{speedup(base_time, fides_time):.0f}x",
        )
    print(table.to_text(), "\n")


def table_vi() -> None:
    params = PARAMETER_SETS["paper-default"]
    fides = FIDESlibModel(GPU_RTX_4090, params, limb_batch=4)
    hexl = OpenFHEModel(params, variant="hexl")
    table = BenchmarkTable("Table VI: bootstrapping vs slot count (RTX 4090)")
    for slots in (64, 512, 16384, 32768):
        workload = BootstrapWorkload(params, slots)
        gpu = fides.execute(workload.build(fides.costs)).makespan
        cpu = hexl.time_cost(workload.build(hexl.costs))
        table.add_row(
            Slots=slots,
            Levels=workload.remaining_levels,
            HEXL24=format_seconds(cpu),
            FIDESlib=format_seconds(gpu),
            Amortized=f"{workload.amortized_time_us(gpu):.2f} µs",
            Speedup=f"{speedup(cpu, gpu):.0f}x",
        )
    print(table.to_text(), "\n")


def table_vii() -> None:
    params = PARAMETER_SETS["paper-lr"]
    workload = LogisticRegressionWorkload(params)
    fides = FIDESlibModel(GPU_RTX_4090, params, limb_batch=4)
    baseline = OpenFHEModel(params, variant="baseline")
    hexl = OpenFHEModel(params, variant="hexl")
    table = BenchmarkTable("Table VII: logistic-regression training")
    for label, build in (("Iteration", workload.build_iteration),
                         ("Iteration + Bootstrap", workload.build_iteration_with_bootstrap)):
        gpu = fides.execute(build(fides.costs)).makespan
        base = baseline.time_cost(build(baseline.costs))
        table.add_row(
            Configuration=label,
            OpenFHE=format_seconds(base),
            HEXL24=format_seconds(hexl.time_cost(build(hexl.costs))),
            FIDESlib=format_seconds(gpu),
            Speedup=f"{speedup(base, gpu):.0f}x",
        )
    print(table.to_text(), "\n")


def figure_6_preview() -> None:
    params = PARAMETER_SETS["paper-default"]
    table = BenchmarkTable("Figure 6 preview: HMult vs limbs (µs)")
    for platform in ALL_GPUS:
        model = FIDESlibModel(platform, params, limb_batch=4)
        table.add_row(
            Platform=platform.name,
            **{f"{l} limbs": round(model.time_operation("HMult", limbs=l) * 1e6, 1)
               for l in (5, 10, 15, 20, 25, 30)},
        )
    print(table.to_text())


if __name__ == "__main__":
    table_iv()
    table_v()
    table_vi()
    table_vii()
    figure_6_preview()
