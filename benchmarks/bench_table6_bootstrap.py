"""Table VI: bootstrapping time and amortised time versus slot count."""

import pytest

from repro.bench.reporting import BenchmarkTable, format_seconds, speedup
from repro.perf.workloads import BootstrapWorkload

SLOT_COUNTS = (64, 512, 16384, 32768)


@pytest.mark.parametrize("slots", SLOT_COUNTS)
def test_table6_bootstrap(benchmark, slots, paper_params, fideslib_4090,
                          openfhe_baseline, openfhe_hexl):
    """Model one Table VI row (bootstrap at a given slot count)."""
    workload = BootstrapWorkload(paper_params, slots)
    cost = workload.build(fideslib_4090.costs)
    result = benchmark(fideslib_4090.execute, cost)
    gpu_time = result.makespan
    base_time = openfhe_baseline.time_cost(workload.build(openfhe_baseline.costs))
    hexl_time = openfhe_hexl.time_cost(workload.build(openfhe_hexl.costs))
    benchmark.extra_info.update(
        {
            "slots": slots,
            "levels_remaining": workload.remaining_levels,
            "openfhe": format_seconds(base_time),
            "hexl_24_threads": format_seconds(hexl_time),
            "fideslib_rtx4090": format_seconds(gpu_time),
            "amortized_us": round(workload.amortized_time_us(gpu_time), 3),
            "speedup_vs_hexl": round(speedup(hexl_time, gpu_time), 1),
        }
    )
    # Paper: bootstrapping is no less than 70x faster than HEXL OpenFHE.
    assert speedup(hexl_time, gpu_time) > 70


def test_table6_summary(paper_params, fideslib_4090, openfhe_baseline, openfhe_hexl):
    """Print the full reproduced Table VI."""
    table = BenchmarkTable("Table VI: bootstrapping performance vs slot count")
    for slots in SLOT_COUNTS:
        workload = BootstrapWorkload(paper_params, slots)
        gpu = fideslib_4090.execute(workload.build(fideslib_4090.costs)).makespan
        base = openfhe_baseline.time_cost(workload.build(openfhe_baseline.costs))
        hexl = openfhe_hexl.time_cost(workload.build(openfhe_hexl.costs))
        table.add_row(
            Slots=slots,
            Levels=workload.remaining_levels,
            OpenFHE=format_seconds(base),
            HEXL24=format_seconds(hexl),
            FIDESlib=format_seconds(gpu),
            Amortized_us=round(workload.amortized_time_us(gpu), 3),
            Speedup=f"{speedup(hexl, gpu):.0f}x",
        )
    print()
    print(table.to_text())
    amortized = table.column_values("Amortized_us")
    assert all(a > b for a, b in zip(amortized, amortized[1:]))
