"""Figure 5: PtMult + Rescale time versus processed limbs on four GPUs."""

import pytest

from repro.bench.reporting import BenchmarkTable
from repro.perf.fideslib_model import FIDESlibModel

LIMB_COUNTS = (5, 10, 15, 20, 25, 30)


@pytest.mark.parametrize("limbs", LIMB_COUNTS)
def test_fig5_ptmult_rescale_rtx4090(benchmark, fideslib_4090, limbs):
    """Benchmark the modelled PtMult+Rescale sequence on the RTX 4090."""
    cost = fideslib_4090.operation_cost("PtMultRescale", limbs=limbs)
    elapsed = benchmark(fideslib_4090.execute, cost).makespan
    benchmark.extra_info.update({"limbs": limbs, "time_us": round(elapsed * 1e6, 2)})
    assert elapsed > 0


def test_fig5_summary(paper_params, all_gpus):
    """Print the Figure 5 series for every platform."""
    table = BenchmarkTable("Figure 5: PtMult + Rescale vs processed limbs (µs)")
    for platform in all_gpus:
        model = FIDESlibModel(platform, paper_params, limb_batch=4)
        row = {"Platform": platform.name}
        times = []
        for limbs in LIMB_COUNTS:
            elapsed = model.time_operation("PtMultRescale", limbs=limbs)
            times.append(elapsed)
            row[f"{limbs} limbs"] = round(elapsed * 1e6, 1)
        table.add_row(**row)
        # Time grows (roughly linearly) with the number of limbs.
        assert all(a < b for a, b in zip(times, times[1:]))
    print()
    print(table.to_text())
