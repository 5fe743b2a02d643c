"""Figure 6: HMult time versus processed limbs on four GPUs (best limb batch)."""

import pytest

from repro.bench.reporting import BenchmarkTable
from repro.perf.fideslib_model import FIDESlibModel, best_limb_batch_for

LIMB_COUNTS = (5, 10, 15, 20, 25, 30)


@pytest.mark.parametrize("limbs", LIMB_COUNTS)
def test_fig6_hmult_rtx4090(benchmark, fideslib_4090, limbs):
    """Benchmark the modelled HMult at each ciphertext level on the RTX 4090."""
    cost = fideslib_4090.operation_cost("HMult", limbs=limbs)
    elapsed = benchmark(fideslib_4090.execute, cost).makespan
    benchmark.extra_info.update({"limbs": limbs, "time_us": round(elapsed * 1e6, 2)})
    assert elapsed > 0


def test_fig6_summary(paper_params, all_gpus):
    """Print the Figure 6 series (best limb batch per platform)."""
    table = BenchmarkTable("Figure 6: HMult vs processed limbs (µs, best limb batch)")
    platform_totals = {}
    for platform in all_gpus:
        batch = best_limb_batch_for(platform, paper_params)
        model = FIDESlibModel(platform, paper_params, limb_batch=batch)
        row = {"Platform": platform.name, "Best batch": batch}
        times = []
        for limbs in LIMB_COUNTS:
            elapsed = model.time_operation("HMult", limbs=limbs)
            times.append(elapsed)
            row[f"{limbs} limbs"] = round(elapsed * 1e6, 1)
        table.add_row(**row)
        platform_totals[platform.name] = times[-1]
        assert all(a < b for a, b in zip(times, times[1:]))
    print()
    print(table.to_text())
    # The RTX 4090 (highest bandwidth) is fastest at the full limb count.
    assert platform_totals["RTX 4090"] == min(platform_totals.values())
