"""Figure 7: impact of the limb-batch parameter on HMult across GPUs."""

import pytest

from repro.bench.reporting import BenchmarkTable
from repro.perf.fideslib_model import FIDESlibModel

BATCH_SIZES = (2, 4, 6, 8, 10, 12)


@pytest.mark.parametrize("batch", BATCH_SIZES)
def test_fig7_limb_batch_rtx4090(benchmark, paper_params, batch):
    """Benchmark the modelled HMult at each limb batch on the RTX 4090."""
    from repro.gpu.platforms import GPU_RTX_4090

    model = FIDESlibModel(GPU_RTX_4090, paper_params, limb_batch=batch)
    cost = model.operation_cost("HMult")
    elapsed = benchmark(model.execute, cost).makespan
    benchmark.extra_info.update({"limb_batch": batch, "time_us": round(elapsed * 1e6, 2)})
    assert elapsed > 0


def test_fig7_summary(paper_params, all_gpus):
    """Print the Figure 7 sweep for every platform."""
    table = BenchmarkTable("Figure 7: HMult (max level) vs limb batch (µs)")
    for platform in all_gpus:
        base = FIDESlibModel(platform, paper_params)
        row = {"Platform": platform.name}
        times = {}
        for batch in BATCH_SIZES:
            elapsed = base.with_limb_batch(batch).time_operation("HMult")
            times[batch] = elapsed
            row[f"batch {batch}"] = round(elapsed * 1e6, 1)
        table.add_row(**row)
        # Small-L2 GPUs suffer at large batches (working set spills L2).
        if platform.shared_cache_mb <= 32:
            assert times[12] >= times[2]
    print()
    print(table.to_text())
