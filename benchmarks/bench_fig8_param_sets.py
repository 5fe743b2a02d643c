"""Figure 8: HMult across parameter sets [logN, L, Δ, dnum] on four GPUs."""

import pytest

from repro.bench.reporting import BenchmarkTable
from repro.ckks.params import PARAMETER_SETS
from repro.gpu.platforms import GPU_RTX_4060TI, GPU_RTX_4090, GPU_V100
from repro.perf.fideslib_model import FIDESlibModel

FIG8_SETS = (
    "fig8-13-5-36-2",
    "fig8-14-9-41-3",
    "fig8-15-15-50-3",
    "fig8-16-29-59-4",
    "fig8-17-44-59-4",
)


@pytest.mark.parametrize("set_name", FIG8_SETS)
def test_fig8_hmult_rtx4090(benchmark, set_name):
    """Benchmark the modelled HMult for each Figure 8 parameter set."""
    params = PARAMETER_SETS[set_name]
    model = FIDESlibModel(GPU_RTX_4090, params, limb_batch=4)
    cost = model.operation_cost("HMult")
    elapsed = benchmark(model.execute, cost).makespan
    benchmark.extra_info.update(
        {"parameter_set": params.describe(),
         "ksk_megabytes": round(params.key_switching_key_bytes() / 1e6, 1),
         "time_us": round(elapsed * 1e6, 2)}
    )
    assert elapsed > 0


def test_fig8_summary(all_gpus):
    """Print the Figure 8 comparison and check its qualitative claims."""
    table = BenchmarkTable("Figure 8: HMult (max level) per parameter set (µs)")
    results = {}
    for set_name in FIG8_SETS:
        params = PARAMETER_SETS[set_name]
        row = {"Parameter set": params.describe()}
        for platform in all_gpus:
            elapsed = FIDESlibModel(platform, params, limb_batch=4).time_operation("HMult")
            row[platform.name] = round(elapsed * 1e6, 1)
            results[(set_name, platform.name)] = elapsed
        table.add_row(**row)
    print()
    print(table.to_text())
    # Small parameter sets are latency-bound and favour high-clock GPUs.
    assert results[("fig8-13-5-36-2", GPU_RTX_4060TI.name)] < \
        results[("fig8-13-5-36-2", GPU_V100.name)]
    # Large parameter sets favour the bandwidth/cache-rich RTX 4090.
    assert results[("fig8-17-44-59-4", GPU_RTX_4090.name)] == min(
        results[(FIG8_SETS[-1], p.name)] for p in all_gpus
    )
