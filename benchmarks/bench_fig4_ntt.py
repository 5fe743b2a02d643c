"""Figure 4: (i)NTT time per limb versus limb count, FIDESlib vs Phantom."""

import pytest

from repro.bench.reporting import BenchmarkTable
from repro.gpu.platforms import GPU_RTX_4060TI, GPU_RTX_4090
from repro.perf.fideslib_model import FIDESlibModel
from repro.perf.phantom_model import PhantomModel

LIMB_COUNTS = (16, 32, 64, 128)
PLATFORMS = (GPU_RTX_4090, GPU_RTX_4060TI)


@pytest.mark.parametrize("platform", PLATFORMS, ids=lambda p: p.name)
@pytest.mark.parametrize("limbs", LIMB_COUNTS)
@pytest.mark.parametrize("inverse", [False, True], ids=["ntt", "intt"])
def test_fig4_ntt_per_limb(benchmark, paper_params, platform, limbs, inverse):
    """Model one Figure 4 data point."""
    fides = FIDESlibModel(platform, paper_params, limb_batch=2)
    phantom = PhantomModel(platform, paper_params)
    operation = "iNTT" if inverse else "NTT"
    cost = fides.operation_cost(operation, limbs=limbs)
    fides_time = benchmark(fides.execute, cost).makespan
    phantom_time = phantom.time_operation(operation, limbs=limbs)
    benchmark.extra_info.update(
        {
            "platform": platform.name,
            "limbs": limbs,
            "fideslib_us_per_limb": round(fides_time / limbs * 1e6, 3),
            "phantom_us_per_limb": round(phantom_time / limbs * 1e6, 3),
        }
    )
    assert fides_time < phantom_time  # FIDESlib wins at every working-set size


def test_fig4_summary(paper_params):
    """Print the full Figure 4 series."""
    table = BenchmarkTable("Figure 4: time per (i)NTT vs number of limbs (µs/limb)")
    for platform in PLATFORMS:
        fides = FIDESlibModel(platform, paper_params, limb_batch=2)
        phantom = PhantomModel(platform, paper_params)
        for limbs in LIMB_COUNTS:
            table.add_row(
                Platform=platform.name,
                Limbs=limbs,
                FIDESlib_NTT=round(fides.time_operation("NTT", limbs=limbs) / limbs * 1e6, 3),
                Phantom_NTT=round(phantom.time_operation("NTT", limbs=limbs) / limbs * 1e6, 3),
                FIDESlib_iNTT=round(fides.time_operation("iNTT", limbs=limbs) / limbs * 1e6, 3),
                Phantom_iNTT=round(phantom.time_operation("iNTT", limbs=limbs) / limbs * 1e6, 3),
            )
    print()
    print(table.to_text())
    assert len(table.rows) == len(PLATFORMS) * len(LIMB_COUNTS)
