"""Table V: per-primitive latency of OpenFHE / HEXL / Phantom / FIDESlib.

Parameters [2^16, 29, 59, 4], maximum-level ciphertexts, RTX 4090 GPU and
Ryzen 9 7900 CPU -- the configuration of the paper's Table V.
"""

import pytest

from repro.bench.reporting import BenchmarkTable, format_seconds, speedup

OPERATIONS = (
    "ScalarAdd", "PtAdd", "HAdd", "ScalarMult", "PtMult", "Rescale", "HRotate", "HMult",
)


@pytest.mark.parametrize("operation", OPERATIONS)
def test_table5_operation(benchmark, operation, fideslib_4090, phantom_4090,
                          openfhe_baseline, openfhe_hexl):
    """Model one Table V row and benchmark the FIDESlib evaluation path."""
    cost = fideslib_4090.operation_cost(operation)
    result = benchmark(fideslib_4090.execute, cost)
    fides_time = result.makespan
    base_time = openfhe_baseline.time_operation(operation)
    hexl_time = openfhe_hexl.time_operation(operation)
    phantom_time = (
        phantom_4090.time_operation(operation) if phantom_4090.supports(operation) else None
    )
    benchmark.extra_info.update(
        {
            "operation": operation,
            "openfhe_baseline": format_seconds(base_time),
            "openfhe_hexl": format_seconds(hexl_time),
            "phantom_rtx4090": format_seconds(phantom_time) if phantom_time else "N/A",
            "fideslib_rtx4090": format_seconds(fides_time),
            "speedup_vs_baseline": round(speedup(base_time, fides_time), 1),
        }
    )
    # Shape assertions from the paper: FIDESlib is the fastest backend.
    assert fides_time <= hexl_time and fides_time <= base_time
    if phantom_time is not None:
        assert fides_time <= phantom_time


def test_table5_summary(fideslib_4090, phantom_4090, openfhe_baseline, openfhe_hexl):
    """Print the full reproduced Table V."""
    table = BenchmarkTable(
        "Table V: CKKS primitive latency, [2^16, 29, 59, 4], level 29",
        note="Modelled times; calibration constants in repro.perf.calibration",
    )
    for operation in OPERATIONS:
        base = openfhe_baseline.time_operation(operation)
        hexl = openfhe_hexl.time_operation(operation)
        fides = fideslib_4090.time_operation(operation)
        phantom = (
            format_seconds(phantom_4090.time_operation(operation))
            if phantom_4090.supports(operation)
            else "N/A"
        )
        table.add_row(
            Operation=operation,
            OpenFHE=format_seconds(base),
            HEXL24=format_seconds(hexl),
            Phantom=phantom,
            FIDESlib=format_seconds(fides),
            Speedup=f"{speedup(base, fides):.0f}x",
        )
    print()
    print(table.to_text())
    assert len(table.rows) == len(OPERATIONS)
