"""Smoke test of the end-to-end benchmark (collected by the tier-1 suite).

Runs every workload in both modes at ``--smoke`` size (tiny rings, a couple
of iterations) and checks that what the harness emits is exactly what
``BENCHMARK.json`` declares: no metric missing, none undeclared, every one
with a unit, and every verified output correct.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run as e2e  # noqa: E402

DECLARED = e2e.declaration()


def test_declared_workloads_match_the_harness():
    assert [w["name"] for w in DECLARED["workloads"]] == list(e2e.WORKLOAD_NAMES)


@pytest.mark.parametrize("trace", (0, 1), ids=("end_to_end", "per_layer"))
@pytest.mark.parametrize("workload", e2e.WORKLOAD_NAMES)
def test_emitted_metrics_equal_declared(workload, trace):
    result = e2e.run_workload(workload, seconds=0.0, trace=bool(trace), smoke=True,
                              setup_samples=1)
    section = DECLARED["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in section}
    assert all(entry["unit"] for entry in result["metrics"].values())
    assert result["correct"], result
    assert result["failed"] == 0 and result["attempted"] >= 1
