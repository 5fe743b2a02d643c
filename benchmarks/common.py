"""Shared by the three plane scripts: the parameter set and the artefact writer."""

from __future__ import annotations

import platform
import subprocess

import numpy as np

from repro.bench.reporting import BenchmarkTable
from repro.ckks.params import CKKSParameters

#: One schema for BENCH_{serve,faults,fusion}.json (v9: no wall-clock columns).
BENCH_SCHEMA_VERSION = 9


def quick_params(ring_log2: int = 12, depth: int = 6) -> CKKSParameters:
    """The reduced 28-bit parameter set the plane scripts run at."""
    return CKKSParameters(
        ring_degree=1 << ring_log2, mult_depth=depth, scale_bits=28, dnum=3,
        first_mod_bits=30, label=f"quick-{ring_log2}-{depth}",
    )


def write_artefact(table: BenchmarkTable, params: CKKSParameters, output: str) -> None:
    """Write ``table`` as a JSON artefact stamped with commit and environment."""
    try:
        sha = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40"],
                             capture_output=True, text=True).stdout.strip()
    except OSError:  # no git binary on PATH
        sha = ""
    document = table.to_json(
        schema_version=BENCH_SCHEMA_VERSION, git_sha=sha or "unknown",
        parameter_set={"label": params.label, "logN_L_scale_dnum": params.describe()},
        python=platform.python_version(), machine=platform.machine(), numpy=np.__version__,
    )
    with open(output, "w", encoding="utf-8") as handle:
        handle.write(document + "\n")
    print(f"{table.to_text()}\n\nwrote {output}")
