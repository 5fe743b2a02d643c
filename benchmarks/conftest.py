"""Shared fixtures for the table/figure benchmark harness.

Each ``bench_*.py`` file regenerates one table or figure of the paper's
evaluation section using the performance models at paper-scale
parameters; every figure is modeled, none is a wall clock.
Run with ``pytest benchmarks/bench_table*.py benchmarks/bench_fig*.py``
(the file names do not match ``test_*.py``, so a bare ``pytest benchmarks/``
collects only ``e2e/test_smoke.py``; add ``--benchmark-disable`` to skip
the timing loops).  The reproduced tables are attached to each
benchmark's ``extra_info`` and printed when ``-s`` is given.
"""

from __future__ import annotations

import pytest

from repro.ckks.params import PARAMETER_SETS
from repro.gpu.platforms import ALL_GPUS, GPU_RTX_4090
from repro.perf.fideslib_model import FIDESlibModel
from repro.perf.openfhe_model import OpenFHEModel
from repro.perf.phantom_model import PhantomModel


@pytest.fixture(scope="session")
def paper_params():
    """The evaluation's default parameter set [2^16, 29, 59, 4]."""
    return PARAMETER_SETS["paper-default"]


@pytest.fixture(scope="session")
def lr_params():
    """The logistic-regression parameter set [2^16, 26, 59, 4]."""
    return PARAMETER_SETS["paper-lr"]


@pytest.fixture(scope="session")
def fideslib_4090(paper_params):
    """FIDESlib execution model on the RTX 4090."""
    return FIDESlibModel(GPU_RTX_4090, paper_params, limb_batch=4)


@pytest.fixture(scope="session")
def phantom_4090(paper_params):
    """Phantom execution model on the RTX 4090."""
    return PhantomModel(GPU_RTX_4090, paper_params)


@pytest.fixture(scope="session")
def openfhe_baseline(paper_params):
    """Single-threaded OpenFHE model."""
    return OpenFHEModel(paper_params, variant="baseline")


@pytest.fixture(scope="session")
def openfhe_hexl(paper_params):
    """HEXL/AVX-512 24-thread OpenFHE model."""
    return OpenFHEModel(paper_params, variant="hexl")


@pytest.fixture(scope="session")
def all_gpus():
    """The four GPU platforms of Table IV."""
    return ALL_GPUS
