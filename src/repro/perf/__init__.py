"""Performance models: execution plans for FIDESlib, Phantom and OpenFHE.

The paper's evaluation (Tables V-VII, Figures 4-8) compares four
implementations of the same CKKS operations:

* **FIDESlib** on a GPU -- kernel fusion, limb batching, multi-stream
  execution, radix-2 hierarchical NTT (modelled by
  :class:`repro.perf.fideslib_model.FIDESlibModel`);
* **Phantom** on a GPU -- no fusion, single stream, monolithic kernels
  (:class:`repro.perf.phantom_model.PhantomModel`);
* **OpenFHE** single-threaded and **OpenFHE + HEXL** with 24 threads on a
  CPU (:class:`repro.perf.openfhe_model.OpenFHEModel`).

Each model maps a CKKS operation (at a given parameter set and level) to
either a kernel sequence priced by
:class:`repro.perf.trace_model.TraceCostModel` on the :mod:`repro.gpu`
model or an operation-count/bandwidth estimate for the CPU.  The workload
composition used by the table/figure benches lives in
:mod:`repro.perf.workloads`.
"""

from repro.perf.calibration import TraceReconciliation, reconcile_trace
from repro.perf.costmodel import CKKSOperationCosts, OperationCost
from repro.perf.trace_model import TraceCostModel, TraceReport
from repro.perf.fideslib_model import FIDESlibModel
from repro.perf.phantom_model import PhantomModel
from repro.perf.openfhe_model import OpenFHEModel
from repro.perf.workloads import BootstrapWorkload, LogisticRegressionWorkload

__all__ = [
    "CKKSOperationCosts",
    "OperationCost",
    "TraceCostModel",
    "TraceReport",
    "TraceReconciliation",
    "reconcile_trace",
    "FIDESlibModel",
    "PhantomModel",
    "OpenFHEModel",
    "BootstrapWorkload",
    "LogisticRegressionWorkload",
]
