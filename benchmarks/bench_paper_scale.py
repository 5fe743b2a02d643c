"""Paper-scale gate: the 59-bit dword fast path vs the exact object oracle.

Paper-class parameter sets use ~59-bit scaling primes, which overflow the
single-word uint64 fast path; before the double-word backend they fell
back to Python-object arithmetic.  This benchmark times HMult+rescale and
the stacked NTT at a reduced 59-bit parameter set on both backends --
first asserting the dword ciphertext is **bit-identical** to the object
oracle's -- and emits ``BENCH_paper_scale.json``.  CI gates the
HMult+rescale speedup with ``--min-dword-speedup`` so the wide-modulus
fast path can never silently regress back toward object-backend speeds:

    PYTHONPATH=src python benchmarks/bench_paper_scale.py \
        --output BENCH_paper_scale.json --min-dword-speedup 5
"""

from __future__ import annotations

import argparse
import platform
import warnings
from contextlib import contextmanager

import numpy as np

from repro.api import CKKSSession
from repro.bench.reporting import BenchmarkTable
from repro.core import modmath
from repro.core.ntt import get_stacked_engine

from run_quick import _time, git_sha, paper_scale_params

#: Version of the BENCH_paper_scale.json schema.
#: v1: dword-vs-object rows (HMult+rescale, stacked NTT) at a reduced
#: 59-bit parameter set, plus the gated HMult+rescale speedup row.
PAPER_SCALE_SCHEMA_VERSION = 1


@contextmanager
def object_oracle():
    """Force the exact object backend onto moduli the dword path owns.

    Lowers ``DWORD_MODULUS_LIMIT`` to the single-word boundary and clears
    the two caches that embed the backend decision, so freshly built
    contexts classify 59-bit moduli as object -- the pre-dword behaviour
    this benchmark measures the speedup against.
    """
    old_limit = modmath.DWORD_MODULUS_LIMIT
    modmath.DWORD_MODULUS_LIMIT = modmath.FAST_MODULUS_LIMIT
    modmath._moduli_column_cached.cache_clear()
    get_stacked_engine.cache_clear()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            yield
    finally:
        modmath.DWORD_MODULUS_LIMIT = old_limit
        modmath._moduli_column_cached.cache_clear()
        get_stacked_engine.cache_clear()


def _workload(params):
    """A deterministic session + ciphertext pair under the active backend."""
    session = CKKSSession.create(params, seed=3, register_default=False)
    rng = np.random.default_rng(0)
    ct_a = session.encrypt(rng.uniform(-1, 1, 16))
    ct_b = session.encrypt(rng.uniform(-1, 1, 16))
    return session, ct_a, ct_b


def _residue_rows(ciphertext) -> list:
    """Backend-independent integer residues of both components."""
    return [
        [[int(x) for x in row] for row in component.stack.data]
        for component in (ciphertext.handle.c0, ciphertext.handle.c1)
    ]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default="BENCH_paper_scale.json",
                        help="path of the JSON artifact to write")
    parser.add_argument("--ring-log2", type=int, default=11)
    parser.add_argument("--depth", type=int, default=3)
    parser.add_argument(
        "--min-dword-speedup", type=float, default=None,
        help="fail unless the dword HMult+rescale speedup over the object "
             "oracle reaches this factor (CI regression gate)",
    )
    args = parser.parse_args()

    params = paper_scale_params(args.ring_log2, args.depth)

    # -- dword backend (the path under test) ------------------------------
    session, ct_a, ct_b = _workload(params)
    assert session.numeric_backend == "dword", session.numeric_backend
    dword_product = _residue_rows(ct_a * ct_b)
    engine = get_stacked_engine(params.ring_degree, tuple(session.context.moduli))
    stack = ct_a.handle.c0.stack.data
    dword_times = {
        "HMult+rescale": _time(lambda: ct_a * ct_b),
        "stacked NTT (all limbs)": _time(lambda: engine.forward(stack)),
    }

    # -- object oracle (the pre-dword fallback) ---------------------------
    with object_oracle():
        osession, oct_a, oct_b = _workload(params)
        assert osession.numeric_backend == "object", osession.numeric_backend
        object_product = _residue_rows(oct_a * oct_b)
        oengine = get_stacked_engine(
            params.ring_degree, tuple(osession.context.moduli)
        )
        ostack = oct_a.handle.c0.stack.data
        object_times = {
            "HMult+rescale": _time(lambda: oct_a * oct_b),
            "stacked NTT (all limbs)": _time(lambda: oengine.forward(ostack)),
        }

    if dword_product != object_product:
        raise SystemExit(
            "FAIL: dword HMult+rescale residues differ from the exact "
            "object oracle -- the fast path is numerically wrong, timing "
            "it is meaningless"
        )

    table = BenchmarkTable(
        f"Paper-scale 59-bit backend comparison [{params.describe()}]",
        note="dword (emulated 128-bit product) backend vs exact object oracle, "
             "bit-identity asserted before timing",
    )
    speedups: dict[str, float] = {}
    for name in dword_times:
        speedup = object_times[name] / dword_times[name]
        speedups[name] = speedup
        table.add_row(operation=f"{name} [object oracle]",
                      seconds=round(object_times[name], 6))
        table.add_row(operation=f"{name} [dword fast path]",
                      seconds=round(dword_times[name], 6),
                      speedup_vs_object=round(speedup, 4))

    document = table.to_json(
        schema_version=PAPER_SCALE_SCHEMA_VERSION,
        git_sha=git_sha(),
        parameter_set={
            "label": params.label,
            "logN_L_scale_dnum": params.describe(),
        },
        bit_identical=True,
        python=platform.python_version(),
        machine=platform.machine(),
        numpy=np.__version__,
    )
    with open(args.output, "w", encoding="utf-8") as handle:
        handle.write(document + "\n")
    print(table.to_text())
    print(f"\nwrote {args.output}")

    if args.min_dword_speedup is not None:
        achieved = speedups["HMult+rescale"]
        if achieved < args.min_dword_speedup:
            raise SystemExit(
                f"FAIL: dword HMult+rescale speedup over the object oracle "
                f"is {achieved:.2f}x, below the "
                f"{args.min_dword_speedup:.2f}x gate"
            )
        print(
            f"OK: dword HMult+rescale speedup is {achieved:.2f}x "
            f"(gate {args.min_dword_speedup:.2f}x)"
        )


if __name__ == "__main__":
    main()
