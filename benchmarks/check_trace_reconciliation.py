"""CI gate: the recorded execution plane must match the hand-built cost model.

Records an HMult+rescale kernel trace from the real data plane
(:mod:`repro.core.dispatch`) and reconciles it against
``CKKSOperationCosts.hmult(include_rescale=True)`` --- kernel counts and
bytes per kernel kind.  Divergence beyond the tolerance means the
analytical workload math has drifted from what :mod:`repro.core` actually
executes, which would silently skew every figure/table benchmark; the
script exits non-zero so CI fails loudly instead.

    PYTHONPATH=src python benchmarks/check_trace_reconciliation.py

Also asserts the §III-F.1 scheduling trend on the recorded trace
(multi-stream makespan must not exceed the single-stream makespan) and
reconciles the throughput plane: a batched HMult+rescale trace at ``B``
ciphertexts must move ``B×`` the bytes of the single-ciphertext cost
model per kernel kind while launching the *same* number of kernels --
the fused ``(B·L, N)`` contract of :mod:`repro.ckks.batch`.

Finally reconciles the 59-bit double-word plane: an HMult+rescale trace
at a paper-class 59-bit parameter set must match the cost model as built
-- the same bytes and the same launches per kernel kind: a 59-bit residue
is one 64-bit word like a 28-bit one, and the double-word arithmetic
changes neither the traffic nor the kernel structure.

The fusion plane is checked last: :func:`repro.core.fusion.fuse_trace`
applied to a stage-granular HMult+rescale trace must conserve total
``int_ops`` exactly and must never increase ``bytes_moved`` -- fusion is
only allowed to delete global-memory round trips, not to invent or drop
arithmetic.
"""

from __future__ import annotations

import argparse
import sys
import numpy as np

from repro.api import CKKSSession
from repro.core.dispatch import get_dispatcher
from repro.core.fusion import fuse_trace
from repro.gpu.platforms import GPU_RTX_4090
from repro.perf.calibration import reconcile_trace
from repro.perf.costmodel import CKKSOperationCosts
from repro.perf.trace_model import TraceCostModel

from run_quick import paper_scale_params, quick_params


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ring-log2", type=int, default=12)
    parser.add_argument("--depth", type=int, default=6)
    parser.add_argument("--tolerance", type=float, default=0.05,
                        help="maximum relative kernel-count/bytes divergence")
    parser.add_argument("--batch-size", type=int, default=8,
                        help="batch width of the throughput-plane check")
    args = parser.parse_args()

    params = quick_params(args.ring_log2, args.depth)
    session = CKKSSession.create(params, seed=3, register_default=False)
    rng = np.random.default_rng(0)
    ct_a = session.encrypt(rng.uniform(-1, 1, 16))
    ct_b = session.encrypt(rng.uniform(-1, 1, 16))

    with session.trace() as trace:
        ct_a * ct_b  # HMult + rescale on the real data plane

    limbs = ct_a.limb_count
    costs = CKKSOperationCosts(params, limb_batch=None, fusion=True)
    report = reconcile_trace(
        trace, costs.hmult(limbs, include_rescale=True),
        name=f"HMult+rescale @ N=2^{args.ring_log2}, {limbs} limbs",
    )
    print(report.describe())

    pricer = TraceCostModel(GPU_RTX_4090)
    single = pricer.price(trace, streams=1).makespan
    multi = pricer.price(trace, streams=8).makespan
    print(f"makespan: 1 stream {single * 1e6:.1f} us, 8 streams {multi * 1e6:.1f} us")

    failed = False
    if not report.within(kernel_tolerance=args.tolerance,
                         bytes_tolerance=args.tolerance):
        print(
            f"FAIL: trace diverges from the cost model beyond "
            f"{args.tolerance:.0%} (kernels {report.kernel_count_delta:.2%}, "
            f"bytes {report.bytes_delta:.2%})"
        )
        failed = True
    if multi > single + 1e-12:
        print("FAIL: multi-stream makespan exceeds single-stream makespan")
        failed = True

    # -- throughput plane: batched trace vs B x the single-ciphertext model --
    batch_size = args.batch_size
    batch_a = session.batch([session.wrap(ct_a.handle.copy()) for _ in range(batch_size)])
    batch_b = session.batch([session.wrap(ct_b.handle.copy()) for _ in range(batch_size)])
    with session.trace() as batch_trace:
        batch_a * batch_b  # batched HMult + rescale, fused kernels
    hmult_cost = costs.hmult(limbs, include_rescale=True)
    scaled = [k.scaled(batch_size) for k in hmult_cost.kernels]
    bytes_report = reconcile_trace(
        batch_trace, scaled,
        name=f"batched HMult+rescale, B={batch_size} vs {batch_size}x model bytes",
    )
    print(bytes_report.describe())
    launch_report = reconcile_trace(
        batch_trace, hmult_cost,
        name=f"batched HMult+rescale, B={batch_size} vs 1x model launches",
    )
    if bytes_report.bytes_delta > args.tolerance:
        print(
            f"FAIL: batched trace bytes diverge from {batch_size}x the "
            f"single-ciphertext model by {bytes_report.bytes_delta:.2%} "
            f"(> {args.tolerance:.0%})"
        )
        failed = True
    if launch_report.kernel_count_delta > args.tolerance:
        print(
            f"FAIL: batched trace launches {launch_report.kernel_count_trace:.0f} "
            f"kernels vs {launch_report.kernel_count_model:.0f} for one "
            f"sequential op (delta {launch_report.kernel_count_delta:.2%} > "
            f"{args.tolerance:.0%}); the throughput plane must launch once "
            f"per op for the whole batch"
        )
        failed = True
    else:
        print(
            f"batched launches {launch_report.kernel_count_trace:.0f} == "
            f"single-op launches {launch_report.kernel_count_model:.0f} "
            f"at {batch_size}x bytes (delta {bytes_report.bytes_delta:.2%})"
        )

    # -- dword plane: 59-bit trace vs the model as built (1x bytes, 1x launches) --
    dword_params = paper_scale_params()
    dword_session = CKKSSession.create(dword_params, seed=3, register_default=False)
    if dword_session.numeric_backend != "dword":
        print(
            f"FAIL: paper-scale context resolved to the "
            f"{dword_session.numeric_backend!r} backend, expected 'dword'"
        )
        return 1
    dct_a = dword_session.encrypt(rng.uniform(-1, 1, 16))
    dct_b = dword_session.encrypt(rng.uniform(-1, 1, 16))
    with dword_session.trace() as dword_trace:
        dct_a * dct_b  # HMult + rescale with double-word arithmetic
    dword_limbs = dct_a.limb_count
    dword_costs = CKKSOperationCosts(dword_params, limb_batch=None, fusion=True)
    dword_report = reconcile_trace(
        dword_trace, dword_costs.hmult(dword_limbs, include_rescale=True),
        name=f"59-bit dword HMult+rescale @ N=2^11, {dword_limbs} limbs",
    )
    print(dword_report.describe())
    if dword_report.bytes_delta > args.tolerance:
        print(
            f"FAIL: dword trace bytes diverge from the cost model by "
            f"{dword_report.bytes_delta:.2%} (> {args.tolerance:.0%}); a "
            f"59-bit residue must move one 64-bit word"
        )
        failed = True
    if dword_report.kernel_count_delta > args.tolerance:
        print(
            f"FAIL: dword trace launches "
            f"{dword_report.kernel_count_trace:.0f} kernels vs "
            f"{dword_report.kernel_count_model:.0f} for the cost model "
            f"(delta {dword_report.kernel_count_delta:.2%} > "
            f"{args.tolerance:.0%}); the double-word arithmetic must not "
            f"change the kernel structure"
        )
        failed = True
    if dword_report.within(kernel_tolerance=args.tolerance,
                           bytes_tolerance=args.tolerance):
        print(
            f"dword launches {dword_report.kernel_count_trace:.0f} == "
            f"model launches {dword_report.kernel_count_model:.0f} at 1x "
            f"bytes (delta {dword_report.bytes_delta:.2%})"
        )

    # -- fusion plane: the fused trace must conserve work, never add bytes --
    with session.trace(executable=True, stage_launches=True) as stage_trace:
        ct_a * ct_b  # per-stage launches, every boundary canonical
    fused_trace = fuse_trace(stage_trace).fused_trace
    ops_delta = abs(fused_trace.int_ops - stage_trace.int_ops) / max(
        stage_trace.int_ops, 1.0
    )
    if ops_delta > 1e-9:
        print(
            f"FAIL: fused trace int_ops {fused_trace.int_ops:.0f} diverge "
            f"from the unfused stage trace {stage_trace.int_ops:.0f} "
            f"(delta {ops_delta:.2e}); fusion must conserve arithmetic work"
        )
        failed = True
    if fused_trace.bytes_moved > stage_trace.bytes_moved:
        print(
            f"FAIL: fused trace moves {fused_trace.bytes_moved:.0f} bytes, "
            f"more than the unfused stage trace's "
            f"{stage_trace.bytes_moved:.0f}; fusion must only remove "
            f"round trips, never add them"
        )
        failed = True
    if ops_delta <= 1e-9 and fused_trace.bytes_moved <= stage_trace.bytes_moved:
        saved = stage_trace.bytes_moved - fused_trace.bytes_moved
        print(
            f"fusion conserves {stage_trace.int_ops:.0f} int_ops across "
            f"{len(stage_trace.events)} -> {len(fused_trace.events)} "
            f"launches, saving {saved / 2**20:.1f} MiB of traffic"
        )

    if not failed:
        print("OK: execution plane and cost model reconcile")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
