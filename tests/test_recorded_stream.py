"""The recorded stream is the same program in every mode.

Three contracts of the execution plane, each over the whole operation
surface rather than one hand-picked pipeline:

* **golden streams** -- what an operation records (kernel names, launches,
  bytes, integer operations and dependency edges, event for event) is
  pinned per operation, member count and word arithmetic, fused as recorded
  and stage-granular as :func:`expand_stages` derives it, so a refactor of
  the self-recording kernels (the NTT engine's fused prologue/epilogue, the
  member-aware base conversion, the dot product) cannot move a launch
  unnoticed;
* **replay lattice** -- every record replays bit-identically, as recorded
  and fused, and its stage-granular expansion fuses back with the arithmetic
  conserved, where the hand-picked replay tests do not reach: operands below
  the top level (the key multiply reads two row windows), ``B = 3``, the
  mixed 60+28-bit chain and a chain past ``2**62``;
* **the dispatcher only observes** -- untraced, plain and executable runs,
  and an executable run after its expansion, return the same ciphertext
  bits.
"""

from __future__ import annotations

import hashlib
import warnings

import numpy as np
import pytest

from repro.api import CKKSSession
from repro.ckks.params import CKKSParameters
from repro.core.fusion import TraceProgram, expand_stages, fuse_trace

from test_dispatch_trace import OP_SURFACE

#: The two streams pinned per operation: the fused one a recording holds,
#: and the per-stage unfused baseline derived from its executable twin.
MODES = ("fused", "stage-granular")

#: Word-size chains: ``(scale_bits, first_mod_bits)`` and the backend the
#: session must report.  ``mixed`` keeps 28-bit scale primes under a 60-bit
#: ``q_0`` (rescale and ModDown cross the word boundary); ``exact`` has a
#: prime past ``2**62`` (Python-integer rows).
CHAINS = {
    "uint64": (28, 30, "uint64"),
    "dword": (59, 60, "dword"),
    "mixed": (28, 60, "dword"),
    "exact": (59, 63, "object"),
}


def make_session(chain: str, *, ring_log2: int = 8, depth: int = 4, dnum: int = 3):
    scale_bits, first_mod_bits, backend = CHAINS[chain]
    params = CKKSParameters(
        ring_degree=1 << ring_log2, mult_depth=depth, scale_bits=scale_bits,
        dnum=dnum, first_mod_bits=first_mod_bits, secret_hamming_weight=16,
        label=f"stream-{chain}",
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the exact chain warns
        session = CKKSSession.create(
            params, rotations=[1, 2, 3], conjugation=True, seed=5,
            register_default=False,
        )
    assert session.numeric_backend == backend
    return session


def operands(session, members: int, *, levels_down: int = 0):
    rng = np.random.default_rng(29)

    def one():
        rows = [rng.uniform(-1, 1, 8) for _ in range(members)]
        ct = session.encrypt_batch(rows) if members > 1 else session.encrypt(rows[0])
        return ct.at_level(ct.level - levels_down) if levels_down else ct

    return one(), one()


def stream_digest(trace) -> str:
    """sha256 (first 16 hex digits) of the recorded event list."""
    rows = [
        (e.kernel.name, e.kernel.launches, e.kernel.bytes_read,
         e.kernel.bytes_written, e.kernel.int_ops, e.deps)
        for e in trace
    ]
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


#: Read off 76cfcfd (the commit before the engine recorded its own fused
#: launches, when the stage-granular stream was a second recording mode),
#: N=2^8, depth 4, dnum 3: ``op/B/backend/mode`` -> digest.  The ``hmult``
#: and ``hsquare`` rows are those of the merged ModDown-rescale tail (no
#: relinearisation add, no separate rescale).  The ``product_sum`` and
#: ``weighted_sum`` rows were added with those operations' protocol rows,
#: read off the data plane that first served them, and so were the
#: ``mod_reduce`` rows (a window at B=1, two gathers at B=8) and the
#: ``hadd-self`` (one operand read once) and ``ptdot`` rows.
GOLDEN: dict[str, str] = {
    "at_level/B1/uint64/fused": "f1c0b1961aa552fc",
    "at_level/B1/uint64/stage-granular": "e92ebb1185cb4dd0",
    "at_level/B1/dword/fused": "f1c0b1961aa552fc",
    "at_level/B1/dword/stage-granular": "f1c0b1961aa552fc",
    "at_level/B8/uint64/fused": "20c7346e7f5995e0",
    "at_level/B8/uint64/stage-granular": "003f7ccda208c990",
    "at_level/B8/dword/fused": "20c7346e7f5995e0",
    "at_level/B8/dword/stage-granular": "20c7346e7f5995e0",
    "at_level-same/B1/uint64/fused": "4f53cda18c2baa0c",
    "at_level-same/B1/uint64/stage-granular": "4f53cda18c2baa0c",
    "at_level-same/B1/dword/fused": "4f53cda18c2baa0c",
    "at_level-same/B1/dword/stage-granular": "4f53cda18c2baa0c",
    "at_level-same/B8/uint64/fused": "4f53cda18c2baa0c",
    "at_level-same/B8/uint64/stage-granular": "4f53cda18c2baa0c",
    "at_level-same/B8/dword/fused": "4f53cda18c2baa0c",
    "at_level-same/B8/dword/stage-granular": "4f53cda18c2baa0c",
    "hadd/B1/uint64/fused": "e52b031de9ff0817",
    "hadd/B1/uint64/stage-granular": "e52b031de9ff0817",
    "hadd/B1/dword/fused": "e52b031de9ff0817",
    "hadd/B1/dword/stage-granular": "e52b031de9ff0817",
    "hadd/B8/uint64/fused": "a1dafbcfae9fa844",
    "hadd/B8/uint64/stage-granular": "a1dafbcfae9fa844",
    "hadd/B8/dword/fused": "a1dafbcfae9fa844",
    "hadd/B8/dword/stage-granular": "a1dafbcfae9fa844",
    "hadd-self/B1/uint64/fused": "a4db361310058677",
    "hadd-self/B1/uint64/stage-granular": "a4db361310058677",
    "hadd-self/B1/dword/fused": "a4db361310058677",
    "hadd-self/B1/dword/stage-granular": "a4db361310058677",
    "hadd-self/B8/uint64/fused": "e00e907b07ac7f11",
    "hadd-self/B8/uint64/stage-granular": "e00e907b07ac7f11",
    "hadd-self/B8/dword/fused": "e00e907b07ac7f11",
    "hadd-self/B8/dword/stage-granular": "e00e907b07ac7f11",
    "hconjugate/B1/uint64/fused": "cd062c077223f5c8",
    "hconjugate/B1/uint64/stage-granular": "9a156360034bed16",
    "hconjugate/B1/dword/fused": "cd062c077223f5c8",
    "hconjugate/B1/dword/stage-granular": "e1041b0cc964e374",
    "hconjugate/B8/uint64/fused": "bd0aa1a63a1e8bbb",
    "hconjugate/B8/uint64/stage-granular": "3181c3987e2ba7af",
    "hconjugate/B8/dword/fused": "bd0aa1a63a1e8bbb",
    "hconjugate/B8/dword/stage-granular": "697c04a97d83e786",
    "hmult/B1/uint64/fused": "cc36cfdfb3b43c8e",
    "hmult/B1/uint64/stage-granular": "669bd017c0f37d56",
    "hmult/B1/dword/fused": "cc36cfdfb3b43c8e",
    "hmult/B1/dword/stage-granular": "de9f974bb6de5038",
    "hmult/B8/uint64/fused": "ebb99b80e094d737",
    "hmult/B8/uint64/stage-granular": "49e31b0d4361263a",
    "hmult/B8/dword/fused": "ebb99b80e094d737",
    "hmult/B8/dword/stage-granular": "3cfabf0a942c7c04",
    "hoisted-x3/B1/uint64/fused": "5360aa145a85941d",
    "hoisted-x3/B1/uint64/stage-granular": "a15531752628a865",
    "hoisted-x3/B1/dword/fused": "5360aa145a85941d",
    "hoisted-x3/B1/dword/stage-granular": "2c2634edc57e1f59",
    "hoisted-x3/B8/uint64/fused": "b6ab931c096e6a62",
    "hoisted-x3/B8/uint64/stage-granular": "14610d5dd29930d1",
    "hoisted-x3/B8/dword/fused": "b6ab931c096e6a62",
    "hoisted-x3/B8/dword/stage-granular": "3646e93e36a96355",
    "hrotate/B1/uint64/fused": "cd062c077223f5c8",
    "hrotate/B1/uint64/stage-granular": "9a156360034bed16",
    "hrotate/B1/dword/fused": "cd062c077223f5c8",
    "hrotate/B1/dword/stage-granular": "e1041b0cc964e374",
    "hrotate/B8/uint64/fused": "bd0aa1a63a1e8bbb",
    "hrotate/B8/uint64/stage-granular": "3181c3987e2ba7af",
    "hrotate/B8/dword/fused": "bd0aa1a63a1e8bbb",
    "hrotate/B8/dword/stage-granular": "697c04a97d83e786",
    "hsquare/B1/uint64/fused": "cf691bf2aa0beec8",
    "hsquare/B1/uint64/stage-granular": "bc5003b4579310e5",
    "hsquare/B1/dword/fused": "cf691bf2aa0beec8",
    "hsquare/B1/dword/stage-granular": "ae767e52c36aed8b",
    "hsquare/B8/uint64/fused": "3fd56166e99c079e",
    "hsquare/B8/uint64/stage-granular": "e87b048c97f064b6",
    "hsquare/B8/dword/fused": "3fd56166e99c079e",
    "hsquare/B8/dword/stage-granular": "33485b86afc424d4",
    "mod_reduce/B1/uint64/fused": "4f53cda18c2baa0c",
    "mod_reduce/B1/uint64/stage-granular": "4f53cda18c2baa0c",
    "mod_reduce/B1/dword/fused": "4f53cda18c2baa0c",
    "mod_reduce/B1/dword/stage-granular": "4f53cda18c2baa0c",
    "mod_reduce/B8/uint64/fused": "d1de34227e83d307",
    "mod_reduce/B8/uint64/stage-granular": "d1de34227e83d307",
    "mod_reduce/B8/dword/fused": "d1de34227e83d307",
    "mod_reduce/B8/dword/stage-granular": "d1de34227e83d307",
    "negate/B1/uint64/fused": "49837c5fe0312f87",
    "negate/B1/uint64/stage-granular": "49837c5fe0312f87",
    "negate/B1/dword/fused": "49837c5fe0312f87",
    "negate/B1/dword/stage-granular": "49837c5fe0312f87",
    "negate/B8/uint64/fused": "806058b626502a89",
    "negate/B8/uint64/stage-granular": "806058b626502a89",
    "negate/B8/dword/fused": "806058b626502a89",
    "negate/B8/dword/stage-granular": "806058b626502a89",
    "ptadd/B1/uint64/fused": "e9ea9081a92a7caa",
    "ptadd/B1/uint64/stage-granular": "e9ea9081a92a7caa",
    "ptadd/B1/dword/fused": "e9ea9081a92a7caa",
    "ptadd/B1/dword/stage-granular": "e9ea9081a92a7caa",
    "ptadd/B8/uint64/fused": "25c0ca914aaa552a",
    "ptadd/B8/uint64/stage-granular": "25c0ca914aaa552a",
    "ptadd/B8/dword/fused": "25c0ca914aaa552a",
    "ptadd/B8/dword/stage-granular": "25c0ca914aaa552a",
    "product_sum/B1/uint64/fused": "8ae561e415e3c3d6",
    "product_sum/B1/uint64/stage-granular": "aed4104003c7ce96",
    "product_sum/B1/dword/fused": "8ae561e415e3c3d6",
    "product_sum/B1/dword/stage-granular": "1492083bfd5a5879",
    "product_sum/B8/uint64/fused": "04fccc8769197245",
    "product_sum/B8/uint64/stage-granular": "94cf2d0edeb32dbb",
    "product_sum/B8/dword/fused": "04fccc8769197245",
    "product_sum/B8/dword/stage-granular": "568c580ebfb00dbc",
    "product_sum-square/B1/uint64/fused": "580c7d9afed44f20",
    "product_sum-square/B1/uint64/stage-granular": "bdb8f43e264d2948",
    "product_sum-square/B1/dword/fused": "580c7d9afed44f20",
    "product_sum-square/B1/dword/stage-granular": "15f01e30ddde15dd",
    "product_sum-square/B8/uint64/fused": "a538104ffbf627ed",
    "product_sum-square/B8/uint64/stage-granular": "feca2ff197e54581",
    "product_sum-square/B8/dword/fused": "a538104ffbf627ed",
    "product_sum-square/B8/dword/stage-granular": "e2b5db9e0cc7b258",
    "ptdot/B1/uint64/fused": "425cb3e0a0578efe",
    "ptdot/B1/uint64/stage-granular": "8e2e4e15d3c2e382",
    "ptdot/B1/dword/fused": "425cb3e0a0578efe",
    "ptdot/B1/dword/stage-granular": "730e22d31f3cdb36",
    "ptdot/B8/uint64/fused": "a69fb8ad5fc52fa8",
    "ptdot/B8/uint64/stage-granular": "f864bfc1d78e3417",
    "ptdot/B8/dword/fused": "a69fb8ad5fc52fa8",
    "ptdot/B8/dword/stage-granular": "edc784bfdff5f942",
    "ptmult+rescale/B1/uint64/fused": "ab60b4138a17abea",
    "ptmult+rescale/B1/uint64/stage-granular": "e63a7335813daaf6",
    "ptmult+rescale/B1/dword/fused": "ab60b4138a17abea",
    "ptmult+rescale/B1/dword/stage-granular": "ab60b4138a17abea",
    "ptmult+rescale/B8/uint64/fused": "6957c6a2e2a9244a",
    "ptmult+rescale/B8/uint64/stage-granular": "5416b6456338c682",
    "ptmult+rescale/B8/dword/fused": "6957c6a2e2a9244a",
    "ptmult+rescale/B8/dword/stage-granular": "6957c6a2e2a9244a",
    "rotate0/B1/uint64/fused": "4f53cda18c2baa0c",
    "rotate0/B1/uint64/stage-granular": "4f53cda18c2baa0c",
    "rotate0/B1/dword/fused": "4f53cda18c2baa0c",
    "rotate0/B1/dword/stage-granular": "4f53cda18c2baa0c",
    "rotate0/B8/uint64/fused": "4f53cda18c2baa0c",
    "rotate0/B8/uint64/stage-granular": "4f53cda18c2baa0c",
    "rotate0/B8/dword/fused": "4f53cda18c2baa0c",
    "rotate0/B8/dword/stage-granular": "4f53cda18c2baa0c",
    "scalaradd/B1/uint64/fused": "f7597ae7c5447ac1",
    "scalaradd/B1/uint64/stage-granular": "f7597ae7c5447ac1",
    "scalaradd/B1/dword/fused": "f7597ae7c5447ac1",
    "scalaradd/B1/dword/stage-granular": "f7597ae7c5447ac1",
    "scalaradd/B8/uint64/fused": "0a95fb75adb00ced",
    "scalaradd/B8/uint64/stage-granular": "0a95fb75adb00ced",
    "scalaradd/B8/dword/fused": "0a95fb75adb00ced",
    "scalaradd/B8/dword/stage-granular": "0a95fb75adb00ced",
    "scalarmult+rescale/B1/uint64/fused": "520d2dbf9c313bc5",
    "scalarmult+rescale/B1/uint64/stage-granular": "cc62e6b7347fc60e",
    "scalarmult+rescale/B1/dword/fused": "520d2dbf9c313bc5",
    "scalarmult+rescale/B1/dword/stage-granular": "520d2dbf9c313bc5",
    "scalarmult+rescale/B8/uint64/fused": "874ab55072ad7959",
    "scalarmult+rescale/B8/uint64/stage-granular": "984bd89efb5ac7f4",
    "scalarmult+rescale/B8/dword/fused": "874ab55072ad7959",
    "scalarmult+rescale/B8/dword/stage-granular": "874ab55072ad7959",
    "weighted_sum/B1/uint64/fused": "72b4fb297b782e55",
    "weighted_sum/B1/uint64/stage-granular": "f4af19ad2739648e",
    "weighted_sum/B1/dword/fused": "72b4fb297b782e55",
    "weighted_sum/B1/dword/stage-granular": "72b4fb297b782e55",
    "weighted_sum/B8/uint64/fused": "f2a73b2bcb8b5c0a",
    "weighted_sum/B8/uint64/stage-granular": "b596fc223f13c23a",
    "weighted_sum/B8/dword/fused": "f2a73b2bcb8b5c0a",
    "weighted_sum/B8/dword/stage-granular": "f2a73b2bcb8b5c0a",
}


class TestGoldenStreams:
    @pytest.fixture(scope="class")
    def sessions(self):
        return {chain: make_session(chain) for chain in ("uint64", "dword")}

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("backend", ["uint64", "dword"])
    @pytest.mark.parametrize("members", [1, 8], ids=["B1", "B8"])
    @pytest.mark.parametrize("op", sorted(OP_SURFACE))
    def test_event_list_is_the_pinned_one(self, op, members, backend, mode, sessions):
        session = sessions[backend]
        x, y = operands(session, members)
        staged = mode == "stage-granular"
        with session.trace(executable=staged) as trace:
            OP_SURFACE[op](x, y)
        if staged:
            trace = expand_stages(trace)
        assert stream_digest(trace) == GOLDEN[f"{op}/B{members}/{backend}/{mode}"], \
            [(e.kernel.name, e.deps) for e in trace]


#: The operations that key-switch or rescale (the self-recording pipelines).
PIPELINE_OPS = [
    "hmult", "hsquare", "hrotate", "hconjugate", "hoisted-x3",
    "ptmult+rescale", "scalarmult+rescale", "at_level", "hadd",
    "weighted_sum", "product_sum", "product_sum-square",
]


class TestReplayLattice:
    @pytest.fixture(scope="class")
    def sessions(self):
        # The exact chain computes on Python integers: a smaller ring keeps
        # its share of the lattice inside the tier-1 budget.
        return {
            chain: make_session(chain, ring_log2=5 if chain == "exact" else 7,
                                dnum=2)
            for chain in CHAINS
        }

    @staticmethod
    def _check_expansion(trace):
        # The unfused baseline expands and fuses on every chain, with the
        # arithmetic conserved; a record with nothing to expand is its own
        # baseline.
        staged = expand_stages(trace)
        result = fuse_trace(staged)
        assert result.fused_trace.int_ops == pytest.approx(staged.int_ops)
        if all(e.replay is not None for e in staged):
            assert stream_digest(staged) == stream_digest(trace)
        # Expanding reads the record and leaves it replayable.
        TraceProgram(trace).verify()

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("levels_down", [0, 2], ids=["top", "two-down"])
    @pytest.mark.parametrize("members", [1, 3], ids=["B1", "B3"])
    @pytest.mark.parametrize("chain", sorted(CHAINS))
    def test_every_pipeline_replays_and_fuses(
            self, chain, members, levels_down, mode, sessions):
        session = sessions[chain]
        x, y = operands(session, members, levels_down=levels_down)
        if members == 1 and levels_down:
            # The key multiply reads the active key rows where they lie.
            assert len(session.context.key_row_windows(x.limb_count, 1)) == 2
        for op in PIPELINE_OPS:
            with session.trace(executable=True) as trace:
                OP_SURFACE[op](x, y)
            try:
                if mode == "fused":
                    TraceProgram(trace).verify()
                else:
                    self._check_expansion(trace)
            except AssertionError as exc:
                raise AssertionError(f"{op}: {exc}") from exc


class TestTheDispatcherOnlyObserves:
    @pytest.mark.parametrize("chain", ["uint64", "dword"])
    def test_every_recording_mode_returns_the_same_bits(self, chain):
        session = make_session(chain, ring_log2=7)
        x, y = operands(session, 1)

        def program():
            result = ((x * y) << 1).handle
            return result.c0.data.copy(), result.c1.data.copy()

        untraced = program()
        for executable in (False, True):
            with session.trace(executable=executable) as trace:
                traced = program()
            if executable:
                expand_stages(trace)  # derives a stream, touches no array
            for want, got in zip(untraced, traced):
                np.testing.assert_array_equal(want, got, err_msg=str(executable))
