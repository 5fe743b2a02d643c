"""A frozen reference kernel that calibrates the clock against machine speed.

The boxes this benchmark runs on are shared: for minutes at a time the
same code runs 1.2-1.7x slower, in user time, with no page faults and
little steal, so neither a longer run nor a robust estimator removes it
(README.md, "Noise", has the measurements).  What does remove most of it is
timing a fixed piece of work next to every measured interval and reporting
the interval in units of that work.

The reference is the two kinds of work every workload here is made of, in
equal parts by quiet wall time:

* radix-2 Shoup-lazy butterfly stages over a ``(7, 8192)`` uint64 array in
  scratch buffers -- the operation mix of the stacked NTT that is ~70 % of
  an HMult at the seed commit, on an array shaped like a top-level limb
  stack;
* a pure-Python loop (integer arithmetic and dict stores) -- the
  interpreter, which is half of a round trip (hex serialization, encoding)
  and the glue between the thousands of small kernels of a bootstrap.

A busy neighbour slows the two differently (the interpreter more), and a
reference of NumPy stages alone left ``lr_roundtrip_b1`` reading 20 % high
in the half hours the interpreter was hit hardest.  Replaying two sets of
ten runs per workload that had timed both halves next to every iteration,
the quartile spread of the per-run medians was 0.03-0.14 divided by the
NumPy half alone and 0.02-0.09 divided by both.

It is the harness's own code and must stay exactly as it is: it is the unit
every ``iteration_s`` and ``setup_s`` is expressed in, on the parent commit
and on the change.  Editing it is editing the benchmark.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

_N = 8192
_ROWS = 7
#: Butterfly stages and interpreter steps per call: about 1.25 ms each on
#: the builder's box when it is quiet.
_STAGES = 6
_STEPS = 11_000
#: Wall of one call on the builder's box when it is quiet.  Slowdowns are
#: relative to it, so normalised times read as seconds on that box; only
#: ratios between commits on one machine carry meaning.
NOMINAL_S = 2.5e-3
_SHIFT = np.uint64(32)


class Reference:
    """The reference kernel and its buffers (nothing is allocated per call)."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        half = _N // 2
        self.data = rng.integers(0, 1 << 28, size=(_ROWS, _N), dtype=np.uint64)
        self.twiddle = rng.integers(0, 1 << 28, size=(_ROWS, half), dtype=np.uint64)
        self.shoup = rng.integers(0, 1 << 32, size=(_ROWS, half), dtype=np.uint64)
        self.q = np.full((_ROWS, 1), (1 << 28) - 57, dtype=np.uint64)
        self.two_q = 2 * self.q
        self.scratch = [np.empty((_ROWS, half), dtype=np.uint64) for _ in range(4)]
        #: Filled by ``layers.run_iterations``, one entry per iteration it
        #: timed: the machine's slowdown around it, and the seconds of it
        #: spent in the kernel.
        self.slowdowns: list[float] = []
        self.kernel_s: list[float] = []

    def __call__(self) -> None:
        half = _N // 2
        u, x = self.data[:, :half], self.data[:, half:]
        tw, sh, q, two_q = self.twiddle, self.shoup, self.q, self.two_q
        buf_v, buf_q, buf_lo, buf_hi = self.scratch
        for _ in range(_STAGES):
            np.multiply(x, sh, out=buf_q)
            np.right_shift(buf_q, _SHIFT, out=buf_q)
            np.multiply(buf_q, q, out=buf_q)
            np.multiply(x, tw, out=buf_v)
            np.subtract(buf_v, buf_q, out=buf_v)
            np.add(u, two_q, out=buf_hi)
            np.subtract(buf_hi, buf_v, out=buf_hi)
            np.add(u, buf_v, out=buf_lo)
            np.subtract(buf_lo, two_q, out=buf_q)
            np.minimum(buf_lo, buf_q, out=u)
            np.subtract(buf_hi, two_q, out=buf_q)
            np.minimum(buf_hi, buf_q, out=x)
        accumulator, table = 0, {}
        for step in range(_STEPS):
            accumulator = (accumulator * 31 + step) % 1000003
            table[step & 255] = accumulator

    def samples(self, count: int = 5) -> list[float]:
        """Wall of ``count`` calls."""
        walls = []
        for _ in range(count):
            start = time.perf_counter()
            self()
            walls.append(time.perf_counter() - start)
        return walls

    @staticmethod
    def slowdown(samples) -> float:
        """How much slower than nominal the machine ran while ``samples``
        were taken (1.0 = the builder's box when quiet)."""
        return statistics.median(samples) / NOMINAL_S
