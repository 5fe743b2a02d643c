"""The benchmark's clock: wall time, and how much of it the kernel took.

``iteration_s`` and ``setup_s`` count the time a process spends outside the
kernel.  On the sandbox this benchmark runs in, kernel time is not a
property of the program: the hypervisor takes back guest memory a few
seconds after it is freed, and the first touch of a page it has to back
again costs 7-10 ms per MB (1 GB: 0.18 s right after another process freed
it, 6-9 s ten seconds later), all of it inside the guest's page-fault
handler.  A set-up that touches 480 MB took 4.4 s or 14 s depending on what
ran before it.  See README.md, "Noise".
"""

import resource
import time


def stamp() -> tuple[float, float]:
    """``(wall clock, kernel seconds this process has used)``, now."""
    return time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF).ru_stime


def outside_kernel(begin: tuple[float, float], end: tuple[float, float]) -> float:
    """Seconds between two stamps that were not spent in the kernel."""
    return (end[0] - begin[0]) - (end[1] - begin[1])
