"""Core polynomial-ring arithmetic substrate (paper namespace ``FIDESlib``).

This subpackage provides everything needed to compute with degree-``N``
negacyclic polynomials under word-sized prime moduli:

* :mod:`repro.core.modmath` -- modular arithmetic: the batched
  ``stack_*`` kernels (improved Barrett and Shoup reductions, Table III)
  that are the only arithmetic on residues, and the one scratch pool they
  and the NTT draw from.
* :mod:`repro.core.primes` -- NTT-friendly prime generation and roots of
  unity.
* :mod:`repro.core.ntt` -- the negacyclic NTT/iNTT: one stacked engine
  (:class:`StackedNTTEngine`, every limb of a stack at once on the
  uint64 and dword backends) and one exact-integer oracle
  (:func:`reference_transform`, also the ``>= 2**62`` path).
* :mod:`repro.core.rns` -- residue number system bases, CRT recombination
  and the fast base conversion of Equation 1.
* :mod:`repro.core.rns_poly` -- the ``RNSPoly`` container of Figure 2
  (``LimbFormat`` lives in :mod:`repro.core.limb`): the flat ``(L, N)``
  storage of §III-D -- one array, one pool charge; a limb is a row of it
  -- and every polynomial operation, each a call of a ``stack_*`` kernel
  on ``poly.data``.
* :mod:`repro.core.memory` -- the stream-ordered memory-pool analogue:
  live/peak byte counters that an ``RNSPoly`` charges and credits.
* :mod:`repro.core.dispatch` / :mod:`repro.core.fusion` -- the execution
  plane: every kernel above reports to the dispatcher, which can record
  a ``KernelTrace``; an executable trace replays (``TraceProgram``),
  expands into its unfused baseline (``expand_stages``) and fuses
  (``fuse_trace``).
"""

from repro.core.dispatch import Dispatcher, KernelTrace, get_dispatcher
from repro.core.modmath import pow_mod, inv_mod
from repro.core.primes import generate_ntt_primes, find_primitive_root
from repro.core.ntt import StackedNTTEngine, reference_transform, twiddle_tables
from repro.core.rns import RNSBasis, BaseConverter
from repro.core.rns_poly import RNSPoly

__all__ = [
    "Dispatcher",
    "KernelTrace",
    "get_dispatcher",
    "pow_mod",
    "inv_mod",
    "generate_ntt_primes",
    "find_primitive_root",
    "StackedNTTEngine",
    "reference_transform",
    "twiddle_tables",
    "RNSBasis",
    "BaseConverter",
    "RNSPoly",
]
