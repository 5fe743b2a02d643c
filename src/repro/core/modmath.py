"""Modular arithmetic primitives for word-sized prime moduli.

The CKKS scheme performs all polynomial arithmetic modulo a set of primes
``{q_0, ..., q_L}``.  Because GPUs (and CPUs) have no native modulo unit,
FIDESlib relies on the fast reduction techniques compared in Table III of
the paper: **Barrett** (the "improved Barrett" of Shivdikar et al. [50],
its general-purpose reduction: two multiplications with a precomputed
reciprocal, no special operand encoding), **Montgomery** (the same count,
operands in Montgomery form) and **Shoup** (the cheapest when one operand
is a known constant -- twiddle factors, precomputed scalars -- whose
reciprocal is precomputed).  Their integer-operation counts price the
kernels in :mod:`repro.gpu.kernel`.

This module holds the batched limb-stack kernels (``stack_*``) that are
the library's only modular arithmetic on residues, built from improved
Barrett and Shoup.  A residue below 2**62 is one ``uint64`` word of an
``(L, N)`` stack whatever its modulus; the three backends differ only in
how a *product* is reduced:

* the **fast backend** (``uint64``) for moduli below 2**31, where a product
  of two residues fits in an unsigned 64-bit lane and NumPy's native ``%``
  (or a 32-bit Shoup companion) is exact;
* the **double-word backend** (``dword``) for moduli in ``[2**31, 2**62)``
  -- the regime of the paper's 59/60-bit primes -- which emulates the
  64x64 -> 128-bit products with four 32-bit digit multiplications and
  reduces with improved Barrett (variable x variable) or, when one
  operand is a constant with a 64-bit Shoup companion (twiddles, scalars,
  conversion tables, switching keys), with a three-product Shoup quotient
  whose lazy ``[0, 4q)`` terms are summed before one reduction --
  entirely vectorized, no object arrays, no Python loops over ``N``; and
* the **exact backend** backed by Python integers (``dtype=object``), kept
  only as the exactness oracle for moduli at or above 2**62.

The backend is chosen per moduli column by :func:`stack_backend`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.core.dispatch import DISPATCH, gather_rows
from repro.gpu import kernel as _kernelforms

#: Largest modulus for which the fast uint64 NumPy backend is exact:
#: residues are < 2**31, so products are < 2**62 and fit in a uint64 lane.
FAST_MODULUS_LIMIT = 1 << 31

#: Largest modulus the double-word backend supports.  The
#: improved-Barrett remainder before correction lies in ``[0, 3q)``, which
#: must fit a uint64 lane, and the lazy ``[0, 2q)`` representatives the
#: NTT uses must leave headroom for one uncorrected butterfly sum
#: (``< 4q``); both hold exactly when ``q < 2**62`` (the same 62-bit cap
#: word-sized RNS libraries impose).  Paper-class 59/60-bit primes are
#: comfortably inside.
DWORD_MODULUS_LIMIT = 1 << 62

#: ``2**64``: the machine word the double-word Barrett and Shoup constants
#: are built over.
WORD_BASE = 1 << 64


# ---------------------------------------------------------------------------
# Scalar helpers
# ---------------------------------------------------------------------------


def pow_mod(base: int, exponent: int, q: int) -> int:
    """Return ``base ** exponent mod q``."""
    return pow(base, exponent, q)


def inv_mod(a: int, q: int) -> int:
    """Return the multiplicative inverse of ``a`` modulo ``q``.

    Raises :class:`ZeroDivisionError` if ``a`` is not invertible.
    """
    return pow(a, -1, q)


# ---------------------------------------------------------------------------
# Word-size predicate
# ---------------------------------------------------------------------------


def is_fast_modulus(q: int) -> bool:
    """Return True when the fast uint64 backend is exact for modulus ``q``."""
    return q < FAST_MODULUS_LIMIT


# ---------------------------------------------------------------------------
# Batched limb-stack routines
# ---------------------------------------------------------------------------
#
# The kernels below operate on a flat ``(num_limbs, N)`` residue stack -- the
# flattened allocation strategy of §III-D -- with the per-limb moduli held in
# an ``(L, 1)`` column that NumPy broadcasts across every row.  One call
# replaces a Python loop over per-limb vector routines, which is the batching
# the paper's §III-F kernels perform across limbs on the GPU.  The backend is
# chosen per moduli column (:func:`stack_backend`): single-word products
# below :data:`FAST_MODULUS_LIMIT`, emulated double-word products below
# :data:`DWORD_MODULUS_LIMIT` -- both on one ``uint64`` word per residue --
# and exact Python integers in an object array beyond that.

#: Elementwise ``int()`` over an array; the safe way to turn a uint64 array
#: into Python-integer objects (``astype(object)`` would keep ``np.uint64``
#: elements whose arithmetic silently wraps or degrades to float).
_to_object_ints = np.frompyfunc(int, 1, 1)


#: Stack-backend names, in increasing generality.
BACKEND_UINT64 = "uint64"
BACKEND_DWORD = "dword"
BACKEND_OBJECT = "object"


def backend_for_moduli(moduli) -> str:
    """Return the stack backend a set of moduli selects.

    ``uint64`` when every modulus is below 2**31, ``dword`` (emulated
    128-bit products) when every modulus is below 2**62, ``object`` (exact
    Python integers) otherwise.  The backend is a pure function of the
    modulus values, so any sub-basis of a chain classifies consistently.
    """
    largest = max(int(q) for q in moduli)
    if largest < FAST_MODULUS_LIMIT:
        return BACKEND_UINT64
    if largest < DWORD_MODULUS_LIMIT:
        return BACKEND_DWORD
    return BACKEND_OBJECT


def moduli_column(moduli) -> np.ndarray:
    """Return the ``(L, 1)`` broadcastable column of stack moduli.

    The column's dtype is the dtype of every stack over it -- ``uint64``
    when all values are below 2**62, ``object`` (exact Python integers)
    otherwise -- and its values select the word arithmetic.  Columns are
    cached per moduli tuple -- every polynomial at the same level shares
    one (hot-path constructor cost).
    """
    return _moduli_column_cached(tuple(int(q) for q in moduli))


def read_only(array: np.ndarray) -> np.ndarray:
    """Freeze ``array`` and every array it is a view of; return it.

    A cached table is shared by every caller on every thread, so it is
    frozen: an accidental in-place write fails loudly instead of
    corrupting the cache.
    """
    base = array
    while isinstance(base, np.ndarray):
        base.flags.writeable = False
        base = base.base
    return array


#: Entries of the per-moduli-tuple caches below (the bound of
#: :func:`repro.core.ntt.get_stacked_engine`): fused batches make a new
#: tuple per (level, member count), so an unbounded cache only grows.
_TUPLE_CACHE_SIZE = 128


@lru_cache(maxsize=_TUPLE_CACHE_SIZE)
def _moduli_column_cached(moduli: tuple) -> np.ndarray:
    backend = backend_for_moduli(moduli)
    dtype = np.object_ if backend == BACKEND_OBJECT else np.uint64
    # Shared by every stack and engine built over this basis.
    return read_only(np.array(moduli, dtype=dtype).reshape(-1, 1))


def stack_backend(moduli_col: np.ndarray) -> str:
    """Return the backend name a moduli column selects (see above)."""
    col = np.asarray(moduli_col)
    if col.dtype == np.object_:
        return BACKEND_OBJECT
    if int(col.max()) < FAST_MODULUS_LIMIT:
        return BACKEND_UINT64
    return BACKEND_DWORD


def stack_is_dword(moduli_col: np.ndarray) -> bool:
    """True when a moduli column selects the double-word backend."""
    return stack_backend(moduli_col) == BACKEND_DWORD


def object_row(values) -> np.ndarray:
    """Return a 1-D object array of Python ints (exact arithmetic)."""
    arr = np.asarray(values)
    if arr.dtype == np.object_:
        return arr
    return _to_object_ints(arr)


def coerce_stack(data: np.ndarray, moduli_col: np.ndarray) -> np.ndarray:
    """Coerce canonical residues into the stack dtype of ``moduli_col``.

    A no-op when the dtypes already agree.  The one storage boundary is
    machine word <-> Python integer: a sub-basis of an exact chain whose
    own moduli are all below 2**62 is a ``uint64`` stack.  Values must
    already be canonical residues, so both directions are exact.
    """
    data = np.asarray(data)
    exact = moduli_col.dtype == np.object_
    if exact == (data.dtype == np.object_):
        return data
    return _to_object_ints(data) if exact else data.astype(np.uint64)


def lift_residues(values, moduli_col: np.ndarray,
                  *, out: np.ndarray | None = None) -> np.ndarray:
    """Reduce signed integers into canonical residues: ``values mod moduli_col``.

    The one place an integer vector becomes residues.  ``values``
    broadcasts against the column the usual way -- ``(N,)`` coefficients
    against ``(L, 1)`` give the ``(L, N)`` stack of one polynomial, an
    ``(L, N)`` block is reduced row by row -- and the result has the
    column's stack dtype.  Machine integers over a word column are one
    floored ``%`` in int64 (unsigned words stay unsigned), exact for
    ``|v| < 2**63`` and ``q < 2**62``; anything else -- a list holding an
    integer past int64, an object array, a modulus at or above 2**62 --
    is reduced as exact Python integers.  ``out`` (of the broadcast shape,
    contiguous) receives the residues without a staging copy.  Floats are
    a :class:`TypeError`: round them with :func:`rint_integers` first.
    """
    col = np.asarray(moduli_col)
    words = np.asarray(values)
    if words.dtype.kind in "iub" and col.dtype != np.object_:
        if words.dtype.kind != "u":
            words, col = words.astype(np.int64, copy=False), col.astype(np.int64)
        if out is None:
            return (words % col).astype(np.uint64, copy=False)
        # A floored remainder is non-negative: the same bits in either word.
        np.remainder(words, col, out=out.view(words.dtype))
        return out
    exact = np.asarray(values, dtype=object)
    # NumPy reads a list of Python integers past int64 as float64 too; only
    # the elements tell a float from such an integer.
    if words.dtype.kind in "fc" and not all(
        isinstance(v, (int, np.integer)) for v in exact.flat
    ):
        raise TypeError(
            f"lift_residues takes integers, got {words.dtype}; round floats "
            f"with rint_integers first"
        )
    return _into(coerce_stack(_to_object_ints(exact) % object_row(col), col), out)


def as_residue_array(values, q: int) -> np.ndarray:
    """Canonical residues of ``values`` for one modulus ``q``, same shape."""
    return lift_residues(values, moduli_column((q,)).reshape(()))


def rint_integers(values) -> np.ndarray:
    """Round floats half-to-even into the integers :func:`lift_residues` takes.

    ``int64`` when every magnitude is below 2**62 (the exact range of the
    machine lift), Python integers otherwise -- the values Python's
    ``round`` gives element by element either way.
    """
    rounded = np.rint(values)
    if np.all(np.abs(rounded) < DWORD_MODULUS_LIMIT):
        return rounded.astype(np.int64)
    return _to_object_ints(rounded)


def stack_zeros(num_limbs: int, n: int, moduli_col: np.ndarray) -> np.ndarray:
    """Return an all-zero ``(num_limbs, n)`` stack in the column's dtype."""
    return np.zeros((num_limbs, n), dtype=moduli_col.dtype)


def stack_take(a: np.ndarray, indices) -> np.ndarray:
    """Copy the rows at ``indices`` into a fresh stack: one ``limb-copy`` launch.

    Pure data movement (a deep copy, limb dropping on a fused batch); the
    replay gathers the source rows in order.
    """
    indices = list(indices)
    out = a[indices]  # fancy indexing already materializes a fresh array
    if DISPATCH.recording:
        def replay(reads, writes):
            gather_rows(reads, writes[0])
        DISPATCH.elementwise(
            "limb-copy", reads=tuple(a[i : i + 1] for i in indices),
            writes=(out,), ops_per_element=0.0, replay=replay,
        )
    return out


def scalar_column(scalars, moduli_col: np.ndarray) -> np.ndarray:
    """Canonicalize one integer constant per limb into an ``(L, 1)`` column."""
    moduli = [int(q) for q in np.asarray(moduli_col).ravel()]
    if len(scalars) != len(moduli):
        raise ValueError("need one scalar per limb")
    values = [int(s) % q for s, q in zip(scalars, moduli)]
    return np.array(values, dtype=moduli_col.dtype).reshape(-1, 1)


#: Shift of the Shoup constant-operand multiplication on the fast backend:
#: with residues below 2**31 and ``w' = floor(w * 2**32 / q)``, every
#: intermediate fits a uint64 lane and the pre-reduction result lies in
#: ``[0, 2q)`` (Table III's one-wide-two-low-multiplications scheme).
STACK_SHOUP_SHIFT = np.uint64(32)


def _fast_reduce_once(s: np.ndarray, moduli_col: np.ndarray) -> np.ndarray:
    """Map ``s`` in ``[0, 2q)`` to ``[0, q)`` without a branch or division.

    When ``s < q`` the uint64 subtraction ``s - q`` wraps far above ``2q``,
    so the elementwise minimum selects the already-reduced value; when
    ``s >= q`` it selects ``s - q``.  One subtract and one min replace the
    compare/where/subtract triple -- exact for every ``q < 2**63`` (``2q``
    still fits the lane), so the fast and the double-word backend share it.
    ``s`` must be a kernel-owned temporary: the reduction happens in place
    (the correction term lives in scratch).
    """
    tmp = DISPATCH.scratch("reduce", s.shape)
    np.subtract(s, moduli_col, out=tmp)
    np.minimum(s, tmp, out=s)
    return s


def shoup_column(constants: np.ndarray, moduli_col: np.ndarray) -> np.ndarray:
    """Precompute ``floor(c * 2**32 / q)`` companions for fast constants."""
    return (constants << STACK_SHOUP_SHIFT) // moduli_col


# -- double-word kernel internals -------------------------------------------
#
# All helpers below take one uint64 word per residue and derive its 32-bit
# digits themselves, with per-row constants from :class:`_DWordTables`.
# Every supported modulus is below 2**62, so a residue -- and even a lazy
# ``[0, 4q)`` representative -- always fits the word.  A variable x
# variable product emulates the 64x64 -> 128-bit product with four 32-bit
# digit multiplications and reduces with the improved Barrett of Shivdikar
# et al. (quotient estimate off by at most two, so two branch-free min
# corrections) -- the one user of the exact high word :func:`_dword_mulhi`.
# A constant ``w`` with its companion ``w' = floor(w * 2**64 / q)`` needs
# only the three-product quotient of :func:`_dword_shoup_quotient`.

_M32 = np.uint64(0xFFFFFFFF)
_SH32 = np.uint64(32)


@dataclass(frozen=True)
class _DWordTables:
    """Per-basis constants of the dword backend (broadcast columns).

    With ``n = bitlen(q)`` and ``mu = floor(2**(2n) / q)`` (at most n+1
    bits, so a uint64 for every supported modulus), the improved Barrett
    quotient of a product ``x < q**2`` is
    ``q_est = (floor(x / 2**(n-1)) * mu) >> (n+1)`` -- within 2 of the true
    quotient, leaving a remainder in ``[0, 3q)`` that fits a lane for
    ``q < 2**62``.  ``r``, ``base`` and ``q_inv`` build Shoup companions
    (:func:`dword_shoup_column`); ``q_inv`` is 0 for an even modulus, which
    has none.
    """

    q: np.ndarray        # (L, 1) moduli
    q2: np.ndarray       # (L, 1) doubled moduli (lazy-representative bound)
    mu_hi: np.ndarray    # (L, 1) high/low 32-bit digits of mu
    mu_lo: np.ndarray
    s1: np.ndarray       # (L, 1) n-1   (t = x >> (n-1))
    s1c: np.ndarray      # (L, 1) 65-n  (complementary shift of the hi word)
    s2: np.ndarray       # (L, 1) n+1   (q_est = t*mu >> (n+1))
    s2c: np.ndarray      # (L, 1) 63-n
    r: np.ndarray        # (L, 1) 2**64 mod q
    base: np.ndarray     # (L, 1) floor(2**64 / q), the companion of 1
    q_inv: np.ndarray    # (L, 1) q**-1 mod 2**64


def _dword_tables(moduli_col: np.ndarray) -> _DWordTables:
    """Return the (cached) Barrett tables of a dword moduli column."""
    return _dword_tables_cached(
        tuple(int(q) for q in np.asarray(moduli_col).ravel())
    )


@lru_cache(maxsize=_TUPLE_CACHE_SIZE)
def _dword_tables_cached(moduli: tuple) -> _DWordTables:
    def column(values) -> np.ndarray:
        return read_only(np.array(values, dtype=np.uint64).reshape(-1, 1))

    qs = [int(q) for q in moduli]
    if max(qs) >= DWORD_MODULUS_LIMIT:
        raise ValueError(
            f"modulus {max(qs)} (>= 2**62) exceeds the double-word backend"
        )
    bits = [q.bit_length() for q in qs]
    mu = [(1 << (2 * n)) // q for q, n in zip(qs, bits)]
    return _DWordTables(
        q=column(qs),
        q2=column([2 * q for q in qs]),
        mu_hi=column([m >> 32 for m in mu]),
        mu_lo=column([m & 0xFFFFFFFF for m in mu]),
        s1=column([n - 1 for n in bits]),
        s1c=column([65 - n for n in bits]),
        s2=column([n + 1 for n in bits]),
        s2c=column([63 - n for n in bits]),
        r=column([WORD_BASE % q for q in qs]),
        base=column([WORD_BASE // q for q in qs]),
        q_inv=column([pow(q, -1, WORD_BASE) if q % 2 else 0 for q in qs]),
    )


def dword_shoup_column(constants: np.ndarray, moduli_col: np.ndarray) -> np.ndarray:
    """Precompute ``floor(c * 2**64 / q)`` companions of canonical constants.

    Word arithmetic only.  With ``r = 2**64 mod q``,
    ``c * 2**64 = c * floor(2**64 / q) * q + c * r``, so the companion is
    ``c * floor(2**64 / q) + floor(c * r / q)``; that last quotient is
    exact, hence ``(c*r - (c*r mod q)) * q**-1 mod 2**64`` with the
    remainder from the Barrett product.  The companion is below 2**64, so
    every wrap of the word products cancels.  Moduli must be odd.
    """
    dw = _dword_tables(moduli_col)
    if not np.all(dw.q & np.uint64(1)):
        raise ValueError("a 64-bit Shoup companion needs an odd modulus")
    c = np.asarray(constants, dtype=np.uint64)
    companion = c * dw.r - _dword_mul(c, dw.r, dw)
    companion *= dw.q_inv
    companion += c * dw.base
    return companion


def _dword_mulhi(a: np.ndarray, b_hi: np.ndarray, b_lo: np.ndarray) -> np.ndarray:
    """High 64 bits of ``a * b`` from the 32-bit digits of ``b``."""
    a_lo = a & _M32
    a_hi = a >> _SH32
    lh = a_lo * b_hi
    hl = a_hi * b_lo
    cross = ((a_lo * b_lo) >> _SH32) + (lh & _M32) + (hl & _M32)
    return a_hi * b_hi + (lh >> _SH32) + (hl >> _SH32) + (cross >> _SH32)


def _dword_barrett(p_hi: np.ndarray, p_lo: np.ndarray,
                   dw: _DWordTables) -> np.ndarray:
    """Reduce 128-bit products ``p_hi:p_lo < q**2`` to canonical residues."""
    t = (p_hi << dw.s1c) | (p_lo >> dw.s1)
    tm_lo = t * (dw.mu_lo | (dw.mu_hi << _SH32))
    tm_hi = _dword_mulhi(t, dw.mu_hi, dw.mu_lo)
    q_est = (tm_hi << dw.s2c) | (tm_lo >> dw.s2)
    r = p_lo - q_est * dw.q  # wraps mod 2**64; the true remainder is < 3q
    np.minimum(r, r - dw.q2, out=r)
    np.minimum(r, r - dw.q, out=r)
    return r


def _dword_mul(am: np.ndarray, bm: np.ndarray,
               dw: _DWordTables) -> np.ndarray:
    """Canonical ``(am * bm) mod q`` for canonical operands."""
    a_lo = am & _M32
    a_hi = am >> _SH32
    b_lo = bm & _M32
    b_hi = bm >> _SH32
    ll = a_lo * b_lo
    lh = a_lo * b_hi
    hl = a_hi * b_lo
    cross = (ll >> _SH32) + (lh & _M32) + (hl & _M32)
    p_lo = ((cross & _M32) << _SH32) | (ll & _M32)
    p_hi = a_hi * b_hi + (lh >> _SH32) + (hl >> _SH32) + (cross >> _SH32)
    return _dword_barrett(p_hi, p_lo, dw)


def _dword_shoup_quotient(x: np.ndarray, w_hi: np.ndarray, w_lo: np.ndarray,
                          out: np.ndarray, spare: np.ndarray) -> np.ndarray:
    """The three-product Shoup quotient of ``x * w`` from ``w'``'s 32-bit digits.

    ``out = x_hi*w'_hi + (x_hi*w'_lo >> 32) + (x_lo*w'_hi >> 32)`` drops
    the low-by-low product and the carries of the two cross products, so it
    is ``mulhi64(x, w')`` minus 0, 1 or 2 -- and ``mulhi64`` is at most one
    short of ``floor(x * w / q)``.  For any uint64 ``x``, ``x*w - out*q``
    therefore lies in ``[0, 4q)``, which fits the word for ``q < 2**62``.
    ``out`` and ``spare`` have the broadcast shape and alias no input.
    """
    np.right_shift(x, _SH32, out=spare)
    np.multiply(spare, w_lo, out=out)
    out >>= _SH32
    spare *= w_hi
    out += spare
    np.bitwise_and(x, _M32, out=spare)
    spare *= w_hi
    spare >>= _SH32
    out += spare
    return out


def _dword_fold(acc: np.ndarray, bound: int, target: int,
                moduli_col: np.ndarray, spare: np.ndarray) -> int:
    """Bring ``acc < bound*q`` below ``target*q`` in place; returns the new bound.

    One branch-free ``min(acc, acc - 2**j q)`` per halving (``acc - c``
    wraps above ``acc`` exactly when ``acc < c``); ``target`` is a power
    of two and ``bound * q`` at most 2**64.
    """
    while bound > target:
        step = (bound - 1).bit_length() - 1  # the largest 2**step < bound
        np.subtract(acc, moduli_col << np.uint64(step), out=spare)
        np.minimum(acc, spare, out=acc)
        bound = 1 << step
    return bound


def _dword_shoup_mul(
    am: np.ndarray,
    constants: np.ndarray,
    shoup: np.ndarray,
    dw: _DWordTables,
    *,
    lazy: bool = False,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """``(am * constants) mod q`` via 64-bit Shoup companions.

    ``am`` may be any uint64 value (lazy representatives included); the
    three-product quotient leaves the product in ``[0, 4q)`` -- returned
    as-is when ``lazy``, canonicalized by two minimums otherwise.  ``out``
    may alias ``am``.
    """
    shape = np.broadcast_shapes(np.shape(am), np.shape(shoup))
    est = _dword_shoup_quotient(
        am, shoup >> _SH32, shoup & _M32,
        DISPATCH.scratch("dword-est", shape),
        DISPATCH.scratch("dword-spare", shape),
    )
    est *= dw.q
    r = np.multiply(am, constants, out=out)  # both products wrap mod 2**64
    r -= est
    if not lazy:
        _dword_fold(r, 4, 1, dw.q, est)
    return r


def _dword_dot(terms, moduli_col: np.ndarray,
               out: np.ndarray | None = None) -> np.ndarray:
    """``(Σ x * y) mod q`` on the dword backend, reduced once.

    A term ``(x, y, w')`` -- ``y`` a constant with its 64-bit companion --
    is a three-product Shoup product left in ``[0, 4q)`` (any uint64 ``x``);
    a term ``(x, y)`` is a canonical Barrett product.  The terms are summed
    in the word while the sum provably stays below 2**64 -- counted in
    multiples of the widest modulus -- and folded (:func:`_dword_fold`) only
    before a term that could pass it: up to eight Shoup terms per fold at
    2**59, one near 2**62, where the term is also halved to ``[0, 2q)`` so
    that it fits next to the folded sum.
    """
    dw = _dword_tables(moduli_col)
    room = WORD_BASE // int(np.max(moduli_col))  # the sum stays < room * q
    shape = np.broadcast_shapes(
        *(np.broadcast_shapes(np.shape(x), np.shape(y)) for x, y, *_ in terms)
    )
    spare = DISPATCH.scratch("dot-spare", shape)
    acc, bound = out, 0  # acc < bound * q, row by row
    for x, y, *companion in terms:
        if companion:
            term = _dword_shoup_mul(
                x, y, companion[0], dw, lazy=True,
                out=DISPATCH.scratch("dot-term", shape) if bound else acc,
            )
            width = 4
        else:
            term = _dword_mul(x, y, dw)
            width = 1
        if not bound:
            if acc is None:
                acc = term
            elif term is not acc:
                acc[...] = term
            bound = width
            continue
        if bound + width > room:
            bound = _dword_fold(acc, bound, 1, moduli_col, spare)
            if bound + width > room:
                width = _dword_fold(term, width, 2, moduli_col, spare)
        acc += term
        bound += width
    _dword_fold(acc, bound, 1, moduli_col, spare)
    return acc


def _into(result: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    """Return ``result``, stored into the caller's ``out`` when one is given."""
    if out is None:
        return result
    out[...] = result
    return out


def stack_shoup_mul(
    a: np.ndarray,
    constants: np.ndarray,
    shoup: np.ndarray,
    moduli_col: np.ndarray,
    *,
    lazy: bool = False,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Elementwise ``(a * constants) mod q`` via Shoup multiplication.

    ``constants``/``shoup`` broadcast against ``a``; all inputs uint64 with
    residues below 2**31 (the operand ``a`` may be a lazy representative up
    to ``2q < 2**32``).  Replaces the hardware division of ``%`` with two
    multiplications and a shift -- the same trade the GPU butterflies make
    (Table III).  With ``lazy=True`` the result is left in ``[0, 2q)``,
    saving the correction passes when the caller reduces later anyway.
    ``out`` may alias ``a`` (the quotient is read out of ``a`` first).

    On the dword backend ``a`` may be any uint64 value, ``shoup`` holds
    the 64-bit companions (:func:`dword_shoup_column`) and a lazy result
    lies in ``[0, 4q)`` (:func:`_dword_shoup_quotient`).
    """
    if stack_is_dword(moduli_col):
        return _dword_shoup_mul(a, constants, shoup, _dword_tables(moduli_col),
                                lazy=lazy, out=out)
    shape = np.broadcast_shapes(a.shape, np.shape(shoup))
    quotient = DISPATCH.scratch("shoup-q", shape)
    np.multiply(a, shoup, out=quotient)
    quotient >>= STACK_SHOUP_SHIFT
    np.multiply(quotient, moduli_col, out=quotient)
    if out is None:
        r = a * constants
    else:
        np.multiply(a, constants, out=out)
        r = out
    r -= quotient
    if lazy:
        return r
    np.subtract(r, moduli_col, out=quotient)
    np.minimum(r, quotient, out=r)
    return r


def stack_add_mod(a: np.ndarray, b: np.ndarray, moduli_col: np.ndarray,
                  *, out: np.ndarray | None = None) -> np.ndarray:
    """Row-broadcast elementwise ``(a + b) mod q_i`` over a limb stack.

    ``out`` (which may alias ``a`` or ``b``) writes the result into an
    existing buffer -- the replay/fusion path's way of avoiding fresh
    allocations per kernel.
    """
    if moduli_col.dtype == np.object_:
        out = _into((a + b) % moduli_col, out)
    else:
        if out is None:
            s = a + b
        else:
            np.add(a, b, out=out)
            s = out
        out = _fast_reduce_once(s, moduli_col)
    if DISPATCH.recording:
        def replay(reads, writes, _col=moduli_col):
            stack_add_mod(reads[0], reads[1], _col, out=writes[0])
        DISPATCH.elementwise(
            "stack-add", reads=(a, b), writes=(out,),
            ops_per_element=_kernelforms.MODADD_OPS, replay=replay,
        )
    return out


def stack_sub_mod(a: np.ndarray, b: np.ndarray, moduli_col: np.ndarray,
                  *, out: np.ndarray | None = None) -> np.ndarray:
    """Row-broadcast elementwise ``(a - b) mod q_i`` over a limb stack."""
    if moduli_col.dtype == np.object_:
        out = _into((a - b) % moduli_col, out)
    else:
        if out is None:
            s = a + moduli_col
            s -= b
        else:
            # a - b first, then + q: safe when ``out`` aliases either
            # operand (uint64 wraparound makes the order immaterial).
            np.subtract(a, b, out=out)
            out += moduli_col
            s = out
        out = _fast_reduce_once(s, moduli_col)
    if DISPATCH.recording:
        def replay(reads, writes, _col=moduli_col):
            stack_sub_mod(reads[0], reads[1], _col, out=writes[0])
        DISPATCH.elementwise(
            "stack-sub", reads=(a, b), writes=(out,),
            ops_per_element=_kernelforms.MODADD_OPS, replay=replay,
        )
    return out


def stack_neg_mod(a: np.ndarray, moduli_col: np.ndarray,
                  *, out: np.ndarray | None = None) -> np.ndarray:
    """Row-broadcast elementwise ``(-a) mod q_i`` over a limb stack."""
    if moduli_col.dtype == np.object_:
        result = (-a) % moduli_col
    else:
        result = np.where(a == 0, a, moduli_col - a)
    out = _into(result, out)
    if DISPATCH.recording:
        def replay(reads, writes, _col=moduli_col):
            stack_neg_mod(reads[0], _col, out=writes[0])
        DISPATCH.elementwise("stack-neg", reads=(a,), writes=(out,),
                              ops_per_element=1.0, replay=replay)
    return out


def stack_mul_mod(a: np.ndarray, b: np.ndarray, moduli_col: np.ndarray,
                  *, out: np.ndarray | None = None) -> np.ndarray:
    """Row-broadcast elementwise ``(a * b) mod q_i`` over a limb stack.

    Exact on the fast backend because residues are below ``2**31``, so a
    product fits in a uint64 lane.  Both operands are variable, so the
    fast backend keeps a hardware division (Barrett-style constant tricks
    need a fixed operand) while the dword backend reduces the emulated
    128-bit product with improved Barrett.
    """
    backend = stack_backend(moduli_col)
    if backend == BACKEND_DWORD:
        out = _into(_dword_mul(a, b, _dword_tables(moduli_col)), out)
    elif backend == BACKEND_UINT64:
        if out is None:
            s = a * b
        else:
            np.multiply(a, b, out=out)
            s = out
        s %= moduli_col
        out = s
    else:
        out = _into((a * b) % moduli_col, out)
    if DISPATCH.recording:
        def replay(reads, writes, _col=moduli_col):
            stack_mul_mod(reads[0], reads[1], _col, out=writes[0])
        DISPATCH.elementwise(
            "stack-mul", reads=(a, b), writes=(out,),
            ops_per_element=_kernelforms.MODMUL_OPS, replay=replay,
        )
    return out


def stack_dot_mod(pairs, moduli_col: np.ndarray,
                  *, out: np.ndarray | None = None) -> np.ndarray:
    """Fused ``(Σ x_i * y_i) mod q`` over canonical stacks (§III-F.5).

    The dot-product fusion of the paper's key-switching inner loop: on the
    fast backend raw uint64 products are accumulated and reduced once per
    four terms -- ``4·(q-1)² < 2**64`` for ``q < 2**31``, so the wide
    accumulator cannot overflow -- instead of reducing after every
    multiply-add.

    A pair may carry a third element, the 64-bit Shoup companion of a
    constant ``y_i`` (:func:`dword_shoup_column` -- a switching key's, say):
    the dword backend then sums lazy three-product Shoup terms instead of
    Barrett products (:func:`_dword_dot`).  The other backends ignore it,
    and the recorded kernel reads and prices the products alone.
    """
    operands = [tuple(pair) for pair in pairs]
    pairs = [operand[:2] for operand in operands]
    if not pairs:
        raise ValueError("stack_dot_mod needs at least one product")
    backend = stack_backend(moduli_col)
    if backend == BACKEND_UINT64:
        acc = None
        product = None
        pending = 0
        for x, y in pairs:
            if acc is None:
                if out is None:
                    acc = x * y  # fresh: this array is the returned result
                else:
                    np.multiply(x, y, out=out)
                    acc = out
            else:
                if product is None:
                    product = DISPATCH.scratch("dot-prod", acc.shape)
                np.multiply(x, y, out=product)
                acc += product
            pending += 1
            if pending == 4:
                acc %= moduli_col
                pending = 0
        acc %= moduli_col
    elif backend == BACKEND_DWORD:
        acc = _dword_dot(operands, moduli_col, out)
    else:
        acc = None
        for x, y in pairs:
            product = (x * y) % moduli_col
            acc = product if acc is None else (acc + product) % moduli_col
        acc = _into(acc, out)
    if DISPATCH.recording:
        def replay(reads, writes, _col=moduli_col):
            stack_dot_mod(
                list(zip(reads[0::2], reads[1::2])), _col, out=writes[0]
            )
        mul_add = _kernelforms.MODMUL_OPS + _kernelforms.MODADD_OPS
        # Unfused, the sum is one reduced product plus a reduced
        # multiply-accumulate launch per further pair, every partial sum a
        # global-memory round trip.  (The tags are the key switch's, whose
        # inner product is the dot product that expands.)
        unfused = () if len(pairs) == 1 else (
            ("ks-mul", _kernelforms.MODMUL_OPS, ((0, 0), (0, 1)), (0,)),
            *(("ks-mul-add", mul_add, ((1, 0), (0, 2 * j), (0, 2 * j + 1)), (0,))
              for j in range(1, len(pairs))),
        )
        DISPATCH.elementwise(
            "stack-dot",
            reads=tuple(operand for pair in pairs for operand in pair),
            writes=(acc,),
            ops_per_element=len(pairs) * mul_add,
            replay=replay,
            unfused=unfused,
        )
    return acc


def stack_scalar_mod(a: np.ndarray, scalars, moduli_col: np.ndarray,
                     *, out: np.ndarray | None = None) -> np.ndarray:
    """Multiply every row by its own integer constant modulo its prime.

    ``out`` (which may alias ``a``) lets owners of the input reuse its
    storage -- e.g. the stacked iNTT's fused ``N^{-1}`` scaling writes
    straight into the transform's working buffer.
    """
    col = scalar_column(scalars, moduli_col)
    backend = stack_backend(moduli_col)
    if backend == BACKEND_UINT64:
        out = stack_shoup_mul(a, col, shoup_column(col, moduli_col), moduli_col,
                              out=out)
    elif backend == BACKEND_DWORD:
        out = stack_shoup_mul(a, col, _dword_scalar_shoup(scalars, moduli_col),
                              moduli_col, out=out)
    else:
        out = _into((a * col) % moduli_col, out)
    if DISPATCH.recording:
        frozen = tuple(int(s) for s in scalars)
        def replay(reads, writes, _scalars=frozen, _col=moduli_col):
            stack_scalar_mod(reads[0], _scalars, _col, out=writes[0])
        DISPATCH.elementwise(
            "stack-scalar-mul", reads=(a, col), writes=(out,),
            ops_per_element=_kernelforms.SHOUP_MUL_OPS, replay=replay,
        )
    return out


def head_fold(scalars, moduli_col: np.ndarray):
    """The ``c_i · (head_i − x_i)`` tail of rescale and ModDown, as a kernel.

    Returns ``fold(reads, writes)``: ``reads[0]`` holds the switched (or
    base-converted) rows ``x`` of every member, ``reads[1:]`` one block of
    head limbs per member over ``moduli_col``, and the result lands in
    ``writes[0]`` -- in place when that is ``reads[0]``, as it is wherever
    the fold is fused into the NTT that produced ``x`` (§III-F.5).
    """
    def fold(reads, writes):
        gather_rows(reads[:1], writes[0])
        row = 0
        for head in reads[1:]:
            seg = writes[0][row : row + len(head)]
            row += len(head)
            stack_sub_mod(coerce_stack(head, moduli_col), seg, moduli_col, out=seg)
            stack_scalar_mod(seg, scalars, moduli_col, out=seg)

    return fold


def head_addend_fold(scalars, addend_scalars, moduli_col: np.ndarray):
    """The ``c_i·(head_i − x_i) + e_i·addend_i`` tail of the merged
    ModDown-rescale, as a kernel: :func:`head_fold` with one more term.

    ``reads[1:]`` alternate a member's head block and its addend block;
    the scaled difference and the scaled addend are one
    :func:`stack_dot_mod`, reduced once.
    """
    terms = [scalar_column(s, moduli_col) for s in (scalars, addend_scalars)]
    companions = [()] * 2
    if stack_backend(moduli_col) == BACKEND_DWORD:
        companions = [(_dword_scalar_shoup(s, moduli_col),)
                      for s in (scalars, addend_scalars)]

    def fold(reads, writes):
        gather_rows(reads[:1], writes[0])
        row = 0
        for head, addend in zip(reads[1::2], reads[2::2]):
            seg = writes[0][row : row + len(head)]
            row += len(head)
            stack_sub_mod(coerce_stack(head, moduli_col), seg, moduli_col, out=seg)
            stack_dot_mod([
                (seg, terms[0], *companions[0]),
                (coerce_stack(addend, moduli_col), terms[1], *companions[1]),
            ], moduli_col, out=seg)

    return fold


def _dword_scalar_shoup(scalars, moduli_col: np.ndarray) -> np.ndarray:
    """Cached 64-bit Shoup companions of a per-row scalar column."""
    return _dword_scalar_shoup_cached(
        tuple(int(s) for s in scalars),
        tuple(int(q) for q in np.asarray(moduli_col).ravel()),
    )


@lru_cache(maxsize=512)
def _dword_scalar_shoup_cached(scalars: tuple, moduli: tuple) -> np.ndarray:
    col = moduli_column(moduli)
    return read_only(dword_shoup_column(scalar_column(scalars, col), col))


def stack_add_scalar_mod(a: np.ndarray, scalars, moduli_col: np.ndarray,
                         *, out: np.ndarray | None = None) -> np.ndarray:
    """Add one integer constant per row (broadcast to every element)."""
    col = scalar_column(scalars, moduli_col)
    if moduli_col.dtype == np.object_:
        out = _into((a + col) % moduli_col, out)
    else:
        if out is None:
            s = a + col
        else:
            np.add(a, col, out=out)
            s = out
        out = _fast_reduce_once(s, moduli_col)
    if DISPATCH.recording:
        frozen = tuple(int(s) for s in scalars)
        def replay(reads, writes, _scalars=frozen, _col=moduli_col):
            stack_add_scalar_mod(reads[0], _scalars, _col, out=writes[0])
        DISPATCH.elementwise(
            "stack-scalar-add", reads=(a, col), writes=(out,),
            ops_per_element=_kernelforms.MODADD_OPS, replay=replay,
        )
    return out


def stack_automorphism(stacks, index: np.ndarray, sign: np.ndarray | None,
                       moduli_col: np.ndarray) -> list[np.ndarray]:
    """Apply one Galois map ``X -> X^k`` to every row of same-basis stacks.

    Evaluation format (``sign is None``): ``index`` is
    :func:`repro.core.automorphism.eval_automorphism_map` and the map is a
    pure permutation of the evaluation points -- one gather, any dtype.
    Coefficient format: ``(index, sign)`` is
    :func:`~repro.core.automorphism.coeff_automorphism_map` -- the gather
    plus one sign-fix expression.  All ``stacks`` go through one launch,
    the batched form of the GPU ``Automorph`` kernel.
    """
    def permute(a: np.ndarray) -> np.ndarray:
        gathered = np.take(a, index, axis=-1)
        if sign is None:
            return gathered
        return np.where(sign == 1, gathered, stack_neg_mod(gathered, moduli_col))

    with DISPATCH.suppressed():
        outs = [permute(a) for a in stacks]
    if DISPATCH.recording:
        def replay(reads, writes):
            for a, out in zip(reads, writes):
                out[...] = permute(a)
        DISPATCH.elementwise(
            "automorph", reads=tuple(stacks), writes=tuple(outs),
            ops_per_element=2.0 * len(outs), replay=replay, kind="gather",
        )
    return outs


def stack_switch_modulus_many(rows: np.ndarray, q_from: int,
                              moduli_col: np.ndarray,
                              *, out: np.ndarray | None = None) -> np.ndarray:
    """Re-reduce ``P`` residue rows (mod ``q_from``) into every stack modulus.

    Residues are interpreted in the centred interval
    ``(-q_from/2, q_from/2]`` -- the convention base conversion and
    mod-raise need to keep the underlying signed value intact -- and the
    signed values go through :func:`lift_residues` against all ``keep``
    target moduli at once.  ``rows`` is a ``(P, N)`` stack; the result
    stacks each row's switch contiguously -- ``(P*keep, N)`` with row block
    ``p`` covering ``rows[p]`` -- the layout the batched rescale tail
    consumes directly.  Centred magnitudes are at most ``q_from/2``, so
    int64 is exact for every ``q_from`` below 2**62.
    """
    rows = np.asarray(rows)
    half = q_from >> 1
    keep = int(moduli_col.size)
    signed = rows.astype(np.int64) if q_from < DWORD_MODULUS_LIMIT else object_row(rows)
    centred = np.where(signed > half, signed - q_from, signed)
    switched = lift_residues(
        centred[:, None, :], moduli_col.reshape(1, keep, 1),
        out=None if out is None else out.reshape(rows.shape[0], keep, -1),
    )
    return switched.reshape(rows.shape[0] * keep, -1)


__all__ = [
    "FAST_MODULUS_LIMIT",
    "DWORD_MODULUS_LIMIT",
    "pow_mod",
    "inv_mod",
    "is_fast_modulus",
    "as_residue_array",
    "backend_for_moduli",
    "BACKEND_UINT64",
    "BACKEND_DWORD",
    "BACKEND_OBJECT",
    "moduli_column",
    "read_only",
    "stack_backend",
    "stack_is_dword",
    "dword_shoup_column",
    "object_row",
    "coerce_stack",
    "lift_residues",
    "rint_integers",
    "stack_zeros",
    "stack_take",
    "scalar_column",
    "STACK_SHOUP_SHIFT",
    "shoup_column",
    "stack_shoup_mul",
    "stack_add_mod",
    "stack_sub_mod",
    "stack_neg_mod",
    "stack_mul_mod",
    "stack_dot_mod",
    "stack_scalar_mod",
    "head_fold",
    "head_addend_fold",
    "stack_add_scalar_mod",
    "stack_automorphism",
    "stack_switch_modulus_many",
]
