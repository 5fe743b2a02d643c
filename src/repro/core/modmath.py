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
the library's only modular arithmetic on residues.  There are two paths:

* **word**: a residue below 2**62 is one ``uint64`` word of an ``(L, N)``
  stack, whatever its modulus.  Every product -- variable x variable,
  per-row constant, fused dot product -- is one call of the compiled word
  kernel's ``dot`` (``word_kernel.c``, built on first use,
  :func:`word_kernel`), which picks per row, from its operands' bounds, a
  64-bit accumulator with one Barrett reduction or a 128-bit one folded by
  a Shoup and a Barrett step; every sum, difference and negation is one
  call of its ``add``.  A row whose modulus and ``x`` bound are below
  2**31 runs ``dot`` eight products to an AVX-512 register, and every row
  runs ``add`` so, when the CPU has AVX-512F and the operands are
  contiguous or broadcast; either way the result is the canonical
  residue.  The NTT of :mod:`repro.core.ntt` is the same kernel's third
  entry point.
* **exact**: Python integers (``dtype=object``), the oracle every word
  result is tested against and the path for moduli at or above 2**62.

The backend names ``uint64`` (every modulus below 2**31), ``dword``
(below 2**62) and ``object`` (:func:`stack_backend`) name the width of a
chain's moduli; the first two share the word path.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import struct
import subprocess
import tempfile
from functools import lru_cache
from pathlib import Path

import numpy as np

from repro.core.dispatch import DISPATCH, gather_rows
from repro.gpu import kernel as _kernelforms

#: The ``uint64`` backend's bound: every modulus below 2**31, so a product
#: of two residues fits one 64-bit word.
FAST_MODULUS_LIMIT = 1 << 31

#: Largest modulus of the word path.  The kernel's remainders before their
#: last correction lie in ``[0, 4q)`` -- the NTT's lazy representatives and
#: the 128-bit fold alike -- which fits a uint64 word exactly when
#: ``q < 2**62`` (the same 62-bit cap word-sized RNS libraries impose).
#: Paper-class 59/60-bit primes are comfortably inside.
DWORD_MODULUS_LIMIT = 1 << 62

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
# Batched limb-stack routines
# ---------------------------------------------------------------------------
#
# The kernels below operate on a flat ``(num_limbs, N)`` residue stack -- the
# flattened allocation strategy of §III-D -- with the per-limb moduli held in
# an ``(L, 1)`` column that NumPy broadcasts across every row.  One call
# replaces a Python loop over per-limb vector routines, which is the batching
# the paper's §III-F kernels perform across limbs on the GPU.  The path is
# chosen per moduli column: one ``uint64`` word per residue below
# :data:`DWORD_MODULUS_LIMIT`, exact Python integers in an object array
# beyond that.

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

    ``uint64`` when every modulus is below 2**31, ``dword`` when every
    modulus is below 2**62 (both one word per residue, one kernel),
    ``object`` (exact Python integers) otherwise.  The backend is a pure
    function of the modulus values, so any sub-basis of a chain classifies
    consistently.
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


# -- the word kernel ---------------------------------------------------------
#
# One C source holds every modular operation on word residues: ``dot``
# (products, per-row constants and fused dot products) and ``add`` (sums,
# differences, negations) here, and the NTT that :mod:`repro.core.ntt`
# calls.  It is built on first use with the system C
# compiler and called through :mod:`ctypes`.

#: The C compiler that builds the kernel, looked up on ``PATH``.
_COMPILER = "cc"
_COMPILE_FLAGS = ("-O3", "-shared", "-fPIC")
_SOURCE = Path(__file__).with_name("word_kernel.c")


@lru_cache(maxsize=1)
def word_kernel() -> ctypes.CDLL:
    """The compiled :data:`_SOURCE`, built on first use into ``__pycache__``.

    The file is named by a hash of the source and the compile command, so
    an edit builds a new one.  A build writes a temporary name and renames
    it, so processes racing the first build end with the same file.
    ``ctypes.CDLL`` releases the GIL for each call, and the kernel keeps no
    static state, so threads may call it at once.
    """
    command = (_COMPILER, *_COMPILE_FLAGS)
    digest = hashlib.sha256(_SOURCE.read_bytes() + " ".join(command).encode())
    cache = _SOURCE.parent / "__pycache__"
    path = cache / f"{_SOURCE.stem}-{digest.hexdigest()[:16]}.so"
    if not path.exists():
        if shutil.which(_COMPILER) is None:
            raise RuntimeError(
                f"the word kernel is built with the C compiler {_COMPILER!r}, "
                "which was not found"
            )
        cache.mkdir(exist_ok=True)
        handle, temporary = tempfile.mkstemp(suffix=".so", dir=cache)
        os.close(handle)
        try:
            build = subprocess.run([*command, "-o", temporary, str(_SOURCE)],
                                   capture_output=True, text=True)
            if build.returncode:
                raise RuntimeError(
                    f"{_COMPILER!r} could not build {_SOURCE.name}:\n{build.stderr}"
                )
            os.replace(temporary, path)
        finally:
            if os.path.exists(temporary):
                os.unlink(temporary)
    library = ctypes.CDLL(str(path))
    size, word, address = ctypes.c_size_t, ctypes.c_uint64, ctypes.c_void_p
    for entry in (library.dot, library.add):
        entry.argtypes = (size, size, size, word, address)
        entry.restype = ctypes.c_int
    library.shoup_companions.argtypes = (address, size, word)
    library.shoup_companions.restype = None
    library.ntt.argtypes = (address, size, size, address, address, ctypes.c_int)
    library.ntt.restype = None
    return library


def _view(a: np.ndarray, rows: int, cols: int) -> list[int]:
    """``(address, row stride, column stride)`` of a uint64 operand broadcast
    to ``(rows, cols)``: strides in elements, 0 along a broadcast axis."""
    shape, strides = a.shape, a.strides
    if len(shape) == 1:
        shape, strides = (1, *shape), (0, *strides)
    if len(shape) != 2 or shape[0] not in (1, rows) or shape[1] not in (1, cols):
        raise ValueError(f"operand of shape {a.shape} does not broadcast to "
                         f"({rows}, {cols})")
    return [a.ctypes.data,
            strides[0] // 8 if shape[0] != 1 else 0,
            strides[1] // 8 if shape[1] != 1 else 0]


def _word_call(entry: str, terms, arg: int, moduli_col: np.ndarray,
               out: np.ndarray | None) -> np.ndarray:
    """One call of the kernel's ``dot`` or ``add`` over word residues.

    ``dot`` sums the products of ``(x, y)`` pairs, ``x`` below ``arg`` (its
    bound; canonical when 0); ``add`` sums ``(x,)`` terms, subtracting term
    ``t`` when bit ``t`` of ``arg`` is set.  Operands are uint64 stacks,
    ``(1, N)`` rows or ``(L, 1)`` columns, read in place through their
    strides.  ``out`` may be one of the operands; an operand that overlaps
    it otherwise is copied first.
    """
    operands = [
        a if a.dtype == np.uint64 else np.asarray(a, dtype=np.uint64)
        for term in terms for a in term
    ]
    if out is None:
        rows = max(a.shape[0] if a.ndim == 2 else 1 for a in (moduli_col, *operands))
        out = np.empty((rows, max(a.shape[-1] for a in operands)), dtype=np.uint64)
    elif out.dtype != np.uint64 or out.ndim != 2 or not out.flags.writeable:
        return _into(_word_call(entry, terms, arg, moduli_col, None), out)
    rows, cols = out.shape
    table = _view(out, rows, cols) + _view(moduli_col, rows, 1)
    for a in operands:
        table += _view(a, rows, cols)
    # Packed into bytes, which ctypes passes by address.
    table = struct.pack(f"{len(table)}q", *table)
    if getattr(word_kernel(), entry)(rows, cols, len(terms), arg, table):
        # ``out`` overlaps an operand without being it: read copies.
        copies = iter(np.array(a) if np.may_share_memory(a, out) else a for a in operands)
        terms = [tuple(next(copies) for _ in term) for term in terms]
        return _word_call(entry, terms, arg, moduli_col, out)
    return out


def matrix_dot_mod(matrix: np.ndarray, stack: np.ndarray, moduli_col: np.ndarray,
                   *, out: np.ndarray, bound: int | None = None) -> np.ndarray:
    """``(matrix @ stack) mod q`` on word residues, unrecorded: row ``k`` of
    ``out`` is ``Σ_t matrix[k, t]·stack[t] mod q_k``.

    Equation 1's accumulation (base conversion records its own launch):
    the :func:`stack_dot_mod` of the pairs ``(stack[t], matrix[:, t])``,
    whose descriptor table is computed from the two views at once instead
    of operand by operand.  ``stack`` is a uint64 ``(terms, N)`` stack
    below ``bound`` (canonical when None), ``matrix`` a canonical uint64
    ``(rows, terms)`` table and ``out`` a uint64 ``(rows, N)`` view that
    overlaps neither.
    """
    rows, cols = out.shape
    terms = len(stack)
    index = np.arange(terms)
    table = np.zeros((2 + 2 * terms, 3), dtype=np.int64)
    table[0] = _view(out, rows, cols)
    table[1] = _view(moduli_col, rows, 1)
    # Term t: row t of the stack on every output row, column t of the
    # matrix as a per-row constant.
    table[2::2, 0] = stack.ctypes.data + index * stack.strides[0]
    table[2::2, 2] = stack.strides[1] // 8
    table[3::2, 0] = matrix.ctypes.data + index * matrix.strides[1]
    table[3::2, 1] = matrix.strides[0] // 8
    if word_kernel().dot(rows, cols, terms, bound or 0, table.ctypes.data):
        raise ValueError("matrix_dot_mod: out overlaps an operand")
    return out


def _into(result: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    """Return ``result``, stored into the caller's ``out`` when one is given."""
    if out is None:
        return result
    out[...] = result
    return out


def stack_add_mod(a: np.ndarray, b: np.ndarray, moduli_col: np.ndarray,
                  *, out: np.ndarray | None = None) -> np.ndarray:
    """Row-broadcast elementwise ``(a + b) mod q_i`` over a limb stack.

    One call of the word kernel's ``add`` for every modulus below 2**62
    (as are :func:`stack_sub_mod`, :func:`stack_neg_mod` and
    :func:`stack_add_scalar_mod`); exact Python integers above.  ``out``
    (which may alias ``a`` or ``b``) writes the result into an existing
    buffer -- the replay/fusion path's way of avoiding fresh allocations
    per kernel.
    """
    if moduli_col.dtype == np.object_:
        out = _into((a + b) % moduli_col, out)
    else:
        out = _word_call("add", [(a,), (b,)], 0, moduli_col, out)
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
    """Row-broadcast elementwise ``(a - b) mod q_i`` over a limb stack: the
    kernel's ``add`` with ``b`` subtracted.  ``out`` may alias either
    operand."""
    if moduli_col.dtype == np.object_:
        out = _into((a - b) % moduli_col, out)
    else:
        out = _word_call("add", [(a,), (b,)], 0b10, moduli_col, out)
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
    """Row-broadcast elementwise ``(-a) mod q_i`` over a limb stack: the
    kernel's ``add`` of ``a`` alone, subtracted."""
    if moduli_col.dtype == np.object_:
        out = _into((-a) % moduli_col, out)
    else:
        out = _word_call("add", [(a,)], 0b1, moduli_col, out)
    if DISPATCH.recording:
        def replay(reads, writes, _col=moduli_col):
            stack_neg_mod(reads[0], _col, out=writes[0])
        DISPATCH.elementwise("stack-neg", reads=(a,), writes=(out,),
                              ops_per_element=1.0, replay=replay)
    return out


def stack_mul_mod(a: np.ndarray, b: np.ndarray, moduli_col: np.ndarray,
                  *, out: np.ndarray | None = None) -> np.ndarray:
    """Row-broadcast elementwise ``(a * b) mod q_i`` over a limb stack.

    One call of the word kernel (a one-term :func:`stack_dot_mod`) for
    every modulus below 2**62; exact Python integers above.
    """
    if moduli_col.dtype == np.object_:
        out = _into((a * b) % moduli_col, out)
    else:
        out = _word_call("dot", [(a, b)], 0, moduli_col, out)
    if DISPATCH.recording:
        def replay(reads, writes, _col=moduli_col):
            stack_mul_mod(reads[0], reads[1], _col, out=writes[0])
        DISPATCH.elementwise(
            "stack-mul", reads=(a, b), writes=(out,),
            ops_per_element=_kernelforms.MODMUL_OPS, replay=replay,
        )
    return out


def stack_dot_mod(pairs, moduli_col: np.ndarray,
                  *, out: np.ndarray | None = None,
                  bound: int | None = None) -> np.ndarray:
    """Fused ``(Σ x_i * y_i) mod q`` over canonical stacks (§III-F.3, F.5).

    The dot-product fusion of the paper's key-switching inner loop, on
    its wide accumulator: one word-kernel call sums the raw products and
    reduces once per output element -- in a 64-bit word while the products
    fit one, in a 128-bit word otherwise, folding only before the sum could
    pass it -- instead of reducing after every multiply-add.  ``y_i`` is
    canonical and may be an ``(L, 1)`` column of per-row constants; ``x_i``
    may be a ``(1, N)`` row, and is below ``bound`` when one is given (base
    conversion's source residues over a narrower target), canonical
    otherwise.  ``out`` may alias an operand.
    """
    pairs = [tuple(pair) for pair in pairs]
    if not pairs:
        raise ValueError("stack_dot_mod needs at least one product")
    if moduli_col.dtype == np.object_:
        acc = None
        for x, y in pairs:
            product = (x * y) % moduli_col
            acc = product if acc is None else (acc + product) % moduli_col
        acc = _into(acc, out)
    else:
        acc = _word_call("dot", pairs, bound or 0, moduli_col, out)
    if DISPATCH.recording:
        def replay(reads, writes, _col=moduli_col, _bound=bound):
            stack_dot_mod(
                list(zip(reads[0::2], reads[1::2])), _col, out=writes[0],
                bound=_bound,
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
    if moduli_col.dtype == np.object_:
        out = _into((a * col) % moduli_col, out)
    else:
        out = _word_call("dot", [(a, col)], 0, moduli_col, out)
    if DISPATCH.recording:
        frozen = tuple(int(s) for s in scalars)
        def replay(reads, writes, _scalars=frozen, _col=moduli_col):
            stack_scalar_mod(reads[0], _scalars, _col, out=writes[0])
        DISPATCH.elementwise(
            "stack-scalar-mul", reads=(a, col), writes=(out,),
            ops_per_element=_kernelforms.SHOUP_MUL_OPS, replay=replay,
        )
    return out


def head_fold(scalars, moduli_col: np.ndarray, addend_scalars=None):
    """The ``c_i·(head_i − x_i) [+ e_i·addend_i]`` tail of rescale and
    ModDown (the merged ModDown-rescale's with ``addend_scalars``), as a
    kernel.

    Returns ``fold(reads, writes)``: ``reads[0]`` holds the switched (or
    base-converted) rows ``x`` of every member, ``reads[1:]`` one block of
    head limbs per member over ``moduli_col`` -- alternating with the
    member's addend block when there are addends -- and the result lands in
    ``writes[0]`` -- in place when that is ``reads[0]``, as it is wherever
    the fold is fused into the NTT that produced ``x`` (§III-F.5).  Each
    block is one :func:`stack_dot_mod` over ``(head, c)``, ``(x, q − c)``
    and ``(addend, e)``, reduced once: ``q − c`` is congruent to ``−c``, so
    the canonical result is the one the subtract-then-scale gives.
    """
    c = scalar_column(scalars, moduli_col)
    columns = [c, (moduli_col - c) % moduli_col]
    if addend_scalars is not None:
        columns.append(scalar_column(addend_scalars, moduli_col))
    stride = len(columns) - 1

    def fold(reads, writes):
        gather_rows(reads[:1], writes[0])
        row = 0
        for k in range(1, len(reads), stride):
            head = reads[k]
            seg = writes[0][row : row + len(head)]
            row += len(head)
            blocks = [coerce_stack(head, moduli_col), seg,
                      *(coerce_stack(b, moduli_col) for b in reads[k + 1 : k + stride])]
            stack_dot_mod(list(zip(blocks, columns)), moduli_col, out=seg)

    return fold


def stack_add_scalar_mod(a: np.ndarray, scalars, moduli_col: np.ndarray,
                         *, out: np.ndarray | None = None) -> np.ndarray:
    """Add one integer constant per row (broadcast to every element): the
    kernel's ``add`` of ``a`` and the ``(L, 1)`` column of constants."""
    col = scalar_column(scalars, moduli_col)
    if moduli_col.dtype == np.object_:
        out = _into((a + col) % moduli_col, out)
    else:
        out = _word_call("add", [(a,), (col,)], 0, moduli_col, out)
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
    "backend_for_moduli",
    "BACKEND_UINT64",
    "BACKEND_DWORD",
    "BACKEND_OBJECT",
    "moduli_column",
    "read_only",
    "word_kernel",
    "stack_backend",
    "object_row",
    "coerce_stack",
    "lift_residues",
    "rint_integers",
    "stack_zeros",
    "stack_take",
    "scalar_column",
    "stack_add_mod",
    "stack_sub_mod",
    "stack_neg_mod",
    "stack_mul_mod",
    "stack_dot_mod",
    "matrix_dot_mod",
    "stack_scalar_mod",
    "head_fold",
    "stack_add_scalar_mod",
    "stack_automorphism",
    "stack_switch_modulus_many",
]
