"""Chebyshev-series evaluation for ApproxModEval.

Bootstrapping approximates the modular-reduction step with a scaled cosine
(Han-Ki [37], Bossuat et al. [43]): a Chebyshev interpolant of
``cos(2πy)`` on ``[-1, 1]`` is evaluated homomorphically and followed by
``r`` double-angle iterations that extend the effective range to
``[-2^r, 2^r]``.

:func:`evaluate_chebyshev` is the Baby-Step Giant-Step +
Paterson-Stockmeyer strategy of FIDESlib/OpenFHE (``~2*sqrt(d)``
ciphertext products).  It first splits the series by the giant steps
``T_k, T_{2k}, ...`` (``k ≈ sqrt(d)``) into blocks of degree below ``k``,
then builds only the ``T_i`` those blocks read (a lazy basis: the even
cosine never builds ``T_5`` or ``T_7``).  Each block is one weighted sum
whose integer weights absorb every ``T_i``'s scale, and one rescale
(the scale-invariant evaluation of Bossuat et al., Eurocrypt 2021), so no
term is rescaled or realigned on its own.  A degree-``d`` series costs
at most ``ceil(log2(d + 1)) + 1`` levels, the ``chebyshev_depth`` that
:class:`~repro.perf.workloads.BootstrapWorkload` prices.
"""

from __future__ import annotations

import math

import numpy as np

from repro.ckks.ciphertext import Ciphertext
from repro.ckks.evaluator import Evaluator


def chebyshev_coefficients(function, degree: int) -> np.ndarray:
    """Return Chebyshev interpolation coefficients of ``function`` on ``[-1, 1]``.

    Uses the Chebyshev-Gauss nodes; ``coefficients[k]`` multiplies
    ``T_k(x)`` with the usual halved ``c_0`` convention already applied, so
    ``f(x) ≈ Σ_k coefficients[k] * T_k(x)``.
    """
    if degree < 0:
        raise ValueError("degree must be non-negative")
    count = degree + 1
    nodes = np.cos(np.pi * (np.arange(count) + 0.5) / count)
    values = np.array([function(x) for x in nodes], dtype=np.float64)
    coefficients = np.zeros(count, dtype=np.float64)
    for k in range(count):
        coefficients[k] = (2.0 / count) * np.sum(
            values * np.cos(k * np.pi * (np.arange(count) + 0.5) / count)
        )
    coefficients[0] *= 0.5
    return coefficients


def chebyshev_divide(coefficients: np.ndarray, divisor_degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Divide a Chebyshev-basis polynomial by ``T_n`` (long division).

    Returns ``(quotient, remainder)`` with
    ``f = quotient * T_n + remainder`` and ``deg(remainder) < n``, using the
    product rule ``T_a * T_b = (T_{a+b} + T_{|a-b|}) / 2``.  This is the
    ``LongDivisionChebyshev`` step of the Paterson-Stockmeyer algorithm.
    """
    n = divisor_degree
    f = np.array(coefficients, dtype=np.float64)
    degree = len(f) - 1
    if degree < n:
        return np.zeros(1), f
    quotient = np.zeros(degree - n + 1, dtype=np.float64)
    for i in range(degree, n - 1, -1):
        coeff = f[i]
        if coeff == 0.0:
            continue
        j = i - n
        if j == 0:
            quotient[0] += coeff
            f[i] -= coeff
        else:
            quotient[j] += 2.0 * coeff
            f[i] -= coeff
            f[abs(i - 2 * n)] -= coeff
    remainder = f[:n]
    return quotient, remainder


def _split(block: np.ndarray, k: int, budget: int, read: set[int]):
    """The Paterson-Stockmeyer split of ``block`` down to degrees below ``k``.

    Returns ``None`` when nothing of ``block`` is kept, a leaf
    ``{i: c_i}`` of the kept terms (``0`` the constant), or
    ``(half, quotient, remainder)`` with ``block = quotient·T_half +
    remainder``, ``half = k·2^(budget-1)``.  Adds each ``i > 0`` a leaf
    keeps to ``read``.
    """
    block = np.trim_zeros(np.asarray(block, dtype=np.float64), trim="b")
    if len(block) == 0:
        return None
    if len(block) - 1 < k:
        terms = {i: float(c) for i, c in enumerate(block) if i and abs(c) >= 1e-12}
        read.update(terms)
        if abs(block[0]) > 1e-12:
            terms[0] = float(block[0])
        return terms or None
    half = k << (budget - 1)
    quotient, remainder = chebyshev_divide(block, half)
    return (half, _split(quotient, k, budget - 1, read),
            _split(remainder, k, budget - 1, read))


def _chebyshev_basis(evaluator: Evaluator, ct: Ciphertext,
                     indices) -> dict[int, Ciphertext]:
    """Ciphertexts of ``T_1`` and of ``T_i`` at ``ct`` for every ``i`` in
    ``indices``, plus whatever their recurrences read.

    ``T_{2m} = 2·T_m² − 1`` and ``T_{2m+1} = 2·T_m·T_{m+1} − T_1`` give
    ``T_i`` depth ``ceil(log2(i))``.
    """
    basis: dict[int, Ciphertext] = {1: ct}

    def build(i: int) -> Ciphertext:
        if i not in basis:
            if i % 2 == 0:
                basis[i] = _double(evaluator, build(i // 2))
            else:
                product = evaluator.multiply(build(i // 2), build(i // 2 + 1))
                basis[i] = evaluator.sub(evaluator.multiply_scalar_int(product, 2), ct)
        return basis[i]

    for i in sorted(indices):
        build(i)
    return basis


def evaluate_chebyshev(evaluator: Evaluator, ct: Ciphertext,
                       coefficients: np.ndarray) -> Ciphertext:
    """BSGS + Paterson-Stockmeyer evaluation of a Chebyshev series.

    The series is split with :func:`chebyshev_divide` by the giant steps
    ``T_k, T_{2k}, T_{4k}, ...`` (``k ≈ sqrt(d)``) into blocks of degree
    below ``k``, so only ``O(sqrt(d) + log d)`` ciphertext multiplications
    are needed instead of ``O(d)`` -- the optimisation FIDESlib adopts from
    [39]/[37] for ApproxModEval.  Only the ``T_i`` a block reads and the
    giant steps are built; each block is one weighted sum at the level of
    ``T_k`` and one rescale.
    """
    coefficients = np.asarray(coefficients, dtype=np.float64)
    degree = len(coefficients) - 1
    # A series of degree <= 2 is one block: a giant step would spend a
    # ciphertext product on a constant.
    k = degree + 1 if degree <= 2 else 1 << math.ceil(math.log2(math.sqrt(degree + 1)))
    splits = 0
    while k << splits <= degree:
        splits += 1
    read = {k << j for j in range(splits)}  # the giant steps
    tree = _split(coefficients, k, splits, read)
    basis = _chebyshev_basis(evaluator, ct, read)
    # Blocks meet at the level of T_k, or of the deepest T_i a lone block reads.
    baby_level = basis[k].level if splits else min(b.level for b in basis.values())

    def eval_small(terms: dict[int, float]) -> Ciphertext:
        """``Σ c_i·T_i + c_0`` as one weighted sum one level below
        ``baby_level`` (:meth:`Evaluator.weighted_sum`): each integer weight
        absorbs the scale of its ``T_i``, so the sum lands on the ladder."""
        # A constant alone rides on T_1 at weight 0.
        weighted = [(basis[i], c) for i, c in terms.items() if i] or [(basis[1], 0.0)]
        with Evaluator._scope(weighted[0][0], "scalardot"):
            return evaluator.weighted_sum(weighted, baby_level - 1,
                                          constant=terms.get(0, 0.0))

    def evaluate(tree) -> Ciphertext | None:
        if tree is None:
            return None
        if isinstance(tree, dict):
            return eval_small(tree)
        half, quotient, remainder = tree
        q_ct, r_ct = evaluate(quotient), evaluate(remainder)
        if q_ct is None:
            return r_ct
        combined = evaluator.multiply(q_ct, basis[half])
        if r_ct is None:
            return combined
        return evaluator.add(combined, r_ct)

    result = evaluate(tree)
    assert result is not None
    return result


def _double(evaluator: Evaluator, ct: Ciphertext) -> Ciphertext:
    """``2·ct² − 1``: ``T_{2m}`` from ``T_m``, and ``cos(2x)`` from ``cos(x)``."""
    return evaluator.add_scalar(evaluator.multiply_scalar_int(evaluator.square(ct), 2), -1.0)


def double_angle(evaluator: Evaluator, ct: Ciphertext, iterations: int) -> Ciphertext:
    """Apply ``cos(2x) = 2cos(x)^2 - 1`` ``iterations`` times (Han-Ki [37])."""
    for _ in range(iterations):
        ct = _double(evaluator, ct)
    return ct


__all__ = [
    "chebyshev_coefficients",
    "evaluate_chebyshev",
    "double_angle",
]
