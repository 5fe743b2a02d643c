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
cosine never builds ``T_5`` or ``T_7``).  Every sum is one
:meth:`~repro.ckks.evaluator.Evaluator.weighted_sum` or
:meth:`~repro.ckks.evaluator.Evaluator.product_sum` whose integer weights
absorb each term's scale (the scale-invariant evaluation of Bossuat et
al., Eurocrypt 2021), so no term is rescaled or realigned on its own.

The levels are planned top-down: :func:`evaluate_chebyshev` finds the
highest level the whole tree can land on, and evaluates each node at the
level its parent's product consumes it.  ``quotient·T_g + remainder`` is
one ``product_sum`` with the remainder's ``T_i`` (or the remainder's own
product) summed into its tensor, so it ends in the product's merged
ModDown-rescale; operands above the product's level are mod-reduced, not
realigned; a giant step past ``T_k`` is squared once per level it is
consumed at; and a quotient block is one weighted sum at the scale that
lands its product on the target.  ``2·T_m² − 1`` and ``2·T_m·T_{m+1} −
T_1`` are one HSquare and one HMult with the ``×2`` and the ``− 1`` (or
``− T_1``) in their tails.  For the degree-30 cosine only the two quotient
blocks rescale.  A degree-``d`` series costs at most ``ceil(log2(d + 1)) +
1`` levels, the ``chebyshev_depth`` that
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
    ``T_i`` depth ``ceil(log2(i))``; each is one HSquare or HMult whose
    operands meet mod-reduced at the lower one's level, with ``− T_1``
    summed into the product (:meth:`Evaluator.product_sum`).
    """
    basis: dict[int, Ciphertext] = {1: ct}

    def build(i: int) -> Ciphertext:
        if i not in basis:
            if i % 2 == 0:
                basis[i] = _double(evaluator, build(i // 2))
            else:
                low, high = build(i // 2), build(i // 2 + 1)
                basis[i] = evaluator.product_sum(
                    low, high, min(low.level, high.level) - 1, [(ct, -1.0)], multiplier=2)
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
    [39]/[37] for ApproxModEval.  Only the ``T_i`` a block reads and
    ``T_k`` are built; the result lands on the ladder scale of the highest
    level the tree can reach, with each node at the level its parent's
    product consumes it (the level plan of the module docstring).
    """
    coefficients = np.asarray(coefficients, dtype=np.float64)
    degree = len(coefficients) - 1
    # A series of degree <= 2 is one block: a giant step would spend a
    # ciphertext product on a constant.
    k = degree + 1 if degree <= 2 else 1 << math.ceil(math.log2(math.sqrt(degree + 1)))
    splits = 0
    while k << splits <= degree:
        splits += 1
    read = {k} if splits else set()  # T_k; the higher giants come from giant()
    tree = _split(coefficients, k, splits, read)
    basis = _chebyshev_basis(evaluator, ct, read)
    rescale_factor = evaluator.context.rescale_factor
    giants: dict[tuple[int, int], Ciphertext] = {}

    def reach(i: int) -> int:
        """The highest level ``T_i`` exists at (a giant one below its half)."""
        return basis[i].level if i in basis else reach(i // 2) - 1

    def giant(g: int, level: int) -> Ciphertext:
        """``T_g`` for a product at ``level``, each built once per level: a
        built one as it is (the product mod-reduces it), a higher giant
        squared from its half one level up."""
        if (g, level) not in giants:
            giants[g, level] = basis[g] if g in basis else _double(
                evaluator, giant(g // 2, level + 1), level)
        return giants[g, level]

    def highest(tree) -> int:
        """The highest level ``tree`` can be evaluated at."""
        if isinstance(tree, dict):
            return min((reach(i) for i in tree if i), default=ct.level) - 1
        half, quotient, remainder = tree
        if quotient is None:
            return highest(remainder)
        level = min(reach(half), highest(quotient))
        if isinstance(remainder, dict):
            level = min([level] + [reach(i) for i in remainder if i])
        elif remainder is not None:
            level = min(level, highest(remainder))
        return level - 1

    def evaluate(tree, level: int, scale: float) -> Ciphertext:
        """``tree`` at ``level`` and ``scale``: a leaf is one weighted sum,
        a node one product with its remainder summed in."""
        if isinstance(tree, dict):
            # A constant alone rides on T_1 at weight 0.
            terms = [(basis[i], c) for i, c in tree.items() if i] or [(ct, 0.0)]
            return evaluator.weighted_sum(terms, level, scale, constant=tree.get(0, 0.0))
        half, quotient, remainder = tree
        if quotient is None:
            return evaluate(remainder, level, scale)
        t_half = giant(half, level + 1)
        # The quotient's scale lands quotient·T_half on ``scale``.
        q_ct = evaluate(quotient, level + 1, rescale_factor(level, t_half.scale, scale))
        addends, constant = [], 0.0
        if isinstance(remainder, dict):
            addends = [(basis[i], c) for i, c in remainder.items() if i]
            constant = remainder.get(0, 0.0)
        elif remainder is not None:
            addends = [(evaluate(remainder, level + 1, scale), 1.0)]
        return evaluator.product_sum(q_ct, t_half, level, addends, constant=constant)

    level = highest(tree)
    return evaluate(tree, level, evaluator.context.scale_at(level))


def _double(evaluator: Evaluator, ct: Ciphertext, level: int | None = None) -> Ciphertext:
    """``2·ct² − 1`` at ``level`` (default one below ``ct``): ``T_{2m}``
    from ``T_m``, and ``cos(2x)`` from ``cos(x)``.  One HSquare: the ``×2``
    and the ``− 1`` ride in its merged ModDown-rescale, bit-identical to a
    square, a ``×2`` of every residue and ``add_scalar(·, −1)``."""
    if level is None:
        level = ct.level - 1
    return evaluator.product_sum(ct, ct, level, multiplier=2, constant=-1.0)


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
