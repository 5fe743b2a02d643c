"""Chebyshev-series evaluation for ApproxModEval.

Bootstrapping approximates the modular-reduction step with a scaled cosine
(Han-Ki [37], Bossuat et al. [43]): a Chebyshev interpolant of
``cos(2πy)`` on ``[-1, 1]`` is evaluated homomorphically and followed by
``r`` double-angle iterations that extend the effective range to
``[-2^r, 2^r]``.

Two evaluation strategies are provided:

* :func:`evaluate_chebyshev` -- the Baby-Step Giant-Step +
  Paterson-Stockmeyer strategy used by FIDESlib/OpenFHE (quasi-optimal
  multiplication count, ``~2*sqrt(d)`` ciphertext products);
* :func:`evaluate_chebyshev_direct` -- a simple reference evaluator that
  materialises every Chebyshev basis polynomial; used to cross-check the
  BSGS/PS implementation in the tests.

Both keep the multiplicative depth at ``ceil(log2(d)) + 1``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.ckks.ciphertext import Ciphertext
from repro.ckks.evaluator import Evaluator


def chebyshev_coefficients(function, degree: int, interval: tuple[float, float] = (-1.0, 1.0)) -> np.ndarray:
    """Return Chebyshev interpolation coefficients of ``function``.

    Uses the Chebyshev-Gauss nodes; ``coefficients[k]`` multiplies
    ``T_k(x)`` with the usual halved ``c_0`` convention already applied, so
    ``f(x) ≈ Σ_k coefficients[k] * T_k(x)``.
    """
    if degree < 0:
        raise ValueError("degree must be non-negative")
    lo, hi = interval
    count = degree + 1
    nodes = np.cos(np.pi * (np.arange(count) + 0.5) / count)
    scaled_nodes = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
    values = np.array([function(x) for x in scaled_nodes], dtype=np.float64)
    coefficients = np.zeros(count, dtype=np.float64)
    for k in range(count):
        coefficients[k] = (2.0 / count) * np.sum(
            values * np.cos(k * np.pi * (np.arange(count) + 0.5) / count)
        )
    coefficients[0] *= 0.5
    return coefficients


def _chebyshev_basis(evaluator: Evaluator, ct: Ciphertext, degree: int) -> dict[int, Ciphertext]:
    """Return ciphertexts of ``T_1 ... T_degree`` evaluated at ``ct``.

    Uses the recurrences ``T_{2k} = 2*T_k^2 - 1`` and
    ``T_{2k+1} = 2*T_k*T_{k+1} - T_1`` so the depth of ``T_k`` is
    ``ceil(log2(k))``.
    """
    basis: dict[int, Ciphertext] = {1: ct}
    for k in range(2, degree + 1):
        if k in basis:
            continue
        half = k // 2
        if k % 2 == 0:
            squared = evaluator.square(basis[half])
            term = evaluator.multiply_scalar_int(squared, 2)
            basis[k] = evaluator.add_scalar(term, -1.0)
        else:
            prod = evaluator.multiply(basis[half], basis[half + 1])
            term = evaluator.multiply_scalar_int(prod, 2)
            basis[k] = evaluator.sub(term, ct)
    return basis


def evaluate_chebyshev_direct(evaluator: Evaluator, ct: Ciphertext,
                              coefficients: np.ndarray) -> Ciphertext:
    """Reference evaluation materialising every Chebyshev basis polynomial."""
    coefficients = np.asarray(coefficients, dtype=np.float64)
    degree = len(coefficients) - 1
    basis = _chebyshev_basis(evaluator, ct, degree) if degree >= 1 else {}
    deepest = min((b.level for b in basis.values()), default=ct.level)
    target_level = deepest - 1
    result: Ciphertext | None = None
    for k in range(1, degree + 1):
        if abs(coefficients[k]) < 1e-12:
            continue
        term = evaluator.multiply_scalar(basis[k], float(coefficients[k]))
        term = evaluator.adjust(term, target_level) if term.level > target_level else term
        result = term if result is None else evaluator.add(result, term)
    if result is None:
        result = evaluator.adjust(ct, target_level)
        result = evaluator.multiply_scalar(result, 0.0, rescale=False)
        result = evaluator.rescale(result) if result.level >= 1 else result
    result = evaluator.add_scalar(result, float(coefficients[0]))
    return result


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


def evaluate_chebyshev(evaluator: Evaluator, ct: Ciphertext,
                       coefficients: np.ndarray) -> Ciphertext:
    """BSGS + Paterson-Stockmeyer evaluation of a Chebyshev series.

    The baby steps ``T_1 ... T_k`` (``k ≈ sqrt(d)``) and the giant steps
    ``T_k, T_{2k}, T_{4k}, ...`` are computed once; the series is then
    recursively split with :func:`chebyshev_divide` so that only
    ``O(sqrt(d) + log d)`` ciphertext multiplications are needed instead of
    ``O(d)`` -- the optimisation FIDESlib adopts from [39]/[37] for
    ApproxModEval.
    """
    coefficients = np.asarray(coefficients, dtype=np.float64)
    degree = len(coefficients) - 1
    if degree <= 2:
        return evaluate_chebyshev_direct(evaluator, ct, coefficients)

    k = 1 << max(1, math.ceil(math.log2(math.sqrt(degree + 1))))
    splits = 0
    while k * (1 << splits) <= degree:
        splits += 1

    baby = _chebyshev_basis(evaluator, ct, k)
    baby_level = min(b.level for b in baby.values())

    giants: dict[int, Ciphertext] = {k: baby[k]}
    power = k
    for _ in range(1, splits):
        giants[2 * power] = double_angle(evaluator, giants[power], 1)
        power *= 2

    def eval_small(block: np.ndarray) -> Ciphertext | None:
        """Linear combination of baby-step polynomials (degree < k)."""
        target_level = baby_level - 1
        result: Ciphertext | None = None
        for idx in range(1, len(block)):
            if abs(block[idx]) < 1e-12:
                continue
            term = evaluator.multiply_scalar(baby[idx], float(block[idx]))
            if term.level > target_level:
                term = evaluator.adjust(term, target_level)
            result = term if result is None else evaluator.add(result, term)
        if abs(block[0]) > 1e-12:
            if result is None:
                zero = evaluator.multiply_scalar(baby[1], 0.0)
                if zero.level > target_level:
                    zero = evaluator.adjust(zero, target_level)
                result = zero
            result = evaluator.add_scalar(result, float(block[0]))
        return result

    def eval_recursive(block: np.ndarray, level_budget: int) -> Ciphertext | None:
        block = np.trim_zeros(np.asarray(block, dtype=np.float64), trim="b")
        if len(block) == 0:
            return None
        if len(block) - 1 < k:
            return eval_small(block)
        half = k * (1 << (level_budget - 1))
        quotient, remainder = chebyshev_divide(block, half)
        q_ct = eval_recursive(quotient, level_budget - 1)
        r_ct = eval_recursive(remainder, level_budget - 1)
        if q_ct is None:
            return r_ct
        combined = evaluator.multiply(q_ct, giants[half])
        if r_ct is None:
            return combined
        return evaluator.add(combined, r_ct)

    result = eval_recursive(coefficients, splits)
    assert result is not None
    return result


def double_angle(evaluator: Evaluator, ct: Ciphertext, iterations: int) -> Ciphertext:
    """Apply ``cos(2x) = 2cos(x)^2 - 1`` ``iterations`` times (Han-Ki [37])."""
    result = ct
    for _ in range(iterations):
        squared = evaluator.square(result)
        doubled = evaluator.multiply_scalar_int(squared, 2)
        result = evaluator.add_scalar(doubled, -1.0)
    return result


__all__ = [
    "chebyshev_coefficients",
    "evaluate_chebyshev",
    "evaluate_chebyshev_direct",
    "double_angle",
]
