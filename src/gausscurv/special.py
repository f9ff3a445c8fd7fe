"""Special functions in numpy and ``math``: the regularised incomplete gamma functions
``P(a, x)``, ``Q(a, x)`` and the inverse of ``P`` at ``a = m/2`` (the chi_m law of Gaussian
balls), Gauss-Jacobi rules and Gegenbauer polynomials.

Below ``x = a``, ``P = x^a e^-x / Gamma(a + 1) 1F1(1; a + 1; x)`` (DLMF 8.7.1), its series
summed to a fixed number of terms for each ``a``, so a value is the same in any array.  From
``x = a`` on, ``Q`` is a finite sum (DLMF §8.4): ``e^-x sum_(k < m/2) x^k / k!`` for even m,
``erfc(sqrt x) + e^-x sum_(k=1..(m-1)/2) x^(k - 1/2) / Gamma(k + 1/2)`` for odd m.  Each is
at most about 0.7 where taken, so one minus it keeps full relative accuracy.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache

import numpy as np

from .errors import QuadratureError


@lru_cache(maxsize=None)
def _coefficients(b: float, count: int = 0) -> np.ndarray:
    """``c_k = 1 / ((b + 1)...(b + k))`` as rows ``(c_2i, c_(2i+1))``, each rounded once from the
    integer ratio ``2^k / ((2b + 2)...(2b + 2k))``: ``count`` of them, or, for ``count = 0``,
    up to the first with ``c_k b^k < 2^-56``, enough for the series at every ``x <= b``."""
    out, denominator = [1.0], 1
    while len(out) < count or not count and out[-1] * b ** (len(out) - 1) >= 2.0**-56:
        denominator *= round(2.0 * b) + 2 * len(out)
        out.append(2 ** len(out) / denominator)
    out = np.array(out + [0.0] * (len(out) % 2)).reshape(-1, 2)
    out.setflags(write=False)
    return out


def _partial_sum(b: float, x: np.ndarray, count: int = 0) -> np.ndarray:
    """``sum_k c_k x^k`` over :func:`_coefficients`, elementwise: Horner's rule in ``x^2``
    over the pairs ``c_2i + c_(2i+1) x``."""
    coeffs = _coefficients(b, count)
    shape = (-1,) + (1,) * x.ndim
    pairs = coeffs[:, 0].reshape(shape) + coeffs[:, 1].reshape(shape) * x
    square, total = x * x, pairs[-1].copy()
    for pair in pairs[-2::-1]:
        total *= square
        total += pair
    return total


def kummer_sum(a: float, x):
    """``1F1(1; a + 1; x) = sum_k x^k / ((a + 1)...(a + k))`` for ``0 <= x <= a``, elementwise."""
    return _partial_sum(a, np.asarray(x, dtype=float))[()]


def _regularized(a: float, x, upper: bool):
    """``Q(a, x)`` if ``upper``, else ``P(a, x)``, for ``a = m/2``."""
    if a <= 0.0 or 2.0 * a != int(2.0 * a):
        raise ValueError(f"the incomplete gamma functions take a = m/2 for m >= 1, got {a}")
    x = np.asarray(x, dtype=float)
    below = x < a
    out = np.empty_like(x)
    if below.any():
        lo = x[below]
        p = lo**a * np.exp(-lo) / math.gamma(a + 1.0) * _partial_sum(a, lo)
        out[below] = 1.0 - p if upper else p
    if not below.all():
        hi, j = np.minimum(x[~below], 1e4), int(a)  # Q underflows there; keeps inf * 0 out
        q = hi ** (a - j) * np.exp(-hi) / math.gamma(a - j + 1.0) * _partial_sum(a - j, hi, j) if j else 0.0
        if a != j:
            q = q + np.fromiter(map(math.erfc, np.sqrt(hi).tolist()), float, hi.size)
        out[~below] = q if upper else 1.0 - q
    return out[()]


def gammainc(a: float, x):
    """Regularised lower incomplete gamma function ``P(a, x)`` for ``a = m/2``, elementwise."""
    return _regularized(a, x, upper=False)


def gammaincc(a: float, x):
    """Regularised upper incomplete gamma function ``Q(a, x)`` for ``a = m/2``, elementwise."""
    return _regularized(a, x, upper=True)


def gammaincinv(a: float, p: float) -> float:
    """``x`` with ``P(a, x) = p`` for ``a = m/2`` and ``0 < p < 1``: Halley's method in
    ``u = log x`` on ``F = log(P / p)``, or on ``log(Q / (1 - p))`` above 1/2, where
    ``F'' = F' (a - x - F')``, with steps of at most a factor e.  It starts from the root of
    ``x^a / Gamma(a + 1)``, or above 1/2 of ``Q``'s leading term but not below ``a``."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"the probability must lie in (0, 1), got {p}")
    j, q = int(a), 1.0 - p
    if p <= 0.5:
        x = (p * math.gamma(a + 1.0)) ** (1.0 / a)
    else:
        x = -math.log(q * math.gamma(a))
        x = max(a, x + (a - 1.0) * math.log(max(x, a)))
    if x < sys.float_info.min:  # a subnormal root: P = x^a / Gamma(a + 1) to double precision
        return x
    for _ in range(100):
        if x < a:
            lower = x**a * math.exp(-x) / math.gamma(a + 1.0) * float(kummer_sum(a, x))
            upper = 1.0 - lower
        else:
            term, upper = x ** (a - j) * math.exp(-x) / math.gamma(a - j + 1.0), 0.0
            for k in range(1, j + 1):
                upper, term = upper + term, term * x / (a - j + k)
            upper += math.erfc(math.sqrt(x)) if a != j else 0.0
            lower = 1.0 - upper
        slope = x**a * math.exp(-x) / math.gamma(a)  # x dP/dx
        value, slope = (math.log(lower / p), slope / lower) if p <= 0.5 else (math.log(upper / q), -slope / upper)
        step = value / slope
        step = max(-1.0, min(1.0, step / max(0.5, 1.0 - 0.5 * step * (a - x - slope))))
        x *= math.exp(-step)
        if abs(step) < 1e-6:
            return x
    raise QuadratureError(f"the incomplete gamma inverse did not converge for a = {a}, p = {p!r}")


def gegenbauer(L: int, lam, t: np.ndarray) -> np.ndarray:
    """``C_k^lam(t)`` for k = 0..L at 1-D ``t``, shape ``lam.shape + (L + 1, t.size)``, by the
    recurrence ``k C_k = 2 (k + lam - 1) t C_(k-1) - (k + 2 lam - 2) C_(k-2)``, run once for an
    array of ``lam``."""
    lam = np.asarray(lam, dtype=float)[..., None]
    k = np.arange(2.0, L + 1).reshape((-1,) + (1,) * lam.ndim)
    grow_t, shrink = 2.0 * (k + lam - 1.0) / k * t, (k + 2.0 * lam - 2.0) / k
    out = np.empty((L + 1,) + lam.shape[:-1] + t.shape)
    out[0] = 1.0
    if L >= 1:
        np.multiply(2.0 * lam, t, out=out[1])
    for k in range(2, L + 1):
        np.multiply(grow_t[k - 2], out[k - 1], out=out[k])
        out[k] -= shrink[k - 2] * out[k - 2]
    return np.moveaxis(out, 0, -2)


def gauss_jacobi(m: int, alpha: float):
    """Nodes and weights of the ``m``-point Gauss rule for ``(1 - t^2)^alpha`` on [-1, 1].

    The nodes, roots of the orthonormal ``p_m`` (a multiple of ``C_m^lam``, lam = alpha + 1/2),
    are the Jacobi matrix's eigenvalues (Golub and Welsch, 1969) after two Newton passes with
    ``(1 - t^2) C_m' = (m + 2 lam - 1) C_(m-1) - m t C_m``; the weights are the Christoffel
    numbers ``1 / sum_(k < m) p_k^2`` at the second pass, sums of positive terms, good to
    about 2e-14 relative.
    Both come from floats over the nonnegative nodes, mirrored: the rule is exactly symmetric.
    """
    lam = alpha + 0.5
    k = np.arange(1.0, m + 1)
    off = np.sqrt(k * (k + 2.0 * lam - 1.0) / (4.0 * (k + lam) * (k + lam - 1.0)))
    half = np.linalg.eigvalsh(np.diag(off[:-1], 1) + np.diag(off[:-1], -1))[m // 2 :].tolist()
    half[0] = 0.0 if m % 2 else half[0]  # odd m: the middle node is 0
    p_0 = math.exp(0.5 * (math.lgamma(alpha + 1.5) - math.lgamma(alpha + 1.0))) / math.pi**0.25
    # (1 - t^2) p_m' = ratio p_(m-1) - m t p_m: the identity for C_m with the norms of C_(m-1), C_m.
    ratio = math.sqrt(m * (m + lam) * (m + 2.0 * lam - 1.0) / (m + lam - 1.0))
    nodes, weights = [], []
    for x in half:
        for _ in range(2):
            p_prev, p, total, b_prev = 0.0, p_0, 0.0, 0.0
            for b in off.tolist():  # p_(k+1) = (t p_k - b_k p_(k-1)) / b_(k+1)
                total += p * p
                p_prev, p, b_prev = p, (x * p - b_prev * p_prev) / b, b
            x -= p * (1.0 - x * x) / (ratio * p_prev - m * x * p)
        nodes.append(x)
        weights.append(1.0 / total)
    mirrored = slice(None, 0 if m % 2 else None, -1)  # the negative nodes, 0 left out
    return np.array([-x for x in nodes[mirrored]] + nodes), np.array(weights[mirrored] + weights)
