"""Special functions in numpy and ``math``: the regularised incomplete gamma functions
``P(a, x)``, ``Q(a, x)`` and their inverse at ``a = m/2`` (the chi_m law of Gaussian balls),
Gauss-Jacobi rules and Gegenbauer polynomials.

One pass gives ``P`` and ``Q`` together.  Below ``x = a``,
``P = x^a e^-x / Gamma(a + 1) 1F1(1; a + 1; x)`` (DLMF 8.7.1), its series summed to a fixed
number of terms for each ``a``, so a value is the same in any array.  From ``x = a`` on, ``Q``
is a finite sum (DLMF §8.4): ``e^-x sum_(k < m/2) x^k / k!`` for even m,
``erfc(sqrt x) + e^-x sum_(k=1..(m-1)/2) x^(k - 1/2) / Gamma(k + 1/2)`` for odd m.  Each is
at most about 0.7 where taken, so one minus it, the other function, keeps full relative
accuracy.  The inverse reads ``Q`` exactly when the complement it is given is below 1/2, so
a caller that holds a volume's own complement picks the side by that alone.  The arrays take
``erfc`` from numpy, as ``e^-x`` times Cody's rational approximations to ``e^(y^2) erfc(y)``
(W. J. Cody, Math. Comp. 23, 1969); the scalar inverse takes ``math.erfc``.
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


# W. J. Cody's rational Chebyshev approximations to erfc (Math. Comp. 23, 1969, 631-637), taken
# without their factor exp(-y^2): on [0.5, 4] e^(y^2) erfc(y) = P(y) / Q(y), above 4
# (1/sqrt(pi) - z R(z) / S(z)) / y with z = 1 / y^2.  Each table holds the numerator (row 0) and
# the denominator (row 1) for :func:`_cody_ratio`, leading coefficient first.
_ERFC_NEAR = np.array([
    [2.15311535474403846e-8, 5.64188496988670089e-1, 8.88314979438837594e0, 6.61191906371416295e1,
     2.98635138197400131e2, 8.81952221241769090e2, 1.71204761263407058e3, 2.05107837782607147e3,
     1.23033935479799725e3],
    [1.0, 1.57449261107098347e1, 1.17693950891312499e2, 5.37181101862009858e2, 1.62138957456669019e3,
     3.29079923573345963e3, 4.36261909014324716e3, 3.43936767414372164e3, 1.23033935480374942e3],
])
_ERFC_FAR = np.array([
    [1.63153871373020978e-2, 3.05326634961232344e-1, 3.60344899949804439e-1, 1.25781726111229246e-1,
     1.60837851487422766e-2, 6.58749161529837803e-4],
    [1.0, 2.56852019228982242e0, 1.87295284992346725e0, 5.27905102951428412e-1, 6.05183413124413191e-2,
     2.33520497626869185e-3],
])
_FRAC_1_SQRT_PI = 0.5641895835477563


def _cody_ratio(t: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Cody's nested rational form ``((c_0 t + c_1) t + ... ) t + c_last``, numerator over
    denominator, for the (2, k) table ``coeffs``: both rows in one array, so each step is one
    numpy call for the pair."""
    acc = coeffs[:, :1] * t
    for column in coeffs.T[1:-1, :, None]:
        acc += column
        acc *= t
    acc += coeffs[:, -1:]
    return acc[0] / acc[1]


def _erfcx(y: np.ndarray) -> np.ndarray:
    """The scaled complementary error function ``e^(y^2) erfc(y)`` elementwise for 1-D ``y >= 0.5``:
    about 1e-16 relative, and no underflow, for the caller to scale by an exact ``e^-x``."""
    out = _cody_ratio(y, _ERFC_NEAR)
    far = y > 4.0
    if far.any():
        y_far = y[far]
        z = 1.0 / (y_far * y_far)
        out[far] = (_FRAC_1_SQRT_PI - z * _cody_ratio(z, _ERFC_FAR)) / y_far
    return out


def _regularized(a: float, x):
    """``(P(a, x), Q(a, x))`` for ``a = m/2`` in one pass: ``P`` summed below ``x = a`` and ``Q``
    from there on, and the other one minus it."""
    if a <= 0.0 or 2.0 * a != int(2.0 * a):
        raise ValueError(f"the incomplete gamma functions take a = m/2 for m >= 1, got {a}")
    x = np.asarray(x, dtype=float)
    below = x < a
    p, q = np.empty_like(x), np.empty_like(x)
    if below.any():
        lo = x[below]
        p_lo = lo**a * np.exp(-lo) / math.gamma(a + 1.0) * _partial_sum(a, lo)
        p[below], q[below] = p_lo, 1.0 - p_lo
    if not below.all():
        above = ~below
        hi, j = np.minimum(x[above], 1e4), int(a)  # Q underflows there; keeps inf * 0 out
        # Q = e^-x (finite sum + e^x erfc(sqrt x)), with e^-x in two halves: past x = 708 one
        # factor e^-x is subnormal and short of digits, and erfc(sqrt x) would carry the rounding
        # of sqrt x amplified 2x times.
        scaled = _partial_sum(a - j, hi, j) if j else 0.0
        if a != j:  # odd m: the sum's x^(1/2) / Gamma(3/2), and e^x erfc(sqrt x)
            root = np.sqrt(hi)
            scaled = root / math.gamma(a - j + 1.0) * scaled + _erfcx(root)
        half = np.exp(-0.5 * hi)
        q_hi = half * scaled * half
        p[above], q[above] = 1.0 - q_hi, q_hi
    return p[()], q[()]


def gammainc(a: float, x):
    """Regularised lower incomplete gamma function ``P(a, x)`` for ``a = m/2``, elementwise."""
    return _regularized(a, x)[0]


def gammaincc(a: float, x):
    """Regularised upper incomplete gamma function ``Q(a, x)`` for ``a = m/2``, elementwise."""
    return _regularized(a, x)[1]


def gammaincinv(a: float, p: float, q: float | None = None) -> float:
    """``x`` with ``P(a, x) = p`` and ``Q(a, x) = q`` for ``a = m/2``, where ``q`` is ``1 - p``
    unless given: a complement of its own resolves the roots that ``1 - p`` rounds away next to 1.
    One rule picks the side: Halley's method in ``u = log x`` on ``F = log(Q / q)`` when ``q`` is
    below 1/2, else on ``log(P / p)``, where ``F'' = F' (a - x - F')``, with steps of at most a
    factor e.  It starts from the root of ``x^a / Gamma(a + 1)``, or on the Q side of ``Q``'s
    leading term but not below ``a``.  ``ValueError`` unless ``p > 0`` and, on the Q side, ``q``
    is at least the least normal float (a subnormal ``q`` keeps too few digits to converge), or,
    on the P side, ``p < 1``."""
    q = 1.0 - p if q is None else q
    q_side = q < 0.5
    if not (0.0 < p and (sys.float_info.min <= q if q_side else p < 1.0)):
        raise ValueError(f"the probability and its complement must lie in (0, 1), got {p!r} and {q!r}")
    j = int(a)
    if q_side:
        x = -math.log(q * math.gamma(a))
        x = max(a, x + (a - 1.0) * math.log(max(x, a)))
    else:
        x = (p * math.gamma(a + 1.0)) ** (1.0 / a)
    if x < sys.float_info.min:  # a subnormal root: P = x^a / Gamma(a + 1) to double precision
        return x
    for _ in range(100):
        half = math.exp(-0.5 * x)  # e^-x as half^2, as in _regularized
        if x < a:
            lower = x**a * math.exp(-x) / math.gamma(a + 1.0) * float(kummer_sum(a, x))
            upper = 1.0 - lower
        else:
            term, upper = x ** (a - j) * half / math.gamma(a - j + 1.0), 0.0
            for k in range(1, j + 1):
                upper, term = upper + term, term * x / (a - j + k)
            upper = upper * half + (math.erfc(math.sqrt(x)) if a != j else 0.0)
            lower = 1.0 - upper
        slope = x**a * half / math.gamma(a) * half  # x dP/dx
        value, slope = (math.log(upper / q), -slope / upper) if q_side else (math.log(lower / p), slope / lower)
        step = value / slope
        step = max(-1.0, min(1.0, step / max(0.5, 1.0 - 0.5 * step * (a - x - slope))))
        x *= math.exp(-step)
        if abs(step) < 1e-6:
            return x
    raise QuadratureError(f"the incomplete gamma inverse did not converge for a = {a}, p = {p!r}, q = {q!r}")


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
