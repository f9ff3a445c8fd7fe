"""Radial boundary weights, induced area weights, and radial integrals.

A boundary weight is a positive non-increasing C1 function ``f`` of the
distance to the origin.  Each admissible ``f`` induces an area weight

    w(r) = -f'(r) / r,

which is nonnegative exactly because ``f`` is non-increasing.  The Gaussian
weight ``f(r) = exp(-r^2/2)`` is the special case where ``w = f``.

The module also provides the standard normal half-space volume ``psi``, the
closed form of ``int_0^h t^(n-1) exp(-t^2/2) dt`` and the radial moment
integrals built on it for the higher-dimensional expansions, all from
``math.erfc`` and the incomplete gamma functions of :mod:`gausscurv.special`.  The library's
other radial integrals have closed forms or flux forms; the vectorised
adaptive Gauss-Legendre integrator :func:`integrate_radial` is the reference
the test suite checks them against, and no library code calls it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import AdmissibilityError, QuadratureError
from .special import gammainc, gauss_jacobi, kummer_sum

__all__ = [
    "WeightPair",
    "RadialMoments",
    "make_gaussian_weight",
    "make_weight",
    "psi",
    "gaussian_radial_integral",
    "radial_moments",
    "VALIDATION_GRID",
]

# Admissibility is checked by sampling: evaluators are black boxes, so the
# C1 hypotheses are enforced on 10^3 log-spaced radii.
VALIDATION_GRID = np.geomspace(1e-6, 1e3, 1000)

RADIAL_RTOL = 1e-12


@dataclass(frozen=True)
class WeightPair:
    """A boundary weight ``f`` together with its induced area weight ``w``.

    All evaluators accept numpy arrays and are immutable after construction,
    so a pair can be shared freely across threads.

    Attributes
    ----------
    f : callable
        Boundary weight, positive on the sample grid.
    df : callable
        Derivative of ``f``, nonpositive on the sample grid.
    w : callable
        Induced area weight ``-df(r)/r``.
    monotone_w : bool
        True when ``w`` is non-increasing on the sample grid.  Some results
        (the planar inequality for convex bodies missing the origin) need it.
    is_gaussian : bool
        Marks the Gaussian pair, for which closed forms are available.
    """

    f: Callable[[np.ndarray], np.ndarray]
    df: Callable[[np.ndarray], np.ndarray]
    w: Callable[[np.ndarray], np.ndarray]
    monotone_w: bool
    is_gaussian: bool = False


def _vectorized(fn):
    """Return a wrapper of ``fn`` that always accepts numpy arrays."""
    try:
        out = fn(np.array([0.5, 1.0]))
        if np.shape(np.asarray(out)) == (2,):
            return fn
    except Exception:
        pass
    return np.vectorize(fn, otypes=[float])


def make_gaussian_weight() -> WeightPair:
    """Return the Gaussian pair ``f(r) = w(r) = exp(-r^2/2)``."""

    def f(r):
        return np.exp(-0.5 * np.square(r))

    def df(r):
        r = np.asarray(r, dtype=float)
        return -r * np.exp(-0.5 * np.square(r))

    return WeightPair(f=f, df=df, w=f, monotone_w=True, is_gaussian=True)


def make_weight(f, df) -> WeightPair:
    """Build a :class:`WeightPair` from evaluators of ``f`` and ``f'``.

    Positivity of ``f`` and nonpositivity of ``df`` are validated on
    :data:`VALIDATION_GRID`.  Exact zeros of ``f`` at large radii are kept:
    rapidly decaying weights underflow double precision well inside the grid
    and rejecting them would exclude e.g. ``exp(-r)``.

    Raises
    ------
    AdmissibilityError
        If ``f`` is negative anywhere, vanishes already at the smallest
        sampled radius, or ``df`` is positive beyond rounding noise.
    """
    f = _vectorized(f)
    df = _vectorized(df)
    fv = np.asarray(f(VALIDATION_GRID), dtype=float)
    dfv = np.asarray(df(VALIDATION_GRID), dtype=float)
    if not np.all(np.isfinite(fv)) or not np.all(np.isfinite(dfv)):
        raise AdmissibilityError("weight evaluators must be finite on (1e-6, 1e3)")
    if np.any(fv < 0.0) or fv[0] <= 0.0:
        raise AdmissibilityError("boundary weight must be positive")
    tol = 1e-12 * max(1.0, float(np.max(np.abs(dfv))))
    if np.any(dfv > tol):
        raise AdmissibilityError("boundary weight must be non-increasing")

    def w(r):
        r = np.asarray(r, dtype=float)
        return -df(r) / r

    wv = -dfv / VALIDATION_GRID
    wtol = 1e-9 * max(1.0, float(np.max(np.abs(wv[np.isfinite(wv)]))))
    monotone = bool(np.all(np.diff(wv) <= wtol))
    return WeightPair(f=f, df=df, w=w, monotone_w=monotone)


def psi(s: float) -> float:
    """Gaussian volume of the half space ``{x : x_1 <= s}``.

    Evaluated through the complementary error function; accurate to about
    1e-16 relative, well within the 1e-14 contract.
    """
    return 0.5 * math.erfc(-s / math.sqrt(2.0))


@dataclass(frozen=True)
class RadialMoments:
    """Moment integrals ``int_0^1 t^(n-1+j) exp(-r^2 t^2 / 2) dt`` for j in {0, 2, 4}.

    ``a_n``, ``b_n``, ``c_n`` are evaluated in closed form; the
    integration-by-parts recurrences tying them together are asserted at
    construction to 1e-10.
    """

    n: int
    r: float
    a_n: float
    b_n: float
    c_n: float


def gaussian_radial_integral(n: int, h):
    """Closed form of ``int_0^h t^(n-1) exp(-t^2/2) dt`` for n >= 1.

    It is ``2^(n/2-1) Gamma(n/2) P(n/2, h^2/2)`` with ``P`` the regularised
    lower incomplete gamma function, which keeps full relative accuracy at
    small ``h`` where an erf-plus-recurrence form cancels.
    """
    h = np.asarray(h, dtype=float)
    return 2.0 ** (n / 2.0 - 1.0) * math.gamma(n / 2.0) * gammainc(n / 2.0, 0.5 * h * h)


def _moment(power: int, r: float) -> float:
    """``int_0^1 t^power exp(-r^2 t^2 / 2) dt``, in closed form.

    From r = 1 on it is ``gaussian_radial_integral(m, r) / r^m`` with
    ``m = power + 1``; writing ``r = f 2^e``, ``f`` in [1/2, 1), it divides by
    ``f^m`` and shifts by ``2^(-e m)``, so no power of ``r`` overflows.  Below
    r = 1 it is Kummer's ``1F1(m/2; m/2 + 1; -x) / m = e^-x 1F1(1; m/2 + 1; x) / m``,
    x = r^2 / 2, a series of positive terms.
    """
    m = power + 1
    if r < 1.0:
        x = 0.5 * r * r
        return math.exp(-x) * float(kummer_sum(0.5 * m, x)) / m
    frac, exp2 = math.frexp(r)
    with np.errstate(over="ignore"):  # r^2 / 2 = inf still gives P = 1 exactly
        total = float(gaussian_radial_integral(m, r))
    return math.ldexp(total / frac**m, -exp2 * m)


def _recurrence_check(n: int, r: float, a: float, b: float, c: float):
    """Residuals of ``b`` and ``c`` against their recurrences from ``a``, and
    whether both are within 1e-10 relative of their moments.

    The subtractions cancel almost completely as r -> 0; the tolerances widen
    by the rounding noise they amplify so tiny radii stay usable.  Once that
    noise reaches ``c`` itself, at ``r^4 <= eps (n + 2)(n + 4)`` (which
    includes every ``r`` where ``r^4`` underflows), the recurrences carry no
    digits, and the three moments are compared with their r -> 0 limits
    ``1/m``, ``m = n, n + 2, n + 4``, less the ``r^2 / (2 (m + 2))`` term of
    their series; the next term, ``r^4 / (8 (m + 4))``, is below
    ``eps (n + 2) / 8`` there.  The residuals are then those of ``b`` and
    ``c`` against their limits.
    """
    r2 = r * r
    if r2 * r2 <= np.finfo(float).eps * (n + 2) * (n + 4):
        limits = [1.0 / m - r2 / (2.0 * (m + 2)) for m in (n, n + 2, n + 4)]
        res_a, res_b, res_c = (abs(v - lim) for v, lim in zip((a, b, c), limits))
        held = all(res <= 1e-10 * lim for res, lim in zip((res_a, res_b, res_c), limits))
        return res_b, res_c, held
    e = math.exp(-0.5 * r2)
    res_b = abs(b - (n * a - e) / r2)
    res_c = abs(c - ((n * (n + 2) * a - (n + 2) * e) / (r2 * r2) - e / r2))
    tol_b = 1e-10 * abs(b) + 1e-14 * (n * abs(a) + e) / r2
    tol_c = 1e-10 * abs(c) + 1e-14 * (n * (n + 2) * abs(a) + (n + 2) * e) / (r2 * r2)
    return res_b, res_c, res_b <= tol_b and res_c <= tol_c


def radial_moments(n: int, r: float) -> RadialMoments:
    """Compute the three radial moments for dimension ``n`` and radius ``r``.

    Raises
    ------
    QuadratureError
        If the recurrence residuals exceed 1e-10 relative to the moments.
    """
    if n < 2:
        raise ValueError(f"dimension must be >= 2, got {n}")
    if r <= 0:
        raise ValueError(f"radius must be positive, got {r}")
    a = _moment(n - 1, r)
    b = _moment(n + 1, r)
    c = _moment(n + 3, r)
    res_b, res_c, held = _recurrence_check(n, r, a, b, c)
    if not held:
        raise QuadratureError(f"moment recurrence residuals too large: {res_b:g}, {res_c:g}")
    return RadialMoments(n=n, r=r, a_n=a, b_n=b, c_n=c)


# The panel integrator's Gauss-Legendre rules, built on first use.
_gauss_legendre = lru_cache(maxsize=None)(gauss_jacobi)


def _panel_eval(fn, upper, nodes, wts, a, b):
    # Map [a, b] in the unit parameter to t = upper * s.
    s = 0.5 * (b - a) * nodes + 0.5 * (a + b)
    t = np.multiply.outer(upper, s)
    vals = fn(t)
    return 0.5 * (b - a) * upper * (vals @ wts)


def integrate_radial(fn, upper, rtol: float = RADIAL_RTOL, max_depth: int = 12):
    """Integrate ``fn`` from 0 to each entry of ``upper`` simultaneously.

    The test suite's radial reference integrator: it checks the library's
    closed-form radial integrals (planar weighted areas, body volumes and
    fluxes) ray by ray.  Not part of the public API.

    ``fn`` must map an array of radii of shape (len(upper), m) to integrand
    values of the same shape, which lets callers build integrands that depend
    on the batch index (for instance translated bodies).  Refinement bisects
    the shared unit parameter until the Gauss 16/32 discrepancy is below
    ``rtol`` for every batch entry.

    Returns
    -------
    (values, errors) : pair of arrays shaped like ``upper``.

    Raises
    ------
    QuadratureError
        When ``max_depth`` bisections are not enough.
    """
    upper = np.asarray(upper, dtype=float)
    flat = np.atleast_1d(upper).astype(float)
    panels = [(0.0, 1.0)]
    for _ in range(max_depth):
        total = np.zeros_like(flat)
        err = np.zeros_like(flat)
        for a, b in panels:
            lo = _panel_eval(fn, flat, *_gauss_legendre(16, 0.0), a, b)
            hi = _panel_eval(fn, flat, *_gauss_legendre(32, 0.0), a, b)
            total += hi
            err += np.abs(hi - lo)
        scale = np.maximum(np.abs(total), 1e-300)
        if np.all(err <= rtol * scale + 1e-15):
            if upper.ndim == 0:
                return float(total[0]), float(err[0])
            return total, err
        panels = [p for ab in panels for p in ((ab[0], 0.5 * (ab[0] + ab[1])), (0.5 * (ab[0] + ab[1]), ab[1]))]
    raise QuadratureError("radial quadrature did not converge")
