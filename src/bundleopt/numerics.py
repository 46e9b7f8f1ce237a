"""Shared numeric primitives: array-scanned maximization, root polishing, peak counting."""

from __future__ import annotations

import warnings
from typing import Callable, Optional

import numpy as np
from scipy.optimize import brentq

INVPHI = (np.sqrt(5.0) - 1.0) / 2.0  # 1/golden ratio


class MultiplePeaksWarning(UserWarning):
    """Raised when a scan finds several near-tied local maxima."""


def rising_root(
    g: Callable[[float], float], lo: float, hi: float, xtol: float = 1e-12
) -> Optional[float]:
    """Where g rises through zero on [lo, hi], clamped to the bracket.

    Returns lo when g(lo) >= 0, hi when g(hi) <= 0, and otherwise the Brent
    root of g(lo) < 0 < g(hi) polished to ``xtol``; None when that sign
    change cannot be decided because an end value is NaN.
    """
    g_lo, g_hi = float(g(lo)), float(g(hi))
    if g_lo >= 0.0:
        return float(lo)
    if g_hi <= 0.0:
        return float(hi)
    if np.isnan(g_lo) or np.isnan(g_hi):
        return None
    return float(brentq(g, lo, hi, xtol=xtol))


def golden_max(f: Callable[[float], float], lo: float, hi: float, tol: float = 1e-10) -> float:
    """Golden-section maximization of a unimodal f on [lo, hi]; returns argmax."""
    a, b = lo, hi
    c = b - INVPHI * (b - a)
    d = a + INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + INVPHI * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def bracketed_max(
    f: Callable,
    lo: float,
    hi: float,
    coarse: int = 1001,
    tol: float = 1e-10,
    tie_tol: float = 1e-12,
    slope: Optional[Callable[[float], float]] = None,
    warn_label: str = "",
) -> float:
    """Argmax of f on [lo, hi]: coarse scan, golden-section refinement, slope polish.

    ``f`` must accept an array: the ``coarse``-point grid is evaluated in one
    call, and the refinement then calls it on scalars.  See ``scanned_max``.
    """
    if hi <= lo:
        return lo
    xs = np.linspace(lo, hi, coarse)
    return scanned_max(f, xs, f(xs), tol, tie_tol, slope, warn_label)


def scanned_max(
    f: Callable[[float], float],
    xs: np.ndarray,
    ys: np.ndarray,
    tol: float = 1e-10,
    tie_tol: float = 1e-12,
    slope: Optional[Callable[[float], float]] = None,
    warn_label: str = "",
) -> float:
    """Argmax of f on [xs[0], xs[-1]] given its values ``ys`` on the sorted grid ``xs``.

    The grid brackets the peak; golden section shrinks the bracket to
    ``tol``.  Golden section alone stalls at ~sqrt(eps) accuracy because the
    objective is flat at the peak, so when an analytic ``slope`` is supplied
    and falls through zero across the final bracket, the stationary point is
    re-solved to near machine precision.  Non-adjacent grid maxima within
    ``tie_tol`` of the best trigger MultiplePeaksWarning and the smallest
    argmax is kept.
    """
    ys = np.asarray(ys, dtype=float)
    best = np.max(ys)
    near = np.flatnonzero(ys >= best - tie_tol)
    # a 2-point adjacent tie is a peak sitting on a cell midpoint, not a
    # uniqueness violation; larger or disconnected tie sets are
    if np.any(np.diff(near) > 1) or near.size >= 3:
        warnings.warn(
            f"multiple near-tied maxima{' for ' + warn_label if warn_label else ''}; "
            "keeping the smallest argument",
            MultiplePeaksWarning,
            stacklevel=3,
        )
    k = int(near[0])
    a = xs[max(k - 1, 0)]
    b = xs[min(k + 1, xs.size - 1)]
    x = golden_max(f, a, b, tol=tol) if b > a else xs[k]
    if slope is not None:
        r = rising_root(lambda z: -slope(z), a, b, xtol=1e-14)
        if r is not None and a < r < b and f(r) >= f(x) - 1e-12:
            x = r
    return float(min(max(x, xs[0]), xs[-1]))


def count_descents_to_ascents(y: np.ndarray, noise: Optional[float] = None) -> int:
    """Number of strict fall-then-rise turns in y; 0 means single-peaked on the grid."""
    y = np.asarray(y, dtype=float)
    if noise is None:
        spread = float(np.max(y) - np.min(y)) if y.size else 0.0
        noise = max(1e-12, 1e-14 * spread)
    d = np.diff(y)
    sign = np.zeros_like(d, dtype=int)
    sign[d > noise] = 1
    sign[d < -noise] = -1
    sign = sign[sign != 0]
    return int(np.count_nonzero((sign[:-1] == -1) & (sign[1:] == 1)))
