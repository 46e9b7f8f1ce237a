"""Shared numeric primitives: maximization by a grid bracket and the root of
the slope, root polishing, switch points of a grid argmax, the chain-profit DP
over bundle masks, peak counting.

Roots are polished by ``rising_root``'s own Brent iteration, a step-for-step
port of scipy's ``brentq``; on the same bracket and tolerances it returns the
same float, so the module needs numpy only.
"""

from __future__ import annotations

import math
import warnings
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

TIE_TOL = 1e-12  # grid values this close to the maximum count as tied
PEAK_LOSS_TOL = 1e-12  # a polished peak this far below the grid maximum is rounding
ROOT_XTOL, ROOT_RTOL = 1e-14, 4 * math.ulp(1.0)  # Brent's tolerances: absolute, relative
ROOT_MAXITER = 100


class MultiplePeaksWarning(UserWarning):
    """Raised when a scan finds several near-tied local maxima."""


def any_true(mask) -> bool:
    """Whether a comparison holds: on one number, or at any entry of an array."""
    return bool(mask.any()) if isinstance(mask, np.ndarray) else bool(mask)


def rising_root(g: Callable[[float], float], lo: float, hi: float) -> Optional[float]:
    """Where g rises through zero on [lo, hi], clamped to the bracket.

    Returns lo when g(lo) >= 0, hi when g(hi) <= 0, and otherwise the Brent
    root of g(lo) < 0 < g(hi) polished to 1e-14; None when that sign change
    cannot be decided because an end value is NaN.

    The iteration is scipy's ``optimize/Zeros/brentq.c`` (BSD-3-Clause,
    Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers) ported
    step for step, with xtol 1e-14, rtol 4 eps and 100 iterations, started
    from the two end values already computed here.  It returns what
    ``scipy.optimize.brentq(g, lo, hi, xtol=1e-14)`` returns and fails as it
    does: ValueError when g is NaN inside the bracket, RuntimeError when the
    iteration does not converge.
    """
    g_lo, g_hi = float(g(lo)), float(g(hi))
    if g_lo >= 0.0:
        return float(lo)
    if g_hi <= 0.0:
        return float(hi)
    if np.isnan(g_lo) or np.isnan(g_hi):
        return None
    # xcur is the best estimate, xpre the previous one and xblk the end of
    # the bracket [xcur, xblk] across which g changes sign
    xpre, xcur, fpre, fcur = float(lo), float(hi), g_lo, g_hi
    xblk = fblk = spre = scur = 0.0
    for _ in range(ROOT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (ROOT_XTOL + ROOT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = float(g(xcur))
        if math.isnan(fcur):
            raise ValueError(f"g({xcur:.6g}) is NaN; the root iteration cannot continue")
    raise RuntimeError(f"root iteration failed to converge after {ROOT_MAXITER} iterations")


def scanned_max(
    f: Callable[[float], float],
    xs: np.ndarray,
    ys: np.ndarray,
    slope: Callable[[float], float],
    warn_label: str = "",
) -> float:
    """Argmax of f between the ends of the grid ``xs`` (ascending or descending),
    given its values ``ys`` there.

    The grid maximum xs[k] brackets the peak between its two neighbours,
    where the stationary point is the root of the analytic ``slope`` (df/dx),
    solved to near machine precision.  The root is returned when it lies
    strictly inside the bracket and f there is within ``PEAK_LOSS_TOL`` of
    ys[k]; otherwise the grid point is, so a peak at an end of the grid is
    returned exactly.
    Non-adjacent grid maxima within ``TIE_TOL`` of the best trigger
    MultiplePeaksWarning and the first along the grid is kept.
    """
    ys = np.asarray(ys, dtype=float)
    near = np.flatnonzero(ys >= ys.max() - TIE_TOL)
    # a 2-point adjacent tie is a peak sitting on a cell midpoint, not a
    # uniqueness violation; larger or disconnected tie sets are
    if near.size >= 3 or (near.size == 2 and near[1] - near[0] > 1):
        warnings.warn(
            f"multiple near-tied maxima{' for ' + warn_label if warn_label else ''}; "
            "keeping the first along the grid",
            MultiplePeaksWarning,
            stacklevel=2,
        )
    k = int(near[0])
    a, b = sorted((float(xs[max(k - 1, 0)]), float(xs[min(k + 1, xs.size - 1)])))
    r = rising_root(lambda z: -slope(z), a, b)
    if r is not None and a < r < b and f(r) >= ys[k] - PEAK_LOSS_TOL:
        return r
    return float(xs[k])


def switch_points(
    rows: np.ndarray, xs: np.ndarray, gap: Callable[[int, int], Callable[[float], float]]
):
    """Grid argmax of ``rows`` and the exact points where it switches.

    ``pick`` is the first maximal row at each point of the sorted grid ``xs``.
    In each cell k where it moves from row a to row b, the switch point is the
    ``rising_root`` of ``gap(a, b)`` (row b's advantage over row a) on
    [xs[k], xs[k+1]], or xs[k+1] when that root cannot be decided.  Returns
    (pick, [(k, point), ...]) with the points nondecreasing.
    """
    pick = np.argmax(rows, axis=0)
    points = []
    for k in np.flatnonzero(np.diff(pick) != 0):
        lo, hi = float(xs[k]), float(xs[k + 1])
        cut = rising_root(gap(int(pick[k]), int(pick[k + 1])), lo, hi)
        points.append((int(k), hi if cut is None else cut))
    return pick, points


def chain_dp(potentials: Mapping[int, np.ndarray], bundles: Sequence[int], fixed: bool = False):
    """Best chain of ascending bundle masks with ordered cutoff indices, by one DP.

    Under upgrade pricing a step from p to b with b's cutoff at index k earns
    Psi_b[k] - Psi_p[k], where Psi_b is ``potentials[b]`` (Psi_0 = 0) and -inf
    forbids a cutoff.  Paths start at 0.  With ``fixed`` the path is the chain
    ``bundles`` and indices never fall.  Otherwise b follows 0 or any proper
    subset among ``bundles``, the path ends anywhere, and indices rise, so
    every member but the last sells to some type.  So best[b] = Psi_b + the
    max over predecessors p of gain[p]: 0 for p = 0, else the running max of
    best[p] before (``fixed``: up to) each index minus a finite Psi_p, -inf
    elsewhere.  When bundles fill half the masks below the largest, one
    ascending walk keeps each mask's max over its subsets (a subset-max
    transform, O(n * 2^n * grid)), taken in place in the mask's row from its
    immediate subsets' rows in ascending bit order; sparser bundles scan their
    subsets.  Ties keep the smallest predecessor, the last index attaining
    each running max and the smallest final mask.  Returns (value,
    [(bundle, index), ...]).
    """
    if fixed and any(lo & ~hi for lo, hi in zip(bundles[:-1], bundles[1:])):
        raise ValueError(f"masks {list(bundles)} are not a nested chain")
    bundles = list(bundles) if fixed else sorted(bundles)
    shift, width = int(not fixed), potentials[bundles[0]].size
    best, gain = {}, {0: np.zeros(width)}

    def preds(b):
        if fixed:
            return [([0] + bundles)[bundles.index(b)]]
        return [0] + [p for p in bundles if p != b and p & ~b == 0]

    def visit(b, lead):
        best[b] = potentials[b] + lead
        ahead = np.full(width, -np.inf)
        np.maximum.accumulate(best[b][: width - shift], out=ahead[shift:])
        gain[b] = np.subtract(ahead, potentials[b], out=np.full(width, -np.inf),
                              where=potentials[b] > -np.inf)

    masks = 1 << max(bundles).bit_length()
    if not fixed and masks <= 2 * len(bundles):
        sellable, below = set(bundles), np.zeros((masks, width))  # max of gain over subsets
        for s in range(1, masks):
            row, bits = below[s], [j for j in range(s.bit_length()) if s >> j & 1]
            np.copyto(row, below[s ^ 1 << bits[0]])
            for j in bits[1:]:
                np.maximum(row, below[s ^ 1 << j], out=row)
            if s in sellable:
                visit(s, row)
                np.maximum(row, gain[s], out=row)
    else:
        for b in bundles:
            visit(b, np.max([gain[p] for p in preds(b)], axis=0))

    def cutoff(b, k):  # the last index up to k attaining the running max of best[b]
        head = best[b][: k + 1]
        return int(np.flatnonzero(head == head.max())[-1])

    b = bundles[-1] if fixed else max(bundles, key=lambda b: best[b].max())
    value, k, path = float(best[b].max()), cutoff(b, width - 1), []
    while b != 0:
        path.append((b, k))
        b = max(preds(b), key=lambda p: gain[p][k])  # first maximum: the smallest predecessor
        k = cutoff(b, k - shift) if b else k
    return value, path[::-1]


def count_descents_to_ascents(y: np.ndarray, noise: Optional[float] = None) -> int:
    """Number of strict fall-then-rise turns in y; 0 means single-peaked on the grid."""
    y = np.asarray(y, dtype=float)
    if noise is None:
        spread = float(y.max() - y.min()) if y.size else 0.0
        noise = max(1e-12, 1e-14 * spread)
    d = y[1:] - y[:-1]
    falls = d[np.abs(d) > noise] < 0.0  # the steps beyond the noise, compressed once
    return int(np.count_nonzero(falls[:-1] & ~falls[1:]))
