"""Nested-menu solver: virtual surplus machinery, menu construction, pricing.

The solver works in type space.  The virtual surplus of a bundle at type t
equals the marginal profit of selling the bundle alone at the quantity whose
marginal consumer is t, so profit-maximizing cutoffs are crossings of virtual
surplus curves and every expectation reduces to quadrature on the type grid.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .demand import DemandProfile, marginal_profit, profit_curve, virtual_surplus
from .dominance import EPS_Q, DominanceRelation
from .model import ProblemSpec, format_bundle, is_subset
from .numerics import count_descents_to_ascents, rising_root, scanned_max

PRICE_RECONCILE_TOL = 1e-8  # telescoped vs upgrade-price construction
REVENUE_EQ_TOL = 1e-5
PEAK_SPLIT_TOL = 1e-8  # multi-peak incremental profit: tie tolerance before erroring


class NestingError(RuntimeError):
    """Menu construction requested although the undominated set is not a chain."""


class MonotonicityError(RuntimeError):
    """Envelope allocation failed to be monotone in set inclusion."""


class MultiPeakError(RuntimeError):
    """Incremental profit has decisively distinct peaks; construction unsound."""


# ---------------------------------------------------------------------------
# virtual surplus (demand.virtual_surplus) on the type grid


def virtual_surplus_grid(spec: ProblemSpec, b: int) -> np.ndarray:
    return np.asarray(virtual_surplus(spec, b, spec.t_grid), dtype=float)


@dataclass(frozen=True)
class CrossingRecord:
    """Last type where the bigger bundle's virtual surplus overtakes the smaller's."""

    b_small: int
    b_big: int
    s: float  # last crossing type
    chi: float  # virtual surplus of the smaller bundle at s


def last_crossing(spec: ProblemSpec, b1: int, b2: int) -> CrossingRecord:
    """Scan the type grid from the top for the last crossing of the surplus curves."""
    if b1 == b2 or not is_subset(b1, b2):
        raise ValueError(
            f"{format_bundle(b1)} must be a proper subset of {format_bundle(b2)}"
        )
    t = spec.t_grid
    with np.errstate(invalid="ignore"):
        delta = virtual_surplus_grid(spec, b2) - virtual_surplus_grid(spec, b1)
    finite = np.isfinite(delta)
    nonpos = np.flatnonzero(finite & (delta <= 0.0))
    if nonpos.size == 0:
        s = float(t[0])
    elif nonpos[-1] == t.size - 1:
        s = float(t[-1])
    else:
        k = int(nonpos[-1])
        s = rising_root(
            lambda x: virtual_surplus(spec, b2, x) - virtual_surplus(spec, b1, x),
            float(t[k]),
            float(t[k + 1]),
            xtol=1e-9,
        )
        if s is None:
            s = float(t[k])
    return CrossingRecord(b_small=b1, b_big=b2, s=s, chi=float(virtual_surplus(spec, b1, s)))


def relaxed_bound(spec: ProblemSpec) -> float:
    """E[max(0, max_b virtual surplus)]: an upper bound on any mechanism's profit."""
    env = np.zeros(spec.grid_size)
    for b in spec.nonzero_bundles():
        env = np.maximum(env, virtual_surplus_grid(spec, b))
    f = spec.dist.pdf(spec.t_grid)
    return float(np.trapezoid(env * f, spec.t_grid))


# ---------------------------------------------------------------------------
# mechanisms


@dataclass(frozen=True)
class MechanismSolution:
    """Deterministic mechanism on the type grid with exact segment masses."""

    types: np.ndarray
    allocation: np.ndarray  # bundle mask per type
    payments: np.ndarray
    utilities: np.ndarray
    segments: tuple  # (t_lo, t_hi, bundle, price) with exact boundaries
    expected_profit: float  # simulated-choice profit, sum of (p - C) * mass
    virtual_profit: float  # E[sum_b a_b * virtual surplus]

    @property
    def bottom_utility(self) -> float:
        return float(self.utilities[0])


def ic_report(spec: ProblemSpec, sol: MechanismSolution):
    """Worst IC violation over all (type, option) pairs and worst IR violation.

    Returns (ic_violation, (type, bundle), ir_violation); positive numbers
    mean the constraint is broken by that amount.
    """
    options = sorted(
        {(int(b), float(p)) for b, p in zip(sol.allocation, sol.payments)} | {(0, 0.0)}
    )
    ic_worst = -np.inf
    ic_pair = None
    for b, p in options:
        gain = spec.value(b, sol.types) - p - sol.utilities
        k = int(np.argmax(gain))
        if gain[k] > ic_worst:
            ic_worst = float(gain[k])
            ic_pair = (float(sol.types[k]), b)
    ir_worst = float(-np.min(sol.utilities))
    return ic_worst, ic_pair, ir_worst


def _segment_virtual_profit(spec: ProblemSpec, segments) -> float:
    """Integrate the assigned virtual surplus segment by segment.

    Segment endpoints are exact, so the integrand is smooth inside each
    segment and the trapezoid error stays O(h^2) even when the allocation
    jumps at the boundaries.
    """
    t = spec.t_grid
    total = 0.0
    for lo, hi, b, _price in segments:
        if b == 0 or hi - lo <= 0:
            continue
        if lo <= t[0] and not np.isfinite(float(virtual_surplus(spec, b, t[0]))):
            # integrable singularity at the bottom type: the quadrature would
            # be garbage, so report the accounting as unavailable
            return float("nan")
        i0 = int(np.searchsorted(t, lo, side="right"))
        i1 = int(np.searchsorted(t, hi, side="left"))
        xs = np.concatenate(([lo], t[i0:i1], [hi]))
        f = spec.dist.pdf(xs)
        ys = np.asarray(virtual_surplus(spec, b, xs), dtype=float) * f
        total += float(np.trapezoid(ys, xs))
    return total


def _chain_prices(spec: ProblemSpec, bundles: Sequence[int], cutoffs: Sequence[float]):
    """Prices for a nested chain from its cutoff types.

    Built twice: telescoped from the cutoff values and via upgrade prices.
    The two must agree; a mismatch indicates a broken cutoff sequence.
    """
    prices_up = []
    for j, (b, s) in enumerate(zip(bundles, cutoffs)):
        if j == 0:
            prices_up.append(float(spec.value(b, s)))
        else:
            upgrade = float(spec.value(b, s) - spec.value(bundles[j - 1], s))
            prices_up.append(prices_up[-1] + upgrade)
    prices_tel = []
    for j, (b, s) in enumerate(zip(bundles, cutoffs)):
        correction = sum(
            float(spec.value(bundles[i], cutoffs[i + 1]) - spec.value(bundles[i], cutoffs[i]))
            for i in range(j)
        )
        prices_tel.append(float(spec.value(b, s)) - correction)
    for pu, pt in zip(prices_up, prices_tel):
        if abs(pu - pt) > PRICE_RECONCILE_TOL:
            raise RuntimeError(
                f"price constructions disagree: telescoped {pt:.12g} vs upgrade {pu:.12g}"
            )
    return prices_up


def _boundary(gap, lo: float, hi: float) -> float:
    """Exact switch point in a grid cell where the choice moves to a new option.

    ``gap`` is the new option's advantage over the old one; the cell end is
    kept when the advantage does not rise through zero inside the cell, and
    ``hi`` when that cannot be decided.
    """
    cut = rising_root(gap, lo, hi)
    return hi if cut is None else cut


def simulate_menu(
    spec: ProblemSpec,
    bundles: Sequence[int],
    prices: Sequence[float],
    types: Optional[np.ndarray] = None,
    weights: Optional[np.ndarray] = None,
) -> MechanismSolution:
    """Simulated consumer choice for a posted-price menu.

    Each type takes the utility-maximizing option (ties to the cheaper one,
    then the smaller bundle); the outside option is always available.  On the
    shared type grid, boundaries between choice regions are refined to exact
    indifference points so profit uses exact masses.  With explicit discrete
    ``types``/``weights`` (the LP oracle's instance), profit is the weighted
    sum instead and no virtual-surplus accounting is attempted.
    """
    opts = [(0.0, 0)] + [(float(p), int(b)) for p, b in zip(prices, bundles)]
    opts.sort(key=lambda bp: (bp[0], bp[1]))
    opt_prices = np.array([p for p, _ in opts])
    opt_bundles = [b for _, b in opts]

    if types is not None:
        w = np.asarray(weights, dtype=float)
        util = np.stack([spec.value(b, types) - p for p, b in opts])
        pick = np.argmax(util, axis=0)
        alloc = np.array([opt_bundles[k] for k in pick])
        pays = opt_prices[pick]
        utes = util[pick, np.arange(types.size)]
        profit = float(np.sum(w * (pays - np.array([spec.cost(b) for b in alloc]))))
        return MechanismSolution(
            types=np.asarray(types, dtype=float),
            allocation=alloc,
            payments=pays,
            utilities=utes,
            segments=(),
            expected_profit=profit,
            virtual_profit=float("nan"),
        )

    t = spec.t_grid
    util = np.stack([spec.value(b, t) - p for p, b in opts])
    pick = np.argmax(util, axis=0)
    alloc = np.array([opt_bundles[k] for k in pick])
    pays = opt_prices[pick]
    utes = util[pick, np.arange(t.size)]

    # refine region boundaries to exact indifference points
    segments = []
    start = float(t[0])
    for k in np.flatnonzero(np.diff(pick) != 0):
        a, b_idx = int(pick[k]), int(pick[k + 1])
        pa, ba = opts[a]
        pb, bb = opts[b_idx]

        def gap(x):
            return float((spec.value(bb, x) - pb) - (spec.value(ba, x) - pa))

        cut = _boundary(gap, float(t[k]), float(t[k + 1]))
        segments.append((start, cut, ba, pa))
        start = cut
    last = int(pick[-1])
    segments.append((start, float(t[-1]), opts[last][1], opts[last][0]))

    profit = sum(
        (price - spec.cost(b)) * (spec.dist.cdf(hi) - spec.dist.cdf(lo))
        for lo, hi, b, price in segments
    )
    vprofit = _segment_virtual_profit(spec, segments)
    sol = MechanismSolution(
        types=t,
        allocation=alloc,
        payments=pays,
        utilities=utes,
        segments=tuple(segments),
        expected_profit=float(profit),
        virtual_profit=float(vprofit),
    )
    # the 1e-5 agreement target is calibrated to the default 4097-point grid;
    # quadrature error grows as h^2 on coarser grids
    tol = REVENUE_EQ_TOL * max(1.0, (4096.0 / (t.size - 1)) ** 2)
    if np.isfinite(vprofit) and sol.bottom_utility <= 1e-9 and abs(profit - vprofit) > tol:
        raise RuntimeError(
            f"revenue equivalence violated: simulated {profit:.9g} vs "
            f"virtual-surplus {vprofit:.9g}"
        )
    return sol


# ---------------------------------------------------------------------------
# optimal cutoffs for a fixed chain


def optimize_chain(spec: ProblemSpec, bundles: Sequence[int]):
    """Profit-maximizing cutoff types for a nested chain, by exact separable DP.

    With cutoffs t_1 <= ... <= t_l and segment profits written as top-down
    cumulative integrals of virtual surplus, the objective separates into one
    term per cutoff, so a running-max DP over the type grid finds the global
    optimum subject to the ordering constraint; each cutoff is then polished
    to the exact crossing of adjacent surplus curves.  Returns (cutoffs,
    prices).
    """
    chain = sorted(bundles)
    for b1, b2 in zip(chain[:-1], chain[1:]):
        if not is_subset(b1, b2):
            raise ValueError("optimize_chain requires a nested chain")
    t = spec.t_grid
    f = spec.dist.pdf(t)
    n = t.size

    def reverse_cum(phi: np.ndarray) -> np.ndarray:
        y = phi * f
        cells = 0.5 * (y[1:] + y[:-1]) * np.diff(t)
        out = np.zeros(n)
        out[:-1] = np.cumsum(cells[::-1])[::-1]
        return out

    phis = {}
    blocked = {}
    for b in chain:
        phi = virtual_surplus_grid(spec, b)
        bad = ~np.isfinite(phi)
        blocked[b] = bool(bad[0])
        if np.any(bad):
            phi = phi.copy()
            phi[bad] = phi[np.flatnonzero(~bad)[0]]
        phis[b] = phi

    terms = []
    for j, b in enumerate(chain):
        psi = reverse_cum(phis[b])
        term = psi if j == 0 else psi - reverse_cum(phis[chain[j - 1]])
        term = term.copy()
        # a cutoff is a posted price v(b, t); exclude types where that price
        # would be nonpositive, plus a floored bottom point
        sellable = np.asarray(spec.value(b, t), dtype=float) > 0.0
        term[~sellable] = -np.inf
        if blocked[b] or (j > 0 and blocked[chain[j - 1]]):
            term[0] = -np.inf
        terms.append(term)

    # DP with the ordering constraint: cutoff indices must be nondecreasing
    running = np.maximum.accumulate(terms[0])
    arg = np.zeros((len(chain), n), dtype=int)
    arg[0] = np.maximum.accumulate(np.where(terms[0] == running, np.arange(n), -1))
    for j in range(1, len(chain)):
        total = terms[j] + running
        running = np.maximum.accumulate(total)
        arg[j] = np.maximum.accumulate(np.where(total == running, np.arange(n), -1))
    if not np.isfinite(running[-1]):
        raise ValueError("no feasible positive-price cutoffs for this chain")
    k_last = int(arg[-1][-1])
    idx = [0] * len(chain)
    idx[-1] = k_last
    for j in range(len(chain) - 2, -1, -1):
        idx[j] = int(arg[j][idx[j + 1]])

    cutoffs = []
    for j, b in enumerate(chain):
        k = idx[j]
        lo = t[max(k - 1, 0)]
        hi = t[min(k + 1, n - 1)]

        def slope(x, j=j, b=b):
            below = virtual_surplus(spec, chain[j - 1], x) if j > 0 else 0.0
            return float(virtual_surplus(spec, b, x) - below)

        cut = rising_root(slope, lo, hi)
        if cut is None or not lo < cut < hi:
            cut = float(t[k])
        if cutoffs and cut < cutoffs[-1]:
            cut = cutoffs[-1]
        cutoffs.append(cut)

    return cutoffs, _chain_prices(spec, chain, cutoffs)


def _grid_price_search(spec: ProblemSpec, bundles: Sequence[int]):
    """Iterated-zoom grid search over prices for small non-nested menus."""
    if len(bundles) > 3:
        raise ValueError("price search supports menus of at most 3 bundles")
    tops = [float(spec.value(b, spec.dist.hi)) for b in bundles]
    los = [0.0] * len(bundles)
    his = list(tops)
    best_prices = list(tops)
    for _round in range(6):
        axes = [np.linspace(lo, hi, 13) for lo, hi in zip(los, his)]
        best_val = -np.inf
        for combo in np.stack(np.meshgrid(*axes), axis=-1).reshape(-1, len(bundles)):
            val = simulate_menu(spec, bundles, combo).expected_profit
            if val > best_val:
                best_val = val
                best_prices = [float(p) for p in combo]
        steps = [(hi - lo) / 12.0 for lo, hi in zip(los, his)]
        los = [max(0.0, p - s) for p, s in zip(best_prices, steps)]
        his = [min(top, p + s) for p, s, top in zip(best_prices, steps, tops)]
    return best_prices


def evaluate_menu(
    spec: ProblemSpec,
    bundles: Sequence[int],
    prices: Optional[Sequence[float]] = None,
    types: Optional[np.ndarray] = None,
    weights: Optional[np.ndarray] = None,
) -> MechanismSolution:
    """Simulated-choice evaluation of a menu; optimizes prices when omitted.

    Chains get the exact cutoff DP; other menus (at most 3 bundles) fall back
    to an iterated grid search over price vectors.
    """
    if prices is None:
        bundles = sorted(set(int(b) for b in bundles))
        is_chain = all(
            is_subset(b1, b2) for b1, b2 in zip(bundles[:-1], bundles[1:])
        )
        if is_chain:
            _cutoffs, prices = optimize_chain(spec, bundles)
        else:
            prices = _grid_price_search(spec, bundles)
    else:
        paired = sorted(zip((int(b) for b in bundles), (float(p) for p in prices)))
        bundles = [b for b, _ in paired]
        prices = [p for _, p in paired]
    return simulate_menu(spec, bundles, prices, types=types, weights=weights)


def iter_chains(bundles: Sequence[int], max_size: Optional[int] = None):
    """All nonempty chains (under set inclusion) drawn from the given bundles."""
    cap = max_size or len(bundles)
    chains: list[tuple[int, ...]] = [()]
    for chain in chains:
        for b in bundles:
            if chain and (b <= chain[-1] or not is_subset(chain[-1], b)):
                continue
            new = chain + (b,)
            if len(new) <= cap:
                chains.append(new)
    return [c for c in chains if c]


def two_item_base_test(spec: ProblemSpec, profiles: dict[int, DemandProfile]):
    """Two-item suboptimality test via the best-selling item as menu base.

    Any minimal optimal nested menu must start at the best-selling bundle, so
    if basing the two-tier menu on it earns strictly less than basing it on
    the other item, nested bundling is strictly suboptimal.  Returns
    (flag, profit_with_best_base, profit_with_other_base).
    """
    if spec.n_items != 2:
        raise ValueError("base test is specific to two items")
    singles = [b for b in (0b01, 0b10) if b in profiles]
    if len(singles) != 2 or 0b11 not in profiles:
        raise ValueError("base test needs both single items and the full bundle")
    best = max(singles, key=lambda b: (profiles[b].d_star, -b))
    other = singles[0] if best == singles[1] else singles[1]
    p_best = evaluate_menu(spec, [best, 0b11]).expected_profit
    p_other = evaluate_menu(spec, [other, 0b11]).expected_profit
    return p_best < p_other - 1e-9, p_best, p_other


def best_nested_menu(spec: ProblemSpec, max_size: Optional[int] = None):
    """Best profit over all nested menus with prices optimized per menu.

    Enumerates every chain of bundles with nonzero value (grand bundle not
    required); returns (solution, chain).
    """
    best: tuple[float, tuple, Optional[MechanismSolution]] = (-np.inf, (), None)
    for chain in iter_chains(spec.nonzero_bundles(), max_size):
        sol = evaluate_menu(spec, chain)
        if sol.expected_profit > best[0]:
            best = (sol.expected_profit, chain, sol)
    return best[2], list(best[1])


# ---------------------------------------------------------------------------
# minimal optimal menu construction


@dataclass(frozen=True)
class NestedMenu:
    """Minimal optimal nested menu: chain, quantities, cutoffs, prices."""

    bundles: tuple
    quantities: tuple
    cutoff_types: tuple
    prices: tuple
    upgrade_prices: tuple
    expected_profit: float
    bound: float
    certificate: str  # VALID or INVALID: <reason>

    def as_rows(self):
        rows = []
        for j, b in enumerate(self.bundles):
            rows.append(
                {
                    "bundle": format_bundle(b),
                    "quantity": self.quantities[j],
                    "cutoff_type": self.cutoff_types[j],
                    "price": self.prices[j],
                    "upgrade_price": self.upgrade_prices[j],
                }
            )
        return rows


def _incremental_peaks(values: np.ndarray) -> list[float]:
    """Values of local maxima of a scanned curve (interior strict + endpoints)."""
    padded = np.concatenate(([-np.inf], values, [-np.inf]))
    top = (values >= padded[:-2]) & (values >= padded[2:])
    return sorted(values[top].tolist(), reverse=True)


def solve_nested_menu(
    spec: ProblemSpec,
    profiles: dict[int, DemandProfile],
    relation: DominanceRelation,
    validation=None,
) -> NestedMenu:
    """Construct the minimal optimal nested menu by stack-based elimination.

    Walks the undominated chain from the smallest bundle up, maximizing each
    bundle's incremental profit against the top of the stack: a maximizer at
    the top's quantity pops the stack (the smaller bundle is never worth
    keeping), an interior maximizer pushes the bundle with that quantity, and
    a zero maximizer skips the bundle.  Prices follow from the cutoff types
    via upgrade pricing.
    """
    if not relation.nested:
        raise NestingError(
            "undominated bundles are not a chain; use the LP oracle instead"
        )
    chain = sorted(relation.undominated)
    invalid_reasons = []
    if validation is not None and getattr(validation, "warnings", None):
        invalid_reasons.append("validation warnings present")

    stack: list[tuple[int, float]] = [(0, 1.0)]
    i = 0
    while i < len(chain):
        b_i = chain[i]
        if not stack:
            stack.append((b_i, profiles[b_i].d_star))
            i += 1
            continue
        b_hat, q_hat = stack[-1]

        def inc(q, b_i=b_i, b_hat=b_hat):
            return profit_curve(spec, b_i, q) - profit_curve(spec, b_hat, q)

        def inc_slope(q, b_i=b_i, b_hat=b_hat):
            return marginal_profit(spec, b_i, q) - marginal_profit(spec, b_hat, q)

        qs = np.linspace(0.0, q_hat, 1001)
        scan = inc(qs)
        if count_descents_to_ascents(scan, noise=1e-14) > 0:
            peaks = _incremental_peaks(scan)
            if len(peaks) >= 2 and peaks[0] - peaks[1] > PEAK_SPLIT_TOL:
                raise MultiPeakError(
                    f"incremental profit of {format_bundle(b_i)} against "
                    f"{format_bundle(b_hat)} has distinct peaks "
                    f"({peaks[0]:.9g} vs {peaks[1]:.9g})"
                )
            warnings.warn(
                f"incremental profit of {format_bundle(b_i)} against "
                f"{format_bundle(b_hat)} is multi-peaked; certificate voided",
                UserWarning,
                stacklevel=2,
            )
            invalid_reasons.append("multi-peaked incremental profit")
        q_star = scanned_max(inc, qs, scan, tol=1e-10, slope=inc_slope)

        if q_star >= q_hat - EPS_Q:
            stack.pop()
        elif q_star <= EPS_Q:
            i += 1
        else:
            stack.append((b_i, q_star))
            i += 1

    menu = [(b, q) for b, q in stack if b != 0]
    bundles = tuple(b for b, _ in menu)
    quantities = tuple(q for _, q in menu)
    cutoffs = tuple(float(spec.dist.quantile(1.0 - q)) for q in quantities)
    prices = _chain_prices(spec, bundles, cutoffs)
    upgrades = tuple(
        prices[j] - (prices[j - 1] if j > 0 else 0.0) for j in range(len(prices))
    )

    f = spec.dist.pdf(spec.t_grid)
    env = np.zeros(spec.grid_size)
    for b in bundles:
        env = np.maximum(env, virtual_surplus_grid(spec, b))
    profit = float(np.trapezoid(env * f, spec.t_grid))

    bound = relaxed_bound(spec)
    if abs(profit - bound) > 1e-6:
        invalid_reasons.append(
            f"menu profit {profit:.9g} does not attain the relaxed bound {bound:.9g}"
        )
    certificate = "VALID" if not invalid_reasons else "INVALID: " + "; ".join(invalid_reasons)
    return NestedMenu(
        bundles=bundles,
        quantities=quantities,
        cutoff_types=cutoffs,
        prices=tuple(prices),
        upgrade_prices=upgrades,
        expected_profit=profit,
        bound=bound,
        certificate=certificate,
    )


def envelope_allocation(spec: ProblemSpec, relation: DominanceRelation) -> MechanismSolution:
    """Mechanism that assigns each type its argmax virtual-surplus bundle.

    Requires the nesting condition; the resulting allocation must be monotone
    in set inclusion along the type axis (a violation signals an assumption
    failure upstream).  Prices are recovered from the exact cutoff crossings,
    after which the mechanism is simulated for the final solution object.
    """
    if not relation.nested:
        raise NestingError("envelope allocation requires the nesting condition")
    chain = sorted(relation.undominated)
    t = spec.t_grid
    curves = [np.zeros(t.size)] + [virtual_surplus_grid(spec, b) for b in chain]
    stackv = np.stack(curves)
    pick = np.argmax(stackv, axis=0)  # first max -> ties to the smaller bundle
    if np.any(np.diff(pick) < 0):
        k = int(np.flatnonzero(np.diff(pick) < 0)[0]) + 1
        raise MonotonicityError(
            f"envelope allocation not monotone at t={t[k]:.9g}; "
            "local quasi-concavity likely fails"
        )
    used = []
    cutoffs = []
    for k in np.flatnonzero(np.diff(pick) != 0):
        lo_i, hi_i = int(pick[k]), int(pick[k + 1])
        b_new = chain[hi_i - 1]
        b_old = 0 if lo_i == 0 else chain[lo_i - 1]

        def gap(x, b_new=b_new, b_old=b_old):
            below = virtual_surplus(spec, b_old, x) if b_old != 0 else 0.0
            return float(virtual_surplus(spec, b_new, x) - below)

        used.append(b_new)
        cutoffs.append(_boundary(gap, float(t[k]), float(t[k + 1])))
    if not used:
        # a single bundle covers the whole support (or nothing does)
        top = int(pick[-1])
        if top > 0:
            used = [chain[top - 1]]
            cutoffs = [float(t[0])]
    prices = _chain_prices(spec, used, cutoffs)
    return simulate_menu(spec, used, prices)
