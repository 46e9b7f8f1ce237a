"""Nested-menu solver: virtual surplus machinery, menu construction, pricing.

The solver works in type space.  The virtual surplus of a bundle at type t
equals the marginal profit of selling the bundle alone at the quantity whose
marginal consumer is t, so profit-maximizing cutoffs are crossings of virtual
surplus curves and every expectation reduces to quadrature on the type grid.
Under nesting the minimal optimal menu is the grid argmax of the undominated
chain's virtual surplus curves (``_envelope_chain``): both ``solve_nested_menu``
and ``envelope_allocation`` read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .demand import DemandProfile, virtual_surplus
from .dominance import DominanceRelation
from .model import ProblemSpec, format_bundle, is_subset
from .numerics import chain_dp, rising_root, switch_points

PRICE_RECONCILE_TOL = 1e-8  # telescoped vs upgrade-price construction
REVENUE_EQ_TOL = 1e-5


class NestingError(RuntimeError):
    """Menu construction requested although the undominated set is not a chain."""


class MonotonicityError(RuntimeError):
    """Envelope allocation failed to be monotone in set inclusion."""


# ---------------------------------------------------------------------------
# virtual surplus curves (ProblemSpec.surplus_rows) on the type grid


def _surplus_gap(spec: ProblemSpec, b: int, below: int):
    """x -> virtual surplus of b minus that of ``below`` (0 for the empty bundle)."""
    return lambda x: float(
        virtual_surplus(spec, b, x) - (virtual_surplus(spec, below, x) if below else 0.0)
    )


@dataclass(frozen=True)
class CrossingRecord:
    """Last type where the bigger bundle's virtual surplus overtakes the smaller's."""

    b_small: int
    b_big: int
    s: float  # last crossing type
    chi: float  # virtual surplus of the smaller bundle at s


def last_crossing(spec: ProblemSpec, b1: int, b2: int) -> CrossingRecord:
    """Last switch of the grid argmax of the two surplus curves (ties to b1).

    The crossing is the bottom type when b2 leads throughout and the top type
    when b2 does not lead there.
    """
    if b1 == b2 or not is_subset(b1, b2):
        raise ValueError(
            f"{format_bundle(b1)} must be a proper subset of {format_bundle(b2)}"
        )
    t, pair = spec.t_grid, (b1, b2)
    rows = np.stack([spec.surplus_rows[b] for b in pair])
    pick, points = switch_points(rows, t, lambda a, b: _surplus_gap(spec, pair[b], pair[a]))
    if pick[-1] == 0:
        s = float(t[-1])
    else:
        s = points[-1][1] if points else float(t[0])
    return CrossingRecord(b_small=b1, b_big=b2, s=s, chi=float(virtual_surplus(spec, b1, s)))


def _envelope_integral(spec: ProblemSpec, bundles: Sequence[int]) -> float:
    """E[max(0, max over ``bundles`` of virtual surplus)], trapezoid on the type grid."""
    env = np.zeros(spec.grid_size)
    for b in bundles:
        env = np.maximum(env, spec.surplus_rows[b])
    f = spec.dist.pdf(spec.t_grid)
    return float(np.trapezoid(env * f, spec.t_grid))


def relaxed_bound(spec: ProblemSpec) -> float:
    """E[max(0, max_b virtual surplus)]: an upper bound on any mechanism's profit."""
    return _envelope_integral(spec, spec.nonzero_bundles())


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
    jumps at the boundaries.  Interior grid points read ``spec.surplus_rows``;
    only the two ends are evaluated.
    """
    t = spec.t_grid
    total = 0.0
    for lo, hi, b, _price in segments:
        if b == 0 or hi - lo <= 0:
            continue
        row = spec.surplus_rows[b]
        if lo <= t[0] and not np.isfinite(row[0]):
            # integrable singularity at the bottom type: the quadrature would
            # be garbage, so report the accounting as unavailable
            return float("nan")
        i0 = int(np.searchsorted(t, lo, side="right"))
        i1 = int(np.searchsorted(t, hi, side="left"))
        xs = np.concatenate(([lo], t[i0:i1], [hi]))
        ends = virtual_surplus(spec, b, np.array([lo, hi]))
        ys = np.concatenate((ends[:1], row[i0:i1], ends[1:])) * spec.dist.pdf(xs)
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


def simulate_menu(
    spec: ProblemSpec, bundles: Sequence[int], prices: Sequence[float]
) -> MechanismSolution:
    """Simulated consumer choice for a posted-price menu on the type grid.

    Each type takes the utility-maximizing option (ties to the cheaper one,
    then the smaller bundle); the outside option is always available.
    Utilities are read from ``spec.value_rows``, and the boundaries between
    choice regions are the exact indifference points of
    ``numerics.switch_points``, so profit uses exact segment masses.
    """
    opts = sorted([(0.0, 0)] + [(float(p), int(b)) for p, b in zip(prices, bundles)])
    opt_prices, opt_bundles = (np.array(col) for col in zip(*opts))

    def gap(a, b):
        (pa, ba), (pb, bb) = opts[a], opts[b]
        return lambda x: float((spec.value(bb, x) - pb) - (spec.value(ba, x) - pa))

    t = spec.t_grid
    util = np.stack([(spec.value_rows[b] if b else np.zeros(t.size)) - p for p, b in opts])
    pick, points = switch_points(util, t, gap)
    segments, start = [], float(t[0])
    for k, cut in [*points, (t.size - 1, float(t[-1]))]:
        p, b = opts[pick[k]]
        segments.append((start, cut, b, p))
        start = cut
    alloc, pays = opt_bundles[pick], opt_prices[pick]
    utes = util[pick, np.arange(t.size)]

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


def _chain_terms(spec: ProblemSpec, bundles: Sequence[int]):
    """Continuum ``numerics.chain_dp`` terms Psi_b - Psi_p on the type grid.

    Psi_b is the top-down cumulative trapezoid of b's virtual surplus times the
    density (Psi_0 = 0).  Cutoffs where the posted price v(b, t) would be
    nonpositive are excluded, and so is a floored bottom point.
    """
    t = spec.t_grid
    f = spec.dist.pdf(t)
    psi, blocked, sellable = {0: np.zeros(t.size)}, {0: False}, {}
    for b in bundles:
        phi = spec.surplus_rows[b]
        bad = ~np.isfinite(phi)
        blocked[b] = bool(bad[0])
        y = np.where(bad, phi[np.argmax(~bad)], phi) * f  # floored at the first finite value
        cells = 0.5 * (y[1:] + y[:-1]) * np.diff(t)
        psi[b] = np.append(np.cumsum(cells[::-1])[::-1], 0.0)
        sellable[b] = spec.value_rows[b] > 0.0

    def term(p, b):
        out = psi[b] - psi[p]
        out[~sellable[b]] = -np.inf
        if blocked[b] or blocked[p]:
            out[0] = -np.inf
        return out

    return term


def optimize_chain(spec: ProblemSpec, bundles: Sequence[int]):
    """Profit-maximizing cutoff types for a nested chain, by exact separable DP.

    Segment profits are top-down cumulative integrals of virtual surplus, so
    the fixed-chain ``numerics.chain_dp`` finds the grid optimum under the
    ordering t_1 <= ... <= t_l; each cutoff is then polished to the exact
    crossing of adjacent surplus curves.  A member the grid optimum prices
    out (its cutoff index equals the next member's) sells to no type: the
    next member is polished against the last member below that still sells,
    and the priced-out member takes its cutoff.  Returns (cutoffs, prices).
    """
    chain = sorted(bundles)
    value, path = chain_dp(_chain_terms(spec, chain), chain, fixed=True)
    if not np.isfinite(value):
        raise ValueError("no feasible positive-price cutoffs for this chain")

    t = spec.t_grid
    cutoffs, below = [], 0
    for j, (b, k) in enumerate(path):
        if j + 1 < len(path) and path[j + 1][1] == k:
            continue  # priced out: takes the cutoff of the next member that sells
        lo = t[max(k - 1, 0)]
        hi = t[min(k + 1, t.size - 1)]
        cut = rising_root(_surplus_gap(spec, b, below), lo, hi)
        if cut is None or not lo < cut < hi:
            cut = float(t[k])
        if cutoffs and cut < cutoffs[-1]:
            cut = cutoffs[-1]
        cutoffs.extend([cut] * (j + 1 - len(cutoffs)))
        below = b

    return cutoffs, _chain_prices(spec, chain, cutoffs)


def evaluate_menu(
    spec: ProblemSpec, bundles: Sequence[int], prices: Optional[Sequence[float]] = None
) -> MechanismSolution:
    """``simulate_menu`` of a menu on the type grid; optimizes prices when omitted.

    Prices are optimized only for a chain, by the exact cutoff DP; a menu
    that is not a chain needs explicit prices (the LP oracle finds optimal
    non-nested mechanisms, and ``oracle.discrete_chain_profit`` prices a
    chain on its discrete types).
    """
    if prices is None:
        bundles = sorted(set(int(b) for b in bundles))
        if not all(is_subset(b1, b2) for b1, b2 in zip(bundles[:-1], bundles[1:])):
            raise ValueError(
                "prices are optimized only for nested menus; give prices, or use "
                "the LP oracle (oracle.solve_lp) for non-nested mechanisms"
            )
        _cutoffs, prices = optimize_chain(spec, bundles)
    return simulate_menu(spec, bundles, prices)


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


def best_nested_menu(spec: ProblemSpec):
    """Best profit over all nested menus with prices optimized per menu.

    One ``numerics.chain_dp`` over the inclusion lattice of bundles with nonzero
    value (grand bundle not required) finds the best chain on the type grid in
    O(3^n * grid); only that chain is priced and simulated.  Returns (solution, chain).
    """
    bundles = spec.nonzero_bundles()
    _value, path = chain_dp(_chain_terms(spec, bundles), bundles)
    chain = [b for b, _k in path]
    return evaluate_menu(spec, chain), chain


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


def _envelope_chain(spec: ProblemSpec, relation: DominanceRelation):
    """Bundles and cutoff types of the grid argmax of the chain's virtual surplus.

    Each type takes the undominated bundle with the largest virtual surplus,
    or nothing when every surplus is negative (ties to the smaller bundle);
    a bundle joins the menu where the argmax steps up to it, at the exact
    crossing from ``numerics.switch_points``.  The allocation must be
    monotone in set inclusion along the type axis.  Returns (bundles,
    cutoffs); a bundle the bottom type already takes has cutoff t[0].
    """
    if not relation.nested:
        raise NestingError("undominated bundles are not nested; run `verify` for the LP route")
    members = [0, *sorted(relation.undominated)]  # the empty bundle earns 0
    t = spec.t_grid
    curves = np.stack([np.zeros(t.size)] + [spec.surplus_rows[b] for b in members[1:]])
    gap = lambda a, b: _surplus_gap(spec, members[b], members[a])
    pick, points = switch_points(curves, t, gap)  # ties to the smaller bundle
    if np.any(np.diff(pick) < 0):
        k = int(np.flatnonzero(np.diff(pick) < 0)[0]) + 1
        raise MonotonicityError(
            f"envelope allocation not monotone at t={t[k]:.9g}; "
            "local quasi-concavity likely fails"
        )
    bundles = [members[pick[k + 1]] for k, _cut in points]
    cutoffs = [cut for _k, cut in points]
    if pick[0] > 0:  # the bottom type already buys
        bundles, cutoffs = [members[pick[0]], *bundles], [float(t[0]), *cutoffs]
    return bundles, cutoffs


def solve_nested_menu(spec: ProblemSpec, relation: DominanceRelation) -> NestedMenu:
    """The minimal optimal nested menu, read off the virtual-surplus envelope.

    The undominated chain's argmax allocation (``_envelope_chain``) gives the
    tiers and their cutoff types; a tier's quantity is the mass of types at
    or above its cutoff, and prices follow from the cutoffs via upgrade
    pricing.  The certificate is VALID when the spec's validation report has
    no warnings and the menu's envelope integral attains the relaxed bound
    within 1e-6.
    """
    bundles, cutoffs = _envelope_chain(spec, relation)
    quantities = tuple(float(1.0 - spec.dist.cdf(s)) for s in cutoffs)
    prices = _chain_prices(spec, bundles, cutoffs)
    upgrades = tuple(float(u) for u in np.diff(prices, prepend=0.0))

    invalid_reasons = []
    if spec.validation.warnings:
        invalid_reasons.append("validation warnings present")
    profit = _envelope_integral(spec, bundles)
    bound = relaxed_bound(spec)
    if abs(profit - bound) > 1e-6:
        invalid_reasons.append(
            f"menu profit {profit:.9g} does not attain the relaxed bound {bound:.9g}"
        )
    certificate = "VALID" if not invalid_reasons else "INVALID: " + "; ".join(invalid_reasons)
    return NestedMenu(
        bundles=tuple(bundles),
        quantities=quantities,
        cutoff_types=tuple(cutoffs),
        prices=tuple(prices),
        upgrade_prices=upgrades,
        expected_profit=profit,
        bound=bound,
        certificate=certificate,
    )


def envelope_allocation(spec: ProblemSpec, relation: DominanceRelation) -> MechanismSolution:
    """Mechanism that assigns each type its argmax virtual-surplus bundle.

    The menu of ``_envelope_chain``, priced from its exact cutoff crossings
    and simulated for the final solution object.
    """
    bundles, cutoffs = _envelope_chain(spec, relation)
    return simulate_menu(spec, bundles, _chain_prices(spec, bundles, cutoffs))
