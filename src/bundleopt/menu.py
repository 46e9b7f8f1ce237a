"""Nested-menu solver: virtual surplus machinery, menu construction, pricing.

The solver works in type space.  The virtual surplus of a bundle at type t
equals the marginal profit of selling the bundle alone at the quantity whose
marginal consumer is t, so profit-maximizing cutoffs are crossings of virtual
surplus curves.  No expectation needs quadrature: f * phi_b = -dPsi_b/dt for
the potential Psi_b(t) = (v(b, t) - C(b)) * (1 - F(t)) (``ProblemSpec.potential``,
whose grid rows the chain DP reads), so the virtual surplus of b over types
[s, s'] earns Psi_b(s) - Psi_b(s') (Myerson 1981; Mussa & Rosen 1978), and an
envelope's expectation is that sum over the exact switch points of its grid
argmax (``_envelope``).  Under nesting the minimal optimal menu is the grid
argmax of the undominated chain's virtual surplus curves (``_envelope_chain``,
the all-bundle envelope when the chain owns its runs): both
``solve_nested_menu`` and ``envelope_allocation`` read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .demand import virtual_surplus
from .dominance import DominanceRelation
from .model import ProblemSpec, format_bundle, is_subset
from .numerics import chain_dp, rising_root, switch_points

REVENUE_EQ_TOL = 1e-5  # simulated vs virtual-surplus profit of a posted menu
BOTTOM_UTILITY_TOL = 1e-9  # bottom-type utility that is rounding: revenue equivalence holds
BOUND_GAP_TOL = 1e-6  # menu profit vs relaxed bound for a VALID certificate


class NestingError(RuntimeError):
    """Menu construction requested although the undominated set is not a chain."""


class MonotonicityError(RuntimeError):
    """Envelope allocation failed to be monotone in set inclusion."""


# ---------------------------------------------------------------------------
# virtual surplus curves (ProblemSpec.surplus_rows) on the type grid


def _surplus_gap(spec: ProblemSpec, b: int, below: int):
    """x -> virtual surplus of b minus that of ``below`` (0 for the empty bundle)."""
    return lambda x: virtual_surplus(spec, b, x) - (below and virtual_surplus(spec, below, x))


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


def _segment_virtual_profit(spec: ProblemSpec, segments) -> float:
    """E[virtual surplus of the bundle each type takes]: Psi_b(lo) - Psi_b(hi)
    summed over the segments (lo, hi, b, ...) that bundle b owns."""
    return float(sum(spec.potential(b, lo) - spec.potential(b, hi)
                     for lo, hi, b, *_ in segments if b))


def _runs(t: np.ndarray, pick: np.ndarray, points) -> list:
    """(lo, hi, row) for each run of a ``switch_points`` grid argmax, with exact ends."""
    ends = [float(t[0]), *(cut for _k, cut in points), float(t[-1])]
    rows = [pick[0], *(pick[k + 1] for k, _cut in points)]
    return [(lo, hi, int(r)) for lo, hi, r in zip(ends[:-1], ends[1:], rows)]


def _envelope(spec: ProblemSpec, members: Sequence[int]):
    """The grid argmax of 0 and ``members``' virtual surplus curves (ties to the
    earlier row), its ``switch_points`` and E[max(0, max over members of phi_b)]
    summed in closed form over its runs.  Returns (owners, points,
    expectation); owners is the mask picked at each grid point."""
    rows, t = [0, *members], spec.t_grid
    curves = np.stack([np.zeros(t.size)] + [spec.surplus_rows[b] for b in members])
    pick, points = switch_points(curves, t, lambda a, b: _surplus_gap(spec, rows[b], rows[a]))
    owners = np.asarray(rows)[pick]
    return owners, points, _segment_virtual_profit(spec, _runs(t, owners, points))


def relaxed_bound(spec: ProblemSpec) -> float:
    """E[max(0, max_b virtual surplus)]: an upper bound on any mechanism's profit."""
    return _envelope(spec, spec.nonzero_bundles())[2]


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


def _chain_prices(spec: ProblemSpec, bundles: Sequence[int], cutoffs: Sequence[float]):
    """Upgrade prices for a nested chain from its cutoff types: p_0 = v_0(s_0),
    p_j = p_{j-1} + v_j(s_j) - v_{j-1}(s_j).  ``simulate_menu``'s revenue
    equivalence check cross-checks them."""
    prices = [float(spec.value(bundles[0], cutoffs[0]))] if bundles else []
    for below, b, s in zip(bundles, bundles[1:], cutoffs[1:]):
        prices.append(prices[-1] + float(spec.value(b, s) - spec.value(below, s)))
    return prices


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
    segments = [(lo, hi, opts[r][1], opts[r][0]) for lo, hi, r in _runs(t, pick, points)]
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
    if sol.bottom_utility <= BOTTOM_UTILITY_TOL and abs(profit - vprofit) > REVENUE_EQ_TOL:
        raise RuntimeError(
            f"revenue equivalence violated: simulated {profit:.9g} vs "
            f"virtual-surplus {vprofit:.9g}"
        )
    return sol


# ---------------------------------------------------------------------------
# optimal cutoffs for a fixed chain


def _priced_potentials(spec: ProblemSpec, bundles: Sequence[int]):
    """``numerics.chain_dp`` potentials on the type grid: ``potential_rows``,
    -inf at cutoffs where the posted price v(b, t) would be nonpositive."""
    return {b: np.where(spec.value_rows[b] > 0.0, spec.potential_rows[b], -np.inf) for b in bundles}


def optimize_chain(spec: ProblemSpec, bundles: Sequence[int]):
    """Profit-maximizing cutoff types for a nested chain, by exact separable DP.

    Segment profits are differences of the potentials Psi_b, so the
    fixed-chain ``numerics.chain_dp`` finds the grid optimum under the
    ordering t_1 <= ... <= t_l; each cutoff is then polished to the exact
    crossing of adjacent surplus curves.  A member the grid optimum prices
    out (its cutoff index equals the next member's) sells to no type: the
    next member is polished against the last member below that still sells,
    and the priced-out member takes its cutoff.  Returns (cutoffs, prices).
    """
    chain = sorted(bundles)
    value, path = chain_dp(_priced_potentials(spec, chain), chain, fixed=True)
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


def best_nested_menu(spec: ProblemSpec):
    """Best profit over all nested menus with prices optimized per menu.

    One ``numerics.chain_dp`` over the inclusion lattice of bundles with nonzero
    value (grand bundle not required) finds the best chain on the type grid in
    O(n * 2^n * grid); only that chain is priced and simulated.  Returns (solution, chain).
    """
    bundles = spec.nonzero_bundles()
    _value, path = chain_dp(_priced_potentials(spec, bundles), bundles)
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
    """Bundles, cutoff types and expectation of the chain's virtual-surplus envelope.

    Each type takes the undominated bundle with the largest virtual surplus,
    or nothing when every surplus is negative (ties to the smaller bundle);
    a bundle joins the menu where the argmax steps up to it, at the exact
    crossing from ``numerics.switch_points``.  The all-bundle envelope gives
    the bound; where 0 and undominated bundles own all its runs it is the
    chain's too (same picks, ties and roots), else the chain's is computed.
    The allocation must be monotone in set inclusion along the type axis.
    Returns (bundles, cutoffs, expectation, bound); a bundle the bottom type
    already takes has cutoff t[0].
    """
    if not relation.nested:
        raise NestingError("undominated bundles are not nested; run `verify` for the LP route")
    owners, points, bound = _envelope(spec, spec.nonzero_bundles())
    profit = bound
    if not np.isin(owners, [0, *relation.undominated]).all():
        owners, points, profit = _envelope(spec, sorted(relation.undominated))
    t = spec.t_grid
    if np.any(np.diff(owners) < 0):  # masks of a chain ascend with inclusion
        k = int(np.flatnonzero(np.diff(owners) < 0)[0]) + 1
        raise MonotonicityError(
            f"envelope allocation not monotone at t={t[k]:.9g}; "
            "local quasi-concavity likely fails"
        )
    bundles = [int(owners[k + 1]) for k, _cut in points]
    cutoffs = [cut for _k, cut in points]
    if owners[0] > 0:  # the bottom type already buys
        bundles, cutoffs = [int(owners[0]), *bundles], [float(t[0]), *cutoffs]
    return bundles, cutoffs, profit, bound


def solve_nested_menu(spec: ProblemSpec, relation: DominanceRelation) -> NestedMenu:
    """The minimal optimal nested menu, read off the virtual-surplus envelope.

    The undominated chain's argmax allocation (``_envelope_chain``) gives the
    tiers and their cutoff types; a tier's quantity is the mass of types at
    or above its cutoff, and prices follow from the cutoffs via upgrade
    pricing.  The expected profit is the envelope's expected virtual surplus,
    and the relaxed bound the all-bundle envelope's, each summed in closed
    form over exact switch points, so neither depends on the grid beyond
    where it finds them.  The certificate is VALID when the spec's validation
    report has no warnings and the profit attains the bound within
    ``BOUND_GAP_TOL``.
    """
    bundles, cutoffs, profit, bound = _envelope_chain(spec, relation)
    quantities = tuple(float(1.0 - spec.dist.cdf(s)) for s in cutoffs)
    prices = _chain_prices(spec, bundles, cutoffs)
    upgrades = tuple(float(u) for u in np.diff(prices, prepend=0.0))

    invalid_reasons = []
    if spec.validation.warnings:
        invalid_reasons.append("validation warnings present")
    if abs(profit - bound) > BOUND_GAP_TOL:
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
    bundles, cutoffs, _profit, _bound = _envelope_chain(spec, relation)
    return simulate_menu(spec, bundles, _chain_prices(spec, bundles, cutoffs))
