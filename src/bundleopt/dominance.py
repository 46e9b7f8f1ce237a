"""Dominance partial order on bundles, nesting and union-elasticity checks.

A bundle is dominated when some superset sells at least as much when sold
alone.  The undominated set and whether it forms a chain under inclusion
drive the choice between the nested-menu solver and the LP oracle.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from .demand import DemandProfile, elasticity_grid
from .model import ProblemSpec, format_bundle, is_subset, subset_pairs

EPS_Q = 1e-7  # tie tolerance on sales-volume comparisons; ties dominate
ETA_TOL = 1e-6  # buffer around the -1 elasticity threshold
MAX_RECORDED = 50  # union-elasticity failures kept in a report


class CornerVolumeWarning(UserWarning):
    """A bundle's sales volume sits at 0 or 1; it is skipped by dominance."""


class TiedBestSellerWarning(UserWarning):
    """Two bundles tie for the highest sales volume within tolerance."""


@dataclass(frozen=True)
class DominanceRelation:
    pairs: frozenset  # (b1, b2) with b1 dominated-or-equal by b2
    undominated: tuple
    nested: bool
    best_selling: int
    sales_order: tuple  # bundles by sales volume descending, smaller mask first
    d_star: dict
    corner_bundles: tuple = ()
    best_selling_tied: bool = False

    def dominates(self, b1: int, b2: int) -> bool:
        return (b1, b2) in self.pairs


def build_dominance(spec: ProblemSpec, profiles: dict[int, DemandProfile]) -> DominanceRelation:
    """Relation over bundles with nonzero value; corner solutions are skipped."""
    corner = tuple(sorted(b for b, p in profiles.items() if p.corner))
    if corner:
        warnings.warn(
            "sales volume at a corner for "
            + ", ".join(format_bundle(b) for b in corner)
            + "; excluded from the dominance relation",
            CornerVolumeWarning,
            stacklevel=2,
        )
    eligible = sorted(b for b in profiles if b not in corner)
    d_star = {b: profiles[b].d_star for b in eligible}

    pairs = {(b, b) for b in eligible} | {
        (b1, b2) for b1, b2 in subset_pairs(eligible) if d_star[b1] <= d_star[b2] + EPS_Q
    }

    dominated = {b1 for (b1, b2) in pairs if b1 != b2}
    undominated = tuple(b for b in eligible if b not in dominated)
    nested = all(
        is_subset(b1, b2) or is_subset(b2, b1)
        for i, b1 in enumerate(undominated)
        for b2 in undominated[i + 1 :]
    )

    order = sorted(eligible, key=lambda b: (-d_star[b], b))
    best = order[0] if order else 0
    tied = len(order) > 1 and d_star[order[1]] >= d_star[best] - EPS_Q
    if tied:
        warnings.warn(
            f"best-selling bundle not unique: {format_bundle(best)} ties "
            f"{format_bundle(order[1])} within {EPS_Q}; keeping the smaller mask",
            TiedBestSellerWarning,
            stacklevel=2,
        )
    return DominanceRelation(
        pairs=frozenset(pairs),
        undominated=undominated,
        nested=nested,
        best_selling=best,
        sales_order=tuple(order),
        d_star=d_star,
        corner_bundles=corner,
        best_selling_tied=tied,
    )


# ---------------------------------------------------------------------------
# union elasticity


@dataclass
class UnionElasticityReport:
    holds: bool
    cost_adjusted: bool
    n_flagged: int = 0
    failures: list = field(default_factory=list)  # (b1, b2, q, eta1, eta2, eta_union)
    skipped_pairs: list = field(default_factory=list)  # unions without a value expression


def check_union_elasticity(
    spec: ProblemSpec, profiles: dict[int, DemandProfile]
) -> UnionElasticityReport:
    """Scan all bundle pairs and grid quantities for union-elasticity failures.

    A failure is a quantity where both demand curves are elastic (eta < -1)
    but the union's is not.  With costs present the cost-adjusted elasticity
    is used.  The first ``MAX_RECORDED`` failures are kept.  Pairs whose union
    carries no value expression cannot be evaluated and are recorded as skipped.
    Each bundle's elastic and inelastic masks are built once; a pair ANDs them.
    """
    cost_adjusted = not spec.zero_costs()
    report = UnionElasticityReport(holds=True, cost_adjusted=cost_adjusted)

    bundles = sorted(profiles)
    etas, elastic, inelastic = {}, {}, {}
    q = spec.q_grid
    for b in bundles:
        # finite only where q > 0 and the price (net of cost) is positive
        etas[b] = eta = elasticity_grid(spec, b, cost_adjusted=cost_adjusted)
        valid = (q < 1.0) & np.isfinite(eta)
        elastic[b] = valid & (eta < -1.0 - ETA_TOL)
        inelastic[b] = valid & (eta >= -1.0 + ETA_TOL)

    for i, b1 in enumerate(bundles):
        for b2 in bundles[i + 1 :]:
            union = b1 | b2
            if union == b1 or union == b2:
                continue
            if union not in profiles:
                report.skipped_pairs.append((b1, b2))
                continue
            idx = np.flatnonzero(elastic[b1] & elastic[b2] & inelastic[union])
            if idx.size:
                report.holds = False
                report.n_flagged += int(idx.size)
                for k in idx[: max(0, MAX_RECORDED - len(report.failures))]:
                    report.failures.append(
                        (b1, b2, float(q[k]), float(etas[b1][k]), float(etas[b2][k]),
                         float(etas[union][k]))
                    )
    return report


def elasticity_menu(
    profiles: dict[int, DemandProfile], union_report: UnionElasticityReport
) -> list[int]:
    """Chain of successive unions in descending sales-volume order.

    Sort bundles by sales volume (ties to the smaller mask), union them one
    at a time, and drop duplicates.  Requires a verified union-elasticity
    report; the resulting chain is then an optimal menu candidate.
    """
    if not union_report.holds:
        raise ValueError("union elasticity condition not verified; menu construction refused")
    order = sorted(profiles, key=lambda b: (-profiles[b].d_star, b))
    chain: list[int] = []
    acc = 0
    for b in order:
        acc |= b
        if not chain or acc != chain[-1]:
            if acc not in profiles:
                raise ValueError(
                    f"union {format_bundle(acc)} carries no value expression; "
                    "cannot form the sales-ordered chain"
                )
            chain.append(acc)
    return chain


# ---------------------------------------------------------------------------
# sales-volume conditions for menu optimality


@dataclass(frozen=True)
class MenuOptimalityReport:
    sufficient: bool
    witness: Optional[int]
    necessity_ok: bool
    necessity_witness: Optional[int]
    smallest_is_best_selling: bool
    includes_grand: bool


def check_menu_optimality(
    spec: ProblemSpec, profiles: dict[int, DemandProfile], menu: Iterable[int]
) -> MenuOptimalityReport:
    """Sales-volume sufficiency test for a nested menu, plus converse flags.

    Sufficient when (i) within the menu, smaller bundles strictly out-sell
    bigger ones, and (ii) every bundle outside the menu is dominated by some
    menu superset.  The converse flags additionally require the menu to start
    at the best-selling bundle and to contain the grand bundle.
    """
    chain = sorted(set(menu))
    for i, b1 in enumerate(chain):
        for b2 in chain[i + 1 :]:
            if not (is_subset(b1, b2) or is_subset(b2, b1)):
                raise ValueError(
                    f"menu is not a chain: {format_bundle(b1)} and {format_bundle(b2)}"
                )
    d_star = {b: profiles[b].d_star for b in profiles}
    for b in chain:
        if b not in d_star:
            raise ValueError(f"menu bundle {format_bundle(b)} has no demand profile")

    witness = None
    cond_i = True
    for i, b1 in enumerate(chain):
        for b2 in chain[i + 1 :]:
            if is_subset(b1, b2) and not d_star[b1] > d_star[b2] + EPS_Q:
                cond_i = False
                witness = witness if witness is not None else b1

    cond_ii = True
    outside = [b for b in sorted(profiles) if b not in set(chain)]
    for b1 in outside:
        dominated = any(
            b1 != b2 and is_subset(b1, b2) and d_star[b1] <= d_star[b2] + EPS_Q
            for b2 in chain
        )
        if not dominated:
            cond_ii = False
            witness = witness if witness is not None else b1

    # converse-side conditions for minimal optimality
    necessity_witness = None
    conv_ii = True
    menu_max = max((d_star[b] for b in chain), default=0.0)
    for b1 in outside:
        if d_star[b1] > menu_max + EPS_Q:
            conv_ii = False
            necessity_witness = necessity_witness if necessity_witness is not None else b1

    order = sorted(profiles, key=lambda b: (-d_star[b], b))
    best = order[0] if order else 0
    smallest = chain[0] if chain else 0
    smallest_is_best = smallest == best
    includes_grand = spec.grand_bundle in chain
    necessity_ok = cond_i and conv_ii and smallest_is_best and includes_grand
    if not cond_i and necessity_witness is None:
        necessity_witness = witness

    return MenuOptimalityReport(
        sufficient=cond_i and cond_ii,
        witness=witness,
        necessity_ok=necessity_ok,
        necessity_witness=necessity_witness,
        smallest_is_best_selling=smallest_is_best,
        includes_grand=includes_grand,
    )


# ---------------------------------------------------------------------------
# Hasse diagram export


def hasse_edges(relation: DominanceRelation) -> list[tuple[int, int]]:
    """Covering pairs of the strict dominance order."""
    strict = {(a, b) for (a, b) in relation.pairs if a != b}
    edges = []
    for a, b in sorted(strict):
        if any((a, c) in strict and (c, b) in strict for c in relation.d_star if c not in (a, b)):
            continue
        edges.append((a, b))
    return edges


def to_dot(relation: DominanceRelation) -> str:
    """DOT digraph of the covering relation; undominated bundles drawn bold."""
    lines = ["digraph dominance {", "  rankdir=BT;", '  node [shape=box, fontname="monospace"];']
    undom = set(relation.undominated)
    for b in sorted(relation.d_star, key=lambda m: (bin(m).count("1"), m)):
        label = f"{format_bundle(b)}\\nD*={relation.d_star[b]:.4f}"
        style = ', style=bold, penwidth=2' if b in undom else ""
        lines.append(f'  b{b} [label="{label}"{style}];')
    for a, b in hasse_edges(relation):
        lines.append(f"  b{a} -> b{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"
