"""Quality-menu design, costly-screening criterion, rotation comparative statics.

Quality-differentiated goods embed into the bundling machinery as chains
{1}, {1,2}, ..., {1..n}; screening with costly actions embeds as an
(n_qualities + n_actions)-item problem whose extra items opt out of each
action.  Embeddings and the two-item family are built as mask-keyed specs
and pass ``model.check_spec``, as a loaded problem file does.  Sales volumes
are read from the core's demand profiles, of the embedding or of each
product sold alone; other bundles carry zero value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from typing import Callable, Optional, Sequence

import numpy as np

from .demand import DemandProfile, compute_profile, compute_profiles
from .dominance import EPS_Q, build_dominance, check_union_elasticity
from .menu import _envelope, solve_nested_menu
from .model import (
    DEFAULT_GRID_SIZE,
    MonomialSum,
    ProblemSpec,
    SpecError,
    TypeDistribution,
    _field,
    _integer,
    _numbers,
    _object,
    _parse_distribution,
    _parse_expression,
    check_grid_size,
    check_spec,
)
from .numerics import count_descents_to_ascents, rising_root

TIE_TOL = 1e-9
NET_TOL = 1e-12  # screening: a net value or step this close to 0 is rounding, not a sign
NET_DROP_TOL = 1e-10  # screening: a net value may fall this much per grid step and still rise
CROSSCHECK_TOL = 1e-9  # envelope menu vs solver menu profit on the quality embedding
TRANSITION_TOL = 1e-4  # bisection width of a refined menu change point


def _lone_product(
    value: MonomialSum, cost: float, dist: TypeDistribution, grid_size: int
) -> ProblemSpec:
    """One-item spec for a product sold alone: its demand, profit and sales volume.

    Unchecked: a good priced above its top value is a legal screening input."""
    return ProblemSpec(
        n_items=1, values={1: value}, costs={1: float(cost)}, dist=dist, grid_size=grid_size
    )


# ---------------------------------------------------------------------------
# monotone envelopes


def decreasing_envelope(vals: Sequence[float]) -> np.ndarray:
    """Pointwise-smallest nonincreasing function above vals (running max from the right)."""
    return np.maximum.accumulate(np.asarray(vals, dtype=float)[::-1])[::-1]


def increasing_envelope(vals: Sequence[float]) -> np.ndarray:
    """Pointwise-largest nondecreasing function below vals (running min from the right)."""
    return np.minimum.accumulate(np.asarray(vals, dtype=float)[::-1])[::-1]


# ---------------------------------------------------------------------------
# quality design


@dataclass(frozen=True)
class QualityProblem:
    """Qualities x_1 < ... < x_n with per-quality values and production costs."""

    qualities: tuple
    values: tuple  # MonomialSum per quality
    costs: tuple
    dist: TypeDistribution
    grid_size: int = DEFAULT_GRID_SIZE

    @staticmethod
    def from_document(
        doc: dict, label: str = "quality problem", costs_key: str = "costs"
    ) -> "QualityProblem":
        xs = tuple(_numbers(_field(doc, "qualities", label), "'qualities'"))
        if any(x2 <= x1 for x1, x2 in zip(xs[:-1], xs[1:])) or any(x <= 0 for x in xs):
            raise SpecError("qualities must be positive and strictly increasing")
        costs = tuple(_numbers(doc.get(costs_key, [0.0] * len(xs)), "quality 'costs'"))
        if len(costs) != len(xs):
            raise SpecError("need one cost per quality")
        vspec = _object(doc.get("values", {"kind": "multiplicative"}), "quality 'values'")
        if vspec.get("kind", "multiplicative") == "multiplicative":
            values = tuple(MonomialSum(terms=((x, 1.0),)) for x in xs)
        else:
            values = tuple(
                _parse_expression(e, f"quality {k + 1}")
                for k, e in enumerate(_field(vspec, "exprs", "non-multiplicative values"))
            )
        if len(values) != len(xs):
            raise SpecError("need one value expression per quality")
        zero = [k + 1 for k, v in enumerate(values) if v.is_zero()]
        if zero:
            raise SpecError(f"value of quality {zero[0]} is identically zero")
        dist = _parse_distribution(_field(doc, "distribution", label))
        grid_size = _integer(doc.get("grid_size", DEFAULT_GRID_SIZE), "'grid_size'")
        return QualityProblem(xs, values, costs, dist, check_grid_size(grid_size))

    @property
    def multiplicative(self) -> bool:
        return all(
            v.const == 0.0 and len(v.terms) == 1 and v.terms[0] == (x, 1.0)
            for x, v in zip(self.qualities, self.values)
        )

    @cached_property
    def embedded(self) -> ProblemSpec:
        """Bundling problem whose chain bundle {1..k+1} is quality k, checked once."""
        chain = [(2 << k) - 1 for k in range(len(self.qualities))]
        values, costs = dict(zip(chain, self.values)), dict(zip(chain, self.costs))
        return check_spec(ProblemSpec(len(chain), values, costs, self.dist, self.grid_size))

    @cached_property
    def profiles(self) -> dict[int, DemandProfile]:
        """Demand profiles of the embedding, computed once."""
        return compute_profiles(self.embedded)

    @property
    def d_star(self) -> np.ndarray:
        """Sales volume of each quality sold alone, read from ``profiles``."""
        masks = [(1 << k) - 1 for k in range(1, len(self.qualities) + 1)]
        return np.array([self.profiles[b].d_star for b in masks])

    @cached_property
    def regular(self) -> bool:
        """``is_regular`` of the type distribution on this problem's grid, checked once."""
        return is_regular(self.dist, self.grid_size)


@dataclass(frozen=True)
class EnvelopeResult:
    route: str  # "sales" or "costs"
    qualities: tuple
    d_star: tuple
    d_hat: tuple  # decreasing envelope of sales volumes
    menu: tuple  # 0-based quality indices in the optimal menu
    c_avg: Optional[tuple] = None
    c_check: Optional[tuple] = None  # increasing envelope of average costs
    identity_gap: Optional[float] = None


def _crosscheck_against_solver(problem, menu_idx) -> None:
    """The envelope menu must agree with the constructive solver on the embedding.

    It must contain the solver's menu, and the members the solver drops must
    add no profit: the envelope menu earns the solver's profit within
    ``CROSSCHECK_TOL``.  When the two menus are equal, the envelope over them
    makes the solver's picks and switch points, so it is not run again.
    """
    spec, profiles = problem.embedded, problem.profiles
    solved = solve_nested_menu(spec, build_dominance(spec, profiles))
    solver_idx = {b.bit_length() - 1 for b in solved.bundles}  # bundle {1..k+1} is quality k
    menu_set = set(menu_idx)
    if not solver_idx <= menu_set:
        raise RuntimeError(
            f"solver menu {sorted(solver_idx)} not contained in envelope menu {sorted(menu_set)}"
        )
    if solver_idx != menu_set:
        _owners, _points, profit = _envelope(spec, [(2 << k) - 1 for k in sorted(menu_set)])
        if abs(profit - solved.expected_profit) > CROSSCHECK_TOL:
            raise RuntimeError(
                f"envelope menu {sorted(menu_set)} earns {profit:.12g}, solver menu "
                f"{sorted(solver_idx)} earns {solved.expected_profit:.12g}"
            )


def quality_menu_from_sales(problem: QualityProblem) -> EnvelopeResult:
    """Optimal quality menu as the touch set of the decreasing sales envelope.

    Cross-checked by embedding into bundles and running the menu solver; the
    two menus must coincide up to members that add no profit.
    """
    d_star = problem.d_star
    if np.any(d_star <= 0.0) or np.any(d_star >= 1.0):
        raise SpecError("envelope route requires interior sales volumes for all qualities")
    d_hat = decreasing_envelope(d_star)
    menu = tuple(int(k) for k in np.flatnonzero(d_hat - d_star <= EPS_Q))
    _crosscheck_against_solver(problem, menu)
    return EnvelopeResult(
        route="sales",
        qualities=problem.qualities,
        d_star=tuple(float(v) for v in d_star),
        d_hat=tuple(float(v) for v in d_hat),
        menu=menu,
    )


def is_regular(dist: TypeDistribution, grid_size: int = DEFAULT_GRID_SIZE) -> bool:
    """Virtual value t - (1-F)/f strictly increasing (1e-10 slack)."""
    t = np.linspace(dist.lo, dist.hi, grid_size)
    return bool(np.all(np.diff(t - dist.inv_hazard(t)) > -1e-10))


def unit_mr_inverse(dist: TypeDistribution, c: float) -> float:
    """Quantity where the unit-value marginal revenue equals c (regular F)."""
    t_root = rising_root(lambda t: t - c - dist.inv_hazard(t), dist.lo, dist.hi)
    return float(1.0 - dist.cdf(t_root))


def quality_menu_from_costs(problem: QualityProblem) -> EnvelopeResult:
    """Optimal quality menu as the touch set of the increasing average-cost envelope.

    Requires multiplicative values x*t and a regular type distribution; the
    identity d_hat = MR^{-1}(c_check) ties this route to the sales-envelope
    route and is asserted pointwise.
    """
    if not problem.multiplicative:
        raise ValueError("cost-envelope route requires multiplicative values x*t")
    if not problem.regular:
        raise ValueError("cost-envelope route requires a regular type distribution")
    xs = np.asarray(problem.qualities, dtype=float)
    c_avg = np.asarray(problem.costs, dtype=float) / xs
    c_check = increasing_envelope(c_avg)
    menu = tuple(int(k) for k in np.flatnonzero(c_avg - c_check <= TIE_TOL))
    d_star = problem.d_star
    d_hat = decreasing_envelope(d_star)
    d_hat_from_costs = np.array([unit_mr_inverse(problem.dist, c) for c in c_check])
    gap = float(np.max(np.abs(d_hat_from_costs - d_hat)))
    if gap > 1e-8:
        raise RuntimeError(
            f"envelope identity violated: max |MR^-1(c_check) - d_hat| = {gap:.3g}"
        )
    return EnvelopeResult(
        route="costs",
        qualities=problem.qualities,
        d_star=tuple(float(v) for v in d_star),
        d_hat=tuple(float(v) for v in d_hat),
        menu=menu,
        c_avg=tuple(float(v) for v in c_avg),
        c_check=tuple(float(v) for v in c_check),
        identity_gap=gap,
    )


# ---------------------------------------------------------------------------
# costly screening


@dataclass(frozen=True)
class ScreeningProblem:
    """Qualities with utilities u(x,t), costly actions with disutilities c(y,t)."""

    quality: QualityProblem  # utilities, production costs, distribution and grid
    action_costs: tuple  # MonomialSum per action, strictly increasing in t

    @staticmethod
    def from_document(doc: dict) -> "ScreeningProblem":
        label = "screening problem"
        quality = QualityProblem.from_document(doc, label, costs_key="production_costs")
        actions = tuple(
            _parse_expression(a, f"action {j + 1}")
            for j, a in enumerate(_field(doc, "actions", label))
        )
        if not actions:
            raise SpecError("screening problem needs at least one costly action")
        zero = [j + 1 for j, a in enumerate(actions) if a.is_zero()]
        if zero:
            raise SpecError(f"disutility of action {zero[0]} is identically zero")
        return ScreeningProblem(quality=quality, action_costs=actions)

    @cached_property
    def goods(self) -> tuple:
        """Each quality as a product sold alone."""
        q = self.quality
        return tuple(_lone_product(v, c, q.dist, q.grid_size) for v, c in zip(q.values, q.costs))

    @cached_property
    def opt_outs(self) -> tuple:
        """Skipping each action as a product sold alone, worth the disutility saved."""
        q = self.quality
        return tuple(_lone_product(c, 0.0, q.dist, q.grid_size) for c in self.action_costs)

    @cached_property
    def surplus_pairs(self) -> tuple:
        """(quality, action) pairs whose net value u_i - c_j - C_i is positive at some type."""
        return tuple(
            (i, j)
            for i, good in enumerate(self.goods)
            for j, opt_out in enumerate(self.opt_outs)
            if np.max(good.value_rows[1] - opt_out.value_rows[1] - self.quality.costs[i]) > NET_TOL
        )


@dataclass
class ScreeningReport:
    status: str  # ok | trivially_optimal | assumptions_failed
    optimal: Optional[bool]
    d_star_qualities: tuple
    d_star_actions: tuple
    x_star: int  # index of the largest best-selling quality
    y_star: int  # index of the smallest least-selling action
    surplus_pairs: tuple  # (quality index, action index) with positive surplus somewhere
    messages: list = field(default_factory=list)


def screening_optimal(problem: ScreeningProblem) -> ScreeningReport:
    """Is requiring a costly action part of every optimal mechanism?

    The criterion compares the smallest opt-out sales volume against the
    largest quality sales volume.  Assumption checks (monotone disutilities,
    concave profit curves, monotone net values, single-peaked net profit
    below both peaks) guard the verdict; failures withhold it.
    """
    messages: list[str] = []
    cv = [o.value_rows[1] for o in problem.opt_outs]

    for j, c in enumerate(cv):
        if np.any(np.diff(c) <= 0.0) or np.any(c < -NET_TOL):
            raise SpecError(
                f"disutility of action {j} must be nonnegative and strictly increasing "
                "in type; nonincreasing disutilities never support costly screening "
                "and are out of scope"
            )

    u = [g.value_rows[1] for g in problem.goods]
    profiles_x = [compute_profile(g, 1) for g in problem.goods]
    profiles_y = [compute_profile(o, 1) for o in problem.opt_outs]
    d_x = np.array([p.d_star for p in profiles_x])
    d_y = np.array([p.d_star for p in profiles_y])
    psi_x, psi_y = ([p.potential_rows[1] for p in ps] for ps in (problem.goods, problem.opt_outs))

    x_star = int(np.flatnonzero(d_x >= d_x.max() - TIE_TOL)[-1])
    y_star = int(np.flatnonzero(d_y <= d_y.min() + TIE_TOL)[0])
    if np.sum(d_x >= d_x.max() - TIE_TOL) > 1:
        messages.append(
            "strictness violated: several qualities tie for the highest sales volume; "
            "keeping the largest"
        )
    if np.sum(d_y <= d_y.min() + TIE_TOL) > 1:
        messages.append(
            "strictness violated: several actions tie for the lowest opt-out volume; "
            "keeping the smallest"
        )
    report = ScreeningReport(
        status="ok",
        optimal=None,
        d_star_qualities=tuple(float(v) for v in d_x),
        d_star_actions=tuple(float(v) for v in d_y),
        x_star=x_star,
        y_star=y_star,
        surplus_pairs=problem.surplus_pairs,
        messages=messages,
    )

    # a surplus-positive allocation whose net value falls in type screens trivially
    for i, j in problem.surplus_pairs:
        net = u[i] - cv[j]
        pos = net[:-1] > NET_TOL
        steps = np.diff(net)[pos]
        if np.any(pos) and np.all(steps < NET_TOL) and np.any(steps < -NET_TOL):
            report.status = "trivially_optimal"
            report.optimal = True
            report.messages.append(
                f"net value of quality {i} with action {j} decreases in type where positive"
            )
            return report

    checked = set(problem.surplus_pairs) | {(x_star, y_star)}
    failures = []
    t = problem.goods[0].t_grid
    for i, j in sorted(checked):
        net = u[i] - cv[j]
        pos = net[:-1] > NET_TOL
        if np.any(pos & (np.diff(net) < -NET_DROP_TOL)):
            failures.append(f"net value of quality {i} minus action {j} not increasing where positive")
        k = int(np.searchsorted(t, max(profiles_x[i].t_star, profiles_y[j].t_star)))
        net_profit = psi_x[i][k:] - psi_y[j][k:]  # the types above both peaks
        if k <= t.size - 3 and count_descents_to_ascents(net_profit) > 0:
            failures.append(
                f"net profit of quality {i} minus action {j} multi-peaked below both volumes"
            )

    for i, psi in enumerate(psi_x):
        if count_descents_to_ascents(psi) > 0:
            failures.append(f"profit curve of quality {i} is multi-peaked")
    for j, psi in enumerate(psi_y):
        if count_descents_to_ascents(psi) > 0:
            failures.append(f"opt-out profit curve of action {j} is multi-peaked")

    if failures:
        report.status = "assumptions_failed"
        report.messages.extend(failures)
        return report

    report.optimal = bool(d_y.min() < d_x.max() - TIE_TOL)
    return report


def embed_screening(problem: ScreeningProblem):
    """Bundling problem with quality-upgrade items plus opt-out items.

    Items 1..n are quality upgrades; items n+1..n+m represent skipping each
    costly action.  Returns (spec, info) where info maps bundle masks to
    their meaning and lists the masks that involve performing an action.
    """
    quality = problem.quality
    n = len(quality.qualities)
    m = len(problem.action_costs)
    all_optouts = ((1 << m) - 1) << n

    values: dict[int, MonomialSum] = {}
    costs: dict[int, float] = {}
    info = {"clean": {}, "damaged": {}, "costly_masks": []}
    for i in range(n):
        quality_bits = (2 << i) - 1
        clean = quality_bits | all_optouts
        values[clean] = quality.values[i]
        costs[clean] = quality.costs[i]
        info["clean"][clean] = i
        for j in range(m):
            if (i, j) not in problem.surplus_pairs:
                continue
            mask = quality_bits | (all_optouts & ~(1 << (n + j)))
            values[mask] = quality.values[i] - problem.action_costs[j]
            costs[mask] = quality.costs[i]
            info["damaged"][mask] = (i, j)
            info["costly_masks"].append(mask)

    return check_spec(ProblemSpec(n + m, values, costs, quality.dist, quality.grid_size)), info


# ---------------------------------------------------------------------------
# two-item family and rotation comparative statics


def two_item_power_family(
    beta: float, gamma: float, grid_size: int = DEFAULT_GRID_SIZE
) -> ProblemSpec:
    """Built-in benchmark on U[0, 2]: items t and t^beta whose union adds t^gamma."""
    t, t_beta, t_gamma = (1.0, 1.0), (1.0, float(beta)), (1.0, float(gamma))
    values = {
        0b01: MonomialSum(terms=(t,)),
        0b10: MonomialSum(terms=(t_beta,)),
        0b11: MonomialSum(terms=(t, t_beta, t_gamma)),
    }
    return check_spec(ProblemSpec(2, values, {}, TypeDistribution.uniform(0.0, 2.0), grid_size))


def menu_tier(menu: Sequence[int], item: int) -> Optional[int]:
    """1-based index of the smallest menu bundle containing the item."""
    for r, b in enumerate(sorted(menu), start=1):
        if b & (1 << (item - 1)):
            return r
    return None


@dataclass
class RotationPoint:
    s: float
    menu: tuple  # minimal optimal menu (undominated chain), ascending
    d_star: dict
    tiers: tuple  # tier of item 1, tier of item 2
    size: int
    union_ok: bool
    nested: bool


@dataclass
class RotationSweep:
    points: list
    rotated_item: Optional[int]
    premises_ok: bool
    premise_failures: list
    tier_up_ok: Optional[bool]  # rotated item's tier nondecreasing
    tier_down_ok: Optional[bool]  # other item's tier nonincreasing
    size_quasiconvex: Optional[bool]


def _quasiconvex(sizes: Sequence[int]) -> bool:
    """Whether no size exceeds both some size before it and some size after it:
    each inner size against the minimum before it and the minimum after it."""
    before = list(accumulate(sizes, min))  # before[j] = min(sizes[:j + 1])
    after = list(accumulate(reversed(sizes), min))[::-1]  # after[j] = min(sizes[j:])
    return not any(s > max(b, a) for s, b, a in zip(sizes[1:-1], before, after[2:]))


def _minimal_menu(spec: ProblemSpec) -> tuple:
    """The spec's minimal optimal menu: its undominated bundles, ascending."""
    return build_dominance(spec, compute_profiles(spec)).undominated


def rotation_sweep(
    family: Callable[[float], ProblemSpec], s_values: Sequence[float]
) -> RotationSweep:
    """Sweep a two-item zero-cost family, tracking menus, tiers, and menu size.

    Verifies the demand-rotation premises between consecutive parameter
    values and reports the three comparative-statics conclusions (tier of the
    rotated item nondecreasing, other tier nonincreasing, menu size
    quasi-convex); conclusions are only asserted when the premises hold.
    """
    points = []
    for s in s_values:
        spec = family(float(s))
        if spec.n_items != 2:
            raise ValueError("rotation sweep requires a two-item family")
        if not spec.zero_costs():
            raise ValueError("rotation sweep requires zero costs")
        profiles = compute_profiles(spec)
        relation = build_dominance(spec, profiles)
        union = check_union_elasticity(spec, profiles)
        menu = relation.undominated
        points.append(
            RotationPoint(
                s=float(s),
                menu=menu,
                d_star=dict(relation.d_star),
                tiers=(menu_tier(menu, 1), menu_tier(menu, 2)),
                size=len(menu),
                union_ok=union.holds,
                nested=relation.nested,
            )
        )

    failures = []
    for p in points:
        if not p.union_ok:
            failures.append(f"union elasticity fails at s={p.s:g}")
        if not p.nested:
            failures.append(f"undominated bundles not nested at s={p.s:g}")

    # which single item rotates?
    d1 = np.array([p.d_star.get(0b01, np.nan) for p in points])
    d2 = np.array([p.d_star.get(0b10, np.nan) for p in points])
    var1 = float(np.nanmax(d1) - np.nanmin(d1))
    var2 = float(np.nanmax(d2) - np.nanmin(d2))
    rotated = None
    if var1 > EPS_Q and var2 <= EPS_Q:
        rotated = 1
    elif var2 > EPS_Q and var1 <= EPS_Q:
        rotated = 2
    else:
        failures.append("no single rotating item: both standalone volumes vary")

    if rotated is not None:
        d_i = d1 if rotated == 1 else d2
        d_u = np.array([p.d_star.get(0b11, np.nan) for p in points])
        for a in range(len(points) - 1):
            if d_i[a + 1] > d_i[a] + EPS_Q:
                failures.append(f"rotated item volume increases between s={points[a].s:g} and s={points[a+1].s:g}")
            if d_u[a + 1] > d_u[a] + EPS_Q:
                failures.append(f"union volume increases between s={points[a].s:g} and s={points[a+1].s:g}")
            if d_i[a] <= d_u[a] + EPS_Q and d_i[a + 1] > d_u[a + 1] + EPS_Q:
                failures.append(f"volume ordering linkage breaks between s={points[a].s:g} and s={points[a+1].s:g}")

    premises_ok = not failures
    tier_up = tier_down = size_qc = None
    if premises_ok and rotated is not None:
        other = 3 - rotated
        r_i = [p.tiers[rotated - 1] for p in points]
        r_j = [p.tiers[other - 1] for p in points]
        tier_up = all(a <= b for a, b in zip(r_i[:-1], r_i[1:]))
        tier_down = all(a >= b for a, b in zip(r_j[:-1], r_j[1:]))
        size_qc = _quasiconvex([p.size for p in points])

    return RotationSweep(
        points=points,
        rotated_item=rotated,
        premises_ok=premises_ok,
        premise_failures=failures,
        tier_up_ok=tier_up,
        tier_down_ok=tier_down,
        size_quasiconvex=size_qc,
    )


def refine_menu_transition(
    family: Callable[[float], ProblemSpec], s_lo: float, s_hi: float
) -> float:
    """Bisect the parameter where the minimal optimal menu changes, to ``TRANSITION_TOL``."""
    left = _minimal_menu(family(s_lo))
    while s_hi - s_lo > TRANSITION_TOL:
        mid = 0.5 * (s_lo + s_hi)
        if _minimal_menu(family(mid)) == left:
            s_lo = mid
        else:
            s_hi = mid
    return 0.5 * (s_lo + s_hi)


def menu_regions(family: Callable[[float], ProblemSpec], s_values: Sequence[float]):
    """Consecutive runs of equal minimal menus with refined change points."""
    menus = [_minimal_menu(family(float(s))) for s in s_values]
    regions = []
    start = 0
    for k in range(1, len(s_values) + 1):
        if k == len(s_values) or menus[k] != menus[start]:
            regions.append(
                {
                    "s_start": float(s_values[start]),
                    "s_end": float(s_values[k - 1]),
                    "menu": menus[start],
                }
            )
            if k < len(s_values):
                regions[-1]["transition"] = refine_menu_transition(
                    family, float(s_values[k - 1]), float(s_values[k])
                )
            start = k
    return regions
