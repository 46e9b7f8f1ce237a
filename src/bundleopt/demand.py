"""Per-bundle demand curves, profit curves, sales volumes, price elasticities.

Everything here is a pure function of an immutable ProblemSpec, evaluated on
the shared quantity grid so curves are directly comparable across bundles.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .model import ProblemSpec, format_bundle
from .numerics import any_true, scanned_max

CORNER_TOL = 1e-9  # sales volume this close to 0 or 1 counts as a corner solution
NEG_INF = float("-inf")


class UnsellableError(ValueError):
    """Cost-adjusted elasticity requested where price does not cover cost."""


def demand_price(spec: ProblemSpec, b: int, q) -> float:
    """Inverse demand P(b, q): the value of the type at quantile 1-q.

    Valid because values are nondecreasing in type, so the value
    distribution's quantile is the value at the type quantile.
    """
    if any_true((q < 0.0) | (q > 1.0)):
        raise ValueError(f"quantity {q} outside [0, 1]")
    return spec.value(b, spec.dist.quantile(1.0 - q))


def profit_curve(spec: ProblemSpec, b: int, q) -> float:
    """Profit (P(b,q) - C(b)) * q from selling bundle b alone at quantity q."""
    return (demand_price(spec, b, q) - spec.cost(b)) * q


virtual_surplus = ProblemSpec.virtual_surplus  # virtual_surplus(spec, b, t)


def marginal_profit(spec: ProblemSpec, b: int, q):
    """Analytic d profit / d quantity: the virtual surplus at the marginal type."""
    return virtual_surplus(spec, b, spec.dist.quantile(1.0 - q))


def sales_volume(spec: ProblemSpec, b: int) -> float:
    """Profit-maximizing quantity D*(b) of bundle b sold alone, on [0, 1].

    The maximum of b's profit row (``ProblemSpec.profit_rows``) on the spec's
    quantity grid brackets the peak, and the root of the analytic marginal
    profit there is the stationary point (numerics.scanned_max).  Warns
    (numerics.MultiplePeaksWarning) when near-tied maxima suggest the
    uniqueness assumption is violated, returning the smallest; raises
    ValueError for a bundle without a value expression.  ``compute_profile``
    calls this, for the screening criterion's one-item specs too.
    """
    return scanned_max(
        lambda q: profit_curve(spec, b, q),
        spec.q_grid,
        spec.profit_rows[b],
        lambda q: marginal_profit(spec, b, q),
        warn_label=f"profit of {format_bundle(b)}",
    )


def elasticity(spec: ProblemSpec, b: int, q: float, cost_adjusted: bool = False) -> float:
    """Price elasticity P/(q dP/dq) at one quantity; cost-adjusted variant uses P - C(b).

    Evaluates the grid formula (see ``elasticity_grid``) at q.  Raises
    ValueError for q outside [0, 1] and, in the cost-adjusted variant,
    UnsellableError when P <= C(b).
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantity {q} outside [0, 1]")
    price = demand_price(spec, b, q)
    if cost_adjusted and price <= spec.cost(b):
        raise UnsellableError(
            f"price {price:.6g} does not cover cost {spec.cost(b):.6g} "
            f"for {format_bundle(b)} at q={q:.6g}"
        )
    return float(_elasticity(spec, b, q, price, spec.price_slope(b, q), cost_adjusted))


def elasticity_grid(spec: ProblemSpec, b: int, cost_adjusted: bool = False) -> np.ndarray:
    """Vectorized elasticity over the shared q grid, -inf at degenerate points.

    Reads the spec's price and exact slope tables, so both variants of every
    bundle share one evaluation of dP/dq.
    """
    return _elasticity(
        spec, b, spec.q_grid, spec.price_rows[b], spec.slope_rows[b], cost_adjusted
    )


def _elasticity(spec: ProblemSpec, b: int, q, p, dp, cost_adjusted: bool):
    """Elasticities at the quantities q, whose prices are p and slopes dp.

    dP/dq is the analytic ``ProblemSpec.price_slope``.  Degenerate points (q
    at 0, vanishing price or margin, flat demand) get -inf so sweeps stay
    rectangular.
    """
    base = p - spec.cost(b) if cost_adjusted else p
    with np.errstate(divide="ignore", invalid="ignore"):
        eta = base / (q * dp)
    return np.where((q <= 0.0) | (base <= 0.0) | (dp == 0.0) | ~np.isfinite(eta), NEG_INF, eta)


@dataclass(frozen=True)
class DemandProfile:
    """Demand-side summary of one bundle on the shared quantity grid."""

    bundle: int
    q_grid: np.ndarray
    price: np.ndarray
    profit: np.ndarray
    d_star: float
    t_star: float
    peak_profit: float

    @property
    def corner(self) -> bool:
        return self.d_star <= CORNER_TOL or self.d_star >= 1.0 - CORNER_TOL


def compute_profile(spec: ProblemSpec, b: int) -> DemandProfile:
    d_star = sales_volume(spec, b)
    return DemandProfile(
        bundle=b,
        q_grid=spec.q_grid,
        price=spec.price_rows[b],
        profit=spec.profit_rows[b],
        d_star=d_star,
        t_star=float(spec.dist.quantile(1.0 - d_star)),
        peak_profit=float(profit_curve(spec, b, d_star)),
    )


def compute_profiles(spec: ProblemSpec) -> dict[int, DemandProfile]:
    """Profiles for every bundle with a nonzero value expression."""
    return {b: compute_profile(spec, b) for b in spec.nonzero_bundles()}
