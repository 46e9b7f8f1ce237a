"""Per-bundle demand curves, profit curves, sales volumes, price elasticities.

Everything here is a pure function of an immutable ProblemSpec, evaluated on
the shared quantity grid so curves are directly comparable across bundles.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .model import ProblemSpec, format_bundle
from .numerics import bracketed_max

CORNER_TOL = 1e-9  # sales volume this close to 0 or 1 counts as a corner solution
NEG_INF = float("-inf")


class UnsellableError(ValueError):
    """Cost-adjusted elasticity requested where price does not cover cost."""


def demand_price(spec: ProblemSpec, b: int, q) -> float:
    """Inverse demand P(b, q): the value of the type at quantile 1-q.

    Valid because values are nondecreasing in type, so the value
    distribution's quantile is the value at the type quantile.
    """
    q_arr = np.asarray(q, dtype=float)
    if np.any(q_arr < 0.0) or np.any(q_arr > 1.0):
        raise ValueError(f"quantity {q} outside [0, 1]")
    return spec.value(b, spec.dist.quantile(1.0 - q_arr))


def profit_curve(spec: ProblemSpec, b: int, q) -> float:
    """Profit (P(b,q) - C(b)) * q from selling bundle b alone at quantity q."""
    return (demand_price(spec, b, q) - spec.cost(b)) * np.asarray(q, dtype=float)


def virtual_surplus(spec: ProblemSpec, b: int, t):
    """v(b,t) - C(b) - (1-F(t))/f(t) * v_t(b,t).

    The marginal profit of selling bundle b alone at the quantity whose
    marginal consumer has type t.  May be -inf at the bottom of the support
    when the value has a fractional-exponent term there.
    """
    return (
        spec.value(b, t)
        - spec.cost(b)
        - spec.dist.inv_hazard(t) * spec.value_slope(b, t)
    )


def marginal_profit(spec: ProblemSpec, b: int, q):
    """Analytic d profit / d quantity: the virtual surplus at the marginal type."""
    return virtual_surplus(spec, b, spec.dist.quantile(1.0 - np.asarray(q, dtype=float)))


def sales_volume(spec: ProblemSpec, b: int) -> float:
    """Profit-maximizing quantity D*(b) of bundle b sold alone, on [0, 1].

    The profit curve is evaluated in one array call on a 1001-point grid
    that brackets the peak; golden section refines it and the analytic
    marginal profit polishes the stationary point (numerics.bracketed_max).
    Warns (via numerics.MultiplePeaksWarning) when near-tied maxima suggest
    the uniqueness assumption is violated, returning the smallest.  The
    screening criterion calls this on one-item specs for each quality and
    opt-out product.
    """
    return bracketed_max(
        lambda q: profit_curve(spec, b, q),
        0.0,
        1.0,
        coarse=1001,
        tol=1e-10,
        tie_tol=1e-12,
        slope=lambda q: marginal_profit(spec, b, q),
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
    eta, price = _elasticity(spec, b, np.array([q], dtype=float), cost_adjusted)
    if cost_adjusted and price[0] <= spec.cost(b):
        raise UnsellableError(
            f"price {price[0]:.6g} does not cover cost {spec.cost(b):.6g} "
            f"for {format_bundle(b)} at q={q:.6g}"
        )
    return float(eta[0])


def elasticity_grid(spec: ProblemSpec, b: int, cost_adjusted: bool = False) -> np.ndarray:
    """Vectorized elasticity over the shared q grid, -inf at degenerate points."""
    return _elasticity(spec, b, spec.q_grid, cost_adjusted)[0]


def _elasticity(spec: ProblemSpec, b: int, q: np.ndarray, cost_adjusted: bool):
    """Elasticities at the quantities q and the prices there.

    dP/dq is a centered finite difference with step max(1e-6, 1e-4 q),
    evaluation points clipped to [0, 1].  Degenerate points (q at 0,
    vanishing price or margin, flat demand) get -inf so sweeps stay
    rectangular.
    """
    p = demand_price(spec, b, q)
    base = p - spec.cost(b) if cost_adjusted else p
    h = np.maximum(1e-6, 1e-4 * q)
    qp = np.minimum(q + h, 1.0)
    qm = np.maximum(q - h, 0.0)
    dp = (demand_price(spec, b, qp) - demand_price(spec, b, qm)) / (qp - qm)
    with np.errstate(divide="ignore", invalid="ignore"):
        eta = base / (q * dp)
    eta[(q <= 0.0) | (base <= 0.0) | (dp == 0.0) | ~np.isfinite(eta)] = NEG_INF
    return eta, p


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
    price = demand_price(spec, b, spec.q_grid)
    profit = (price - spec.cost(b)) * spec.q_grid
    d_star = sales_volume(spec, b)
    return DemandProfile(
        bundle=b,
        q_grid=spec.q_grid,
        price=price,
        profit=profit,
        d_star=d_star,
        t_star=float(spec.dist.quantile(1.0 - d_star)),
        peak_profit=float(profit_curve(spec, b, d_star)),
    )


def compute_profiles(spec: ProblemSpec) -> dict[int, DemandProfile]:
    """Profiles for every bundle with a nonzero value expression."""
    return {b: compute_profile(spec, b) for b in spec.nonzero_bundles()}
