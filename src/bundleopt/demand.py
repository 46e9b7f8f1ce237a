"""Per-bundle demand curves, profit curves, sales volumes, price elasticities.

Everything here is a pure function of an immutable ProblemSpec.  Sales
volumes are read off each bundle's potential on the type grid
(``ProblemSpec.potential_rows``); only elasticities read the quantity grid.
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
    """Profit-maximizing quantity D*(b) = 1 - F(t*) of bundle b sold alone, on [0, 1].

    t* maximizes b's potential Psi_b: its row's maximum on ``t_grid``, scanned
    from the top type down, brackets the peak and the root of -phi_b, Psi_b's
    slope up to the density f, polishes it (numerics.scanned_max).  Near-tied
    maxima warn (numerics.MultiplePeaksWarning) and keep the largest t*, the
    smallest D*.  Raises ValueError for a bundle without a value expression.
    """
    t_star = scanned_max(lambda t: spec.potential(b, t), spec.t_grid[::-1],
                         spec.potential_rows[b][::-1], lambda t: -virtual_surplus(spec, b, t),
                         f"profit of {format_bundle(b)}")
    return 1.0 - spec.dist.cdf(t_star)


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
    """Sales volume of one bundle sold alone, its marginal type and peak profit."""

    bundle: int
    d_star: float
    t_star: float
    peak_profit: float

    @property
    def corner(self) -> bool:
        return self.d_star <= CORNER_TOL or self.d_star >= 1.0 - CORNER_TOL


def compute_profile(spec: ProblemSpec, b: int) -> DemandProfile:
    """``sales_volume`` of b, the type t* = Q(1 - D*) of its marginal buyer and
    the potential Psi_b(t*) it earns there."""
    d_star = sales_volume(spec, b)
    t_star = float(spec.dist.quantile(1.0 - d_star))
    return DemandProfile(b, d_star, t_star, float(spec.potential(b, t_star)))


def compute_profiles(spec: ProblemSpec) -> dict[int, DemandProfile]:
    """Profiles for every bundle with a nonzero value expression."""
    return {b: compute_profile(spec, b) for b in spec.nonzero_bundles()}
