"""Independent LP ground truth: optimal stochastic mechanism on discrete types.

Types are discretized at quantile midpoints so each carries equal mass; the
LP maximizes expected payments minus production costs over per-type lottery
assignments subject to the full set of pairwise IC constraints and IR.  The
solution bounds every menu's profit on the same instance from above, which
is what makes it a useful certificate against the nested-menu solver.

The LP is built once, by ``_lp``, and both ``solve_lp`` and ``dump_lp_text``
read that matrix.  With m types and K sellable bundles:

- columns: the lottery weights a[k, j] in [0, 1], type-major (column
  k*K + j), then the free payments p[k] (column m*K + k);
- rows, all ``<=``: first IC, u(k, r) - u(k, k) <= 0 for type k against
  each report r != k, k-major, where u(k, r) = sum_j a[r, j] v_j(t_k) - p[r];
  then IR, the same row against the outside option (no lottery, no
  payment), -u(k, k) <= 0; then lottery mass, sum_j a[k, j] <= 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .model import ProblemSpec, SpecError, format_bundle, subset_pairs
from .numerics import chain_dp

STOCHASTIC_TOL = 1e-5
M_RANGE = (11, 401)
MAX_LP_VARIABLES = 10_000


@dataclass(frozen=True)
class DiscretizedInstance:
    """Equal-weight type grid with the full bundle value matrix."""

    types: np.ndarray  # m quantile midpoints, increasing
    weights: np.ndarray  # mass per type (1/m each)
    values: np.ndarray  # (2^n, m), row b for bundle mask b
    costs: np.ndarray  # (2^n,)
    sellable: tuple  # masks with a nonzero value expression

    @property
    def m(self) -> int:
        return int(self.types.size)

    @staticmethod
    def from_spec(spec: ProblemSpec, m: int = 201) -> "DiscretizedInstance":
        if not M_RANGE[0] <= m <= M_RANGE[1]:
            raise SpecError(f"m={m} outside supported range {M_RANGE}")
        sellable = spec.nonzero_bundles()
        n_var = m * (len(sellable) + 1)
        if n_var > MAX_LP_VARIABLES:
            raise SpecError(
                f"{n_var} decision variables exceed the dense-oracle budget (10^4); "
                "reduce m or the number of sellable bundles"
            )
        types = np.asarray(spec.dist.quantile((np.arange(m) + 0.5) / m), dtype=float)
        bundles = range(1 << spec.n_items)
        values = np.array([np.asarray(spec.value(b, types), dtype=float) for b in bundles])
        costs = np.array([spec.cost(b) for b in bundles])
        inst = DiscretizedInstance(
            types=types,
            weights=np.full(m, 1.0 / m),
            values=values,
            costs=costs,
            sellable=sellable,
        )
        inst.check_monotone()
        return inst

    def check_monotone(self) -> None:
        """Value rows must respect set inclusion among sellable bundles."""
        for b1, b2 in subset_pairs(self.sellable):
            if np.any(self.values[b1] > self.values[b2] + 1e-9):
                raise ValueError(
                    f"discretized values of {format_bundle(b1)} exceed {format_bundle(b2)}"
                )


@dataclass(frozen=True)
class LPSolution:
    objective: float
    allocation: np.ndarray  # (m, n_options) lottery weights
    payments: np.ndarray  # (m,)
    option_bundles: tuple  # masks matching allocation columns
    stochastic: bool

    def utilities(self, values: np.ndarray) -> np.ndarray:
        """Per-type utility given the (n_bundles, m) value matrix."""
        v_opts = values[list(self.option_bundles)]  # (K, m)
        return np.einsum("mk,km->m", self.allocation, v_opts) - self.payments

    def uses_bundles(self, masks) -> float:
        """Expected allocation mass on the given masks; masses <= STOCHASTIC_TOL count as 0."""
        cols = [i for i, b in enumerate(self.option_bundles) if b in set(masks)]
        if not cols:
            return 0.0
        mass = self.allocation[:, cols].sum(axis=1)
        return float(np.mean(np.where(mass > STOCHASTIC_TOL, mass, 0.0)))


def _lp(instance: DiscretizedInstance):
    """The oracle LP (c, A_ub, b_ub): min c @ x s.t. A_ub @ x <= b_ub; CSR, entries by column."""
    m = instance.m
    opts = list(instance.sellable)
    K = len(opts)
    n_a = m * K
    V = instance.values[opts].T  # (m, K): V[k, j] = v_j(t_k)
    lottery = np.arange(n_a).reshape(m, K)  # columns of a[k, :]
    pay = n_a + np.arange(m)[:, None]  # column of p[k]

    # IC row (k, r): +V[k] on a[r], -V[k] on a[k], +1 on p[k], -1 on p[r];
    # the lower of k and r comes first in column order, with sign s
    k, r = np.nonzero(~np.eye(m, dtype=bool))
    lo, hi = np.minimum(k, r), np.maximum(k, r)
    s = np.where(r < k, 1.0, -1.0)[:, None]
    blocks = (  # (columns, coefficients), one row of each per constraint
        (np.hstack((lottery[lo], lottery[hi], pay[lo], pay[hi])),
         np.hstack((s * V[k], -s * V[k], -s, s))),
        (np.hstack((lottery, pay)), np.hstack((-V, np.ones((m, 1))))),  # IR: IC minus a[r], p[r]
        (lottery, np.ones((m, K))),  # lottery mass
    )
    width = np.repeat([cols.shape[1] for cols, _ in blocks], [len(cols) for cols, _ in blocks])
    indices = np.concatenate([cols.ravel() for cols, _ in blocks])
    data = np.concatenate([coefs.ravel() for _, coefs in blocks])
    indptr = np.concatenate(([0], np.cumsum(width)))
    A = sparse.csr_matrix((data, indices, indptr), shape=(width.size, n_a + m))
    w = instance.weights
    c = np.concatenate((np.repeat(w, K) * np.tile(instance.costs[opts], m), -w))
    b_ub = np.concatenate((np.zeros(m * m), np.ones(m)))
    return c, A, b_ub


def solve_lp(instance: DiscretizedInstance) -> LPSolution:
    """Optimal stochastic mechanism on the discrete instance, via HiGHS.

    All m^2 pairwise IC constraints are kept so the oracle stays valid for
    stochastic, non-monotone optima.  Deterministic for a fixed instance.
    """
    m = instance.m
    c, A, b_ub = _lp(instance)
    n_a = A.shape[1] - m
    bounds = [(0.0, 1.0)] * n_a + [(None, None)] * m
    res = linprog(c, A_ub=A, b_ub=b_ub, bounds=bounds, method="highs")
    if res.status == 2:
        raise RuntimeError("LP infeasible: the zero mechanism should always be feasible")
    if res.status == 3:
        raise RuntimeError("LP unbounded: objective sign error in construction")
    if not res.success:
        raise RuntimeError(f"LP solver failed: {res.message}")

    alloc = res.x[:n_a].reshape(m, -1)
    interior = (alloc > STOCHASTIC_TOL) & (alloc < 1.0 - STOCHASTIC_TOL)
    split = (alloc > STOCHASTIC_TOL).sum(axis=1) > 1
    return LPSolution(
        objective=float(-res.fun),
        allocation=alloc,
        payments=res.x[n_a:],
        option_bundles=instance.sellable,
        stochastic=bool(interior.any() or split.any()),
    )


def _chain_terms(instance: DiscretizedInstance):
    """Discrete ``numerics.chain_dp`` terms, pricing each upgrade at its marginal buyer.

    Stepping from p to b at marginal-type index k earns
    ((v_b - v_p)(t_k) - (c_b - c_p)) * (m - k)/m; index m sells to nobody.
    """
    m = instance.m
    mass = np.concatenate((np.arange(m, 0, -1), [0])) / m  # marginal index k -> (m-k)/m
    sold = np.concatenate((np.ones(m), [0.0]))

    def term(p, b):
        inc = np.concatenate((instance.values[b] - instance.values[p], [0.0]))
        return (inc - (instance.costs[b] - instance.costs[p]) * sold) * mass

    return term


def discrete_chain_profit(instance: DiscretizedInstance, chain) -> float:
    """Optimal profit from selling a nested chain on the discrete instance.

    The profit is separable in the marginal-type indices: the fixed-chain
    ``numerics.chain_dp`` solves it exactly.
    """
    chain = sorted(set(int(b) for b in chain))
    return chain_dp(_chain_terms(instance), chain, fixed=True)[0]


def best_nested_discrete(instance: DiscretizedInstance) -> tuple[float, tuple]:
    """Best discrete-instance (profit, chain) over every chain of sellable bundles.

    One ``numerics.chain_dp`` over their inclusion lattice, in O(3^n * m).
    """
    profit, path = chain_dp(_chain_terms(instance), instance.sellable)
    return profit, tuple(b for b, _k in path)


@dataclass(frozen=True)
class Verdict:
    verdict: str  # CONFIRMED | NESTED_SUBOPTIMAL | INCONCLUSIVE
    gap: float  # LP objective minus the matched-m best nested profit
    raw_gap: float  # LP objective minus the supplied continuum menu profit
    tolerance: float  # 5/m discretization allowance for raw comparisons
    strict_tolerance: float  # noise floor separating a real gap from solver error
    lp_objective: float
    menu_profit: float
    matched_menu_profit: float
    lp_stochastic: bool


def compare(
    instance: DiscretizedInstance,
    menu_solution: Union[float, object],
    lp_solution: LPSolution,
) -> Verdict:
    """Classify the LP optimum against nested menus on the same instance.

    The decisive gap is like for like: LP objective minus the best nested
    profit evaluated on the same m discrete types, which cancels the O(1/m)
    midpoint-discretization bias shared by both sides (that bias scales with
    the profit level and can exceed 5/m, so a raw comparison against a
    continuum menu profit cannot separate real suboptimality from
    discretization).  The 5/m allowance is retained for raw cross-checks and
    reported alongside.
    """
    profit = float(getattr(menu_solution, "expected_profit", menu_solution))
    m = instance.m
    tol = 5.0 / m
    matched, _chain = best_nested_discrete(instance)
    gap = lp_solution.objective - matched
    strict = max(1e-5, 1e-7 * max(1.0, abs(lp_solution.objective)))
    if gap > strict:
        verdict = "NESTED_SUBOPTIMAL"
    elif gap >= -strict:
        verdict = "CONFIRMED"
    else:
        verdict = "INCONCLUSIVE"  # LP below a feasible menu: resolution problem
    return Verdict(
        verdict=verdict,
        gap=float(gap),
        raw_gap=float(lp_solution.objective - profit),
        tolerance=tol,
        strict_tolerance=strict,
        lp_objective=lp_solution.objective,
        menu_profit=profit,
        matched_menu_profit=float(matched),
        lp_stochastic=lp_solution.stochastic,
    )


def dump_lp_text(instance: DiscretizedInstance) -> str:
    """Instance as a plain-text LP for external solvers (CPLEX LP format).

    Written row by row from ``_lp``'s matrix with round-trip floats, so the
    text is the LP ``solve_lp`` solves.
    """
    m = instance.m
    c, A, b_ub = _lp(instance)
    items = [format_bundle(b)[1:-1].replace(",", "_") or "none" for b in instance.sellable]
    names = [f"a_{k}_{it}" for k in range(m) for it in items] + [f"p_{k}" for k in range(m)]
    rows = [f"ic_{k}_{r}" for k in range(m) for r in range(m) if r != k]
    rows += [f"ir_{k}" for k in range(m)] + [f"cap_{k}" for k in range(m)]

    def terms(coefs, cols):
        return "".join(
            f" {'-' if x < 0 else '+'} {abs(x)!r} {names[j]}" for x, j in zip(coefs, cols)
        )

    obj = np.flatnonzero(c)
    out = ["\\ discretized incentive-compatible pricing problem", "Maximize"]
    out.append(" obj:" + terms((-c[obj]).tolist(), obj.tolist()))
    out.append("Subject To")
    data, indices, ptr = A.data.tolist(), A.indices.tolist(), A.indptr.tolist()
    for i, (name, rhs) in enumerate(zip(rows, b_ub.tolist())):
        lo, hi = ptr[i], ptr[i + 1]
        out.append(f" {name}:{terms(data[lo:hi], indices[lo:hi])} <= {rhs!r}")
    out.append("Bounds")
    out += [f" 0 <= {name} <= 1" for name in names[: len(names) - m]]
    out += [f" -inf <= {name} <= +inf" for name in names[len(names) - m :]]
    out.append("End")
    return "\n".join(out) + "\n"
