"""Independent LP ground truth: optimal stochastic mechanism on discrete types.

Types are discretized at quantile midpoints so each carries equal mass; the
LP maximizes expected payments minus production costs over per-type lottery
assignments subject to the full set of pairwise IC constraints and IR.  The
solution bounds every menu's profit on the same instance from above, which
is what makes it a useful certificate against the nested-menu solver.

The LP is built by ``_lp`` alone, for ``dump_lp_text``'s full LP and each
HiGHS round's row subset, and bounded there by ``MAX_LP_BYTES``, so only an
LP that is built can be refused for its size.  Only ``_lp`` and HiGHS
(``_row_generation``) import scipy.  With m types and K sellable bundles:

- columns: the lottery weights a[k, j] in [0, 1], type-major (column
  k*K + j), then the free payments p[k] (column m*K + k);
- rows, all ``<=``: first IC, u(k, r) - u(k, k) <= 0 for type k against
  each report r != k, k-major, where u(k, r) = sum_j a[r, j] v_j(t_k) - p[r];
  then IR, the same row against the outside option (no lottery, no
  payment), -u(k, k) <= 0; then lottery mass, sum_j a[k, j] <= 1.

``solve_lp`` first solves the relaxation to the 2m rows that bind in
one-dimensional screening (Mussa & Rosen 1978; Myerson 1981): the m-1
downward-adjacent IC rows (k against k-1), the bottom type's IR row and
lottery mass.  Telescoping the payments along the adjacent rows, with
W_k = sum_{i >= k} w_i the mass of types k and up, leaves profit
sum_k sum_j a[k, j] phi_j(k) with

    phi_j(k) = Psi_j(k) - Psi_j(k+1),   Psi_j(k) = (v_j(t_k) - c_j) W_k   (Psi_j(m) = 0),

the discrete virtual surplus, from the potentials that the nested-chain DP
also reads (``DiscretizedInstance.potentials``).  The relaxation's optimum is
pointwise: type k gets the bundle of largest phi_j(k), or nothing where that
maximum is <= 0, and pays by the binding rows, p_0 = v_{a_0}(t_0) and p_k =
p_{k-1} + v_{a_k}(t_k) - v_{a_{k-1}}(t_k).  Explicit duals prove it optimal:
W_k on IC row (k, k-1), W_0 = 1 on the bottom IR row, y_k = max(0, max_j
phi_j(k)) on lottery mass and 0 on every other row, so every lottery
column's reduced cost is y_k - phi_j(k) >= 0, every payment column's is
W_k - W_{k+1} - w_k = 0, and the dual objective is R = sum_k y_k, the
pointwise mechanism's profit.  These duals are feasible on every instance,
so the mechanism is the LP's optimum exactly when it satisfies all of the
LP's rows; it fails some where the optimum needs ironing (a pointwise
argmax that falls in t), where values fall in t, or without single crossing.

Those instances go to HiGHS, which generates IC and IR rows lazily (the
constraint generation of automated mechanism design, Conitzer & Sandholm
2002) from the same 2m rows; the mask of IC pairs marks the IR row of type k
at (k, k).  Under single crossing, chained downward-adjacent IC gives every
downward IC and, with values nondecreasing in t, every IR: u(k, k) >=
u(k, k-1) >= u(k-1, k-1); the upward rows hold where the optimum's
allocation is monotone.  Each round adds each type's worst omitted report
and every omitted IR row violated by more than ``ROW_TOL``, so instances
outside these conditions are solved exactly too.

Either answer is then certified for the full LP with matrix products alone:
its primal violation over all m^2 (type, report) pairs and every IR row, the
stationarity of its duals (the explicit ones, or the solver's padded with
zeros for the omitted rows), and the duality gap must each be at most
``CERT_TOL``.  HiGHS's default (simplex) duals can miss that bound, by about
1e-6 where seen; its interior-point method with crossover then solves the
LP again.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

from .model import GridRows, ProblemSpec, SpecError, format_bundle
from .numerics import chain_dp

STOCHASTIC_TOL = 1e-5
M_MIN = 11
MAX_LP_BYTES = 64 * 2**20  # the arrays an oracle answer allocates, and each LP built
ROW_TOL = 1e-9  # an omitted IC or IR row violated by more than this joins the LP
CERT_TOL = 1e-7  # bound on each certificate residual of a solution


def _check_budget(need: int, what: str) -> None:
    if need > MAX_LP_BYTES:
        raise SpecError(f"{what} needs {need / 1e6:.1f} MB (limit {MAX_LP_BYTES / 1e6:.1f} MB)")


@dataclass(frozen=True)
class DiscretizedInstance:
    """Equal-weight type grid with the full bundle value matrix."""

    types: np.ndarray  # m quantile midpoints, increasing
    weights: np.ndarray  # mass per type (1/m each)
    values: np.ndarray  # (2^n, m), row b for bundle mask b, 0 unless b is sellable
    costs: np.ndarray  # (2^n,), 0 unless b is sellable
    sellable: tuple  # masks with a nonzero value expression

    @property
    def m(self) -> int:
        return int(self.types.size)

    @staticmethod
    def from_spec(spec: ProblemSpec, m: int = 201) -> "DiscretizedInstance":
        """The spec's m quantile-midpoint types and its values there.  A SpecError
        refuses m < ``M_MIN``, and, before they are allocated, the (2^n, m) value
        table and every answer's m x m utility and gain arrays beyond ``MAX_LP_BYTES``."""
        if m < M_MIN:
            raise SpecError(f"m={m} outside supported range (m >= {M_MIN})")
        what = f"the oracle at m={m} with {spec.n_items} items (value table, m x m arrays)"
        _check_budget(8 * ((1 << spec.n_items) * m + 2 * m * m), what)
        sellable = spec.nonzero_bundles()
        types = np.asarray(spec.dist.quantile((np.arange(m) + 0.5) / m), dtype=float)
        values, costs = np.zeros((1 << spec.n_items, m)), np.zeros(1 << spec.n_items)
        for b in sellable:
            values[b], costs[b] = spec.value(b, types), spec.cost(b)
        return DiscretizedInstance(
            types=types,
            weights=np.full(m, 1.0 / m),
            values=values,
            costs=costs,
            sellable=sellable,
        )

    @cached_property
    def tail_mass(self) -> np.ndarray:
        """W_k = sum_{i >= k} w_i, the mass of types k and up, for k = 0..m (W_m = 0)."""
        return np.append(self.weights[::-1].cumsum()[::-1], 0.0)

    @cached_property
    def potentials(self) -> np.ndarray:
        """(K, m + 1) Psi_j(k) = (v_j(t_k) - c_j) W_k of the ``sellable`` bundles j:
        the profit of selling j alone to types k and up; none sells at k = m."""
        opts = list(self.sellable)
        return np.pad(self.values[opts] - self.costs[opts, None], ((0, 0), (0, 1))) * self.tail_mass


@dataclass(frozen=True)
class LPSolution:
    objective: float
    allocation: np.ndarray  # (m, n_options) lottery weights
    payments: np.ndarray  # (m,)
    option_bundles: tuple  # masks matching allocation columns
    rounds: int  # HiGHS solves of the row generation
    rows: int  # rows of the last solved LP
    ic_violation: float  # worst violation of the full LP's rows and bounds
    stationarity: float  # dual residual of the full LP, sign violations included
    duality_gap: float  # |primal - dual objective|

    @property
    def stochastic(self) -> bool:
        """Some type gets an interior lottery weight or weight on two bundles."""
        sold = self.allocation > STOCHASTIC_TOL
        return bool((sold & (self.allocation < 1.0 - STOCHASTIC_TOL)).any()
                    or (sold.sum(axis=1) > 1).any())

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


def _lp(instance: DiscretizedInstance, pairs=None):
    """The oracle LP (c, A_ub, b_ub): min c @ x s.t. A_ub @ x <= b_ub; CSR, entries by column.

    ``pairs``, an (m, m) boolean mask, keeps only the IC rows (k, r) it marks
    off the diagonal and the IR rows of the types k it marks at (k, k), in the
    full LP's row order; None keeps every row.  Before they are allocated, a
    SpecError refuses rows beyond ``MAX_LP_BYTES`` at 12 bytes per nonzero
    (float64 coefficient, int32 column) and 28 per row (int32 row pointer;
    float64 bound, dual and slack): each HiGHS round and the full LP written.
    """
    m = instance.m
    opts = list(instance.sellable)
    K = len(opts)
    n_ir = m if pairs is None else int(np.count_nonzero(pairs.diagonal()))
    n_ic = m * (m - 1) if pairs is None else int(np.count_nonzero(pairs)) - n_ir
    rows = n_ic + n_ir + m
    lp_bytes = 12 * (n_ic * (2 * K + 2) + n_ir * (K + 1) + m * K) + 28 * rows
    _check_budget(lp_bytes, f"the oracle LP at m={m} with {K} sellable bundles and {rows} rows")
    from scipy import sparse

    n_a = m * K
    V = instance.values[opts].T  # (m, K): V[k, j] = v_j(t_k)
    lottery = np.arange(n_a).reshape(m, K)  # columns of a[k, :]
    pay = n_a + np.arange(m)[:, None]  # column of p[k]

    # IC row (k, r): +V[k] on a[r], -V[k] on a[k], +1 on p[k], -1 on p[r];
    # the lower of k and r comes first in column order, with sign s
    k, r = np.nonzero(np.ones((m, m), dtype=bool) if pairs is None else pairs)
    ir, ic = k[k == r], k != r
    k, r = k[ic], r[ic]
    lo, hi = np.minimum(k, r), np.maximum(k, r)
    s = np.where(r < k, 1.0, -1.0)[:, None]
    blocks = (  # (columns, coefficients), one row of each per constraint
        (np.hstack((lottery[lo], lottery[hi], pay[lo], pay[hi])),
         np.hstack((s * V[k], -s * V[k], -s, s))),
        (np.hstack((lottery[ir], pay[ir])),  # IR: IC minus a[r], p[r]
         np.hstack((-V[ir], np.ones((ir.size, 1))))),
        (lottery, np.ones((m, K))),  # lottery mass
    )
    width = np.repeat([cols.shape[1] for cols, _ in blocks], [len(cols) for cols, _ in blocks])
    indices = np.concatenate([cols.ravel() for cols, _ in blocks])
    data = np.concatenate([coefs.ravel() for _, coefs in blocks])
    indptr = np.concatenate(([0], np.cumsum(width)))
    A = sparse.csr_matrix((data, indices, indptr), shape=(width.size, n_a + m))
    w = instance.weights
    c = np.concatenate((np.repeat(w, K) * np.tile(instance.costs[opts], m), -w))
    b_ub = np.concatenate((np.zeros(k.size + ir.size), np.ones(m)))
    return c, A, b_ub


def solve_lp(instance: DiscretizedInstance) -> LPSolution:
    """Optimal stochastic mechanism on the discrete instance, certified for the full LP.

    The local relaxation's pointwise optimum, priced by the binding adjacent
    IC rows and its explicit duals (see the module docstring), is returned
    with ``rounds`` 0 and ``rows`` 2m when its m^2-pair primal violation, the
    stationarity of those duals and |R - profit| are each at most
    ``CERT_TOL``.  Otherwise, where the optimum needs ironing, HiGHS solves
    the LP by ``_row_generation``.  Raises RuntimeError when the solver or the
    certificate fails.  Deterministic for a fixed instance.
    """
    opts = list(instance.sellable)
    K, m, w = len(opts), instance.m, instance.weights
    V = np.vstack((instance.values[opts], np.zeros(m)))  # (K + 1, m), row K: nothing
    costs = np.append(instance.costs[opts], 0.0)
    psi, tail = instance.potentials, instance.tail_mass  # W_k: dual of IC row (k, k-1), at 0 of IR
    phi = (psi[:, :-1] - psi[:, 1:]).T  # (m, K)
    mass_dual = np.maximum(phi.max(axis=1), 0.0)
    choice = np.where(mass_dual > 0.0, phi.argmax(axis=1), K)  # a_k, or K: nothing
    k = np.arange(m)
    payments = np.cumsum(V[choice, k] - np.append(0.0, V[choice[:-1], k[1:]]))
    objective = w @ (payments - costs[choice])
    alloc = np.eye(K + 1)[choice, :K]
    # a gather, not alloc @ V: with OpenBLAS threads on, that product took 16 ms
    # at K = 31, m = 201 on a 2-vCPU host, against 0.3 ms for this whole solve
    *_, violation = _primal(alloc, V[choice] - payments[:, None])
    # c - A^T y: lottery columns y_k - phi_j(k), payment columns -w_k + W_k - W_{k+1}
    stationarity = max(-(mass_dual[:, None] - phi).min(), np.abs(tail[:-1] - tail[1:] - w).max())
    gap = abs(mass_dual.sum() - objective)
    if max(violation, stationarity, gap) > CERT_TOL:
        return _row_generation(instance)
    return LPSolution(
        objective=float(objective),
        allocation=alloc,
        payments=payments,
        option_bundles=instance.sellable,
        rounds=0,
        rows=2 * m,
        ic_violation=violation,
        stationarity=float(stationarity),
        duality_gap=float(gap),
    )


def _primal(alloc: np.ndarray, utility: np.ndarray):
    """(gain, own, violation) of a mechanism for the full LP.

    ``utility[r, k]`` is type k's utility from report r; gain[r, k] is that
    less its own utility own[k].  violation is the worst over all m^2
    (type, report) pairs, every IR row, lottery mass and the lottery bounds.
    """
    own = np.diag(utility)
    gain = utility - own
    violation = max(
        0.0, gain.max(), -own.min(), alloc.sum(axis=1).max() - 1.0, -alloc.min(), alloc.max() - 1.0
    )
    return gain, own, float(violation)


def _row_generation(instance: DiscretizedInstance) -> LPSolution:
    """The oracle LP solved by HiGHS, generating IC and IR rows lazily.

    Starts from the binding local rows (see the module docstring); each
    round solves, computes every type's utility from every report with one
    matrix product, and adds each type's worst omitted report and each
    omitted IR row violated by more than ``ROW_TOL``.  When the duals of
    HiGHS's default method fail the certificate, the generation goes on with
    its interior-point method (with crossover).  Raises RuntimeError when the
    solver fails or the certificate fails with both.
    """
    from scipy.optimize import linprog

    m = instance.m
    V = instance.values[list(instance.sellable)]  # (K, m)
    n_a = m * V.shape[0]
    bounds = np.repeat([[0.0, 1.0], [-np.inf, np.inf]], [n_a, m], axis=0)
    idx = np.arange(m)
    pairs = idx[:, None] - idx == 1  # pairs[k, r]: IC row (k, r) in the LP; (k, k): IR row
    pairs[0, 0] = True
    rounds = 0
    for method in ("highs", "highs-ipm"):
        while True:
            rounds += 1
            c, A, b_ub = _lp(instance, pairs)
            res = linprog(c, A_ub=A, b_ub=b_ub, bounds=bounds, method=method)
            if res.status == 2:
                raise RuntimeError("LP infeasible: the zero mechanism should always be feasible")
            if res.status == 3:
                raise RuntimeError("LP unbounded: objective sign error in construction")
            if not res.success:
                raise RuntimeError(f"LP solver failed: {res.message}")
            alloc = res.x[:n_a].reshape(m, -1)
            gain, own, violation = _primal(alloc, alloc @ V - res.x[n_a:, None])
            omitted = np.where(pairs.T | (idx[:, None] == idx), -np.inf, gain)
            worst = np.argmax(omitted, axis=0)
            add = omitted[worst, idx] > ROW_TOL
            below = idx[(own < -ROW_TOL) & ~pairs.diagonal()]  # omitted IR rows violated
            if not (add.any() or below.size):
                break
            pairs[idx[add], worst[add]] = True
            pairs[below, below] = True

        y, lower, upper = res.ineqlin.marginals, res.lower.marginals, res.upper.marginals
        # omitted rows carry zero duals, so A's rows alone give the full A^T y
        stationarity = max(
            np.abs(c - A.T @ y - lower - upper).max(), y.max(), -lower.min(), upper.max()
        )
        gap = abs(res.fun - (b_ub @ y + upper[:n_a].sum()))
        if max(violation, stationarity, gap) <= CERT_TOL:
            break
    else:
        raise RuntimeError(
            f"LP certificate failed: IC violation {violation:.3g}, "
            f"stationarity {stationarity:.3g}, duality gap {gap:.3g} (bound {CERT_TOL:g})"
        )
    return LPSolution(
        objective=float(-res.fun),
        allocation=alloc,
        payments=res.x[n_a:],
        option_bundles=instance.sellable,
        rounds=rounds,
        rows=A.shape[0],
        ic_violation=violation,
        stationarity=float(stationarity),
        duality_gap=float(gap),
    )


def discrete_chain_profit(instance: DiscretizedInstance, chain) -> float:
    """Optimal profit from selling a nested chain on the discrete instance.

    The profit is separable in the marginal-type indices: ``numerics.chain_dp``
    over the chain's own rows of ``DiscretizedInstance.potentials`` solves it
    exactly, a priced-out member dropping out of the path.
    """
    chain = sorted(set(int(b) for b in chain))
    if any(lo & ~hi for lo, hi in zip(chain[:-1], chain[1:])):
        raise ValueError(f"masks {chain} are not a nested chain")
    return chain_dp(GridRows(zip(instance.sellable, instance.potentials)), chain)[0]


def best_nested_discrete(instance: DiscretizedInstance) -> tuple[float, tuple]:
    """Best discrete-instance (profit, chain) over every chain of sellable bundles.

    One ``numerics.chain_dp`` of ``DiscretizedInstance.potentials`` over their
    inclusion lattice, in O(n * 2^n * m).
    """
    potentials = GridRows(zip(instance.sellable, instance.potentials))
    profit, path = chain_dp(potentials, instance.sellable)
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

    Written row by row from ``_lp``'s full matrix with round-trip floats, so
    the text is the LP whose optimum ``solve_lp`` certifies; ``_lp`` refuses
    it (SpecError) where that matrix exceeds ``MAX_LP_BYTES``.
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
