"""Shared test helpers: canonical instances, a seeded instance generator, the
chain enumeration and the pairwise DP that cross-check the chain DP, the
per-bundle LP builder and dense solve that cross-check the oracle's row
generation, the per-value CSV writer that cross-checks the CLI's column-wise
one, the document route and unit-value specs that cross-check the
applications' directly built specs and virtual values, the 0-d-array formulas
that cross-check the model's point evaluations on plain floats, the
per-bundle rows and per-pair checks that cross-check its grid tables,
``check_spec``'s monotonicity scans and ``validate_assumptions``, the per-pair union-elasticity scan that
cross-checks ``check_union_elasticity``, and the menu checks no command runs
(``ic_report``, ``two_item_base_test``)."""

from __future__ import annotations

import bisect
import warnings

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from bundleopt import load_spec
from bundleopt.demand import elasticity_grid, marginal_profit, profit_curve, virtual_surplus
from bundleopt.dominance import ETA_TOL, MAX_RECORDED, UnionElasticityReport
from bundleopt.menu import MechanismSolution, evaluate_menu
from bundleopt.model import (
    STRICT_TOL,
    HazardClampWarning,
    MonomialSum,
    ProblemSpec,
    SpecError,
    ValidationReport,
    format_bundle,
    is_subset,
    items_from_mask,
    subset_pairs,
)
from bundleopt.numerics import rising_root, scanned_max
from bundleopt.oracle import LPSolution


def two_item_doc(beta, gamma, alpha=1.0, hi=2.0, grid_size=4097):
    """The two-item power-value benchmark family document."""
    return {
        "n_items": 2,
        "distribution": {"kind": "uniform", "lo": 0.0, "hi": float(hi)},
        "values": {
            "[1]": {"terms": [{"coef": 1.0, "exp": float(alpha)}]},
            "[2]": {"terms": [{"coef": 1.0, "exp": float(beta)}]},
            "[1,2]": {
                "terms": [
                    {"coef": 1.0, "exp": float(alpha)},
                    {"coef": 1.0, "exp": float(beta)},
                    {"coef": 1.0, "exp": float(gamma)},
                ]
            },
        },
        "costs": {},
        "grid_size": grid_size,
    }


def two_item_spec(beta, gamma, alpha=1.0, hi=2.0, grid_size=4097):
    return load_spec(two_item_doc(beta, gamma, alpha=alpha, hi=hi, grid_size=grid_size))


def rounding_noise_doc():
    """{1} = 3.14159e8 t^1.3, {2} = 1e-6 t and {1,2} their sum on U[0, 1.7]: the
    increment {1} -> {1,2} is 1e-6 t, increasing, but its grid row subtracts
    two values near 3e8, whose rounding steps are larger than its own."""
    big, small = {"coef": 3.14159e8, "exp": 1.3}, {"coef": 1e-6, "exp": 1.0}
    return {
        "n_items": 2,
        "distribution": {"kind": "uniform", "lo": 0.0, "hi": 1.7},
        "values": {"[1]": {"terms": [big]}, "[2]": {"terms": [small]},
                   "[1,2]": {"terms": [big, small]}},
    }


def single_item_doc(coef=1.0, exp=1.0, lo=0.0, hi=1.0, cost=0.0, grid_size=4097):
    return {
        "n_items": 1,
        "distribution": {"kind": "uniform", "lo": float(lo), "hi": float(hi)},
        "values": {"[1]": {"terms": [{"coef": float(coef), "exp": float(exp)}]}},
        "costs": {"[1]": float(cost)},
        "grid_size": grid_size,
    }


def random_instance_doc(rng: np.random.Generator, n_items=2, allow_costs=True, grid_size=4097):
    """Random additive-plus-synergy monomial instance on U[0, 1].

    Per-item value a_i * t^{e_i}; every multi-item bundle adds a shared
    synergy s * (|b|-1) * t^{e_s}, which keeps values monotone in inclusion
    and incremental values strictly increasing.  Value scales are kept small
    so LP discretization bias stays well inside the 5/m comparison band.
    """
    exps = rng.uniform(0.4, 2.2, size=n_items)
    coefs = rng.uniform(0.3, 1.0, size=n_items)
    syn = float(rng.uniform(0.0, 0.35))
    syn_exp = float(rng.uniform(0.4, 2.2))
    values = {}
    costs = {}
    for mask in range(1, 1 << n_items):
        items = [j for j in range(n_items) if mask & (1 << j)]
        terms = [{"coef": float(coefs[j]), "exp": float(exps[j])} for j in items]
        if len(items) > 1 and syn > 0:
            terms.append({"coef": syn * (len(items) - 1), "exp": syn_exp})
        values[str([j + 1 for j in items])] = {"terms": terms}
    if allow_costs and rng.uniform() < 0.4:
        unit_costs = rng.uniform(0.0, 0.25, size=n_items) * coefs
        for mask in range(1, 1 << n_items):
            items = [j for j in range(n_items) if mask & (1 << j)]
            costs[str([j + 1 for j in items])] = float(sum(unit_costs[j] for j in items))
    return {
        "n_items": n_items,
        "distribution": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
        "values": values,
        "costs": costs,
        "grid_size": grid_size,
    }


def generate_clean_specs(seed, count, n_items_choices=(2, 3), require_nested=False,
                         grid_size=4097, max_tries=10000):
    """Deterministic stream of validated, warning-free random instances."""
    import warnings as _warnings

    from bundleopt import SpecError, compute_profiles, validate_assumptions
    from bundleopt.dominance import build_dominance

    rng = np.random.default_rng(seed)
    out = []
    tries = 0
    while len(out) < count and tries < max_tries:
        tries += 1
        n = int(rng.choice(n_items_choices))
        doc = random_instance_doc(rng, n_items=n, grid_size=grid_size)
        try:
            with _warnings.catch_warnings():
                _warnings.simplefilter("error")
                spec = load_spec(doc)
                report = validate_assumptions(spec)
                if report.warnings:
                    continue
                profiles = compute_profiles(spec)
                relation = build_dominance(spec, profiles)
        except (SpecError, Warning):
            continue
        if require_nested and not relation.nested:
            continue
        out.append((spec, profiles, relation))
    if len(out) < count:
        raise RuntimeError(f"generator produced only {len(out)}/{count} instances")
    return out


def iter_chains(bundles):
    """All nonempty chains (under set inclusion) drawn from the given bundles."""
    chains: list[tuple[int, ...]] = [()]
    for chain in chains:
        for b in bundles:
            if chain and (b <= chain[-1] or not is_subset(chain[-1], b)):
                continue
            chains.append(chain + (b,))
    return [c for c in chains if c]


def reference_chain_dp(term, bundles, fixed=False):
    """Reference for ``numerics.chain_dp``: the pairwise DP it replaced.

    ``term(p, b)`` is the row earned by stepping from p to b; every step
    stacks one row per predecessor, O(3^n * grid) on the lattice.  Same
    contract, ties and return value as ``chain_dp``.
    """
    if fixed:
        if any(lo & ~hi for lo, hi in zip(bundles[:-1], bundles[1:])):
            raise ValueError(f"masks {list(bundles)} are not a nested chain")
        preds = {b: [p] for p, b in zip([0, *bundles[:-1]], bundles)}
    else:
        preds = {b: [0] + [p for p in bundles if p != b and p & ~b == 0] for b in bundles}
    shift = 0 if fixed else 1
    top, ahead, arg, src = {}, {}, {}, {}
    for b in bundles:
        cands = np.stack([term(p, b) if p == 0 else term(p, b) + ahead[p] for p in preds[b]])
        j = np.argmax(cands, axis=0)  # first maximum: the smallest predecessor
        total = cands[j, np.arange(j.size)]
        peak = np.maximum.accumulate(total)
        arg[b] = np.maximum.accumulate(np.where(total == peak, np.arange(total.size), -1))
        ahead[b] = np.concatenate((np.full(shift, -np.inf), peak[: peak.size - shift]))
        top[b], src[b] = float(peak[-1]), np.asarray(preds[b])[j]
    b = bundles[-1] if fixed else max(bundles, key=top.get)
    value, k, path = top[b], int(arg[b][-1]), []
    while b != 0:
        path.append((b, k))
        b = int(src[b][k])
        k = int(arg[b][k - shift]) if b else k
    return value, path[::-1]


def reference_chain_terms(spec, bundles):
    """Continuum ``reference_chain_dp`` terms Psi_b - Psi_p on the type grid,
    Psi_b = (v_b - c_b) * (1 - F): the upgrade from p to b with cutoff t_k
    earns the virtual surplus of b over p above t_k, integrated by parts.
    -inf where v_b(t_k) <= 0.  v and F are evaluated here, not read from
    the spec's tables."""
    t = spec.t_grid
    survive = 1.0 - reference_cdf(spec.dist, t)
    value, psi = {}, {0: np.zeros(t.size)}
    for b in bundles:
        value[b] = reference_value(spec.value_expr(b), t)
        psi[b] = (value[b] - spec.cost(b)) * survive

    def term(p, b):
        out = psi[b] - psi[p]
        out[value[b] <= 0.0] = -np.inf
        return out

    return term


def reference_discrete_terms(instance):
    """Discrete ``reference_chain_dp`` terms: the upgrade from p to b priced at
    marginal-type index k earns ((v_b - v_p)(t_k) - (c_b - c_p)) * W_k, with
    W_k the mass of types k and up, summed from the top type's weight down."""
    m = instance.m
    mass = np.concatenate((np.cumsum(instance.weights[::-1])[::-1], [0.0]))
    sold = np.concatenate((np.ones(m), [0.0]))

    def term(p, b):
        inc = np.concatenate((instance.values[b] - instance.values[p], [0.0]))
        return (inc - (instance.costs[b] - instance.costs[p]) * sold) * mass

    return term


def dense_lp(instance):
    """Reference oracle LP ``(c, A_ub, b_ub)``, assembled one bundle at a time.

    The COO triplets of every IC, IR and lottery-mass row, converted to CSR:
    the construction ``oracle._lp`` replaced, kept to check it against.
    """
    m = instance.m
    opts = list(instance.sellable)
    K = len(opts)
    V = instance.values[opts]  # (K, m)
    C = instance.costs[opts]
    w = instance.weights
    n_a = m * K

    c = np.zeros(n_a + m)
    c[:n_a] = np.repeat(w, K) * np.tile(C, m)
    c[n_a:] = -w

    rows, cols, data = [], [], []

    # IC: for k != k', sum_j a[k',j] v_j(t_k) - p_k' - sum_j a[k,j] v_j(t_k) + p_k <= 0
    ks, kps = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
    mask = ks != kps
    ks, kps = ks[mask], kps[mask]
    row_idx = np.arange(ks.size)
    for j in range(K):
        rows += [row_idx, row_idx]
        cols += [kps * K + j, ks * K + j]
        data += [V[j, ks], -V[j, ks]]
    rows += [row_idx, row_idx]
    cols += [n_a + ks, n_a + kps]
    data += [np.ones(ks.size), -np.ones(ks.size)]
    r = ks.size

    # IR: p_k - sum_j a[k,j] v_j(t_k) <= 0
    kr = np.arange(m)
    for j in range(K):
        rows.append(r + kr)
        cols.append(kr * K + j)
        data.append(-V[j, kr])
    rows.append(r + kr)
    cols.append(n_a + kr)
    data.append(np.ones(m))
    r += m

    # lottery mass: sum_j a[k,j] <= 1
    for j in range(K):
        rows.append(r + kr)
        cols.append(kr * K + j)
        data.append(np.ones(m))
    r += m

    A = sparse.csr_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(r, n_a + m),
    )
    b_ub = np.zeros(r)
    b_ub[r - m :] = 1.0
    return c, A, b_ub


def dense_solution(instance):
    """One HiGHS solve of the full ``dense_lp``, every m^2 IC row present.

    The reference for ``oracle.solve_lp``'s row generation; the certificate
    fields are NaN, since nothing here checks the answer.
    """
    c, A, b_ub = dense_lp(instance)
    m = instance.m
    n_a = A.shape[1] - m
    res = linprog(c, A_ub=A, b_ub=b_ub, bounds=[(0.0, 1.0)] * n_a + [(None, None)] * m,
                  method="highs")
    assert res.success, res.message
    return LPSolution(
        objective=float(-res.fun),
        allocation=res.x[:n_a].reshape(m, -1),
        payments=res.x[n_a:],
        option_bundles=instance.sellable,
        rounds=1,
        rows=A.shape[0],
        ic_violation=float("nan"),
        stationarity=float("nan"),
        duality_gap=float("nan"),
    )


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def csv_text_reference(provenance, header, columns) -> str:
    """Reference for ``cli._csv_text``: ``_fmt`` on every value, joined row by row.

    The per-value writer the column-wise one replaced, kept to check it against.
    """
    lines = [f"# {provenance}", ",".join(header)]
    for row in zip(*columns):
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# the document route: embeddings written as problem documents and loaded


def quality_embedding_doc(problem):
    """Reference for ``QualityProblem.embedded``: the chain {1..k+1} as quality k."""
    keys = [str(list(range(1, k + 2))) for k in range(len(problem.qualities))]
    return {
        "n_items": len(problem.qualities),
        "distribution": problem.dist.to_dict(),
        "values": {key: v.to_dict() for key, v in zip(keys, problem.values)},
        "costs": dict(zip(keys, problem.costs)),
        "grid_size": problem.grid_size,
    }


def screening_embedding_doc(problem):
    """Reference for ``embed_screening``'s spec: quality items, then opt-out items."""
    quality = problem.quality
    n, m = len(quality.qualities), len(problem.action_costs)
    all_optouts = ((1 << m) - 1) << n
    values, costs = {}, {}
    for i in range(n):
        quality_bits = (1 << (i + 1)) - 1
        key = str(list(items_from_mask(quality_bits | all_optouts)))
        values[key], costs[key] = quality.values[i].to_dict(), quality.costs[i]
        for j in range(m):
            if (i, j) not in problem.surplus_pairs:
                continue
            expr = MonomialSum(
                terms=quality.values[i].terms
                + tuple((-c, e) for c, e in problem.action_costs[j].terms),
                const=quality.values[i].const - problem.action_costs[j].const,
            )
            key = str(list(items_from_mask(quality_bits | (all_optouts & ~(1 << (n + j))))))
            values[key], costs[key] = expr.to_dict(), quality.costs[i]
    return {
        "n_items": n + m,
        "distribution": quality.dist.to_dict(),
        "values": values,
        "costs": costs,
        "grid_size": quality.grid_size,
    }


def _unit_spec(dist, cost, grid_size):
    unit = MonomialSum(terms=((1.0, 1.0),))  # v(t) = t
    return ProblemSpec(n_items=1, values={1: unit}, costs={1: float(cost)}, dist=dist,
                       grid_size=grid_size)


def unit_spec_is_regular(dist, grid_size=4097):
    """Reference for ``is_regular``: the virtual surplus of a unit-value spec."""
    unit = _unit_spec(dist, 0.0, grid_size)
    return bool(np.all(np.diff(virtual_surplus(unit, 1, unit.t_grid)) > -1e-10))


def unit_spec_mr_inverse(dist, c):
    """Reference for ``unit_mr_inverse``: the root of a unit-value spec's virtual surplus."""
    unit = _unit_spec(dist, c, 4097)
    t_root = rising_root(lambda t: virtual_surplus(unit, 1, t), dist.lo, dist.hi)
    return float(1.0 - dist.cdf(t_root))


# Reference point formulas: every input goes through a 0-d or 1-d array, as
# the model evaluated a point before it ran the ufuncs on the float itself.
def _scalar_out(t, out):
    return float(out) if np.isscalar(t) or np.asarray(t).ndim == 0 else out


def reference_value(expr, t):
    """``MonomialSum.__call__`` on a 0-d array."""
    t_arr = np.asarray(t, dtype=float)
    out = np.full(t_arr.shape, expr.const, dtype=float)
    for coef, exp in expr.terms:
        out = out + coef * np.power(t_arr, exp)
    return _scalar_out(t, out)


def reference_slope(expr, t):
    """``MonomialSum.slope`` on a 1-d array, with the limit at t = 0."""
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.zeros(t_arr.shape, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        for coef, exp in expr.terms:
            if exp != 0.0:
                out = out + coef * exp * np.power(t_arr, exp - 1.0)
    nan = np.isnan(out) & (t_arr == 0.0)
    if np.any(nan):
        # the most singular exponent whose coefficients do not cancel leads;
        # if all cancel, the limit is the slope of the t**1 terms
        singular = sorted((e, c) for c, e in expr.terms if 0.0 < e < 1.0 and c != 0.0)
        exps = sorted({e for e, _ in singular})
        sums = [sum(c for e, c in singular if e == lead) for lead in exps]
        lead = next((x for x in sums if x != 0.0), 0.0)
        finite = sum(c for c, e in expr.terms if e == 1.0)
        out[nan] = np.inf * np.sign(lead) if lead != 0.0 else finite
    return float(out[0]) if np.asarray(t).ndim == 0 else out


def reference_cdf(dist, t):
    t_arr = np.asarray(t, dtype=float)
    if dist.kind == "uniform":
        out = np.clip((t_arr - dist.lo) / (dist.hi - dist.lo), 0.0, 1.0)
    else:
        out = np.interp(t_arr, dist.t_knots, dist.u_knots)
    return _scalar_out(t, out)


def reference_quantile(dist, u):
    u_arr = np.asarray(u, dtype=float)
    if dist.kind == "uniform":
        out = dist.lo + np.clip(u_arr, 0.0, 1.0) * (dist.hi - dist.lo)
    else:
        out = np.interp(u_arr, dist.u_knots, dist.t_knots)
    return _scalar_out(u, out)


def reference_quantile_slope(dist, u):
    """``TypeDistribution.quantile_slope`` one entry at a time: the slope of the
    quantile-table segment [u_k, u_k+1) holding u, the last one at u >= 1."""
    u_arr = np.atleast_1d(np.asarray(u, dtype=float))
    if dist.kind == "uniform":
        out = np.full(u_arr.shape, dist.hi - dist.lo)
    else:
        uk, tk, last = list(dist.u_knots), dist.t_knots, dist.u_knots.size - 2
        out = np.empty(u_arr.shape)
        for i, x in enumerate(u_arr):
            k = min(max(bisect.bisect_right(uk, x) - 1, 0), last)
            out[i] = (tk[k + 1] - tk[k]) / (uk[k + 1] - uk[k])
    return float(out[0]) if np.asarray(u).ndim == 0 else out


def reference_inv_hazard(dist, t):
    """``TypeDistribution.inv_hazard`` on a 1-d array, clamp included."""
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    if dist.kind == "uniform":
        out = dist.hi - np.clip(t_arr, dist.lo, dist.hi)
    else:
        u = np.atleast_1d(np.clip(reference_cdf(dist, t_arr), 0.0, 1.0))
        out = (1.0 - u) * reference_quantile_slope(dist, u)
    bad = ~np.isfinite(out)
    if np.any(bad):
        warnings.warn("clamping non-finite (1-F)/f values", HazardClampWarning)
        good = np.flatnonzero(~bad)
        if good.size == 0:
            raise SpecError("(1-F)/f is non-finite everywhere on the grid")
        idx = np.clip(np.searchsorted(good, np.flatnonzero(bad)), 0, good.size - 1)
        out[bad] = out[good[idx]]
    return float(out[0]) if np.asarray(t).ndim == 0 else out


def reference_envelope_trapezoid(spec, grid_size):
    """E[max(0, max_b virtual surplus)] by the trapezoid rule on ``grid_size``
    evenly spaced types: v, v', (1-F)/f and the density 1/Q'(F(t)) from the
    formulas above.  An independent check on ``menu.relaxed_bound``."""
    dist = spec.dist
    t = np.linspace(dist.lo, dist.hi, grid_size)
    hazard = reference_inv_hazard(dist, t)
    env = np.zeros(t.size)
    for b in spec.nonzero_bundles():
        expr = spec.value_expr(b)
        with np.errstate(invalid="ignore"):  # -inf virtual surplus at a singular bottom type
            phi = reference_value(expr, t) - spec.cost(b) - hazard * reference_slope(expr, t)
        env = np.maximum(env, phi)
    density = 1.0 / reference_quantile_slope(dist, reference_cdf(dist, t))
    return float(np.trapezoid(env * density, t))


def reference_marginal_profit(spec, b, q):
    """``demand.marginal_profit``: the virtual surplus at the type of quantile 1 - q."""
    t = reference_quantile(spec.dist, 1.0 - np.asarray(q, dtype=float))
    expr = spec.value_expr(b)
    return (
        reference_value(expr, t) - spec.cost(b)
        - reference_inv_hazard(spec.dist, t) * reference_slope(expr, t)
    )


def reference_sales_volume(spec, b):
    """The quantity-grid scan ``demand.sales_volume`` replaced: the maximum of
    the profit (P - C) q on ``q_grid`` brackets the peak, ties keeping the
    smallest quantity, and the root of the marginal profit polishes it."""
    q = spec.q_grid
    return scanned_max(
        lambda x: profit_curve(spec, b, x),
        q,
        (spec.price_rows[b] - spec.cost(b)) * q,
        lambda x: marginal_profit(spec, b, x),
    )


def reference_rows(spec, b):
    """Reference for the spec's five grid tables: bundle b's rows, each from the
    0-d-array formulas above with no power, type or (1-F)/f shared across rows."""
    expr, cost, dist = spec.value_expr(b), spec.cost(b), spec.dist
    t, q = spec.t_grid, spec.q_grid
    types = reference_quantile(dist, 1.0 - q)
    price = reference_value(expr, types)
    hazard = reference_inv_hazard(dist, t)
    surplus = reference_value(expr, t) - cost - hazard * reference_slope(expr, t)
    return {
        "value_rows": reference_value(expr, t),
        "price_rows": price,
        "potential_rows": (reference_value(expr, t) - cost) * (1.0 - reference_cdf(dist, t)),
        "surplus_rows": surplus,
        "slope_rows": -reference_slope(expr, types) * reference_quantile_slope(dist, 1.0 - q),
    }


def turns_by_loop(y, noise=None):
    """Reference for ``numerics.count_descents_to_ascents``, one step at a time."""
    if noise is None:
        noise = max(1e-12, 1e-14 * float(np.max(y) - np.min(y))) if len(y) else 1e-12
    steps = [int(np.sign(d)) for d in np.diff(y) if abs(d) > noise]
    return sum(1 for a, b in zip(steps, steps[1:]) if a == -1 and b == 1)


def reference_validation(spec):
    """Reference for ``validate_assumptions``: each potential row and each subset
    pair checked on its own rows, turns counted by ``turns_by_loop``."""
    report = ValidationReport()
    bundles = spec.nonzero_bundles()
    rows = {b: reference_rows(spec, b) for b in bundles}
    profits = {b: r["potential_rows"] for b, r in rows.items()}
    values = {b: r["value_rows"] for b, r in rows.items()}
    for b in bundles:
        if turns_by_loop(profits[b]) > 0:
            report.warnings.append(
                f"profit curve of {format_bundle(b)} has multiple peaks on [0,1]"
            )
    for b1, b2 in subset_pairs(bundles):
        report.checked_pairs += 1
        pair = f"{format_bundle(b1)} -> {format_bundle(b2)}"
        inc = values[b2] - values[b1]
        if np.any((inc[:-1] > STRICT_TOL) & (np.abs(np.diff(inc)) <= STRICT_TOL)):
            report.warnings.append(f"incremental value {pair} is locally flat where positive")
        # the types above both peaks, each the largest of its tied grid maxima
        k = max(int(np.flatnonzero(profits[b] == profits[b].max())[-1]) for b in (b1, b2))
        if k <= spec.grid_size - 3 and turns_by_loop(profits[b2][k:] - profits[b1][k:]) > 0:
            report.warnings.append(
                f"incremental profit {pair} has multiple peaks before both sales volumes"
            )
    return report


def reference_dip(spec, b1, b2):
    """Where v_b2 - v_b1 first falls below -STRICT_TOL between grid points, or
    None: the minimum in each cell where the difference expression's slope
    (``reference_slope``) rises from < 0 to >= 0, polished by ``rising_root``."""
    inc = spec.value_expr(b2) - spec.value_expr(b1)
    t = spec.t_grid
    slope = reference_slope(inc, t)
    for k in np.flatnonzero((slope[:-1] < 0.0) & (slope[1:] >= 0.0)):
        root = rising_root(lambda x: reference_slope(inc, x), float(t[k]), float(t[k + 1]))
        if root is not None and reference_value(inc, root) < -STRICT_TOL:
            return root
    return None


def reference_monotone_scans(spec):
    """Reference for ``check_spec``'s monotonicity checks: every bundle's value
    and every subset pair's increment scanned on the grid, and each pair's
    increment between grid points by ``reference_dip``, whatever its
    coefficients.  Returns the first refusal message, or None, and the
    "decreases where positive" failures of the pairs, in pair order."""
    bundles = spec.nonzero_bundles()
    values = {b: reference_value(spec.value_expr(b), spec.t_grid) for b in bundles}
    for b in bundles:
        v = values[b]
        drop = np.flatnonzero((np.diff(v) < -STRICT_TOL) & (v[:-1] > STRICT_TOL))
        if drop.size:
            return (f"value of {format_bundle(b)} decreases in t at "
                    f"t={spec.t_grid[drop[0]]:.6g} where it is positive"), []
    failures = []
    for b1, b2 in subset_pairs(bundles):
        inc = values[b2] - values[b1]
        below = np.flatnonzero(inc < -STRICT_TOL)
        at = spec.t_grid[below[0]] if below.size else reference_dip(spec, b1, b2)
        if at is not None:
            return (f"monotonicity violation: value of {format_bundle(b1)} exceeds "
                    f"value of {format_bundle(b2)} at t={at:.6g}"), []
        fall = np.flatnonzero((np.diff(inc) < -STRICT_TOL) & (inc[:-1] > STRICT_TOL))
        if fall.size:
            failures.append(f"incremental value {format_bundle(b1)} -> {format_bundle(b2)} "
                            f"decreases at t={spec.t_grid[fall[0]]:.6g} where it is positive")
    return None, failures


def reference_lp_monotone(instance):
    """Set inclusion on the LP types, checked as the oracle once did: the first
    (b1, b2, t) with b1 a sellable subset of the sellable b2 whose value exceeds
    b2's by more than 1e-9 at the LP type t, else None."""
    for b1, b2 in subset_pairs(instance.sellable):
        above = np.flatnonzero(instance.values[b1] > instance.values[b2] + 1e-9)
        if above.size:
            return b1, b2, float(instance.types[above[0]])
    return None


def reference_union_scan(spec, profiles):
    """Reference for ``dominance.check_union_elasticity``: every pair compares the
    three elasticity rows and their validity masks itself."""
    cost_adjusted = not spec.zero_costs()
    report = UnionElasticityReport(holds=True, cost_adjusted=cost_adjusted)
    bundles = sorted(profiles)
    q = spec.q_grid
    etas = {b: elasticity_grid(spec, b, cost_adjusted=cost_adjusted) for b in bundles}
    valid = {b: (q < 1.0) & np.isfinite(etas[b]) for b in bundles}
    for i, b1 in enumerate(bundles):
        for b2 in bundles[i + 1 :]:
            union = b1 | b2
            if union == b1 or union == b2:
                continue
            if union not in profiles:
                report.skipped_pairs.append((b1, b2))
                continue
            flagged = (
                valid[b1] & valid[b2] & valid[union]
                & (etas[b1] < -1.0 - ETA_TOL)
                & (etas[b2] < -1.0 - ETA_TOL)
                & (etas[union] >= -1.0 + ETA_TOL)
            )
            idx = np.flatnonzero(flagged)
            if idx.size:
                report.holds = False
                report.n_flagged += int(idx.size)
                for k in idx[: max(0, MAX_RECORDED - len(report.failures))]:
                    report.failures.append(
                        (b1, b2, float(q[k]), float(etas[b1][k]), float(etas[b2][k]),
                         float(etas[union][k]))
                    )
    return report


# ---------------------------------------------------------------------------
# menu checks no command runs


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


def two_item_base_test(spec: ProblemSpec, profiles):
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
