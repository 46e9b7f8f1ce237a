"""Shared test helpers: canonical instances, a seeded instance generator, the
chain enumeration that cross-checks the chain DP, the per-bundle LP builder
and dense solve that cross-check the oracle's row generation, the per-value
CSV writer that cross-checks the CLI's column-wise one, the document route
and unit-value specs that cross-check the applications' directly built specs
and virtual values, and the 0-d-array formulas that cross-check the model's
point evaluations on plain floats."""

from __future__ import annotations

import warnings

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from bundleopt import load_spec
from bundleopt.demand import virtual_surplus
from bundleopt.model import (
    HazardClampWarning,
    MonomialSum,
    ProblemSpec,
    SpecError,
    is_subset,
    items_from_mask,
)
from bundleopt.numerics import rising_root
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
        frac = sorted((e, c) for c, e in expr.terms if 0.0 < e < 1.0 and c != 0.0)
        lead = sum(c for e, c in frac if e == frac[0][0])
        out[nan] = np.inf * np.sign(lead) if lead != 0.0 else 0.0
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


def reference_inv_hazard(dist, t):
    """``TypeDistribution.inv_hazard`` on a 1-d array, clamp included."""
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    if dist.kind == "uniform":
        out = dist.hi - np.clip(t_arr, dist.lo, dist.hi)
    else:
        u = np.atleast_1d(np.clip(reference_cdf(dist, t_arr), 0.0, 1.0))
        up, dn = np.minimum(u + 1e-6, 1.0), np.maximum(u - 1e-6, 0.0)
        slope = (reference_quantile(dist, up) - reference_quantile(dist, dn)) / (up - dn)
        out = (1.0 - u) * slope
    bad = ~np.isfinite(out)
    if np.any(bad):
        warnings.warn("clamping non-finite (1-F)/f values", HazardClampWarning)
        good = np.flatnonzero(~bad)
        if good.size == 0:
            raise SpecError("(1-F)/f is non-finite everywhere on the grid")
        idx = np.clip(np.searchsorted(good, np.flatnonzero(bad)), 0, good.size - 1)
        out[bad] = out[good[idx]]
    return float(out[0]) if np.asarray(t).ndim == 0 else out


def reference_marginal_profit(spec, b, q):
    """``demand.marginal_profit``: the virtual surplus at the type of quantile 1 - q."""
    t = reference_quantile(spec.dist, 1.0 - np.asarray(q, dtype=float))
    expr = spec.value_expr(b)
    return (
        reference_value(expr, t) - spec.cost(b)
        - reference_inv_hazard(spec.dist, t) * reference_slope(expr, t)
    )
