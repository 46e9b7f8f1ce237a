"""Seeded inputs for the four benchmark workloads.

Every workload is a list of rounds of ops built from one ``numpy`` generator
seeded by ``--seed``; the program under test only ever sees the JSON files
written from these documents (plus the command line).  A round's composition
is fixed per workload, so a seed changes coefficients and parameters, not how
many ops of each kind there are or how large they are.  That keeps
run-to-run spread down to what the program does with different numbers.

Nothing here imports ``bundleopt``: instances satisfy the load-time
assumptions by construction (the additive-plus-synergy family below is
monotone in type and in set inclusion, and the grand bundle is efficient at
the top type).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

GRID_SIZE = 4097
# the rotation family's beta grid in `reproduce` and the acceptance suite
PAPER_BETAS = tuple(round(0.1 * k, 10) for k in range(1, 21))
# criterion 4: gamma=4.5 verdicts the LP oracle must reproduce at m=201
SUBOPTIMAL_BETAS = (0.4, 0.6, 1.4)
CONFIRMED_BETAS = (1.0,)
WORKLOADS = ("solve", "verify", "chain_search", "sweep")


@dataclass(frozen=True)
class Op:
    """One user-facing command: a CLI argv (with ``{spec}``/``{out}`` holes)
    or, for ``kind == "regions"``, a call to ``applications.menu_regions``."""

    kind: str  # solve | verify | sweep | quality | screening | regions
    label: str
    argv: tuple = ()
    doc: dict | None = None  # written to the op's spec file
    meta: dict = field(default_factory=dict)  # facts the answer checks use

    def key(self) -> str:
        """Digest of everything the program sees for this op."""
        payload = {"kind": self.kind, "argv": self.argv, "doc": self.doc, "meta": self.meta}
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def _r(x: float, nd: int = 6) -> float:
    return round(float(x), nd)


def random_instance_doc(rng, n_items: int, with_costs: bool, nested=None) -> dict:
    """Additive-plus-synergy monomial instance on U[0, 1].

    Item j is worth a_j t^{e_j}; every multi-item bundle adds the shared
    synergy s (|b| - 1) t^{e_s}.  Unit costs, when present, stay below a
    quarter of the item's coefficient so every bundle is sellable.  With
    ``nested`` set, draws are repeated until ``is_nested`` agrees.
    """
    while True:
        doc = _draw_instance(rng, n_items, with_costs)
        if nested is None or is_nested(doc) == nested:
            return doc


def is_nested(doc: dict) -> bool:
    """Whether the undominated bundles form a chain, from grid sales volumes.

    A bundle is dominated when a strict superset sells at least as much
    alone; bundles selling at a corner (0 or 1) are left out, as the program
    does.  Grid argmaxes stand in for the program's polished sales volumes,
    so an instance within a grid step of a tie may be classed differently.
    """
    q = np.linspace(0.0, 1.0, doc["grid_size"])
    t = 1.0 - q  # U[0, 1] types: the buyer at quantity q has type 1 - q
    d_star = {}
    for key, expr in doc["values"].items():
        mask = sum(1 << (j - 1) for j in json.loads(key))
        value = sum(term["coef"] * t ** term["exp"] for term in expr["terms"])
        d_star[mask] = q[np.argmax((value - doc["costs"].get(key, 0.0)) * q)]
    eligible = [b for b, d in d_star.items() if 1e-9 < d < 1.0 - 1e-9]
    undominated = [
        b for b in eligible
        if not any(b2 != b and b & ~b2 == 0 and d_star[b] <= d_star[b2] + 1e-7 for b2 in eligible)
    ]
    return all(a & ~b == 0 or b & ~a == 0 for a in undominated for b in undominated)


def _draw_instance(rng, n_items: int, with_costs: bool, grid_size: int = GRID_SIZE) -> dict:
    exps = rng.uniform(0.4, 2.2, size=n_items)
    coefs = rng.uniform(0.3, 1.0, size=n_items)
    syn = rng.uniform(0.05, 0.35)
    syn_exp = rng.uniform(0.4, 2.2)
    unit_costs = rng.uniform(0.0, 0.25, size=n_items) * coefs if with_costs else None
    values, costs = {}, {}
    for mask in range(1, 1 << n_items):
        items = [j for j in range(n_items) if mask & (1 << j)]
        key = str([j + 1 for j in items])
        terms = [{"coef": _r(coefs[j]), "exp": _r(exps[j])} for j in items]
        if len(items) > 1:
            terms.append({"coef": _r(syn * (len(items) - 1)), "exp": _r(syn_exp)})
        values[key] = {"terms": terms}
        if unit_costs is not None:
            costs[key] = _r(sum(unit_costs[j] for j in items))
    return {
        "n_items": n_items,
        "distribution": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
        "values": values,
        "costs": costs,
        "grid_size": grid_size,
    }


def family_doc(beta: float, gamma: float, grid_size: int = GRID_SIZE) -> dict:
    """The paper's two-item family: t and t^beta, union adds t^gamma, U[0, 2]."""
    return {
        "n_items": 2,
        "distribution": {"kind": "uniform", "lo": 0.0, "hi": 2.0},
        "values": {
            "[1]": {"terms": [{"coef": 1.0, "exp": 1.0}]},
            "[2]": {"terms": [{"coef": 1.0, "exp": float(beta)}]},
            "[1,2]": {
                "terms": [
                    {"coef": 1.0, "exp": 1.0},
                    {"coef": 1.0, "exp": float(beta)},
                    {"coef": 1.0, "exp": float(gamma)},
                ]
            },
        },
        "costs": {},
        "grid_size": grid_size,
    }


def quality_doc(rng) -> dict:
    """Three or four multiplicative qualities with seeded production costs.

    Costs are convex in quality from the first quality on (the cost of each
    upgrade per unit of quality rises), while the first quality's average
    cost is free, so it is sometimes left out of the menu.  Without that
    convexity the sales-envelope menu and the menu solver can disagree, and
    ``quality`` stops with an internal error.
    """
    n = 3 + int(rng.integers(0, 2))
    xs = np.cumsum(rng.uniform(0.5, 1.5, size=n))
    ratios = np.concatenate(([rng.uniform(0.05, 0.6)], np.sort(rng.uniform(0.05, 0.85, size=n - 1))))
    costs = np.cumsum(ratios * np.diff(xs, prepend=0.0))
    return {
        "qualities": [_r(x) for x in xs],
        "costs": [_r(c) for c in costs],
        "values": {"kind": "multiplicative"},
        "distribution": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
        "grid_size": GRID_SIZE,
    }


def screening_doc(rng) -> tuple[dict, float]:
    """One quality worth t, one action with disutility c t^e; e is kept away
    from 1 and c e < 1, so the net value t - c t^e increases on [0, 1]."""
    exponent = _r(rng.uniform(0.4, 0.8) if rng.uniform() < 0.5 else rng.uniform(1.25, 3.0), 4)
    coef = _r(rng.uniform(0.15, min(0.45, 0.9 / exponent)), 4)
    doc = {
        "qualities": [1.0],
        "production_costs": [0.0],
        "values": {"kind": "multiplicative"},
        "actions": [{"terms": [{"coef": coef, "exp": exponent}]}],
        "distribution": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
        "grid_size": GRID_SIZE,
    }
    return doc, exponent


def _solve_op(label, doc, csv=False, **meta) -> Op:
    argv = ("solve", "--spec", "{spec}", "--out", "{out}") + (("--csv",) if csv else ())
    return Op("solve", label, argv, doc, meta)


def _verify_op(label, doc, m, **meta) -> Op:
    argv = ("verify", "--spec", "{spec}", "--out", "{out}", "--types", str(m))
    return Op("verify", label, argv, doc, dict(meta, m=m))


def _sweep_op(label, gamma, lo, n_points, step) -> Op:
    hi = round(lo + step * (n_points - 1), 10)
    argv = ("sweep", "--gamma", str(gamma), "--beta-range", f"{lo}:{hi}:{step}", "--out", "{out}")
    return Op("sweep", label, argv, None, {"gamma": gamma, "points": n_points})


def solve_round(rng, r) -> list[Op]:
    """2-item instances with and without costs, two nested 3-item instances
    (the slowest class, a fifth of the round, so the tail percentile falls
    inside it), two 3-item instances that stop at the nesting check (exit 3),
    and four gamma=0.5 family members, one beta from each quarter of the
    paper's grid, so every round's family ops cost about the same."""
    ops = [
        _solve_op(f"r{r}.2item", random_instance_doc(rng, 2, False)),
        _solve_op(f"r{r}.2item.cost", random_instance_doc(rng, 2, True), csv=(r % 2 == 0)),
        _solve_op(f"r{r}.3item.nested", random_instance_doc(rng, 3, False, nested=True)),
        _solve_op(f"r{r}.3item.cost.nested", random_instance_doc(rng, 3, True, nested=True)),
        _solve_op(f"r{r}.3item.exit3", random_instance_doc(rng, 3, False, nested=False)),
        _solve_op(f"r{r}.3item.cost.exit3", random_instance_doc(rng, 3, True, nested=False)),
    ]
    quarter = len(PAPER_BETAS) // 4
    for k in range(4):
        beta = float(rng.choice(PAPER_BETAS[k * quarter:(k + 1) * quarter]))
        ops.append(_solve_op(f"r{r}.family{k}", family_doc(beta, 0.5), csv=(k == 0 and r % 2 == 1),
                             family=True, beta=beta, gamma=0.5))
    return ops


def verify_round(rng, r) -> list[Op]:
    """Two gamma=4.5 family members at criterion-4 betas (two rounds cover
    all four verdicts) and a seeded 3-item instance at m=201, then one m=101
    op: a gamma=0.5 family member or a seeded 2-item instance in turn."""
    crit = SUBOPTIMAL_BETAS + CONFIRMED_BETAS
    first = 2 * r + int(rng.integers(0, len(crit)))
    beta_a, beta_b = crit[first % len(crit)], crit[(first + 1) % len(crit)]
    ops = [
        _verify_op(f"r{r}.family.g4.5.a", family_doc(beta_a, 4.5), 201,
                   family=True, beta=beta_a, gamma=4.5),
        _verify_op(f"r{r}.3item", random_instance_doc(rng, 3, r % 2 == 1), 201),
        _verify_op(f"r{r}.family.g4.5.b", family_doc(beta_b, 4.5), 201,
                   family=True, beta=beta_b, gamma=4.5),
    ]
    if r % 2 == 0:
        beta = float(rng.choice(PAPER_BETAS))
        ops.append(_verify_op(f"r{r}.family.g0.5.m101", family_doc(beta, 0.5), 101,
                              family=True, beta=beta, gamma=0.5))
    else:
        ops.append(_verify_op(f"r{r}.2item.m101", random_instance_doc(rng, 2, True), 101))
    return ops


def chain_round(rng, r) -> list[Op]:
    """One non-nested 5-item and two non-nested 4-item instances at m=51.

    The 5-item ops are a third of a run, so a run's tail percentile falls
    inside that class and its median inside the 4-item class; a round is
    short enough that a run holds two or three of them."""
    ops = []
    for k, n in enumerate((5, 4, 4)):
        doc = random_instance_doc(rng, n, (r + k) % 3 == 0, nested=False)
        ops.append(_verify_op(f"r{r}.{n}item.{k}", doc, 51, n_items=n))
    return ops


def sweep_round(rng, r) -> list[Op]:
    """Three rotation sweeps (gamma 0.5, 4.5, 0.5) over seeded 24-point beta
    grids, menu regions over 20 points, one quality and one screening problem."""
    ops = []
    for k, gamma in enumerate((0.5, 4.5, 0.5)):
        lo = _r(rng.uniform(0.1, 0.3), 2)
        ops.append(_sweep_op(f"r{r}.sweep{k}.g{gamma}", gamma, lo, 24, 0.07))
    lo = _r(rng.uniform(0.1, 0.2), 2)
    betas = [round(lo + 0.09 * k, 10) for k in range(20)]
    ops.append(Op("regions", f"r{r}.regions.g0.5", (), None, {"gamma": 0.5, "betas": betas}))
    ops.append(Op("quality", f"r{r}.quality", ("quality", "--spec", "{spec}", "--out", "{out}"),
                  quality_doc(rng)))
    doc, exponent = screening_doc(rng)
    ops.append(Op("screening", f"r{r}.screening", ("screening", "--spec", "{spec}", "--out", "{out}"),
                  doc, {"exponent": exponent}))
    return ops


# round builder and number of distinct rounds per seed.  A run stops at the
# round boundary nearest to its time budget, so every run measures whole
# rounds of one fixed composition, cycling through the rounds if it outlasts
# them.  Each round is composed so that the median op and the tail percentile
# each fall inside one class of ops rather than in a gap between two.
ROUNDS = {
    "solve": (solve_round, 12),
    "verify": (verify_round, 4),
    "chain_search": (chain_round, 6),
    "sweep": (sweep_round, 4),
}


def warmup_op(workload: str) -> Op:
    """A fixed small op on the workload's code path, run untimed before timing."""
    doc = family_doc(1.0, 0.5)
    if workload == "solve":
        return _solve_op("warmup", doc, csv=True)
    if workload in ("verify", "chain_search"):
        return _verify_op("warmup", doc, 51)
    return _sweep_op("warmup", 0.5, 0.5, 4, 0.1)


def build(workload: str, seed: int) -> list[list[Op]]:
    """The workload's rounds of ops for one seed."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    make, n_rounds = ROUNDS[workload]
    return [make(rng, r) for r in range(n_rounds)]


def input_hash(rounds) -> str:
    return hashlib.sha256("".join(op.key() for ops in rounds for op in ops).encode()).hexdigest()[:16]
