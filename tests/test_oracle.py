"""Discretized LP oracle: objective benchmarks, IC/IR feasibility, verdicts."""

import json
import re

import numpy as np
import pytest

from bundleopt import (
    best_nested_menu,
    build_dominance,
    compute_profiles,
    evaluate_menu,
    load_spec,
    relaxed_bound,
    solve_nested_menu,
)
from bundleopt import oracle
from bundleopt.model import ProblemSpec
from bundleopt.oracle import (
    CERT_TOL,
    DiscretizedInstance,
    _lp,
    best_nested_discrete,
    compare,
    discrete_chain_profit,
    dump_lp_text,
    solve_lp,
)

from support import (
    dense_lp,
    dense_solution,
    generate_clean_specs,
    iter_chains,
    random_instance_doc,
    single_item_doc,
    two_item_doc,
    two_item_spec,
)


def _single_item_instance(m=201):
    return DiscretizedInstance.from_spec(load_spec(single_item_doc()), m)


# ---------------------------------------------------------------------------
# discretization


def test_instance_quantile_midpoints():
    inst = _single_item_instance(11)
    assert inst.types[0] == pytest.approx(0.5 / 11)
    assert inst.types[-1] == pytest.approx(10.5 / 11)
    assert inst.weights.sum() == pytest.approx(1.0)


def test_instance_m_range_enforced():
    spec = load_spec(single_item_doc())
    with pytest.raises(ValueError):
        DiscretizedInstance.from_spec(spec, 5)
    with pytest.raises(ValueError):
        DiscretizedInstance.from_spec(spec, 1000)


def test_instance_evaluates_only_sellable_bundles(monkeypatch):
    # 16 items, two sellable bundles: 2 value rows and 2 costs are
    # evaluated, not 65,536
    grand = "[" + ",".join(str(j) for j in range(1, 17)) + "]"
    spec = load_spec({
        "n_items": 16,
        "distribution": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
        "values": {
            "[1]": {"terms": [{"coef": 1.0, "exp": 1.0}]},
            grand: {"terms": [{"coef": 2.0, "exp": 1.0}]},
        },
        "grid_size": 1025,
    })
    calls = {"value": [], "cost": []}
    for name in calls:
        original = getattr(ProblemSpec, name)

        def counting(self, b, *args, _name=name, _original=original):
            calls[_name].append(b)
            return _original(self, b, *args)

        monkeypatch.setattr(ProblemSpec, name, counting)
    inst = DiscretizedInstance.from_spec(spec, 51)
    monkeypatch.undo()
    assert sorted(calls["value"]) == list(inst.sellable) == [0b1, (1 << 16) - 1]
    assert sorted(calls["cost"]) == list(inst.sellable)
    for b in inst.sellable:
        assert np.array_equal(inst.values[b], spec.value(b, inst.types))
    unsellable = np.ones(1 << 16, dtype=bool)
    unsellable[list(inst.sellable)] = False
    assert not inst.values[unsellable].any()


# ---------------------------------------------------------------------------
# LP solution quality


def test_single_item_objective_benchmark():
    lp = solve_lp(_single_item_instance(201))
    assert lp.objective == pytest.approx(0.25, abs=0.005)
    assert not lp.stochastic


def test_zero_values_give_zero_objective():
    # constructed directly: the loader (rightly) refuses all-zero instances
    m = 21
    types = (np.arange(m) + 0.5) / m
    inst = DiscretizedInstance(
        types=types,
        weights=np.full(m, 1.0 / m),
        values=np.zeros((2, m)),
        costs=np.zeros(2),
        sellable=(1,),
    )
    lp = solve_lp(inst)
    assert lp.objective == pytest.approx(0.0, abs=1e-9)
    assert np.all(lp.payments <= 1e-9)


def _instance_doc(seed, n_items, costs):
    """Seeded random instance, without costs or with 0.05 per item in each bundle."""
    doc = random_instance_doc(np.random.default_rng(seed), n_items, allow_costs=False)
    if costs:
        doc["costs"] = {key: 0.05 * len(json.loads(key)) for key in doc["values"]}
    return doc


@pytest.mark.parametrize("costs", [False, True])
@pytest.mark.parametrize("n_items", [2, 3, 4])
@pytest.mark.parametrize("seed", range(3))
def test_lp_builder_matches_dense_reference(seed, n_items, costs):
    spec = load_spec(_instance_doc(seed, n_items, costs))
    for m in (11, 51, 101):
        inst = DiscretizedInstance.from_spec(spec, m)
        c, A, b_ub = _lp(inst)
        c_ref, A_ref, b_ref = dense_lp(inst)
        assert np.any(c[: A.shape[1] - m] > 0) == costs
        assert np.array_equal(c, c_ref) and np.array_equal(b_ub, b_ref)
        assert A.format == "csr" and A.shape == A_ref.shape
        for field in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(A, field), getattr(A_ref, field)), (m, field)


def test_lp_row_subset_keeps_full_row_order():
    inst = DiscretizedInstance.from_spec(load_spec(_instance_doc(1, 3, costs=True)), 11)
    m = inst.m
    pairs = np.random.default_rng(0).uniform(size=(m, m)) < 0.3
    np.fill_diagonal(pairs, False)
    c, A, b_ub = _lp(inst, pairs)
    c_full, A_full, b_full = _lp(inst)
    # the full LP's IC rows are the off-diagonal (k, r) pairs, k-major
    keep = np.concatenate((pairs[~np.eye(m, dtype=bool)], np.ones(2 * m, dtype=bool)))
    assert np.array_equal(c, c_full) and np.array_equal(b_ub, b_full[keep])
    assert (A != A_full[np.flatnonzero(keep)]).nnz == 0


def _check_against_dense(inst):
    lp, ref = solve_lp(inst), dense_solution(inst)
    assert abs(lp.objective - ref.objective) <= 1e-9
    assert compare(inst, 0.0, lp).verdict == compare(inst, 0.0, ref).verdict
    assert max(lp.ic_violation, lp.stationarity, lp.duality_gap) <= CERT_TOL
    return lp


@pytest.mark.parametrize("costs", [False, True])
@pytest.mark.parametrize("n_items", [2, 3, 4, 5])
def test_row_generation_matches_dense_solve(n_items, costs):
    spec = load_spec(_instance_doc(n_items, n_items, costs))
    for m in (11, 51, 101, 201):
        lp = _check_against_dense(DiscretizedInstance.from_spec(spec, m))
        assert lp.rows < m * (m - 1) + 2 * m


@pytest.mark.parametrize("beta", [0.4, 0.6, 1.0, 1.4])
def test_row_generation_matches_dense_on_criterion_4(beta):
    spec = two_item_spec(beta, 4.5, grid_size=1025)
    _check_against_dense(DiscretizedInstance.from_spec(spec, 201))


def test_row_generation_without_single_crossing():
    # item 1 is worth more to high types, item 2 to low ones: without
    # increasing differences the adjacent IC rows leave others violated
    m = 11
    t = (np.arange(m) + 0.5) / m
    inst = DiscretizedInstance(
        types=t,
        weights=np.full(m, 1.0 / m),
        values=np.vstack([np.zeros(m), t, t[::-1], np.maximum(t, t[::-1]) + 0.1]),
        costs=np.zeros(4),
        sellable=(1, 2, 3),
    )
    inst.check_monotone()
    lp = _check_against_dense(inst)
    assert lp.rounds > 1
    assert 4 * m - 2 < lp.rows < m * (m - 1) + 2 * m


def test_interior_point_fallback_certifies():
    # criterion 3's 19th nested instance: the duals of HiGHS's default method
    # leave a stationarity residual of 9.2e-7, so the last LP is solved again
    # by interior point, whose duals pass
    spec, _profiles, _rel = generate_clean_specs(
        515151, 19, n_items_choices=(2, 3), require_nested=True
    )[18]
    lp = solve_lp(DiscretizedInstance.from_spec(spec, 201))
    assert lp.rounds == 2 and lp.rows == 4 * 201 - 2
    assert max(lp.ic_violation, lp.stationarity, lp.duality_gap) <= CERT_TOL


def test_failed_certificate_raises(monkeypatch):
    monkeypatch.setattr(oracle, "CERT_TOL", -1.0)
    with pytest.raises(RuntimeError, match="LP certificate failed"):
        solve_lp(_single_item_instance(11))


def test_lp_matches_menu_solver_under_nesting():
    spec = two_item_spec(1.0, 0.5)
    profiles = compute_profiles(spec)
    rel = build_dominance(spec, profiles)
    menu = solve_nested_menu(spec, rel)
    inst = DiscretizedInstance.from_spec(spec, 201)
    lp = solve_lp(inst)
    assert abs(lp.objective - menu.expected_profit) <= 0.01


def test_lp_solution_feasible():
    inst = _single_item_instance(101)
    lp = solve_lp(inst)
    util = lp.utilities(inst.values)
    assert np.min(util) >= -1e-7  # IR
    # IC: no type gains from taking another type's lottery and payment
    V = inst.values[list(lp.option_bundles)]
    for k in range(inst.m):
        gains = lp.allocation @ V[:, k] - lp.payments - util[k]
        assert np.max(gains) <= 1e-7
    assert np.all(lp.allocation.sum(axis=1) <= 1 + 1e-9)


def test_lp_dominates_every_menu_on_same_instance():
    spec = two_item_spec(0.7, 0.5)
    inst = DiscretizedInstance.from_spec(spec, 101)
    lp = solve_lp(inst)
    for chain in iter_chains(spec.nonzero_bundles()):
        assert discrete_chain_profit(inst, chain) <= lp.objective + 1e-7


def test_lp_below_relaxed_bound_at_moderate_scale():
    for spec, _profiles, _rel in generate_clean_specs(77, 4, grid_size=1025):
        inst = DiscretizedInstance.from_spec(spec, 101)
        lp = solve_lp(inst)
        assert lp.objective <= relaxed_bound(spec) + 5.0 / 101


def test_discretization_stability():
    for spec, _profiles, _rel in generate_clean_specs(78, 3, grid_size=1025):
        lp101 = solve_lp(DiscretizedInstance.from_spec(spec, 101)).objective
        lp201 = solve_lp(DiscretizedInstance.from_spec(spec, 201)).objective
        assert abs(lp201 - lp101) <= 10.0 / 101


# ---------------------------------------------------------------------------
# discrete nested benchmark and verdicts


def test_discrete_chain_profit_single_item():
    inst = _single_item_instance(201)
    profit = discrete_chain_profit(inst, [1])
    # closed form: max_k t_k (m - k)/m with t_k the quantile midpoints
    m = inst.m
    direct = max(inst.types[k] * (m - k) / m for k in range(m))
    assert profit == pytest.approx(direct, abs=1e-12)


def test_best_nested_discrete_matches_lp_under_nesting():
    spec = two_item_spec(0.3, 0.5)
    inst = DiscretizedInstance.from_spec(spec, 101)
    lp = solve_lp(inst)
    profit, chain = best_nested_discrete(inst)
    assert abs(lp.objective - profit) <= 1e-8
    assert chain == (0b10, 0b11)


@pytest.mark.parametrize("n_items", [2, 3, 4])
@pytest.mark.parametrize("seed", range(4))
def test_lattice_dp_matches_chain_enumeration(seed, n_items):
    # seeds 0-3 give instances with and without costs, nested and non-nested
    # undominated sets, and fractional exponents (bottom type blocked)
    rng = np.random.default_rng(seed)
    spec = load_spec(random_instance_doc(rng, n_items=n_items, grid_size=1025))
    chains = iter_chains(spec.nonzero_bundles())
    profits = [evaluate_menu(spec, chain).expected_profit for chain in chains]
    best = int(np.argmax(profits))  # first chain attaining the max
    sol, chain = best_nested_menu(spec)
    assert chain == list(chains[best])
    assert sol.expected_profit == pytest.approx(profits[best], abs=1e-12)

    inst = DiscretizedInstance.from_spec(spec, 51)
    enumerated = max(
        ((discrete_chain_profit(inst, c), c) for c in chains), key=lambda pc: pc[0]
    )
    assert best_nested_discrete(inst) == enumerated


def test_verdict_confirmed_low_gamma():
    spec = two_item_spec(0.3, 0.5)
    profiles = compute_profiles(spec)
    menu = solve_nested_menu(spec, build_dominance(spec, profiles))
    inst = DiscretizedInstance.from_spec(spec, 201)
    verdict = compare(inst, menu, solve_lp(inst))
    assert verdict.verdict == "CONFIRMED"
    assert abs(verdict.gap) <= verdict.strict_tolerance


def test_verdict_suboptimal_high_gamma():
    spec = two_item_spec(0.5, 4.5)
    best_sol, _chain = best_nested_menu(spec)
    inst = DiscretizedInstance.from_spec(spec, 201)
    verdict = compare(inst, best_sol, solve_lp(inst))
    assert verdict.verdict == "NESTED_SUBOPTIMAL"
    assert verdict.gap > verdict.strict_tolerance
    assert verdict.raw_gap > verdict.tolerance


def test_verdict_confirmed_degenerate_beta_one():
    spec = two_item_spec(1.0, 4.5)
    best_sol, _chain = best_nested_menu(spec)
    inst = DiscretizedInstance.from_spec(spec, 201)
    verdict = compare(inst, best_sol, solve_lp(inst))
    assert verdict.verdict == "CONFIRMED"


# ---------------------------------------------------------------------------
# LP text dump


def _parse_lp_text(text):
    """(c, A, b, bounds, row names) of a dumped LP, columns in Bounds order."""
    lines = text.splitlines()
    sections = {name: lines.index(name) for name in ("Maximize", "Subject To", "Bounds", "End")}
    bound_lines = lines[sections["Bounds"] + 1 : sections["End"]]
    names, bounds = [], []
    for line in bound_lines:
        lo, name, hi = re.fullmatch(r" (\S+) <= (\S+) <= (\S+)", line).groups()
        names.append(name)
        bounds.append((float(lo), float(hi)))
    col = {name: j for j, name in enumerate(names)}

    def row(terms):
        out = np.zeros(len(names))
        for sign, coef, name in re.findall(r" ([+-]) (\S+) (\S+)", terms):
            out[col[name]] = float(coef) if sign == "+" else -float(coef)
        return out

    (obj,) = lines[sections["Maximize"] + 1 : sections["Subject To"]]
    c = -row(obj.removeprefix(" obj:"))
    rows, b, row_names = [], [], []
    for line in lines[sections["Subject To"] + 1 : sections["Bounds"]]:
        name, terms, rhs = re.fullmatch(r" (\w+):(.*) <= (\S+)", line).groups()
        row_names.append(name)
        rows.append(row(terms))
        b.append(float(rhs))
    return c, np.array(rows), np.array(b), bounds, row_names


def test_dump_lp_text_structure():
    inst = _single_item_instance(11)
    text = dump_lp_text(inst)
    assert text.startswith("\\")
    assert "Maximize" in text and "Subject To" in text and text.rstrip().endswith("End")
    assert text.count("ic_") == 11 * 10
    assert text.count("ir_") == 11
    # every ic_ coefficient reads back as the exact value the LP uses
    ic = [line for line in text.splitlines() if line.startswith(" ic_")]
    for line in ic:
        k = int(line.split("_")[1])
        coefs = re.findall(r"[+-] (\S+) a_\d+_1\b", line)
        assert len(coefs) == 2
        assert all(float(c) == inst.values[0b1, k] for c in coefs)
    # the whole text parses back into the LP solve_lp is given
    m = 11
    for doc in (two_item_doc(0.3, 0.5, grid_size=1025), _instance_doc(0, 3, costs=True)):
        inst = DiscretizedInstance.from_spec(load_spec(doc), m)
        c, A, b, bounds, row_names = _parse_lp_text(dump_lp_text(inst))
        c_lp, A_lp, b_lp = _lp(inst)
        n_a = A_lp.shape[1] - m
        assert np.array_equal(c, c_lp) and np.array_equal(b, b_lp)
        assert np.array_equal(A, A_lp.toarray())
        assert bounds == [(0.0, 1.0)] * n_a + [(-np.inf, np.inf)] * m
        assert row_names == (
            [f"ic_{k}_{r}" for k in range(m) for r in range(m) if r != k]
            + [f"ir_{k}" for k in range(m)] + [f"cap_{k}" for k in range(m)]
        )
