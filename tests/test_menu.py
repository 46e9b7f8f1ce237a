"""Virtual surplus machinery, menu construction, pricing, menu evaluation."""

import numpy as np
import pytest

from bundleopt import (
    best_nested_menu,
    build_dominance,
    compute_profiles,
    envelope_allocation,
    evaluate_menu,
    last_crossing,
    load_spec,
    relaxed_bound,
    solve_nested_menu,
    virtual_surplus,
)
from bundleopt.dominance import check_menu_optimality
from bundleopt.menu import (
    MechanismSolution,
    MonotonicityError,
    NestingError,
    _chain_prices,
    _chain_terms,
    ic_report,
    optimize_chain,
    simulate_menu,
    two_item_base_test,
)
from bundleopt.model import MonomialSum
from bundleopt.numerics import chain_dp

from support import (
    generate_clean_specs,
    iter_chains,
    random_instance_doc,
    single_item_doc,
    two_item_spec,
)


def _pipeline(beta, gamma, grid_size=4097):
    spec = two_item_spec(beta, gamma, grid_size=grid_size)
    profiles = compute_profiles(spec)
    return spec, profiles, build_dominance(spec, profiles)


# ---------------------------------------------------------------------------
# virtual surplus


def test_virtual_surplus_uniform_unit_values():
    # hazard of U[0, 2] is (2 - t), so phi = t - (2 - t) = 2t - 2
    spec = two_item_spec(1.0, 0.5)
    for t in (0.3, 1.0, 1.7):
        assert virtual_surplus(spec, 0b01, t) == pytest.approx(2 * t - 2, abs=1e-12)
    assert virtual_surplus(spec, 0b01, 1.0) == pytest.approx(0.0, abs=1e-12)


def test_virtual_surplus_quadratic_value():
    doc = single_item_doc(exp=2.0)
    spec = load_spec(doc)
    for t in (0.2, 0.5, 0.9):
        assert virtual_surplus(spec, 1, t) == pytest.approx(3 * t * t - 2 * t, abs=1e-12)


def test_virtual_surplus_at_top_is_surplus():
    spec = load_spec(single_item_doc(cost=0.25))
    top = spec.dist.hi
    assert virtual_surplus(spec, 1, top) == pytest.approx(spec.value(1, top) - 0.25, abs=1e-12)


def test_virtual_surplus_vanishes_at_cutoff_type():
    for spec, profiles, _rel in generate_clean_specs(3, 4, grid_size=1025):
        for b, prof in profiles.items():
            if 1e-3 < prof.d_star < 1 - 1e-3:
                assert abs(virtual_surplus(spec, b, prof.t_star)) <= 1e-5


# ---------------------------------------------------------------------------
# last crossings


def test_last_crossing_sign_matches_volume_order():
    spec, profiles, _rel = _pipeline(0.3, 0.5)
    rec = last_crossing(spec, 0b01, 0b11)  # D*({1}) < D*({1,2}) -> chi < 0
    assert rec.chi < 0
    rec2 = last_crossing(spec, 0b10, 0b11)  # D*({2}) > D*({1,2}) -> chi > 0
    assert rec2.chi > 0
    assert np.isfinite(rec2.s)


def test_last_crossing_everywhere_above():
    # multiplicative values: phi2 - phi1 = 1.8 (2t - 1.5) > 0 on all of
    # [0.8, 1.5], so the infimum falls to the bottom type
    doc = {
        "n_items": 2,
        "distribution": {"kind": "uniform", "lo": 0.8, "hi": 1.5},
        "values": {
            "[1]": {"terms": [{"coef": 0.2, "exp": 1.0}]},
            "[1,2]": {"terms": [{"coef": 2.0, "exp": 1.0}]},
        },
    }
    spec = load_spec(doc)
    rec = last_crossing(spec, 0b01, 0b11)
    assert rec.s == pytest.approx(0.8)
    assert rec.chi == pytest.approx(virtual_surplus(spec, 0b01, 0.8), abs=1e-12)


def test_last_crossing_requires_proper_subset():
    spec, _profiles, _rel = _pipeline(0.3, 0.5)
    with pytest.raises(ValueError):
        last_crossing(spec, 0b01, 0b10)


def test_last_crossing_sign_law_on_random_instances():
    # sign of the last-crossing surplus equals sign of the volume gap
    checked = 0
    for spec, profiles, _rel in generate_clean_specs(211, 20, grid_size=2049):
        bundles = sorted(profiles)
        for i, b1 in enumerate(bundles):
            for b2 in bundles[i + 1 :]:
                if not (b1 & ~b2) == 0 or b1 == b2:
                    continue
                gap = profiles[b1].d_star - profiles[b2].d_star
                if abs(gap) <= 1e-4:
                    continue
                rec = last_crossing(spec, b1, b2)
                assert np.sign(rec.chi) == np.sign(gap), (b1, b2, rec, gap)
                checked += 1
    assert checked >= 20


# ---------------------------------------------------------------------------
# relaxed bound


def test_relaxed_bound_single_item():
    # integral of max(0, 2t - 1) over U[0, 1] is 1/4
    spec = load_spec(single_item_doc())
    assert relaxed_bound(spec) == pytest.approx(0.25, abs=1e-9)


def test_relaxed_bound_attained_under_nesting():
    spec, profiles, rel = _pipeline(1.0, 0.5)
    menu = solve_nested_menu(spec, rel)
    assert abs(menu.expected_profit - relaxed_bound(spec)) <= 1e-6


def test_relaxed_bound_strictly_above_nested_when_not_nested():
    spec, _profiles, _rel = _pipeline(0.5, 4.5)
    best_sol, _chain = best_nested_menu(spec)
    assert relaxed_bound(spec) > best_sol.expected_profit + 1e-4


# ---------------------------------------------------------------------------
# menu construction


def test_menu_low_beta_two_tiers():
    spec, profiles, rel = _pipeline(0.3, 0.5)
    menu = solve_nested_menu(spec, rel)
    assert menu.bundles == (0b10, 0b11)
    assert menu.quantities[0] == pytest.approx(1 / 1.3, abs=1e-8)
    assert menu.certificate == "VALID"
    # quantities strictly decreasing, cutoffs increasing, prices increasing
    assert menu.quantities[0] > menu.quantities[1]
    assert menu.cutoff_types[0] < menu.cutoff_types[1]
    assert menu.prices[0] < menu.prices[1]
    assert all(u > 0 for u in menu.upgrade_prices)


def test_menu_middle_beta_pure_bundle():
    spec, profiles, rel = _pipeline(1.0, 0.5)
    menu = solve_nested_menu(spec, rel)
    assert menu.bundles == (0b11,)
    d = profiles[0b11].d_star
    assert menu.quantities[0] == pytest.approx(d, abs=1e-9)
    from bundleopt import demand_price

    assert menu.prices[0] == pytest.approx(demand_price(spec, 0b11, d), abs=1e-8)


def test_menu_single_item_textbook_monopoly():
    spec = load_spec(single_item_doc())
    profiles = compute_profiles(spec)
    rel = build_dominance(spec, profiles)
    menu = solve_nested_menu(spec, rel)
    assert menu.bundles == (1,)
    assert menu.quantities[0] == pytest.approx(0.5, abs=1e-9)
    assert menu.prices[0] == pytest.approx(0.5, abs=1e-9)
    assert menu.expected_profit == pytest.approx(0.25, abs=1e-9)


def test_menu_requires_nesting():
    spec, profiles, rel = _pipeline(0.5, 4.5)
    with pytest.raises(NestingError):
        solve_nested_menu(spec, rel)


def test_menu_extremal_bundles():
    # smallest menu bundle is the best seller, largest is the grand bundle
    for spec, profiles, rel in generate_clean_specs(301, 8, require_nested=True,
                                                    grid_size=2049):
        menu = solve_nested_menu(spec, rel)
        assert menu.bundles[0] == rel.best_selling
        assert menu.bundles[-1] == spec.grand_bundle


def test_menu_minimality():
    # dropping any tier and re-optimizing prices strictly loses profit
    for spec, profiles, rel in generate_clean_specs(301, 6, require_nested=True,
                                                    grid_size=2049):
        menu = solve_nested_menu(spec, rel)
        if len(menu.bundles) < 2:
            continue
        for j in range(len(menu.bundles)):
            sub = [b for i, b in enumerate(menu.bundles) if i != j]
            sub_profit = evaluate_menu(spec, sub).expected_profit
            assert sub_profit < menu.expected_profit - 1e-6


def test_price_constructions_agree():
    spec, profiles, rel = _pipeline(0.3, 0.5)
    menu = solve_nested_menu(spec, rel)
    # upgrade price from tier j to j+1 equals the incremental value at the cutoff
    for j in range(1, len(menu.bundles)):
        inc = spec.value(menu.bundles[j], menu.cutoff_types[j]) - spec.value(
            menu.bundles[j - 1], menu.cutoff_types[j]
        )
        assert menu.upgrade_prices[j] == pytest.approx(inc, abs=1e-8)


# ---------------------------------------------------------------------------
# envelope allocation


def test_envelope_allocation_steps_up_the_chain():
    spec, _profiles, rel = _pipeline(0.3, 0.5)
    sol = envelope_allocation(spec, rel)
    seen = [int(b) for b in dict.fromkeys(sol.allocation)]
    assert seen == [0, 0b10, 0b11]
    # monotone in set inclusion along types
    for a, b in zip(sol.allocation[:-1], sol.allocation[1:]):
        assert int(a) & ~int(b) == 0


def test_envelope_allocation_single_bundle():
    spec = load_spec(single_item_doc())
    rel = build_dominance(spec, compute_profiles(spec))
    sol = envelope_allocation(spec, rel)
    t_half = sol.types[sol.allocation == 1]
    assert t_half.min() >= 0.5 - 1e-3
    assert sol.bottom_utility == pytest.approx(0.0, abs=1e-12)


def test_envelope_profit_matches_menu_profit():
    for beta in (0.3, 1.0, 1.9):
        spec, profiles, rel = _pipeline(beta, 0.5)
        menu = solve_nested_menu(spec, rel)
        env = envelope_allocation(spec, rel)
        assert abs(env.expected_profit - menu.expected_profit) <= 1e-6
        assert abs(env.virtual_profit - menu.expected_profit) <= 1e-6


@pytest.fixture(scope="module")
def nested_pool():
    return generate_clean_specs(7, 40, require_nested=True, grid_size=1025)


def test_menu_is_the_envelope_allocation(nested_pool):
    # one construction: the menu's tiers and prices are the envelope
    # mechanism's allocation order and positive payments, exactly
    for spec, _profiles, rel in nested_pool:
        menu = solve_nested_menu(spec, rel)
        env = envelope_allocation(spec, rel)
        assert menu.bundles == tuple(int(b) for b in dict.fromkeys(env.allocation) if b)
        assert menu.prices == tuple(p for p in dict.fromkeys(env.payments) if p > 0)


def test_envelope_menu_is_best_chain_and_passes_sales_test(nested_pool):
    # the envelope's chain is the one the lattice DP picks among all nested
    # menus, and a VALID certificate implies the paper's sales-volume test
    for spec, profiles, rel in nested_pool:
        menu = solve_nested_menu(spec, rel)
        assert list(menu.bundles) == best_nested_menu(spec)[1]
        if menu.certificate == "VALID":
            assert check_menu_optimality(spec, profiles, menu.bundles).sufficient


# {1,2} alone is undominated; its -0.235 t^0.245 term has slope -inf at the
# bottom type, where its virtual surplus is +inf: the argmax sells {1,2} at
# t = 0, nothing just above, and {1,2} again from t = 1.08
NON_MONOTONE_ENVELOPE_DOC = {
    "n_items": 2,
    "distribution": {"kind": "uniform", "lo": 0.0, "hi": 1.56},
    "values": {
        "[1]": {"terms": [{"coef": 0.25, "exp": 2.8}]},
        "[2]": {"terms": [{"coef": 1.0, "exp": 2.75}]},
        "[1,2]": {"terms": [{"coef": 0.25, "exp": 2.8}, {"coef": 1.0, "exp": 2.75},
                            {"coef": 0.625, "exp": 0.36}, {"coef": -0.235, "exp": 0.245}]},
    },
    "grid_size": 1025,
}


def test_non_monotone_envelope_refused():
    spec = load_spec(NON_MONOTONE_ENVELOPE_DOC)
    rel = build_dominance(spec, compute_profiles(spec))
    assert rel.nested
    with pytest.raises(MonotonicityError):
        solve_nested_menu(spec, rel)


def test_envelope_mechanism_ic_ir():
    spec, _profiles, rel = _pipeline(0.3, 0.5)
    sol = envelope_allocation(spec, rel)
    ic, _pair, ir = ic_report(spec, sol)
    assert ic <= 1e-7
    assert ir <= 1e-9
    assert abs(sol.bottom_utility) <= 1e-9


def test_single_crossing_envelopes():
    # each bigger bundle's surplus crosses the running envelope at most once
    for spec, _profiles, rel in generate_clean_specs(301, 6, require_nested=True,
                                                     grid_size=2049):
        chain = sorted(rel.undominated)
        env = np.zeros(spec.grid_size)
        for k, b in enumerate(chain):
            phi = spec.surplus_rows[b]
            delta = phi - env
            finite = np.isfinite(delta)
            sign = np.sign(delta[finite])
            sign = sign[sign != 0]
            down_crossings = int(np.sum((sign[:-1] > 0) & (sign[1:] < 0)))
            assert down_crossings == 0, f"bundle {b} re-crosses the envelope"
            env = np.maximum(env, phi)


def test_elimination_of_dominated_bundles():
    for spec, _profiles, rel in generate_clean_specs(301, 6, grid_size=2049):
        undom = set(rel.undominated)
        for b in rel.d_star:
            if b in undom:
                continue
            doms = [u for u in undom if u != b and rel.dominates(b, u)]
            assert doms
            phi_b = spec.surplus_rows[b]
            ok = np.zeros(spec.grid_size, dtype=bool)
            for u in doms:
                ok |= np.maximum(0.0, spec.surplus_rows[u]) >= phi_b - 1e-6
            assert np.all(ok)


# ---------------------------------------------------------------------------
# menu evaluation


def test_single_price_monopoly_profit():
    spec, profiles, _rel = _pipeline(0.3, 0.5)
    d = profiles[0b11].d_star
    from bundleopt import demand_price, profit_curve

    price = demand_price(spec, 0b11, d)
    sol = evaluate_menu(spec, [0b11], prices=[price])
    assert sol.expected_profit == pytest.approx(profit_curve(spec, 0b11, d), abs=1e-9)


def test_revenue_equivalence_on_simulated_menus():
    for beta in (0.3, 1.2):
        spec, profiles, rel = _pipeline(beta, 0.5)
        menu = solve_nested_menu(spec, rel)
        sol = simulate_menu(spec, list(menu.bundles), list(menu.prices))
        assert sol.bottom_utility == pytest.approx(0.0, abs=1e-9)
        assert abs(sol.expected_profit - sol.virtual_profit) <= 1e-5


def test_ic_check_reports_constructed_violation():
    spec = load_spec(single_item_doc())
    t = spec.t_grid
    # charge the top half a price below their IC-consistent level
    alloc = np.where(t >= 0.5, 1, 0)
    pays = np.where(t >= 0.75, 0.4, np.where(t >= 0.5, 0.5, 0.0))
    utes = spec.value(1, t) * (alloc == 1) - pays
    sol = MechanismSolution(
        types=t, allocation=alloc, payments=pays, utilities=utes,
        segments=(), expected_profit=float("nan"), virtual_profit=float("nan"),
    )
    ic, pair, _ir = ic_report(spec, sol)
    assert ic > 1e-3  # types on [0.5, 0.75) prefer the cheaper option
    assert pair is not None and pair[1] == 1


def test_evaluate_menu_optimizes_prices_to_solver_level():
    spec, profiles, rel = _pipeline(0.3, 0.5)
    menu = solve_nested_menu(spec, rel)
    sol = evaluate_menu(spec, list(menu.bundles))  # prices optimized internally
    assert sol.expected_profit == pytest.approx(menu.expected_profit, abs=1e-6)


def test_optimize_chain_with_costs():
    doc = single_item_doc(cost=0.3)
    spec = load_spec(doc)
    cutoffs, prices = optimize_chain(spec, [1])
    # FOC: 1 - 2q - c = 0 -> q = (1 - c)/2 -> cutoff t = (1 + c)/2
    assert cutoffs[0] == pytest.approx(0.65, abs=1e-9)
    assert prices[0] == pytest.approx(0.65, abs=1e-9)


def test_optimize_chain_priced_out_member():
    # the grid optimum of [{3}, {1,3}] prices {3} out: {1,3} must still be
    # polished to its own crossing, so the chain earns what {1,3} alone does
    spec = load_spec(random_instance_doc(np.random.default_rng(2), 3, grid_size=1025))
    pair = evaluate_menu(spec, [0b100, 0b101]).expected_profit
    alone = evaluate_menu(spec, [0b101]).expected_profit
    assert pair >= alone - 1e-12
    cutoffs, _prices = optimize_chain(spec, [0b100, 0b101])
    assert cutoffs[0] == cutoffs[1] == optimize_chain(spec, [0b101])[0][0]


@pytest.mark.parametrize(
    "seed, n_items, chain",
    [(1, 5, [0b100, 0b101, 0b10111]), (0, 4, [0b1000, 0b1101, 0b1111])],
)
def test_polished_chain_within_bound_of_grid_cutoffs(seed, n_items, chain):
    # priced-out groups: polishing the DP's grid cutoffs may lose a sub-cell
    # sliver of simulated profit, never more than 2.5e-7 on these chains
    spec = load_spec(random_instance_doc(np.random.default_rng(seed), n_items, grid_size=1025))
    _value, path = chain_dp(_chain_terms(spec, chain), chain, fixed=True)
    grid_cutoffs = [float(spec.t_grid[k]) for _b, k in path]
    grid = simulate_menu(spec, chain, _chain_prices(spec, chain, grid_cutoffs))
    polished = evaluate_menu(spec, chain)
    assert polished.expected_profit >= grid.expected_profit - 2.5e-7


def test_two_item_base_test_orderings():
    # at gamma=4.5 the best-selling item is always the better base on this
    # family (verified against a brute-force price grid), so the flag stays off
    for beta in (0.4, 0.6):
        spec, profiles, _rel = _pipeline(beta, 4.5)
        flag, p_best, p_other = two_item_base_test(spec, profiles)
        assert not flag
        assert p_best > p_other


def test_iter_chains_counts():
    chains = iter_chains([0b01, 0b10, 0b11])
    assert sorted(chains) == sorted(
        [(1,), (2,), (3,), (1, 3), (2, 3)]
    )


def test_simulated_choice_reproduces_menu_quantities():
    # fraction buying at least tier j under the posted prices matches the
    # constructed quantity within one grid cell
    for beta in (0.3, 1.9):
        spec, profiles, rel = _pipeline(beta, 0.5)
        menu = solve_nested_menu(spec, rel)
        sol = simulate_menu(spec, list(menu.bundles), list(menu.prices))
        cell = 1.0 / (spec.grid_size - 1)
        for b, q_want in zip(menu.bundles, menu.quantities):
            mass = sum(
                spec.dist.cdf(hi) - spec.dist.cdf(lo)
                for lo, hi, bb, _p in sol.segments
                if bb & b == b and bb != 0
            )
            assert abs(mass - q_want) <= cell


def _three_item_chain_doc(grid_size=2049):
    # additive items with exponents 0.5 / 1 / 2: singles sell 2/3, 1/2, 1/3
    # alone and the undominated set is the chain {1} < {1,2} < {1,2,3}
    exps = (0.5, 1.0, 2.0)
    values = {}
    for mask in range(1, 8):
        items = [j for j in range(3) if mask & (1 << j)]
        values[str([j + 1 for j in items])] = {
            "terms": [{"coef": 1.0, "exp": exps[j]} for j in items]
        }
    return {
        "n_items": 3,
        "distribution": {"kind": "uniform", "lo": 0.0, "hi": 2.0},
        "values": values,
        "grid_size": grid_size,
    }


def test_three_tier_menu_pipeline():
    spec = load_spec(_three_item_chain_doc())
    profiles = compute_profiles(spec)
    rel = build_dominance(spec, profiles)
    assert rel.undominated == (0b001, 0b011, 0b111)
    assert rel.nested
    menu = solve_nested_menu(spec, rel)
    assert menu.bundles == (0b001, 0b011, 0b111)
    assert menu.certificate == "VALID"
    assert all(q1 > q2 for q1, q2 in zip(menu.quantities[:-1], menu.quantities[1:]))
    assert all(u > 0 for u in menu.upgrade_prices)
    env = envelope_allocation(spec, rel)
    assert abs(env.expected_profit - menu.expected_profit) <= 1e-6
    # every tier loses money when dropped
    for j in range(3):
        sub = [b for i, b in enumerate(menu.bundles) if i != j]
        assert evaluate_menu(spec, sub).expected_profit < menu.expected_profit - 1e-6


def test_three_item_lp_confirms_chain_menu():
    from bundleopt.oracle import DiscretizedInstance, compare, solve_lp

    spec = load_spec(_three_item_chain_doc())
    profiles = compute_profiles(spec)
    rel = build_dominance(spec, profiles)
    menu = solve_nested_menu(spec, rel)
    inst = DiscretizedInstance.from_spec(spec, 101)
    verdict = compare(inst, menu, solve_lp(inst))
    assert verdict.verdict == "CONFIRMED"


def test_quantile_table_full_pipeline():
    # types with cdf (t/2)^2 supplied as a table: the hazard term inside the
    # surplus machinery comes from finite differences of the quantile knots
    u = np.linspace(0.0, 1.0, 801)
    doc = {
        "n_items": 2,
        "distribution": {"kind": "quantile_table", "u": list(u), "t": list(2.0 * np.sqrt(u))},
        "values": {
            "[1]": {"terms": [{"coef": 1.0, "exp": 1.0}]},
            "[1,2]": {"terms": [{"coef": 1.0, "exp": 1.0}, {"coef": 0.8, "exp": 2.0}]},
        },
        "grid_size": 2049,
    }
    spec = load_spec(doc)
    profiles = compute_profiles(spec)
    rel = build_dominance(spec, profiles)
    assert rel.nested
    menu = solve_nested_menu(spec, rel)
    assert abs(menu.expected_profit - relaxed_bound(spec)) <= 1e-6
    sol = simulate_menu(spec, list(menu.bundles), list(menu.prices))
    assert abs(sol.expected_profit - sol.virtual_profit) <= 1e-4  # table hazard is O(h) near knots
    from bundleopt.oracle import DiscretizedInstance, compare, solve_lp

    inst = DiscretizedInstance.from_spec(spec, 101)
    assert compare(inst, menu, solve_lp(inst)).verdict == "CONFIRMED"


def test_non_chain_menu_price_search():
    # {1} and {2} cannot be chained: at each item's stand-alone monopoly
    # price the menu must stay below the LP optimum on the same types
    spec = two_item_spec(0.6, 4.5, grid_size=1025)
    from bundleopt import demand_price, sales_volume

    prices = [demand_price(spec, b, sales_volume(spec, b)) for b in (0b01, 0b10)]
    sol = evaluate_menu(spec, [0b01, 0b10], prices=prices)
    assert sol.expected_profit > 0
    from bundleopt.oracle import DiscretizedInstance, solve_lp

    inst = DiscretizedInstance.from_spec(spec, 101)
    lp = solve_lp(inst)
    # the same posted menu on the LP's types: each type takes its best option,
    # the outside option first on ties
    opts = [(0.0, 0), *zip(prices, (0b01, 0b10))]
    pick = np.argmax(np.stack([inst.values[b] - p for p, b in opts]), axis=0)
    margins = np.array([p - inst.costs[b] for p, b in opts])
    disc = float(inst.weights @ margins[pick])
    assert disc > 0
    assert lp.objective >= disc - 1e-7


def test_non_chain_menu_without_prices_refused():
    spec = two_item_spec(0.6, 4.5, grid_size=1025)
    with pytest.raises(ValueError, match="LP oracle"):
        evaluate_menu(spec, [0b01, 0b10])


def test_segment_virtual_profit_reads_surplus_rows(monkeypatch):
    # the revenue-equivalence integral of a posted menu reads the virtual
    # surplus rows inside each sold segment; v and v' are evaluated only at
    # the two exact ends of each of the five segments
    spec = load_spec(random_instance_doc(np.random.default_rng(1), 5))
    _sol, chain = best_nested_menu(spec)
    _cutoffs, prices = optimize_chain(spec, chain)
    sizes = []
    for name in ("__call__", "slope"):
        original = getattr(MonomialSum, name)

        def counting(self, t, _name=name, _original=original):
            if np.ndim(t) >= 1:
                sizes.append((_name, np.size(t)))
            return _original(self, t)

        monkeypatch.setattr(MonomialSum, name, counting)
    sol = simulate_menu(spec, chain, prices)
    assert chain == [0b100, 0b10100, 0b10101, 0b11101, 0b11111]
    assert sorted(sizes) == [("__call__", 2)] * 5 + [("slope", 2)] * 5
    assert abs(sol.expected_profit - sol.virtual_profit) <= 1e-5
