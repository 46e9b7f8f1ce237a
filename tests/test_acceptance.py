"""Acceptance suite: one test per criterion, printed as PASS/FAIL lines.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Shared artifacts (the benchmark sweep and the randomized instance
pools) are computed once per module.
"""

import time
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq

from bundleopt import (
    best_nested_menu,
    build_dominance,
    compute_profiles,
    last_crossing,
    relaxed_bound,
    sales_volume,
    solve_nested_menu,
)
from bundleopt.applications import (
    QualityProblem,
    ScreeningProblem,
    embed_screening,
    quality_menu_from_costs,
    quality_menu_from_sales,
    rotation_sweep,
    screening_optimal,
    two_item_power_family,
)
from bundleopt.menu import simulate_menu
from bundleopt.oracle import DiscretizedInstance, best_nested_discrete, compare, solve_lp

from support import generate_clean_specs, two_item_spec

BETA_GRID = tuple(np.round(np.arange(0.1, 2.01, 0.1), 10))


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


# ---------------------------------------------------------------------------
# shared artifacts


@pytest.fixture(scope="module")
def low_gamma_sweep():
    """Menus for gamma=0.5 across the beta grid plus refined region boundaries."""
    start = time.time()
    menus = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for beta in BETA_GRID:
            spec = two_item_spec(beta, 0.5)
            profiles = compute_profiles(spec)
            relation = build_dominance(spec, profiles)
            menus[beta] = (spec, solve_nested_menu(spec, relation))
        # refine the two region boundaries on the sales-volume gaps
        beta1 = brentq(
            lambda b: sales_volume(two_item_spec(b, 0.5), 0b10)
            - sales_volume(two_item_spec(b, 0.5), 0b11),
            0.6,
            0.9,
            xtol=1e-6,
        )
        beta2 = brentq(
            lambda b: sales_volume(two_item_spec(b, 0.5), 0b11) - 0.5,
            1.3,
            1.7,
            xtol=1e-6,
        )
    return {"menus": menus, "beta1": beta1, "beta2": beta2, "elapsed": time.time() - start}


@pytest.fixture(scope="module")
def nested_pool():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return generate_clean_specs(515151, 50, n_items_choices=(2, 3), require_nested=True)


@pytest.fixture(scope="module")
def nested_pool_menus(nested_pool):
    menus = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for spec, profiles, relation in nested_pool:
            menus.append((spec, solve_nested_menu(spec, relation)))
    return menus


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_benchmark_regions(low_gamma_sweep):
    beta1 = low_gamma_sweep["beta1"]
    beta2 = low_gamma_sweep["beta2"]
    ok = abs(beta1 - 0.74) <= 0.01 and abs(beta2 - 1.5) <= 1e-3
    mismatches = []
    for beta, (_spec, menu) in low_gamma_sweep["menus"].items():
        if beta < beta1:
            want = (0b10, 0b11)
        elif beta <= beta2:
            want = (0b11,)
        else:
            want = (0b01, 0b11)
        if menu.bundles != want:
            mismatches.append((beta, menu.bundles, want))
    ok = ok and not mismatches and low_gamma_sweep["elapsed"] < 30.0
    _report(
        1,
        ok,
        f"regions {{2}},{{1,2}} | {{1,2}} | {{1}},{{1,2}} with beta1={beta1:.4f}, "
        f"beta2={beta2:.6f}, {low_gamma_sweep['elapsed']:.1f}s"
        + (f"; mismatches {mismatches}" if mismatches else ""),
    )


def test_criterion_2_closed_form_sales_volume():
    worst = 0.0
    for beta in (0.25, 0.5, 1.0, 1.5, 2.0):
        spec = two_item_spec(beta, 0.5)
        worst = max(worst, abs(sales_volume(spec, 0b10) - 1.0 / (1.0 + beta)))
    _report(2, worst <= 1e-8, f"max |D* - 1/(1+beta)| = {worst:.2e} over 5 exponents")


def test_criterion_3_certificates_on_random_nested_instances(nested_pool_menus):
    start = time.time()
    worst_bound = 0.0
    worst_lp = 0.0
    for spec, menu in nested_pool_menus:
        worst_bound = max(worst_bound, abs(menu.expected_profit - relaxed_bound(spec)))
        lp = solve_lp(DiscretizedInstance.from_spec(spec, 201))
        worst_lp = max(worst_lp, abs(menu.expected_profit - lp.objective))
    elapsed = time.time() - start
    ok = worst_bound <= 1e-6 and worst_lp <= 5.0 / 201 and elapsed < 300.0
    _report(
        3,
        ok,
        f"50 nested instances: max |profit - bound| = {worst_bound:.2e}, "
        f"max |profit - LP| = {worst_lp:.4f} (tol {5/201:.4f}), {elapsed:.0f}s",
    )


def test_criterion_4_suboptimality_detection():
    results = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for beta in (0.4, 0.6, 1.0, 1.4):
            spec = two_item_spec(beta, 4.5)
            best_sol, _chain = best_nested_menu(spec)
            inst = DiscretizedInstance.from_spec(spec, 201)
            verdict = compare(inst, best_sol, solve_lp(inst))
            results[beta] = verdict
    ok = all(
        results[b].verdict == "NESTED_SUBOPTIMAL" and results[b].raw_gap > 5.0 / 201
        for b in (0.4, 0.6, 1.4)
    ) and results[1.0].verdict == "CONFIRMED"
    detail = "; ".join(
        f"beta={b}: {v.verdict} raw_gap={v.raw_gap:.4f} matched_gap={v.gap:.1e}"
        for b, v in sorted(results.items())
    )
    _report(4, ok, detail)


def test_criterion_5_sign_of_last_crossing():
    violations = 0
    checked = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        pool = generate_clean_specs(
            909090, 200, n_items_choices=(2, 3), grid_size=2049
        )
        for spec, profiles, _relation in pool:
            bundles = sorted(profiles)
            for i, b1 in enumerate(bundles):
                for b2 in bundles[i + 1 :]:
                    if b1 & ~b2:
                        continue
                    gap = profiles[b1].d_star - profiles[b2].d_star
                    if abs(gap) <= 1e-4:
                        continue
                    checked += 1
                    if np.sign(last_crossing(spec, b1, b2).chi) != np.sign(gap):
                        violations += 1
    _report(
        5,
        violations == 0 and checked >= 200,
        f"{checked} nested pairs over 200 instances, {violations} sign violations",
    )


def test_criterion_6_quality_envelopes():
    problem = QualityProblem.from_document(
        {
            "qualities": [1.0, 2.0, 3.0],
            "costs": [0.2, 0.2, 0.9],
            "values": {"kind": "multiplicative"},
            "distribution": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
        }
    )
    r_sales = quality_menu_from_sales(problem)
    r_costs = quality_menu_from_costs(problem)
    ok = (
        r_sales.menu == (1, 2)
        and r_costs.menu == (1, 2)
        and r_costs.identity_gap <= 1e-8
    )
    _report(
        6,
        ok,
        f"menus {r_sales.menu} / {r_costs.menu} (want x2,x3 both routes), "
        f"envelope identity gap {r_costs.identity_gap:.2e}",
    )


def test_criterion_7_screening_threshold():
    details = []
    ok = True
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for exponent, expect in ((0.5, False), (1.0, False), (1.5, True), (3.0, True)):
            problem = ScreeningProblem.from_document(
                {
                    "qualities": [1.0],
                    "production_costs": [0.0],
                    "values": {"kind": "multiplicative"},
                    "actions": [{"terms": [{"coef": 0.3, "exp": exponent}]}],
                    "distribution": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
                }
            )
            report = screening_optimal(problem)
            spec, info = embed_screening(problem)
            inst = DiscretizedInstance.from_spec(spec, 201)
            lp = solve_lp(inst)
            usage = lp.uses_bundles(info["costly_masks"])
            nested_profit, _chain = best_nested_discrete(inst)
            agrees = (usage > 0.01) == expect and abs(lp.objective - nested_profit) <= 5.0 / 201
            ok = ok and report.status == "ok" and report.optimal is expect and agrees
            details.append(f"e={exponent}: verdict={report.optimal} usage={usage:.3f}")
    _report(7, ok, "; ".join(details))


def test_criterion_8_rotation_statics():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sweep = rotation_sweep(
            lambda b: two_item_power_family(b, 0.5), BETA_GRID
        )
    ok = (
        sweep.premises_ok
        and sweep.rotated_item == 2
        and sweep.tier_up_ok
        and sweep.tier_down_ok
        and sweep.size_quasiconvex
    )
    sizes = [p.size for p in sweep.points]
    _report(
        8,
        ok,
        f"tier2 nondecreasing={sweep.tier_up_ok}, tier1 nonincreasing={sweep.tier_down_ok}, "
        f"sizes {sizes} quasi-convex={sweep.size_quasiconvex}",
    )


def test_criterion_9_revenue_equivalence(low_gamma_sweep, nested_pool_menus):
    worst = 0.0
    count = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        mechanisms = list(low_gamma_sweep["menus"].values()) + nested_pool_menus
        for spec, menu in mechanisms:
            sol = simulate_menu(spec, list(menu.bundles), list(menu.prices))
            assert sol.bottom_utility <= 1e-9
            worst = max(worst, abs(sol.expected_profit - sol.virtual_profit))
            count += 1
    _report(
        9,
        worst <= 1e-5,
        f"{count} solved mechanisms: max |simulated - virtual-surplus| = {worst:.2e}",
    )
