"""Quality envelopes, costly screening, rotation comparative statics."""

import warnings

import numpy as np
import pytest

from bundleopt.applications import (
    QualityProblem,
    ScreeningProblem,
    decreasing_envelope,
    embed_screening,
    increasing_envelope,
    is_regular,
    menu_regions,
    menu_tier,
    quality_menu_from_costs,
    quality_menu_from_sales,
    rotation_sweep,
    screening_optimal,
    two_item_power_family,
    unit_mr_inverse,
)
from bundleopt.model import TypeDistribution
from bundleopt.oracle import DiscretizedInstance, best_nested_discrete, solve_lp


def _quality_doc(costs, qualities=(1.0, 2.0, 3.0), lo=0.0, hi=1.0):
    return {
        "qualities": list(qualities),
        "costs": list(costs),
        "values": {"kind": "multiplicative"},
        "distribution": {"kind": "uniform", "lo": lo, "hi": hi},
    }


def _screening_doc(scale, exponent, cost=0.0):
    return {
        "qualities": [1.0],
        "production_costs": [cost],
        "values": {"kind": "multiplicative"},
        "actions": [{"terms": [{"coef": scale, "exp": exponent}]}],
        "distribution": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
    }


# ---------------------------------------------------------------------------
# envelopes


def _brute_decreasing_envelope(vals):
    # independent oracle: minimal nonincreasing majorant pointwise
    return [max(vals[k:]) for k in range(len(vals))]


def _brute_increasing_envelope(vals):
    return [min(vals[k:]) for k in range(len(vals))]


def test_envelopes_match_bruteforce():
    rng = np.random.default_rng(1234)
    for _ in range(50):
        vals = list(rng.uniform(0, 1, size=int(rng.integers(1, 7))))
        assert list(decreasing_envelope(vals)) == pytest.approx(_brute_decreasing_envelope(vals))
        assert list(increasing_envelope(vals)) == pytest.approx(_brute_increasing_envelope(vals))


def test_envelope_extremality():
    rng = np.random.default_rng(99)
    vals = rng.uniform(0, 1, 6)
    hat = decreasing_envelope(vals)
    assert np.all(np.diff(hat) <= 1e-12)
    assert np.all(hat >= vals - 1e-12)
    # minimality: lowering any entry breaks one of the two properties
    for k in range(6):
        probe = hat.copy()
        probe[k] -= 1e-6
        assert np.any(np.diff(probe) > 0) or np.any(probe < vals - 1e-12)


# ---------------------------------------------------------------------------
# quality menus


def test_quality_menu_three_level_instance():
    # D* = (1 - C/x)/2 = {0.4, 0.45, 0.35}; envelope touches at x2, x3
    qp = QualityProblem.from_document(_quality_doc([0.2, 0.2, 0.9]))
    r = quality_menu_from_sales(qp)
    assert r.d_star == pytest.approx((0.4, 0.45, 0.35), abs=1e-9)
    assert r.d_hat == pytest.approx((0.45, 0.45, 0.35), abs=1e-9)
    assert r.menu == (1, 2)


def test_quality_menu_cost_route_agrees():
    qp = QualityProblem.from_document(_quality_doc([0.2, 0.2, 0.9]))
    r = quality_menu_from_costs(qp)
    assert r.c_avg == pytest.approx((0.2, 0.1, 0.3), abs=1e-12)
    assert r.c_check == pytest.approx((0.1, 0.1, 0.3), abs=1e-12)
    assert r.menu == (1, 2)
    assert r.identity_gap <= 1e-8


def test_quality_menu_decreasing_volumes_keeps_all():
    # increasing average costs make D* decreasing: every quality survives
    qp = QualityProblem.from_document(_quality_doc([0.1, 0.4, 1.2]))
    r = quality_menu_from_sales(qp)
    assert np.all(np.diff(r.d_star) < 0)
    assert r.menu == (0, 1, 2)


def test_quality_menu_u_shaped_costs():
    # decreasing average cost region first, increasing afterwards: the
    # optimal menu is exactly the increasing region
    qualities = (1.0, 2.0, 3.0, 4.0)
    costs = (0.30, 0.40, 0.75, 1.40)  # c_avg = .30, .20, .25, .35
    qp = QualityProblem.from_document(_quality_doc(costs, qualities=qualities))
    r = quality_menu_from_sales(qp)
    assert r.menu == (1, 2, 3)


def test_quality_menu_two_technology_costs():
    # kinked costs from mixing technologies: average cost is not U-shaped
    # and some increasing-average-cost qualities still drop out
    qualities = tuple(float(x) for x in (1.0, 1.5, 2.0, 2.5, 3.0, 3.5))
    k1, a1, k2, a2 = 0.05, 2.0, 0.8, 1.0
    costs = tuple(min(k1 + x**a1, k2 + x**a2) for x in qualities)
    qp = QualityProblem.from_document(
        _quality_doc(costs, qualities=qualities, lo=0.0, hi=2.0)
    )
    r_sales = quality_menu_from_sales(qp)
    r_costs = quality_menu_from_costs(qp)
    assert r_sales.menu == r_costs.menu
    c_avg = np.array(r_costs.c_avg)
    increasing = set(np.flatnonzero(np.diff(c_avg) > 0) + 1)
    dropped = set(range(len(qualities))) - set(r_sales.menu)
    assert dropped & increasing, "expected a dropped quality inside the increasing region"
    # LP on the embedding confirms the envelope menu's profit is optimal
    spec = qp.embed()
    inst = DiscretizedInstance.from_spec(spec, 101)
    lp = solve_lp(inst)
    profit, chain = best_nested_discrete(inst)
    menu_masks = tuple((1 << (k + 1)) - 1 for k in sorted(r_sales.menu))
    assert abs(lp.objective - profit) <= 1e-7
    assert set(chain) <= set(menu_masks)


def test_cost_route_requires_multiplicative():
    doc = _quality_doc([0.2, 0.2, 0.9])
    doc["values"] = {
        "kind": "explicit",
        "exprs": [
            {"terms": [{"coef": 1.0, "exp": 1.0}]},
            {"terms": [{"coef": 2.0, "exp": 1.2}]},
            {"terms": [{"coef": 3.0, "exp": 1.4}]},
        ],
    }
    qp = QualityProblem.from_document(doc)
    with pytest.raises(ValueError, match="multiplicative"):
        quality_menu_from_costs(qp)


def test_regularity_check():
    assert is_regular(TypeDistribution.uniform(0.0, 1.0))
    assert unit_mr_inverse(TypeDistribution.uniform(0.0, 1.0), 0.2) == pytest.approx(0.4)


# ---------------------------------------------------------------------------
# costly screening


@pytest.mark.parametrize(
    "exponent,expect,cost",
    [
        pytest.param(0.5, False, 0.0, id="0.5-False"),
        pytest.param(1.0, False, 0.0, id="1.0-False"),
        pytest.param(1.5, True, 0.0, id="1.5-True"),
        pytest.param(3.0, True, 0.0, id="3.0-True"),
        pytest.param(1.5, False, 0.3, id="1.5-False-cost0.3"),
    ],
)
def test_screening_threshold(exponent, expect, cost):
    # D*(y) = 1/(1+e) for c = k t^e; optimal iff it falls below D*(x) = (1-C)/2
    problem = ScreeningProblem.from_document(_screening_doc(0.3, exponent, cost))
    report = screening_optimal(problem)
    assert report.status == "ok"
    assert report.optimal is expect
    assert report.d_star_actions[0] == pytest.approx(1.0 / (1.0 + exponent), abs=1e-8)
    assert report.d_star_qualities[0] == pytest.approx((1.0 - cost) / 2.0, abs=1e-9)


def test_screening_boundary_not_optimal():
    problem = ScreeningProblem.from_document(_screening_doc(0.3, 1.0))
    report = screening_optimal(problem)
    assert report.optimal is False  # weak inequality at the boundary


def test_screening_rejects_decreasing_disutility():
    doc = _screening_doc(0.3, 1.0)
    doc["actions"] = [{"terms": [{"coef": -0.3, "exp": 1.0}], "const": 0.5}]
    problem = ScreeningProblem.from_document(doc)
    with pytest.raises(ValueError, match="increasing"):
        screening_optimal(problem)


def test_screening_embedding_structure():
    problem = ScreeningProblem.from_document(_screening_doc(0.3, 3.0))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        spec, info = embed_screening(problem)
    assert spec.n_items == 2
    assert set(spec.nonzero_bundles()) == {0b01, 0b11}  # damaged and clean goods
    assert info["costly_masks"] == [0b01]
    t = 0.8
    assert spec.value(0b01, t) == pytest.approx(t - 0.3 * t**3, abs=1e-12)
    assert spec.value(0b11, t) == pytest.approx(t, abs=1e-12)


@pytest.mark.parametrize("exponent", [1.0, 3.0])
def test_screening_lp_agreement(exponent):
    problem = ScreeningProblem.from_document(_screening_doc(0.3, exponent))
    report = screening_optimal(problem)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        spec, info = embed_screening(problem)
    inst = DiscretizedInstance.from_spec(spec, 101)
    lp = solve_lp(inst)
    usage = lp.uses_bundles(info["costly_masks"])
    if report.optimal:
        assert usage > 0.01
    else:
        assert usage <= 0.01
    profit, _chain = best_nested_discrete(inst)
    assert abs(lp.objective - profit) <= 5.0 / 101


# ---------------------------------------------------------------------------
# rotations


def test_menu_tier():
    assert menu_tier([0b10, 0b11], 2) == 1
    assert menu_tier([0b10, 0b11], 1) == 2
    assert menu_tier([0b11], 1) == 1
    assert menu_tier([0b10], 1) is None


def test_rotation_sweep_conclusions():
    fam = lambda b: two_item_power_family(b, 0.5, grid_size=1025)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sweep = rotation_sweep(fam, np.round(np.arange(0.1, 2.01, 0.1), 10))
    assert sweep.rotated_item == 2
    assert sweep.premises_ok
    assert sweep.tier_up_ok and sweep.tier_down_ok and sweep.size_quasiconvex
    menus = [p.menu for p in sweep.points]
    assert menus[0] == (0b10, 0b11)
    assert (0b11,) in menus
    assert menus[-1] == (0b01, 0b11)


def test_rotation_sweep_constant_family_trivial():
    fam = lambda s: two_item_power_family(0.3, 0.5, grid_size=513)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sweep = rotation_sweep(fam, [0.0, 1.0, 2.0])
    # nothing rotates: a constant family has no single rotating item
    assert sweep.rotated_item is None
    assert not sweep.premises_ok


def test_rotation_premises_fail_reported_high_gamma():
    fam = lambda b: two_item_power_family(b, 4.5, grid_size=513)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sweep = rotation_sweep(fam, [0.4, 0.8, 1.2])
    assert not sweep.premises_ok
    assert any("not nested" in f or "union" in f for f in sweep.premise_failures)
    assert sweep.tier_up_ok is None  # conclusions not asserted


def test_menu_region_boundaries():
    fam = lambda b: two_item_power_family(b, 0.5, grid_size=1025)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        regions = menu_regions(fam, np.round(np.arange(0.5, 1.71, 0.1), 10))
    assert [r["menu"] for r in regions] == [(0b10, 0b11), (0b11,), (0b01, 0b11)]
    assert regions[0]["transition"] == pytest.approx(0.74, abs=0.01)
    assert regions[1]["transition"] == pytest.approx(1.5, abs=1e-3)
