"""Dominance relation, nesting, union elasticity, menu-optimality conditions."""

import warnings

import numpy as np
import pytest

from bundleopt import (
    build_dominance,
    check_menu_optimality,
    check_union_elasticity,
    compute_profiles,
    elasticity_menu,
    load_spec,
    to_dot,
)
from bundleopt.dominance import CornerVolumeWarning, hasse_edges
from bundleopt.model import is_subset

from support import (
    generate_clean_specs,
    random_instance_doc,
    reference_union_scan,
    single_item_doc,
    two_item_spec,
)


def _pipeline(beta, gamma, grid_size=4097):
    spec = two_item_spec(beta, gamma, grid_size=grid_size)
    profiles = compute_profiles(spec)
    return spec, profiles, build_dominance(spec, profiles)


# ---------------------------------------------------------------------------
# relation construction


def test_benchmark_low_beta_region():
    # D*({1}) = 1/2, D*({2}) = 1/1.3, D*({1,2}) strictly between
    spec, profiles, rel = _pipeline(0.3, 0.5)
    assert rel.d_star[0b01] == pytest.approx(0.5, abs=1e-9)
    assert rel.d_star[0b10] == pytest.approx(1 / 1.3, abs=1e-9)
    assert 0.5 < rel.d_star[0b11] < 1 / 1.3
    assert set(rel.undominated) == {0b10, 0b11}
    assert rel.nested
    assert rel.best_selling == 0b10


def test_benchmark_equal_volumes_tie_dominates():
    # at beta = 1.5 the grand bundle's volume equals item 1's exactly; the
    # weak inequality makes {1} dominated, and {2} sells less; the exact tie
    # also (correctly) trips the best-seller uniqueness flag
    from bundleopt.dominance import TiedBestSellerWarning

    spec = two_item_spec(1.5, 0.5)
    profiles = compute_profiles(spec)
    with pytest.warns(TiedBestSellerWarning):
        rel = build_dominance(spec, profiles)
    assert rel.d_star[0b01] == pytest.approx(rel.d_star[0b11], abs=1e-9)
    assert rel.d_star[0b10] == pytest.approx(0.4, abs=1e-9)
    assert rel.undominated == (0b11,)
    assert rel.nested


def test_single_bundle_relation():
    spec = load_spec(single_item_doc())
    profiles = compute_profiles(spec)
    rel = build_dominance(spec, profiles)
    assert rel.undominated == (1,)
    assert rel.nested and rel.best_selling == 1


def test_high_gamma_not_nested():
    _spec, _profiles, rel = _pipeline(0.5, 4.5)
    assert set(rel.undominated) == {0b01, 0b10, 0b11}
    assert not rel.nested


def test_corner_bundles_excluded():
    doc = {
        "n_items": 2,
        "distribution": {"kind": "uniform", "lo": 1.0, "hi": 1.1},
        "values": {
            "[1]": {"terms": [{"coef": 1.0, "exp": 1.0}]},
            "[1,2]": {"terms": [{"coef": 2.0, "exp": 1.0}]},
        },
    }
    spec = load_spec(doc)
    profiles = compute_profiles(spec)
    with pytest.warns(CornerVolumeWarning):
        rel = build_dominance(spec, profiles)
    assert set(rel.corner_bundles) == {0b01, 0b11}


def test_partial_order_properties_random():
    for _spec, _profiles, rel in generate_clean_specs(31, 8, grid_size=1025):
        bundles = sorted(rel.d_star)
        for a in bundles:
            assert rel.dominates(a, a)  # reflexive
            for b in bundles:
                if rel.dominates(a, b) and rel.dominates(b, a) and a != b:
                    # antisymmetry can only fail inside the tie tolerance
                    assert abs(rel.d_star[a] - rel.d_star[b]) <= 2e-7
                for c in bundles:
                    if rel.dominates(a, b) and rel.dominates(b, c):
                        # transitive up to tie tolerance stacking
                        assert is_subset(a, c)
                        assert rel.d_star[a] <= rel.d_star[c] + 3e-7


def test_every_dominated_bundle_has_undominated_dominator():
    for _spec, _profiles, rel in generate_clean_specs(41, 8, grid_size=1025):
        undom = set(rel.undominated)
        for b in rel.d_star:
            if b in undom:
                continue
            assert any(
                rel.dominates(b, u) and b != u for u in undom
            ), f"dominated bundle {b} lacks an undominated dominator"


# ---------------------------------------------------------------------------
# union elasticity


def test_union_elasticity_scaling_family():
    # v({1,2}) = kappa (v1 + v2): scaling cancels from the log-derivative,
    # so the union inherits the mediant of the component elasticities
    for kappa in (0.6, 1.0, 1.6):
        doc = {
            "n_items": 2,
            "distribution": {"kind": "uniform", "lo": 0.0, "hi": 2.0},
            "values": {
                "[1]": {"terms": [{"coef": 1.0, "exp": 1.0}]},
                "[2]": {"terms": [{"coef": 1.3, "exp": 1.0}]},
                "[1,2]": {"terms": [{"coef": kappa, "exp": 1.0},
                                     {"coef": 1.3 * kappa, "exp": 1.0}]},
            },
        }
        spec = load_spec(doc)
        report = check_union_elasticity(spec, compute_profiles(spec))
        assert report.holds, f"kappa={kappa}"


def test_union_elasticity_holds_across_low_gamma_grid():
    for beta in np.round(np.arange(0.1, 2.01, 0.1), 10):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            spec, profiles, _rel = _pipeline(float(beta), 0.5, grid_size=1025)
            report = check_union_elasticity(spec, profiles)
        assert report.holds, f"beta={beta}"


def test_union_elasticity_cost_adjusted_mode():
    doc = {
        "n_items": 2,
        "distribution": {"kind": "uniform", "lo": 0.0, "hi": 2.0},
        "values": {
            "[1]": {"terms": [{"coef": 1.0, "exp": 1.0}]},
            "[2]": {"terms": [{"coef": 1.3, "exp": 1.0}]},
            "[1,2]": {"terms": [{"coef": 1.0, "exp": 1.0}, {"coef": 1.3, "exp": 1.0}]},
        },
        "costs": {"[1]": 0.1, "[2]": 0.1, "[1,2]": 0.2},
    }
    spec = load_spec(doc)
    report = check_union_elasticity(spec, compute_profiles(spec))
    assert report.cost_adjusted
    assert report.holds


def test_union_elasticity_fails_high_gamma():
    spec, profiles, rel = _pipeline(0.5, 4.5)
    report = check_union_elasticity(spec, profiles)
    assert not report.holds
    assert not rel.nested  # contrapositive of the implication
    b1, b2, q, e1, e2, eu = report.failures[0]
    assert e1 < -1 and e2 < -1 and eu >= -1


def test_union_implies_nested_on_random_zero_cost_instances():
    checked = 0
    for spec, profiles, rel in generate_clean_specs(59, 12, grid_size=1025):
        if not spec.zero_costs():
            continue
        report = check_union_elasticity(spec, profiles)
        if report.skipped_pairs:
            continue
        if report.holds:
            checked += 1
            assert rel.nested
    assert checked >= 3


def _union_scan_specs():
    rng = np.random.default_rng(22)
    for k in range(12):
        n = 2 + k % 3
        doc = random_instance_doc(rng, n_items=n, allow_costs=False, grid_size=257)
        if k % 2:  # costs, so that the cost-adjusted eta is -inf where price <= cost
            doc["costs"] = {key: 0.05 * len(key.split(",")) for key in doc["values"]}
        if n > 2 and k % 4 == 0:  # the union {1,2} has no value expression
            del doc["values"]["[1, 2]"]
            doc["costs"].pop("[1, 2]", None)
        yield load_spec(doc)
    for beta in (0.5, 1.4):  # gamma = 4.5: more flagged points than are recorded
        yield two_item_spec(beta, 4.5, grid_size=1025)


def test_union_scan_matches_per_pair_reference():
    seen = {"skipped": 0, "failing": 0, "costs": 0}
    for spec in _union_scan_specs():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            profiles = compute_profiles(spec)
        got, want = check_union_elasticity(spec, profiles), reference_union_scan(spec, profiles)
        assert (got.holds, got.cost_adjusted, got.n_flagged, got.failures, got.skipped_pairs) == (
            want.holds, want.cost_adjusted, want.n_flagged, want.failures, want.skipped_pairs)
        seen["skipped"] += bool(got.skipped_pairs)
        seen["failing"] += not got.holds
        seen["costs"] += got.cost_adjusted
    assert all(seen.values()), seen


# ---------------------------------------------------------------------------
# sales-ordered chain


def test_elasticity_menu_low_beta():
    spec, profiles, _rel = _pipeline(0.3, 0.5)
    report = check_union_elasticity(spec, profiles)
    chain = elasticity_menu(profiles, report)
    assert chain == [0b10, 0b11]


def test_elasticity_menu_high_beta():
    spec, profiles, _rel = _pipeline(1.8, 0.5)
    report = check_union_elasticity(spec, profiles)
    chain = elasticity_menu(profiles, report)
    assert chain == [0b01, 0b11]


def test_elasticity_menu_refuses_unverified():
    spec, profiles, _rel = _pipeline(0.5, 4.5)
    report = check_union_elasticity(spec, profiles)
    with pytest.raises(ValueError):
        elasticity_menu(profiles, report)


def test_elasticity_menu_single_item():
    spec = load_spec(single_item_doc())
    profiles = compute_profiles(spec)
    report = check_union_elasticity(spec, profiles)
    assert elasticity_menu(profiles, report) == [1]


def test_elasticity_menu_three_items():
    # additive exponents 0.5/1/2: merging bundles in sales order yields the
    # chain {1} < {1,2} < {1,2,3}, the same menu dominance selects
    from test_menu import _three_item_chain_doc

    spec = load_spec(_three_item_chain_doc(grid_size=1025))
    profiles = compute_profiles(spec)
    report = check_union_elasticity(spec, profiles)
    assert report.holds
    chain = elasticity_menu(profiles, report)
    assert chain == [0b001, 0b011, 0b111]
    rel = build_dominance(spec, profiles)
    assert tuple(chain) == rel.undominated


def test_sales_ordered_union_chain_volume_property():
    # the running union never sells less than the bundle just merged into it
    for spec, profiles, _rel in generate_clean_specs(73, 10, grid_size=1025):
        if not spec.zero_costs():
            continue
        report = check_union_elasticity(spec, profiles)
        if not report.holds or report.skipped_pairs:
            continue
        order = sorted(profiles, key=lambda b: (-profiles[b].d_star, b))
        acc = 0
        for b in order:
            acc |= b
            if acc in profiles:
                assert profiles[acc].d_star >= profiles[b].d_star - 1e-6


# ---------------------------------------------------------------------------
# sales-volume conditions for a given menu


def test_menu_conditions_sufficient_low_beta():
    spec, profiles, _rel = _pipeline(0.3, 0.5)
    report = check_menu_optimality(spec, profiles, [0b10, 0b11])
    assert report.sufficient and report.witness is None
    assert report.smallest_is_best_selling and report.includes_grand


def test_menu_conditions_excluded_undominated():
    spec, profiles, _rel = _pipeline(0.3, 0.5)
    report = check_menu_optimality(spec, profiles, [0b11])
    assert not report.sufficient
    assert report.witness == 0b10  # undominated bundle left out


def test_menu_conditions_missing_grand():
    spec, profiles, _rel = _pipeline(0.3, 0.5)
    report = check_menu_optimality(spec, profiles, [0b10])
    assert not report.includes_grand
    assert not report.necessity_ok


def test_menu_conditions_reject_non_chain():
    spec, profiles, _rel = _pipeline(0.3, 0.5)
    with pytest.raises(ValueError, match="chain"):
        check_menu_optimality(spec, profiles, [0b01, 0b10])


# ---------------------------------------------------------------------------
# DOT export


def test_hasse_edges_and_dot():
    spec, profiles, rel = _pipeline(0.3, 0.5)
    edges = hasse_edges(rel)
    # {1} -> {1,2} is a covering pair; {2} -> {1,2} fails the volume test
    assert (0b01, 0b11) in edges
    assert all(a != b for a, b in edges)
    dot = to_dot(rel)
    assert dot.startswith("digraph")
    assert "{1,2}" in dot and "->" in dot


def test_dot_marks_undominated_bold():
    _spec, _profiles, rel = _pipeline(0.3, 0.5)
    dot = to_dot(rel)
    for line in dot.splitlines():
        if f'b{0b10} [' in line:
            assert "bold" in line
        if f'b{0b01} [' in line:
            assert "bold" not in line
