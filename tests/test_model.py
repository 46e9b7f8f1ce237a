"""Problem loading, validation, distributions, and bundle arithmetic."""

import numpy as np
import pytest

from bundleopt import (
    MonomialSum,
    ProblemSpec,
    SpecError,
    TypeDistribution,
    best_nested_menu,
    build_dominance,
    compute_profiles,
    demand_price,
    load_spec,
    solve_nested_menu,
    validate_assumptions,
    virtual_surplus,
)
from bundleopt.model import format_bundle, is_subset, items_from_mask, mask_from_items

from support import random_instance_doc, single_item_doc, two_item_doc, two_item_spec


# ---------------------------------------------------------------------------
# loading and rejection


def test_benchmark_family_accepted():
    spec = load_spec(two_item_doc(0.3, 0.5))
    assert spec.n_items == 2
    assert spec.nonzero_bundles() == (1, 2, 3)
    assert spec.zero_costs()


def test_subset_with_larger_value_rejected():
    doc = {
        "n_items": 2,
        "distribution": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
        "values": {
            "[1]": {"terms": [{"coef": 1.0, "exp": 1.0}]},
            "[1,2]": {"terms": [{"coef": 0.5, "exp": 1.0}]},
        },
    }
    with pytest.raises(SpecError, match="monotonicity"):
        load_spec(doc)


def test_efficiency_at_top_failure_rejected():
    doc = {
        "n_items": 2,
        "distribution": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
        "values": {
            "[1]": {"terms": [{"coef": 5.0, "exp": 1.0}]},
            "[1,2]": {"terms": [{"coef": 5.0, "exp": 1.0}]},
        },
        "costs": {"[1,2]": 10.0},
    }
    with pytest.raises(SpecError, match="efficiency-at-top"):
        load_spec(doc)


def test_nonzero_empty_bundle_value_rejected():
    doc = single_item_doc()
    doc["values"]["[]"] = {"terms": [{"coef": 1.0, "exp": 1.0}]}
    with pytest.raises(SpecError, match="empty bundle"):
        load_spec(doc)


def test_negative_cost_rejected():
    doc = single_item_doc()
    doc["costs"]["[1]"] = -0.5
    with pytest.raises(SpecError, match="negative cost"):
        load_spec(doc)


def test_value_decreasing_where_positive_rejected():
    doc = single_item_doc()
    doc["values"]["[1]"] = {"terms": [{"coef": 1.0, "exp": 1.0}, {"coef": -0.9, "exp": 2.0}],
                             "const": 0.3}
    with pytest.raises(SpecError, match="decreases"):
        load_spec(doc)


def test_malformed_bundle_keys_rejected():
    doc = single_item_doc()
    doc["values"]["[2,1]"] = {"terms": []}
    with pytest.raises(SpecError, match="ascending"):
        load_spec(doc)
    doc = single_item_doc()
    doc["values"]["[7]"] = {"terms": []}
    with pytest.raises(SpecError, match="out of range"):
        load_spec(doc)


# ---------------------------------------------------------------------------
# assumption report


def test_validation_passes_clean_pair():
    # v2 - v1 = t^2.5 increasing; both profit curves single-peaked
    doc = {
        "n_items": 2,
        "distribution": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
        "values": {
            "[1]": {"terms": [{"coef": 1.0, "exp": 1.0}]},
            "[1,2]": {"terms": [{"coef": 1.0, "exp": 1.0}, {"coef": 1.0, "exp": 2.5}]},
        },
    }
    report = validate_assumptions(load_spec(doc))
    assert report.ok and report.clean


def test_offset_pair_warns_but_loads():
    # constant offset: incremental profit has two peaks globally yet the
    # local check below both sales volumes still passes
    doc = {
        "n_items": 2,
        "distribution": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
        "values": {
            "[1]": {"terms": [{"coef": 1.0, "exp": 1.0}]},
            "[1,2]": {"terms": [{"coef": 1.0, "exp": 1.0}, {"coef": 1.0, "exp": 2.5}],
                       "const": 0.1},
        },
    }
    spec = load_spec(doc)  # must not raise
    report = validate_assumptions(spec)
    assert report.ok
    assert not any("incremental profit" in w for w in report.warnings)


def test_single_item_profit_is_concave_parabola():
    spec = load_spec(single_item_doc())
    report = validate_assumptions(spec)
    assert report.ok and report.clean


# ---------------------------------------------------------------------------
# expressions


def test_monomial_eval_and_slope():
    f = MonomialSum(terms=((2.0, 1.5), (1.0, 0.0)), const=0.5)
    t = 4.0
    assert f(t) == pytest.approx(2.0 * 8.0 + 1.0 + 0.5)
    assert f.slope(t) == pytest.approx(2.0 * 1.5 * 2.0)


def test_slope_consistent_with_finite_difference():
    rng = np.random.default_rng(11)
    h = 1e-4
    for _ in range(25):
        terms = tuple(
            (float(rng.uniform(0.2, 2.0)), float(rng.uniform(0.0, 3.0))) for _ in range(3)
        )
        f = MonomialSum(terms=terms, const=float(rng.uniform(0, 1)))
        for t in np.linspace(0.05, 1.95, 13):
            lhs = abs(f(t + h) - f(t) - h * f.slope(t))
            assert lhs <= 50.0 * h * h  # second-order remainder, K bounded away from 0


def test_negative_exponent_rejected():
    with pytest.raises(SpecError):
        MonomialSum(terms=((1.0, -0.5),))


# ---------------------------------------------------------------------------
# distributions


def test_uniform_quantile_cdf_roundtrip():
    dist = TypeDistribution.uniform(0.0, 2.0)
    t = np.linspace(0.0, 2.0, 1001)
    assert np.max(np.abs(dist.quantile(dist.cdf(t)) - t)) <= 1e-9
    assert dist.pdf(1.0) == pytest.approx(0.5)
    assert dist.inv_hazard(0.5) == pytest.approx(1.5)


def test_quantile_table_roundtrip_and_hazard():
    # table for F(t) = (t/2)^2 on [0, 2]: quantile(u) = 2 sqrt(u)
    u = np.linspace(0.0, 1.0, 401)
    t_knots = 2.0 * np.sqrt(u)
    dist = TypeDistribution.quantile_table(u, t_knots)
    t = np.linspace(dist.lo, dist.hi, 1001)
    assert np.max(np.abs(dist.quantile(dist.cdf(t)) - t)) <= 1e-9
    # (1-F)/f = (1-u) * Q'(u) with Q'(u) = 1/sqrt(u)
    mid = dist.inv_hazard(1.0)  # u = 0.25, exact (1-0.25)/0.25 = 3... f = t/2 = 0.5
    assert mid == pytest.approx((1 - 0.25) / 0.5, rel=5e-3)


def test_quantile_table_rejects_nonmonotone():
    with pytest.raises(SpecError):
        TypeDistribution.quantile_table([0.0, 0.5, 1.0], [0.0, 2.0, 1.0])
    with pytest.raises(SpecError):
        TypeDistribution.quantile_table([0.0, 0.5, 0.9], [0.0, 1.0, 2.0])


def test_table_backed_spec_loads_and_validates():
    u = np.linspace(0.0, 1.0, 201)
    doc = single_item_doc()
    doc["distribution"] = {"kind": "quantile_table", "u": list(u), "t": list(2.0 * np.sqrt(u))}
    spec = load_spec(doc)
    assert validate_assumptions(spec).ok


# ---------------------------------------------------------------------------
# bundle arithmetic


def test_bundle_mask_roundtrip():
    assert mask_from_items([1, 3], 3) == 0b101
    assert items_from_mask(0b101) == (1, 3)
    assert format_bundle(0b101) == "{1,3}"
    assert format_bundle(0) == "{}"


def test_subset_relation_is_partial_order():
    n = 4
    masks = range(1 << n)
    for a in masks:
        assert is_subset(a, a)
        for b in masks:
            if is_subset(a, b) and is_subset(b, a):
                assert a == b
            for c in masks:
                if is_subset(a, b) and is_subset(b, c):
                    assert is_subset(a, c)


def test_content_hash_stable():
    s1 = load_spec(two_item_doc(0.3, 0.5))
    s2 = load_spec(two_item_doc(0.3, 0.5))
    s3 = load_spec(two_item_doc(0.4, 0.5))
    assert s1.content_hash() == s2.content_hash()
    assert s1.content_hash() != s3.content_hash()


# ---------------------------------------------------------------------------
# grid tables


def _table_specs():
    for seed in range(3):
        for n in range(2, 6):
            yield load_spec(random_instance_doc(np.random.default_rng(seed), n))
    u = np.linspace(0.0, 1.0, 201)
    doc = single_item_doc()
    doc["distribution"] = {"kind": "quantile_table", "u": list(u), "t": list(2.0 * np.sqrt(u))}
    yield load_spec(doc)


def test_grid_tables_equal_direct_evaluation():
    for spec in _table_specs():
        for b in spec.nonzero_bundles():
            rows = (spec.value_rows[b], spec.price_rows[b], spec.surplus_rows[b])
            direct = (
                spec.value(b, spec.t_grid),
                demand_price(spec, b, spec.q_grid),
                virtual_surplus(spec, b, spec.t_grid),
            )
            for row, want in zip(rows, direct):
                assert np.array_equal(row, want, equal_nan=True)
                assert not row.flags.writeable
                with pytest.raises(ValueError):
                    row[0] = 0.0
        with pytest.raises(ValueError, match="no value expression"):
            spec.surplus_rows[0]


def test_pipeline_evaluates_each_bundle_curve_once(monkeypatch):
    # Full-grid evaluations of v(b, .) per bundle: one for each of the three
    # tables (values and virtual surplus on t_grid, inverse demand on q_grid);
    # simulate_menu reads the value rows of the best chain it prices.
    calls = {}
    original = MonomialSum.__call__

    def counting(self, t):
        if np.ndim(t) == 1 and np.size(t) == 4097:
            calls[id(self)] = calls.get(id(self), 0) + 1
        return original(self, t)

    monkeypatch.setattr(MonomialSum, "__call__", counting)
    spec = load_spec(random_instance_doc(np.random.default_rng(1), 5))
    compute_profiles(spec)
    best_nested_menu(spec)
    for b in spec.nonzero_bundles():
        assert calls[id(spec.values[b])] == 3, format_bundle(b)


def test_profiles_and_menu_evaluate_only_table_grids(monkeypatch):
    # Array evaluations of v(b, .) of any size.  Loading and profiling make
    # exactly the value and inverse-demand rows; sales volumes scan the rows
    # and the envelope construction reads the surplus rows, both polishing
    # with scalar calls, so the menu solver evaluates v on no grid but the
    # spec's own.
    sizes = {}
    original = MonomialSum.__call__

    def counting(self, t):
        if np.ndim(t) >= 1:
            sizes.setdefault(id(self), []).append(np.size(t))
        return original(self, t)

    monkeypatch.setattr(MonomialSum, "__call__", counting)
    spec = load_spec(random_instance_doc(np.random.default_rng(1), 5))
    compute_profiles(spec)
    assert len(spec.nonzero_bundles()) == 31
    for b in spec.nonzero_bundles():
        assert sizes[id(spec.values[b])] == [4097, 4097], format_bundle(b)

    spec = two_item_spec(0.7, 0.5)
    profiles = compute_profiles(spec)
    sizes.clear()
    menu = solve_nested_menu(spec, build_dominance(spec, profiles))
    assert menu.certificate == "VALID"
    assert {n for ns in sizes.values() for n in ns} == {spec.grid_size}


def test_oversized_spec_refused_before_tables():
    # 10 items with 512 bundles is one bundle over the 9-item limit
    values = {b: MonomialSum(terms=((1.0, 1.0),)) for b in range(1, 513)}
    spec = ProblemSpec(
        n_items=10, values=values, costs={}, dist=TypeDistribution.uniform(0.0, 1.0)
    )
    pairs = sum(
        1 for b2 in values for b1 in values if b1 != b2 and is_subset(b1, b2)
    )
    with pytest.raises(SpecError) as err:
        spec.surplus_rows[1]
    table_mb = 3 * 512 * 4097 * 8 / 1e6
    assert "512 bundles" in str(err.value)
    assert f"{pairs} subset pairs" in str(err.value)
    assert f"{table_mb:.2f} MB" in str(err.value)
    assert not {"_value_rows", "_price_rows", "_surplus_rows"} & set(vars(spec))
