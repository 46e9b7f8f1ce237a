"""Demand curves, profit curves, sales volumes, elasticities."""

import warnings

import numpy as np
import pytest

from bundleopt import (
    compute_profile,
    compute_profiles,
    demand_price,
    elasticity,
    load_spec,
    marginal_profit,
    profit_curve,
    sales_volume,
)
from bundleopt.demand import UnsellableError, elasticity_grid, virtual_surplus
from bundleopt.model import ProblemSpec
from bundleopt.numerics import MultiplePeaksWarning

from support import (
    generate_clean_specs,
    random_instance_doc,
    reference_sales_volume,
    single_item_doc,
    two_item_doc,
    two_item_spec,
)


# ---------------------------------------------------------------------------
# demand price


def test_price_is_median_value():
    spec = two_item_spec(0.5, 0.5)
    assert demand_price(spec, 0b01, 0.5) == pytest.approx(1.0)  # median of U[0, 2]


@pytest.mark.parametrize("beta", [0.3, 0.5, 1.5])
def test_price_closed_form_power_item(beta):
    # P(q) = v(F^{-1}(1-q)) = (2(1-q))^beta for v = t^beta on U[0, 2]
    spec = two_item_spec(beta, 0.5)
    for q in (0.1, 0.25, 0.7, 0.99):
        assert demand_price(spec, 0b10, q) == pytest.approx((2 * (1 - q)) ** beta, abs=1e-12)


def test_price_at_full_quantity_is_lowest_type_value():
    spec = load_spec(single_item_doc(lo=0.5, hi=1.5))
    assert demand_price(spec, 1, 1.0) == pytest.approx(0.5)


def test_price_rejects_out_of_range():
    spec = load_spec(single_item_doc())
    with pytest.raises(ValueError):
        demand_price(spec, 1, 1.2)


# ---------------------------------------------------------------------------
# profit


def test_profit_examples():
    spec01 = load_spec(single_item_doc(lo=0.0, hi=1.0))
    assert profit_curve(spec01, 1, 0.5) == pytest.approx(0.25)  # q(1-q) at its peak
    spec02 = load_spec(single_item_doc(lo=0.0, hi=2.0))
    assert profit_curve(spec02, 1, 0.5) == pytest.approx(0.5)  # q * 2(1-q)
    spec_c = load_spec(single_item_doc(lo=0.0, hi=1.0, cost=0.5))
    assert profit_curve(spec_c, 1, 0.25) == pytest.approx(0.25 * (0.75 - 0.5))


# ---------------------------------------------------------------------------
# sales volume


@pytest.mark.parametrize("beta", [0.25, 0.5, 1.0, 1.5, 2.0])
def test_sales_volume_closed_form(beta):
    # FOC of q (2(1-q))^beta gives D* = 1/(1+beta)
    spec = two_item_spec(beta, 0.5)
    assert sales_volume(spec, 0b10) == pytest.approx(1.0 / (1.0 + beta), abs=1e-8)


def test_sales_volume_symmetric_parabola():
    for hi in (1.0, 2.0, 3.5):
        spec = load_spec(single_item_doc(hi=hi))
        assert sales_volume(spec, 1) == pytest.approx(0.5, abs=1e-10)


def test_sales_volume_grand_bundle_exact_half():
    # marginal revenue of t + t^1.5 + t^0.5 on U[0, 2] vanishes exactly at 1/2
    spec = two_item_spec(1.5, 0.5)
    assert sales_volume(spec, 0b11) == pytest.approx(0.5, abs=1e-10)


def test_sales_volume_matches_dense_argmax_on_random_instances():
    for spec, profiles, _rel in generate_clean_specs(97, 6, grid_size=1025):
        q = np.linspace(0.0, 1.0, 100001)
        for b, prof in profiles.items():
            dense = q[int(np.argmax(profit_curve(spec, b, q)))]
            assert abs(prof.d_star - dense) <= 2e-5


def test_array_scan_matches_pointwise_evaluation():
    # sales_volume scans the potential row on the type grid and refines with
    # scalar calls, so rows, array calls and point calls must agree to the
    # last bit
    potential = ProblemSpec.potential
    for spec, profiles, _rel in generate_clean_specs(5, 3, grid_size=1025):
        t = spec.t_grid
        for b in profiles:
            scans = [(potential, spec.potential_rows[b])] + [
                (curve, curve(spec, b, t)) for curve in (potential, virtual_surplus)
            ]
            for curve, scan in scans:
                points = np.array([curve(spec, b, x) for x in t], dtype=float)
                assert np.array_equal(np.asarray(scan, dtype=float), points, equal_nan=True)


def test_sales_volume_keeps_the_smaller_of_tied_peaks():
    # (1 + 4t^2)(1 - t) on U[0, 1] earns exactly 1 at t = 0 (D* = 1) and at
    # its interior peak t = 1/2 (D* = 1/2), both grid points: the smaller
    # sales volume is kept, with a warning
    spec = load_spec(
        {"n_items": 1, "distribution": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
         "values": {"[1]": {"terms": [{"coef": 4.0, "exp": 2.0}], "const": 1.0}}}
    )
    with pytest.warns(MultiplePeaksWarning):
        d = sales_volume(spec, 1)
    assert d == pytest.approx(0.5, abs=1e-12)


def test_sales_volume_matches_quantity_grid_scan():
    # the potential scan on the type grid against the scan it replaced, of
    # the profit (P - C) q on the quantity grid
    dists = [{"kind": "uniform", "lo": 0.0, "hi": 1.0}] + [
        {"kind": "quantile_table", "u": u, "t": t}
        for u, t in (([0.0, 0.3, 0.7, 1.0], [0.0, 0.4, 0.8, 1.2]),
                     ([0.0, 0.5, 0.9, 1.0], [0.0, 0.2, 1.0, 3.0]))
    ]
    worst, count = 0.0, 0
    for seed in range(30):
        rng = np.random.default_rng(seed)
        doc = random_instance_doc(rng, int(rng.integers(2, 6)))
        for dist in dists:
            spec = load_spec(dict(doc, distribution=dist))
            for b in spec.nonzero_bundles():
                worst = max(worst, abs(sales_volume(spec, b) - reference_sales_volume(spec, b)))
                count += 1
    assert count > 1000
    assert worst <= 1e-12


def test_sales_volume_needs_a_value_expression():
    # a bundle without a value expression has no potential row to scan
    doc = two_item_doc(0.5, 0.5)
    del doc["values"]["[1]"]
    spec = load_spec(doc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="no value expression"):
            sales_volume(spec, 0b01)


def test_marginal_profit_single_zero_crossing_at_d_star():
    for spec, profiles, _rel in generate_clean_specs(13, 4, grid_size=1025):
        q = np.linspace(1e-6, 1.0 - 1e-6, 20001)
        for b, prof in profiles.items():
            mr = np.asarray(marginal_profit(spec, b, q), dtype=float)
            sign = np.sign(mr[np.abs(mr) > 1e-12])
            flips = np.sum(np.diff(sign) != 0)
            assert flips == 1
            k = np.flatnonzero(np.diff(sign) != 0)[0]
            assert abs(q[k] - prof.d_star) <= 1e-6 + (q[1] - q[0])


# ---------------------------------------------------------------------------
# elasticity


def test_elasticity_closed_form_power_item():
    # eta(q) = -(1-q)/(beta q) for v = t^beta on U[0, 2]
    beta = 0.5
    spec = two_item_spec(beta, 0.5)
    for q in (0.2, 0.5, 0.8):
        assert elasticity(spec, 0b10, q) == pytest.approx(-(1 - q) / (beta * q), rel=1e-6)
    q_star = 1.0 / (1.0 + beta)
    assert elasticity(spec, 0b10, q_star) == pytest.approx(-1.0, abs=1e-6)


def test_elasticity_unit_values():
    spec = load_spec(single_item_doc())
    assert elasticity(spec, 1, 0.5) == pytest.approx(-1.0, abs=1e-8)
    assert elasticity(spec, 1, 0.25) == pytest.approx(-3.0, rel=1e-6)


def test_unit_elasticity_at_sales_volume():
    # zero-cost first-order condition: eta(D*) = -1
    for spec, profiles, _rel in generate_clean_specs(5, 4, grid_size=1025):
        if not spec.zero_costs():
            continue
        for b, prof in profiles.items():
            if 1e-3 < prof.d_star < 1 - 1e-3:
                assert elasticity(spec, b, prof.d_star) == pytest.approx(-1.0, abs=5e-4)


def test_cost_adjusted_elasticity_at_sales_volume():
    spec = load_spec(single_item_doc(cost=0.3))
    d = sales_volume(spec, 1)
    assert elasticity(spec, 1, d, cost_adjusted=True) == pytest.approx(-1.0, abs=5e-4)


def test_cost_adjusted_elasticity_unsellable():
    spec = load_spec(single_item_doc(cost=0.5))
    with pytest.raises(UnsellableError):
        elasticity(spec, 1, 0.9, cost_adjusted=True)  # price 0.1 < cost


def test_elasticity_grid_sentinels():
    spec = load_spec(single_item_doc())
    eta = elasticity_grid(spec, 1)
    assert eta[0] == float("-inf")  # q = 0
    assert np.all(np.isfinite(eta[1:-1]))


def test_elasticity_grid_matches_pointwise():
    spec = load_spec(dict(single_item_doc(cost=0.2), grid_size=65))
    for cost_adjusted in (False, True):
        eta = elasticity_grid(spec, 1, cost_adjusted)
        for q, e in zip(spec.q_grid[1:-1], eta[1:-1]):
            if np.isfinite(e):
                assert elasticity(spec, 1, q, cost_adjusted) == e


# ---------------------------------------------------------------------------
# profiles


def test_profile_invariants_benchmark():
    spec = two_item_spec(0.3, 0.5)
    for b, prof in compute_profiles(spec).items():
        assert np.all(np.diff(spec.price_rows[b]) <= 1e-12)  # demand slopes down
        assert prof.peak_profit >= np.max(spec.potential_rows[b]) - 1e-9
        assert spec.dist.quantile(1 - prof.d_star) == pytest.approx(prof.t_star, abs=1e-9)
        assert not prof.corner


def test_profile_corner_flag():
    # value bounded away from zero at the bottom with tiny spread: serve everyone
    doc = single_item_doc(lo=1.0, hi=1.1)
    spec = load_spec(doc)
    prof = compute_profile(spec, 1)
    assert prof.d_star == 1.0
    assert prof.corner
