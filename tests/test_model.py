"""Problem loading, validation, distributions, and bundle arithmetic."""

import copy
import pickle
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from bundleopt import (
    MonomialSum,
    ProblemSpec,
    SpecError,
    TypeDistribution,
    best_nested_menu,
    build_dominance,
    compute_profiles,
    load_spec,
    solve_nested_menu,
    validate_assumptions,
)
from bundleopt import applications, model
from bundleopt.demand import marginal_profit
from bundleopt.model import (
    HazardClampWarning,
    check_spec,
    format_bundle,
    is_subset,
    items_from_mask,
    mask_from_items,
)
from bundleopt.oracle import DiscretizedInstance

from support import (
    random_instance_doc,
    reference_cdf,
    reference_inv_hazard,
    reference_lp_monotone,
    reference_marginal_profit,
    reference_monotone_scans,
    reference_quantile,
    reference_rows,
    reference_slope,
    reference_validation,
    reference_value,
    rounding_noise_doc,
    single_item_doc,
    two_item_doc,
    two_item_spec,
)


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


def _two_item(lo, hi, small, inc_terms, inc_const=0.0, grid_size=33):
    """{1} = ``small`` and {1,2} = {1} plus the increment's terms and constant."""
    terms = lambda pairs: [{"coef": c, "exp": e} for c, e in pairs]  # noqa: E731
    return {
        "n_items": 2,
        "distribution": {"kind": "uniform", "lo": lo, "hi": hi},
        "values": {"[1]": {"terms": terms(small)},
                   "[1,2]": {"terms": terms(small + inc_terms), "const": inc_const}},
        "grid_size": grid_size,
    }


@pytest.mark.parametrize(
    "doc, at",
    [
        # {1} = t exceeds {1,2} = 0.98t + t^2 on (0, 0.02), inside the first
        # cell of 33 grid points; the dip's bottom is at t = 0.01
        (_two_item(0.0, 1.0, [(1.0, 1.0)], [(-0.02, 1.0), (1.0, 2.0)]), "0.01"),
        # {1} = t^0.5 and {1,2} = 0.999 t^0.5 + t^2 both have slope +inf at t = 0;
        # only the difference expression's limit, -inf, shows the dip there
        (_two_item(0.0, 1.0, [(1.0, 0.5)], [(-0.001, 0.5), (1.0, 2.0)]), "0.0039685"),
        # below 0 one-signed coefficients prove nothing: the increment
        # (t + 1)^2 - 0.02 (t + 1) dips inside the first cell, to t = -0.99
        (_two_item(-1.0, 1.0, [(1.0, 1.0)], [(1.98, 1.0), (1.0, 2.0)], 0.98), "-0.99"),
    ],
    ids=["pinned", "fractional", "negative-support"],
)
def test_set_inclusion_checked_between_grid_points(doc, at):
    with pytest.raises(SpecError) as err:
        load_spec(doc)
    assert str(err.value) == (
        f"monotonicity violation: value of {{1}} exceeds value of {{1,2}} at t={at}"
    )


def test_one_signed_increments_skip_the_sub_cell_scan(monkeypatch):
    # every increment of these instances has nonnegative coefficients, so the
    # grid decides each pair; a support below 0 scans every pair and passes
    # increments that are nonnegative anywhere
    calls = []
    monkeypatch.setattr(model, "_dip", lambda spec, b1, b2: calls.append((b1, b2)))
    for seed in range(4):
        load_spec(random_instance_doc(np.random.default_rng(seed), 4, grid_size=257))
    assert calls == []
    load_spec(_two_item(-1.0, 1.0, [(1.0, 1.0)], [(2.0, 1.0), (1.0, 2.0)], 1.0))
    assert calls == [(1, 3)]


_EXPONENTS = st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0, 3.0])


@settings(max_examples=60)
@given(
    hi=st.sampled_from([1.0, 2.0]),
    small=st.tuples(st.integers(1, 50).map(lambda k: k / 50), _EXPONENTS),
    exps=st.lists(_EXPONENTS, min_size=2, max_size=2, unique=True).map(sorted),
    coefs=st.tuples(st.integers(-50, 50).map(lambda k: k / 1000),
                    st.integers(-50, 50).map(lambda k: k / 50)),
    const=st.sampled_from([0.0, 0.001, 0.005]),
)
@example(hi=1.0, small=(1.0, 1.0), exps=[1.0, 2.0], coefs=(-0.02, 1.0), const=0.0)
def test_accepted_specs_are_monotone_on_the_lp_types(hi, small, exps, coefs, const):
    # an increment c1 t^e1 + c2 t^e2 (e1 < e2) on t >= 0 has at most one
    # coefficient sign change, so its slope has at most one root there
    # (Descartes' rule of signs) and the sub-cell scan is exact
    doc = _two_item(0.0, hi, [small], list(zip(coefs, exps)), const)
    try:
        spec = load_spec(doc)
    except SpecError:
        return
    for m in (11, 51, 201):
        assert reference_lp_monotone(DiscretizedInstance.from_spec(spec, m)) is None


_QUARTERS = st.integers(-8, 8).map(lambda k: k / 4)  # coefficients of magnitude <= 2


@st.composite
def _inclusion_specs(draw):
    """2-3-item specs on 65 grid points: each bundle is the bundle without its
    top item plus one to three new terms, all >= 0, all <= 0 or of mixed
    signs; the support is uniform or a quantile table, from lo = 0, 0.5 or -1
    (integer exponents only below 0).  The grand bundle's constant makes it
    efficient at the top type, so only the monotonicity checks refuse."""
    n = draw(st.integers(2, 3))
    lo, width = draw(st.sampled_from([0.0, 0.5, -1.0])), draw(st.sampled_from([1.0, 2.0]))
    if draw(st.booleans()):
        dist = TypeDistribution.uniform(lo, lo + width)
    else:
        dist = TypeDistribution.quantile_table([0.0, 0.3, 1.0], [lo, lo + 0.2 * width, lo + width])
    exps = st.sampled_from([0.0, 1.0, 2.0, 3.0] if lo < 0 else [0.0, 0.5, 1.0, 1.5, 2.0, 3.0])
    values = {}
    for b in range(1, 1 << n):
        sign = draw(st.sampled_from([1.0, 1.0, -1.0, None]))
        new = draw(st.lists(st.tuples(_QUARTERS, exps), min_size=1, max_size=3))
        new = tuple((c if sign is None else sign * abs(c), e) for c, e in new)
        base = values.get(b & ~(1 << (b.bit_length() - 1)), MonomialSum(terms=()))
        values[b] = MonomialSum(base.terms + new, base.const)
    grand = values[(1 << n) - 1]
    shift = max(-grand(dist.hi), max(v(dist.hi) for v in values.values()) - grand(dist.hi))
    values[(1 << n) - 1] = MonomialSum(grand.terms, grand.const + shift)
    assume(not values[(1 << n) - 1].is_zero())
    return ProblemSpec(n, values, {}, dist, 65)


@settings(max_examples=200)
@given(spec=_inclusion_specs())
def test_coefficient_table_agrees_with_grid_scans(spec):
    # check_spec skips the grid scans the coefficient table shows cannot fail;
    # it must accept and refuse as scanning every bundle and pair does
    refusal, failures = reference_monotone_scans(spec)
    try:
        check_spec(spec)
        got = None
    except SpecError as err:
        got = str(err)
    assert got == (refusal or "; ".join(failures) or None)


def test_sign_definite_increments_make_no_scan(monkeypatch):
    # every bundle and increment of these specs has nonnegative coefficients on
    # a support from 0: check_spec decides each pair at t = lo, and neither it
    # nor validate_assumptions scans a value or an increment for a decrease
    calls = []
    for name in ("_fall", "_dip"):
        monkeypatch.setattr(model, name, lambda *args, name=name: calls.append(name))
    docs = [random_instance_doc(np.random.default_rng(seed), n, grid_size=257)
            for seed in range(4) for n in (2, 3, 4)]
    docs += [two_item_doc(beta, gamma) for beta in (0.3, 1.2) for gamma in (0.5, 4.5)]
    for doc in docs:
        validate_assumptions(load_spec(doc))
    assert calls == []


def test_one_subset_pair_list_per_spec(monkeypatch):
    # check_spec, validate_assumptions and build_dominance read one pair list
    calls = []
    original = model.subset_pairs

    def counting(bundles):
        calls.append(tuple(bundles))
        return original(bundles)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "bundleopt":
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counting)
    spec = load_spec(random_instance_doc(np.random.default_rng(2), 4, grid_size=257))
    spec.validation
    build_dominance(spec, compute_profiles(spec))
    assert calls == [spec.nonzero_bundles()]
    assert spec.validation.checked_pairs == len(spec.subset_pairs) > 0


def test_rounding_noise_of_an_increasing_increment_is_no_failure():
    # {1,2} - {1} = 1e-6 t has a positive coefficient, so no rounding in the
    # difference of two 3e8-sized grid rows reads as a decrease
    spec = load_spec(rounding_noise_doc())  # accepted: no decrease where positive
    assert spec.validation.checked_pairs == 2


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
    report = validate_assumptions(load_spec(doc))  # load_spec accepts
    assert not report.warnings


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
    assert not any("incremental profit" in w for w in report.warnings)


def test_single_item_profit_is_concave_parabola():
    spec = load_spec(single_item_doc())  # load_spec accepts
    report = validate_assumptions(spec)
    assert not report.warnings


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


def _random_expressions(rng, n):
    """Seeded monomial sums with exponents 0, whole numbers and fractions in
    (0, 1); every third one adds an opposite-sign singular term at t = 0."""
    exprs = []
    for k in range(n):
        terms = []
        for _ in range(int(rng.integers(1, 4))):
            exp = (0.0, float(rng.integers(1, 5)), float(rng.uniform(0.0, 1.0)))[rng.integers(3)]
            terms.append((float(rng.uniform(-2.0, 2.0)), exp))
        if k % 3 == 0:
            exp = float(rng.uniform(0.05, 0.95))
            terms += [(1.5, exp), (-float(rng.uniform(0.5, 3.0)), float(rng.uniform(0.05, 0.95)))]
        exprs.append(MonomialSum(terms=tuple(terms), const=float(rng.uniform(-1.0, 1.0))))
    return exprs


_POINT_DISTRIBUTIONS = [
    TypeDistribution.uniform(0.0, 2.0),
    TypeDistribution.uniform(0.5, 3.0),
    TypeDistribution.quantile_table(np.linspace(0.0, 1.0, 201), 2.0 * np.sqrt(np.linspace(0.0, 1.0, 201))),
    TypeDistribution.quantile_table([0.0, 0.2, 0.7, 1.0], [1.0, 1.5, 1.6, 3.0]),
]


def _same(a, b) -> bool:
    """Bit-level agreement of two floats or arrays: ==, nan where nan, and zero signs."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return np.array_equal(a, b, equal_nan=True) and np.array_equal(np.signbit(a), np.signbit(b))


def _assert_points_match(point, reference, xs):
    """``point`` of each entry of ``xs`` as a float is a float, equal to the
    array path's entry and to the reference formula on a 0-d array."""
    grid = point(xs)
    assert _same(grid, reference(xs))
    for k, x in enumerate(xs):
        for y in (float(x), x):  # a Python float and a numpy float64
            got = point(y)
            assert type(got) is float
            assert _same(got, grid[k]) and _same(got, reference(y)), (float(x), got, grid[k])


def test_point_evaluations_equal_grid_and_reference():
    rng = np.random.default_rng(18)
    exprs = _random_expressions(rng, 24)
    u = np.concatenate(([-0.25, -0.0, 0.0, 1.0, 1.25], np.linspace(0.0, 1.0, 65), rng.uniform(0, 1, 32)))
    for dist in _POINT_DISTRIBUTIONS:
        t = np.concatenate(
            ([0.0, dist.lo, dist.hi], np.linspace(dist.lo, dist.hi, 65), rng.uniform(dist.lo, dist.hi, 32))
        )
        with warnings.catch_warnings():
            # no RuntimeWarning escapes a point evaluation, not even at t = 0
            warnings.simplefilter("error", RuntimeWarning)
            for expr in exprs:
                _assert_points_match(expr, lambda x: reference_value(expr, x), t)
                _assert_points_match(expr.slope, lambda x: reference_slope(expr, x), t)
            outside = np.concatenate(([dist.lo - 0.5, -0.0, dist.hi + 0.5], t))
            _assert_points_match(dist.cdf, lambda x: reference_cdf(dist, x), outside)
            _assert_points_match(dist.inv_hazard, lambda x: reference_inv_hazard(dist, x), outside)
            _assert_points_match(dist.quantile, lambda x: reference_quantile(dist, x), u)
            for expr in exprs[:6]:
                spec = ProblemSpec(1, {1: expr}, {1: 0.25}, dist, 65)
                _assert_points_match(
                    lambda q: marginal_profit(spec, 1, q),
                    lambda q: reference_marginal_profit(spec, 1, q),
                    spec.q_grid,
                )


@pytest.mark.parametrize(
    "terms, limit",
    [
        (((1.0, 0.5),), np.inf),
        (((1.0, 0.5), (-2.0, 0.25)), -np.inf),  # the most singular exponent leads
        (((2.0, 0.5), (-1.0, 0.5)), np.inf),
        (((1.0, 0.5), (-1.0, 0.5), (3.0, 2.0)), 0.0),  # the singular terms cancel
        (((1.0, 1.0), (1.0, 2.0)), 1.0),
        (((1.0, 0.5), (-1.0, 0.5), (2.0, 1.0)), 2.0),  # then the finite slopes count
        (((1.0, 1.0), (0.0, 0.5)), 1.0),  # a zero coefficient has no say
        (((1.0, 0.3), (-1.0, 0.3), (2.0, 0.6)), np.inf),  # the next exponent leads
    ],
)
def test_slope_limit_at_zero(terms, limit):
    expr = MonomialSum(terms=terms)
    t = np.array([0.0, 0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert expr.slope(0.0) == limit
        assert expr.slope(t)[0] == limit
    assert _same(expr.slope(0.0), reference_slope(expr, 0.0))


def test_hazard_clamp_point_and_grid():
    for dist in _POINT_DISTRIBUTIONS:
        t = np.array([np.nan, dist.lo, np.nan, dist.hi, np.nan])
        with pytest.warns(HazardClampWarning):
            got = dist.inv_hazard(t)
        with pytest.warns(HazardClampWarning):
            want = reference_inv_hazard(dist, t)
        assert _same(got, want)
        assert _same(got, [dist.inv_hazard(dist.lo)] * 2 + [dist.inv_hazard(dist.hi)] * 3)
        with pytest.warns(HazardClampWarning), pytest.raises(SpecError, match="non-finite everywhere"):
            dist.inv_hazard(float("nan"))


# ---------------------------------------------------------------------------
# distributions


def test_uniform_quantile_cdf_roundtrip():
    dist = TypeDistribution.uniform(0.0, 2.0)
    t = np.linspace(0.0, 2.0, 1001)
    assert np.max(np.abs(dist.quantile(dist.cdf(t)) - t)) <= 1e-9
    assert dist.quantile_slope(0.5) == pytest.approx(2.0)
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


def test_quantile_table_keeps_its_own_knots():
    # the table stores read-only copies, so its caller's arrays stay as they
    # were given and writing into them later leaves the distribution as built
    u, t = np.array([1e-13, 0.5, 1.0]), np.array([0.0, 1.0, 2.0])
    dist = TypeDistribution.quantile_table(u, t)
    assert u[0] == 1e-13 and dist.u_knots[0] == 0.0
    u[1], t[1] = 0.25, 1.9
    assert dist.quantile(0.5) == 1.0 and dist.cdf(1.0) == 0.5
    assert list(dist.u_knots) == [0.0, 0.5, 1.0] and list(dist.t_knots) == [0.0, 1.0, 2.0]
    for knots in (dist.u_knots, dist.t_knots):
        with pytest.raises(ValueError):
            knots[1] = 0.0


def test_table_backed_spec_loads_and_validates():
    u = np.linspace(0.0, 1.0, 201)
    doc = single_item_doc()
    doc["distribution"] = {"kind": "quantile_table", "u": list(u), "t": list(2.0 * np.sqrt(u))}
    spec = load_spec(doc)  # load_spec accepts
    assert not validate_assumptions(spec).warnings


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


@settings(max_examples=100)
@given(st.lists(st.integers(0, 255), unique=True, max_size=40))
def test_subset_pairs_equals_pairwise_scan(bundles):
    for order in (bundles, sorted(bundles)):
        want = [(b1, b2) for b2 in order for b1 in order if b1 != b2 and is_subset(b1, b2)]
        assert model.subset_pairs(order) == want


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
    quantile_table = {"kind": "quantile_table", "u": list(u), "t": list(2.0 * np.sqrt(u))}
    doc = single_item_doc()
    doc["distribution"] = quantile_table
    yield load_spec(doc)
    # fractional exponents at t = 0, on a uniform and a quantile-table support
    yield two_item_spec(0.5, 0.3, grid_size=1025)
    doc = two_item_doc(0.6, 0.5, grid_size=1025)
    doc["distribution"] = quantile_table
    yield load_spec(doc)
    # a constant; value exponents 1 and 0.5 that are also slope exponents (of
    # 2 and 1.5); singular terms that cancel at t = 0
    values = {
        1: MonomialSum(terms=((1.0, 2.0), (1.0, 1.0)), const=0.25),
        2: MonomialSum(terms=((1.0, 1.5), (1.0, 0.5))),
        3: MonomialSum(terms=((1.0, 2.0), (1.0, 1.0), (1.0, 1.5), (1.0, 0.5), (1.0, 0.3),
                              (-1.0, 0.3)), const=0.5),
    }
    yield check_spec(ProblemSpec(2, values, {1: 0.1}, TypeDistribution.uniform(0.0, 1.0), 513))
    two_t = MonomialSum(terms=((1.0, 0.5), (-1.0, 0.5), (2.0, 1.0)))
    yield check_spec(ProblemSpec(1, {1: two_t}, {}, TypeDistribution.uniform(0.0, 1.0), 33))


TABLES = ("value_rows", "price_rows", "potential_rows", "surplus_rows", "slope_rows")


def test_grid_tables_equal_direct_evaluation():
    # each table raises an exponent once on its grid and shares (1-F)/f and
    # the slope's two difference ends across bundles; every row must still be
    # the per-bundle formula's, bit for bit
    for spec in _table_specs():
        for b in spec.nonzero_bundles():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", HazardClampWarning)
                want = reference_rows(spec, b)
            for name in TABLES:
                row = getattr(spec, name)[b]
                assert row.tobytes() == want[name].tobytes(), (name, format_bundle(b))
                assert not row.flags.writeable
                with pytest.raises(ValueError):
                    row[0] = 0.0
        for name in TABLES:
            with pytest.raises(ValueError, match="no value expression"):
                getattr(spec, name)[0]


def test_type_distributions_compare_and_hash_bit_for_bit():
    a = TypeDistribution.quantile_table([0, 0.5, 1], [0, 1, 2])
    b = TypeDistribution.quantile_table([0, 0.5, 1], [0, 1, 2])
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != TypeDistribution.quantile_table([0, 0.5, 1], [0, 1, 2.5])
    assert a != TypeDistribution.quantile_table([0, 0.25, 1], [0, 1, 2])
    assert a != TypeDistribution.uniform(0.0, 2.0)
    one = MonomialSum(terms=((1.0, 1.0),))
    assert ProblemSpec(1, {1: one}, {}, a, 65) == ProblemSpec(1, {1: one}, {}, b, 65)
    # a -0.0 bound is another distribution, with its own grid: np.linspace ends
    # the grid at hi exactly, sign included
    neg, pos = TypeDistribution.uniform(-1.0, -0.0), TypeDistribution.uniform(-1.0, 0.0)
    assert neg != pos and neg == TypeDistribution.uniform(-1.0, -0.0)
    t_neg = ProblemSpec(1, {1: one}, {}, neg, 65).t_grid
    t_pos = ProblemSpec(1, {1: one}, {}, pos, 65).t_grid
    assert np.signbit(t_neg[-1]) and not np.signbit(t_pos[-1])
    assert model.type_grid(neg, 65) is not model.type_grid(pos, 65)


def test_specs_on_one_distribution_share_the_grid(monkeypatch):
    dist = TypeDistribution.quantile_table([0, 0.5, 1], [0, 1, 2])
    one = MonomialSum(terms=((1.0, 1.0),))
    first = check_spec(ProblemSpec(1, {1: one}, {}, dist, 129))
    second = check_spec(ProblemSpec(1, {1: MonomialSum(terms=((2.0, 0.5),))}, {}, dist, 129))
    for name in ("t_grid", "q_grid", "price_types"):
        assert getattr(first, name) is getattr(second, name)
    grid = model.type_grid(TypeDistribution.quantile_table([0, 0.5, 1], [0, 1, 2]), 129)
    assert first.grid is second.grid is grid
    for spec in (first, second):
        for name in TABLES:
            getattr(spec, name)
    # is_regular builds no grid of its own
    monkeypatch.setattr(np, "linspace", None)
    assert applications.is_regular(dist, 129)
    monkeypatch.undo()
    shared = [grid.t, grid.q, grid.price_types, grid.survive, grid.quantile_slope,
              *grid.t_powers.values(), *grid.price_powers.values()]
    assert len(shared) > 5
    for row in shared:
        assert not row.flags.writeable
        with pytest.raises(ValueError):
            row[0] = 0.0


def test_power_memo_stays_within_its_bound():
    betas = np.linspace(0.3, 2.0, 200)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        applications.rotation_sweep(
            lambda b: applications.two_item_power_family(b, 0.5, grid_size=257), betas)
    grid = model.type_grid(TypeDistribution.uniform(0.0, 2.0), 257)
    for memo in (grid.t_powers, grid.price_powers):
        assert 0 < len(memo) <= model.POWER_MEMO_SIZE
    # the memo keeps the exponents used last: the last spec's beta and beta - 1
    assert betas[-1] in grid.t_powers and betas[-1] - 1.0 in grid.t_powers


def test_tables_from_a_warm_memo_equal_direct_evaluation(monkeypatch):
    # a second spec on the distribution and grid of the first reads the powers
    # the first left in the shared memo; its rows must still be the per-bundle
    # formula's, bit for bit
    lookups = hits = 0
    missing = model.Powers.__missing__

    def counting(self, exp):
        nonlocal lookups, hits
        lookups, hits = lookups + 1, hits + (exp in self.memo)
        return missing(self, exp)

    for spec in _table_specs():
        for name in TABLES:
            getattr(spec, name)
        twin = ProblemSpec(spec.n_items, spec.values, spec.costs, spec.dist, spec.grid_size)
        assert twin.grid is spec.grid
        monkeypatch.setattr(model.Powers, "__missing__", counting)
        rows = {name: getattr(twin, name) for name in TABLES}
        monkeypatch.undo()
        for b in twin.nonzero_bundles():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", HazardClampWarning)
                want = reference_rows(twin, b)
            for name in TABLES:
                assert rows[name][b].tobytes() == want[name].tobytes(), (name, format_bundle(b))
    assert 0 < hits < lookups


def test_no_table_raises_an_exponent_twice(monkeypatch):
    # twelve value exponents, more than the memo keeps: each table still raises
    # each of its exponents at most once, and a twin spec no more than that
    exps = [0.25 + 0.15 * k for k in range(12)]
    values = {1: MonomialSum(terms=tuple((1.0, e) for e in exps))}
    dist = TypeDistribution.uniform(0.0, 1.375)
    raised = []
    power = np.power

    def counting(x, exp, *args, **kwargs):
        raised.append(exp)
        return power(x, exp, *args, **kwargs)

    for k in range(2):
        spec = ProblemSpec(1, values, {}, dist, 65)
        spec.t_grid, spec.price_types
        monkeypatch.setattr(np, "power", counting)
        for name in TABLES:
            raised.clear()
            getattr(spec, name)
            assert len(raised) == len(set(raised)), name
            if k == 0 and name == "value_rows":  # a fresh grid: every exponent raised
                assert sorted(raised) == exps
        monkeypatch.undo()
    assert len(spec.grid.t_powers) == len(spec.grid.price_powers) == model.POWER_MEMO_SIZE


def test_power_memo_shared_across_threads():
    # four threads take eleven exponents in turn from one memo of eight: every
    # power is np.power's, nothing raises, and the memo keeps its bound
    grid = np.linspace(0.0, 1.0, 9)
    memo = model.PowerMemo(grid)
    errors = []

    def take(i):
        try:
            for k in range(10_000):
                exp = float((7 * k + i) % 11)
                if memo.power(exp).tobytes() != np.power(grid, exp).tobytes():
                    errors.append(exp)
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=take, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(memo) == model.POWER_MEMO_SIZE


def test_checked_specs_survive_pickle_and_deepcopy():
    # a checked spec caches its shared grid, whose memos hold a lock: a pickled
    # or copied spec reattaches to the grid of its distribution instead
    doc = single_item_doc()
    doc["distribution"] = {"kind": "quantile_table", "u": [0, 0.5, 1], "t": [0, 1, 2]}
    for load in (lambda: load_spec(single_item_doc()), lambda: two_item_spec(0.7, 0.5),
                 lambda: load_spec(doc)):
        spec = load()
        assert "grid" in vars(spec)
        for name in TABLES[:-1]:
            getattr(spec, name)
        for copied in (pickle.loads(pickle.dumps(spec)), copy.deepcopy(spec)):
            assert copied == spec and copied.grid is spec.grid
            assert copied.grid is model.type_grid(spec.dist, spec.grid_size)
            for name in TABLES:
                for b, row in getattr(spec, name).items():
                    assert getattr(copied, name)[b].tobytes() == row.tobytes(), name
    grid = spec.grid
    assert pickle.loads(pickle.dumps(grid)) is grid and copy.deepcopy(grid) is grid


def test_grid_cache_keeps_two_distributions():
    # the perfbench workloads alternate between uniform types on [0, 1] and on
    # [0, 2]: both grids stay while the other is in use
    a, b = TypeDistribution.uniform(0.0, 1.0), TypeDistribution.uniform(0.0, 2.0)
    first = model.type_grid(a, 65)
    assert model.type_grid(b, 65) is not first
    assert model.type_grid(a, 65) is first


def test_size_limit_counts_the_type_grid():
    # one bundle on 500,000 points needs 20 MB of tables, but its type grid may
    # hold 21 rows, 84 MB: together over the limit, so the spec is refused
    one = MonomialSum(terms=((1.0, 1.0),))
    spec = ProblemSpec(1, {1: one}, {}, TypeDistribution.uniform(0.0, 1.0), 500_000)
    with pytest.raises(SpecError, match="1 bundles .* 20.00 MB of grid tables and 84.00 MB "
                                        "of type grid"):
        check_spec(spec)
    assert "grid" not in vars(spec)
    # every bundle of 9 items at the default grid, tables and grid, fits exactly
    values = {b: one for b in range(1, 512)}
    spec = ProblemSpec(9, values, {}, TypeDistribution.uniform(0.0, 1.0))
    assert len(spec._table_bundles) == model.MAX_BUNDLES
    table_bytes = (5 * model.MAX_BUNDLES + model.GRID_ROWS) * spec.grid_size * 8
    assert table_bytes == model.MAX_TABLE_BYTES


@pytest.mark.filterwarnings("ignore:overflow encountered in divide:RuntimeWarning")
def test_each_spec_on_a_clamping_table_warns():
    # Q' overflows on the first segment, so (1-F)/f is clamped near t = 0; the
    # grid is shared, (1-F)/f is not, and each spec's surplus rows warn
    dist = TypeDistribution.quantile_table([0.0, 1e-310, 1.0], [0.0, 1.0, 2.0])
    one = MonomialSum(terms=((1.0, 1.0),))
    specs = [ProblemSpec(1, {1: one}, {}, dist, 65), ProblemSpec(1, {1: one}, {1: 0.1}, dist, 65)]
    assert specs[0].grid is specs[1].grid
    for spec in specs:
        with pytest.warns(HazardClampWarning):
            spec.surplus_rows


def _richardson_slope(price, q, room):
    """dP/dq at q by a Richardson-extrapolated difference whose stencil spans no
    quantile knot: central when ``room`` (the distance from q to the nearest
    knot or end) is positive, else one-sided from below in q, the side the
    analytic slope takes at a knot."""
    if room > 0.0:
        h = min(1e-2, room / 64)
        d = [(price(q + x) - price(q - x)) / (2 * x) for x in (h, h / 2)]
        return (4 * d[1] - d[0]) / 3
    h = min(q, 0.25) * 1e-4
    d = [(price(q) - price(q - x)) / x for x in (h, h / 2)]
    return 2 * d[1] - d[0]


def test_price_slope_matches_richardson_difference():
    exprs = [
        MonomialSum(terms=((1.0, 0.3), (0.5, 1.7)), const=0.1),
        MonomialSum(terms=((1.0, 0.5), (-0.4, 0.5), (1.0, 2.0))),
        MonomialSum(terms=((0.7, 1.0), (0.2, 2.5)), const=0.3),
    ]
    dists = [
        TypeDistribution.uniform(0.0, 2.0),
        TypeDistribution.uniform(0.5, 3.0),
        # knots at u = 1/4 and 1/2, where 1 - (1 - u) == u in floating point
        TypeDistribution.quantile_table([0.0, 0.25, 0.5, 1.0], [0.0, 1.5, 1.6, 3.0]),
        TypeDistribution.quantile_table(np.linspace(0.0, 1.0, 9), 2.0 * np.sqrt(np.linspace(0.0, 1.0, 9))),
    ]
    for dist in dists:
        knots = [] if dist.u_knots is None else [1.0 - u for u in dist.u_knots[1:-1]]
        beside = [k + d for k in knots for d in (-1e-3, 1e-3)]
        near_ends = [1e-3, 0.05, 0.9, 1.0 - 1e-3, 1.0 - 1e-5, 1.0 - 1e-7]
        qs = sorted(knots + beside + near_ends + list(np.linspace(0.03, 0.97, 11)))
        for expr in exprs:
            spec = ProblemSpec(1, {1: expr}, {}, dist, 65)
            price = lambda q: reference_value(expr, reference_quantile(dist, 1.0 - q))
            for q in qs:
                room = min([q, 1.0 - q] + [abs(q - k) for k in knots])
                want = _richardson_slope(price, q, room)
                got = spec.price_slope(1, q)
                assert type(got) is float and got < 0.0
                assert got == pytest.approx(want, rel=1e-6), (dist.kind, expr, q)
            # a point on the grid is the slope table's entry there, bit for bit
            row = spec.slope_rows[1]
            assert [spec.price_slope(1, float(q)) for q in spec.q_grid] == list(row)


def _validation_pool():
    """Unchecked 1-3 item specs with coefficients on a 0.1 grid, so that flat and
    decreasing incremental values and multi-peaked profit curves all occur."""
    rng = np.random.default_rng(5)
    u = np.linspace(0.0, 1.0, 201)
    dists = (
        TypeDistribution.uniform(0.0, 1.0),
        TypeDistribution.quantile_table(u, 2.0 * np.sqrt(u)),
    )
    exps = (0.0, 0.5, 1.0, 2.0, 6.0)
    for k in range(80):
        n = int(rng.integers(1, 4))
        values = {}
        for b in range(1, 1 << n):
            terms = tuple(
                (round(float(rng.uniform(-1.0, 2.0)), 1), float(rng.choice(exps)))
                for _ in range(int(rng.integers(1, 4)))
            )
            values[b] = MonomialSum(terms=terms, const=float(rng.choice((0.0, 0.0, 0.2))))
        costs = {b: round(float(rng.uniform(0.0, 0.4)), 2) for b in values if rng.random() < 0.5}
        yield ProblemSpec(n, values, costs, dists[k % 2], 257)


def test_validation_equals_per_pair_reference():
    found = set()
    for spec in _validation_pool():
        report = validate_assumptions(spec)
        assert report == reference_validation(spec)
        for line in report.warnings:
            found.add(" ".join(w for w in line.split() if w.isalpha() and w != "t"))
    assert {
        "incremental value is locally flat where positive",
        "profit curve of has multiple peaks on",
        "incremental profit has multiple peaks before both sales volumes",
    } <= found


def test_check_spec_raises_on_hard_failures_and_defers_warnings():
    # check_spec is the one gate of the hard assumptions; a spec it passes
    # computes the whole report of warnings on the first read of validation
    passed = 0
    for spec in _validation_pool():
        try:
            check_spec(spec)
        except SpecError:
            continue
        assert "validation" not in vars(spec)
        assert spec.validation == reference_validation(spec)
        passed += 1
    assert passed
    # both increments 0.3 + 0.2t - 0.3t^2 fall beyond t = 1/3
    t = MonomialSum(terms=((1.0, 1.0),))
    top = MonomialSum(terms=((1.2, 1.0), (-0.3, 2.0)), const=0.3)
    spec = ProblemSpec(2, {1: t, 2: t, 3: top}, {}, TypeDistribution.uniform(0.0, 1.0), 257)
    refusal, failures = reference_monotone_scans(spec)
    assert refusal is None and len(failures) == 2
    assert failures == [f"incremental value {{{b}}} -> {{1,2}} decreases at t=0.332031 "
                        "where it is positive" for b in (1, 2)]
    with pytest.raises(SpecError) as err:
        check_spec(spec)
    assert str(err.value) == "; ".join(failures)


def test_pipeline_evaluates_each_bundle_curve_once(monkeypatch):
    # Full-grid evaluations of v(b, .) per bundle: one, for the value rows on
    # t_grid.  Sales volumes and the chain search read the potential rows
    # built from them and simulate_menu the value rows, so no inverse-demand
    # or virtual surplus table is built.
    calls = {}
    original = MonomialSum.__call__

    def counting(self, t, powers=None):
        if np.ndim(t) == 1 and np.size(t) == 4097:
            calls[id(self)] = calls.get(id(self), 0) + 1
        return original(self, t, powers)

    monkeypatch.setattr(MonomialSum, "__call__", counting)
    spec = load_spec(random_instance_doc(np.random.default_rng(1), 5))
    compute_profiles(spec)
    best_nested_menu(spec)
    for b in spec.nonzero_bundles():
        assert calls[id(spec.values[b])] == 1, format_bundle(b)


def test_check_spec_reads_the_top_type_from_the_value_rows(monkeypatch):
    # efficiency at the top reads the rows' last entries, at t = hi exactly;
    # one-signed instances make no scalar evaluation of a value expression
    points = []
    original = MonomialSum.__call__

    def counting(self, t, powers=None):
        if np.ndim(t) == 0:
            points.append(t)
        return original(self, t, powers)

    monkeypatch.setattr(MonomialSum, "__call__", counting)
    spec = load_spec(random_instance_doc(np.random.default_rng(1), 5))
    assert points == []
    assert spec.t_grid[-1] == spec.dist.hi
    for b in spec.nonzero_bundles():
        assert spec.value_rows[b][-1] == spec.value(b, spec.dist.hi)


def test_profiles_and_menu_evaluate_only_table_grids(monkeypatch):
    # Array evaluations of v(b, .) of any size.  Loading and profiling make
    # exactly the value rows; sales volumes scan the potential rows and the
    # envelope construction reads the surplus rows, both polishing with
    # scalar calls, so the menu solver evaluates v on no grid but the spec's
    # own.
    sizes = {}
    original = MonomialSum.__call__

    def counting(self, t, powers=None):
        if np.ndim(t) >= 1:
            sizes.setdefault(id(self), []).append(np.size(t))
        return original(self, t, powers)

    monkeypatch.setattr(MonomialSum, "__call__", counting)
    spec = load_spec(random_instance_doc(np.random.default_rng(1), 5))
    compute_profiles(spec)
    assert len(spec.nonzero_bundles()) == 31
    for b in spec.nonzero_bundles():
        assert sizes[id(spec.values[b])] == [4097], format_bundle(b)
    assert not {"q_grid", "price_types", "price_rows"} & set(vars(spec))

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
    table_mb = 5 * 512 * 4097 * 8 / 1e6
    assert "512 bundles" in str(err.value)
    assert f"{pairs} subset pairs" in str(err.value)
    assert f"{table_mb:.2f} MB" in str(err.value)
    assert not {"_value_rows", "_price_rows", "_surplus_rows"} & set(vars(spec))


def test_oversized_grid_refused_before_grids():
    # three bundles on two million points need 240 MB of tables: check_spec
    # refuses the spec before its type or quantity grid is allocated
    t = MonomialSum(terms=((1.0, 1.0),))
    spec = ProblemSpec(2, {1: t, 2: t, 3: t}, {}, TypeDistribution.uniform(0.0, 1.0), 2_000_000)
    with pytest.raises(SpecError, match="3 bundles .* 240.00 MB of grid tables"):
        check_spec(spec)
    assert not {"t_grid", "q_grid"} & set(vars(spec))
