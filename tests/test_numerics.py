"""Shared numeric primitives: scanned maximization, root polishing, switch points,
the chain DP, peak counting."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.optimize import brentq

from bundleopt import load_spec
from bundleopt.menu import _priced_potentials
from bundleopt.model import SpecError
from bundleopt.numerics import (
    MultiplePeaksWarning,
    chain_dp,
    count_descents_to_ascents,
    rising_root,
    scanned_max,
    switch_points,
)
from bundleopt.oracle import (
    DiscretizedInstance,
    best_nested_discrete,
    discrete_chain_profit,
)

from support import (
    iter_chains,
    random_instance_doc,
    reference_chain_dp,
    reference_chain_terms,
    reference_discrete_terms,
    turns_by_loop,
)


def _scan(f, slope, lo=0.0, hi=1.0, n=1001):
    xs = np.linspace(lo, hi, n)
    return scanned_max(f, xs, f(xs), slope)


def test_bracketed_max_with_slope_polish():
    x = _scan(
        lambda q: q * (1 - q) ** 0.5,
        lambda q: (1 - q) ** 0.5 - 0.5 * q / max(1 - q, 1e-300) ** 0.5,
    )
    assert x == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_bracketed_max_boundary():
    # no stationary point inside the end cell: the grid end itself
    assert _scan(lambda q: q, lambda q: 1.0) == 1.0
    assert _scan(lambda q: -q, lambda q: -1.0) == 0.0


def test_scanned_max_keeps_grid_point_when_root_is_worse():
    # a slope whose root lowers f by more than 1e-12 is not taken
    x = _scan(lambda q: -((q - 0.5) ** 2), lambda q: -2.0 * (q - 0.55), n=11)
    assert x == 0.5


def test_bracketed_max_warns_on_plateau():
    with pytest.warns(MultiplePeaksWarning):
        x = _scan(np.sin, np.cos, 0.0, 6.0 * np.pi, n=601)
    # two full humps tie at +1: the smaller argument wins
    assert x == pytest.approx(np.pi / 2, abs=1e-12)


def test_rising_root_interior():
    r = rising_root(lambda x: x**3 - 0.2, 0.0, 1.0)
    assert r == pytest.approx(0.2 ** (1.0 / 3.0), abs=1e-12)


def test_rising_root_at_bracket_ends():
    assert rising_root(lambda x: x - 0.25, 0.25, 1.0) == 0.25
    assert rising_root(lambda x: x - 1.0, 0.25, 1.0) == 1.0
    # no rise through zero inside the bracket: clamped to the end it lies beyond
    assert rising_root(lambda x: x + 1.0, 0.0, 1.0) == 0.0
    assert rising_root(lambda x: x - 2.0, 0.0, 1.0) == 1.0
    assert rising_root(lambda x: 0.5 - x, 0.0, 1.0) == 0.0


def test_rising_root_nonfinite_end():
    # an infinite end value still brackets the root
    r = rising_root(lambda x: np.log(x) if x > 0.0 else -np.inf, 0.0, 2.0)
    assert r == pytest.approx(1.0, abs=1e-12)
    # a NaN end value leaves the sign change undecided
    assert rising_root(lambda x: x - 0.5 if x < 1.0 else np.nan, 0.0, 1.0) is None
    assert rising_root(lambda x: np.nan if x == 0.0 else x - 0.5, 0.0, 1.0) is None


_BRENT_CASES = {  # g rising through zero strictly inside [lo, hi]
    "cubic": (lambda x: x**3 - 0.2, 0.0, 1.0),
    "exp": (lambda x: math.exp(x) - 2.0, 0.0, 1.0),
    "x-exp-x": (lambda x: x * math.exp(x) - 1.0, 0.0, 1.0),
    "steep-tanh": (lambda x: math.tanh(20.0 * (x - 0.37)), 0.0, 1.0),
    "numpy-sqrt": (lambda x: np.sqrt(np.float64(x)) - 0.3, 0.0, 1.0),
    "exact-secant": (lambda x: x - 0.5, 0.0, 1.0),
    "kink-at-root": (lambda x: max(x - 0.4, 3.0 * (x - 0.4)), 0.0, 1.0),
    "kink-below-root": (lambda x: 2.0 * (x - 0.5) + abs(x - 0.45), 0.0, 1.0),
    "flat-both-ends": (lambda x: min(max(x - 0.3, -0.05), 0.05), 0.0, 1.0),
    "flat-then-rise": (lambda x: max(x - 0.5, 0.0) ** 2 - 0.01, 0.0, 1.0),
    "jump-below-root": (lambda x: -1.0 if x < 0.2 else x - 0.7, 0.0, 1.0),
    "near-lo": (lambda x: x - 1e-13, 0.0, 1.0),
    "near-hi": (lambda x: x - (1.0 - 1e-13), 0.0, 1.0),
    "near-lo-of-cell": (lambda x: x * x - (0.5 + 1e-12) ** 2, 0.5, 0.5 + 2.0**-10),
    "near-hi-of-cell": (lambda x: math.log(x / (0.75 - 3e-15)), 0.75 - 2.0**-12, 0.75),
}


@pytest.mark.parametrize("name", sorted(_BRENT_CASES))
def test_rising_root_equals_scipy_brentq(name):
    # the Brent iteration is a port of scipy's brentq: the same root to the
    # last bit, from the same steps (brentq's evaluations, ends included)
    g, lo, hi = _BRENT_CASES[name]
    calls = []
    r = rising_root(lambda x: calls.append(x) or g(x), lo, hi)
    ref, info = brentq(g, lo, hi, xtol=1e-14, full_output=True)
    assert lo < r < hi
    assert r == ref
    assert len(calls) == info.function_calls


def test_rising_root_fails_as_brentq_does():
    # NaN met inside the bracket stops the iteration
    g = lambda x: x - 0.5 if abs(x - 0.5) > 0.1 else np.nan
    with pytest.raises(ValueError, match="NaN"):
        rising_root(g, 0.0, 1.0)
    with pytest.raises(ValueError):
        brentq(g, 0.0, 1.0, xtol=1e-14)
    # a triple root is too flat to reach within 1e-14 in 100 steps
    g = lambda x: (x - 0.3) ** 3
    with pytest.raises(RuntimeError):
        rising_root(g, 0.0, 1.0)
    with pytest.raises(RuntimeError):
        brentq(g, 0.0, 1.0, xtol=1e-14)


def test_switch_points_ties_and_undecided_cells():
    xs = np.linspace(0.0, 1.0, 9)  # dyadic: the tie at 0.25 is exact on the grid
    curves = [lambda x: 0.0 * x, lambda x: x - 0.25, lambda x: 2.0 * x - 1.2]
    rows = np.stack([f(xs) for f in curves])

    def gap(a, b):
        return lambda x: curves[b](x) - curves[a](x)

    pick, points = switch_points(rows, xs, gap)
    # row 1 ties row 0 at 0.25, where the first row keeps the point
    assert pick.tolist() == [0, 0, 0, 1, 1, 1, 1, 1, 2]
    assert points[0] == (2, 0.25)
    assert points[1][0] == 7 and points[1][1] == pytest.approx(0.95, abs=1e-14)

    def undecided(a, b):
        return lambda x: np.nan if x == 1.0 else gap(a, b)(x)

    assert switch_points(rows, xs, undecided)[1] == [(2, 0.25), (7, 1.0)]


def test_switch_points_lie_in_their_cells():
    rng = np.random.default_rng(5)
    xs = np.linspace(0.0, 3.0, 61)
    for _ in range(20):
        w, phase = rng.uniform(0.5, 4.0, 4), rng.uniform(0.0, 2 * np.pi, 4)
        rows = np.sin(np.outer(w, xs) + phase[:, None])

        def gap(a, b, w=w, phase=phase):
            return lambda x: np.sin(w[b] * x + phase[b]) - np.sin(w[a] * x + phase[a])

        pick, points = switch_points(rows, xs, gap)
        assert np.array_equal(pick, np.argmax(rows, axis=0))
        assert [k for k, _p in points] == np.flatnonzero(np.diff(pick)).tolist()
        assert all(xs[k] <= p <= xs[k + 1] for k, p in points)
        assert all(p1 <= p2 for (_k1, p1), (_k2, p2) in zip(points, points[1:]))


def _chain_dp_pool():
    """Seeded 2-6 item specs at grid 1025: with and without costs, a quantile
    table, a constant in every value (the bottom type can buy at a positive
    price), and one with only the single items and the grand bundle."""
    u = np.linspace(0.0, 1.0, 65)
    table = {"kind": "quantile_table", "u": u.tolist(), "t": (0.5 * (u + u**2)).tolist()}
    for n in range(2, 7):
        for seed in range(2):
            rng = np.random.default_rng(10 * n + seed)
            doc = random_instance_doc(rng, n, allow_costs=seed == 0, grid_size=1025)
            yield load_spec(doc)
            if n == 3:
                yield load_spec({**doc, "distribution": table})
                shifted = {k: {**v, "const": 0.05} for k, v in doc["values"].items()}
                yield load_spec({**doc, "values": shifted})
            if n == 6 and seed == 0:
                keep = {str([j]) for j in range(1, n + 1)} | {str(list(range(1, n + 1)))}
                sparse = {k: v for k, v in doc["values"].items() if k in keep}
                yield load_spec({**doc, "values": sparse})


def _same_chain(got, want):
    assert got[1] == want[1]
    assert abs(got[0] - want[0]) <= 4 * math.ulp(want[0])


def test_chain_dp_matches_pairwise_reference():
    # the same path as the pairwise DP it replaced, and its value within 4 ulps,
    # on the continuum grid and on m = 51 and 201 discrete types
    quantile = sparse = 0
    for spec in _chain_dp_pool():
        bundles = spec.nonzero_bundles()
        quantile += spec.dist.kind == "quantile_table"
        sparse += 1 << spec.n_items > 2 * len(bundles)
        psi = _priced_potentials(spec, bundles)
        for b in bundles:  # -inf exactly at a nonpositive price
            assert np.array_equal(np.isneginf(psi[b]), spec.value_rows[b] <= 0.0)
        value, path = chain_dp(psi, bundles)
        assert all(k1 < k2 for (_b1, k1), (_b2, k2) in zip(path, path[1:]))
        want = reference_chain_dp(reference_chain_terms(spec, bundles), bundles)
        _same_chain((value, path), want)
        if spec.n_items <= 3:
            for chain in map(list, iter_chains(bundles)):
                _same_chain(
                    chain_dp(_priced_potentials(spec, chain), chain, fixed=True),
                    reference_chain_dp(reference_chain_terms(spec, chain), chain, fixed=True),
                )
        for m in (51, 201):
            inst = DiscretizedInstance.from_spec(spec, m)
            _same_chain(
                chain_dp(dict(zip(inst.sellable, inst.potentials)), bundles),
                reference_chain_dp(reference_discrete_terms(inst), bundles),
            )
    assert quantile and sparse


def test_chain_dp_ties_match_pairwise_reference():
    # small-integer potentials make ties exact: the same path and value as the
    # pairwise DP, whose steps earn Psi_b - Psi_p where both are finite
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(1, 4))
        masks = [b for b in range(1, 1 << n) if rng.random() < 0.8] or [1]
        width = int(rng.integers(1, 7))
        psi = {b: rng.integers(-1, 3, width).astype(float) for b in masks}
        for row in psi.values():
            row[rng.random(width) < 0.15] = -np.inf

        def term(p, b):
            below = psi[p] if p else np.zeros(width)
            out = np.full(width, -np.inf)
            both = np.isfinite(psi[b]) & np.isfinite(below)
            out[both] = psi[b][both] - below[both]
            return out

        assert chain_dp(psi, masks) == reference_chain_dp(term, masks)
        prefixes = np.cumsum([1 << int(j) for j in rng.permutation(n)])
        chain = [int(b) for b in prefixes if b in psi]
        if chain:
            assert chain_dp(psi, chain, fixed=True) == reference_chain_dp(term, chain, fixed=True)


@settings(max_examples=25)
@given(
    seed=st.integers(0, 2**16),
    n_items=st.integers(2, 4),
    grid_size=st.sampled_from([65, 257]),
    m=st.sampled_from([11, 31]),
)
def test_lattice_dp_optimum_is_best_enumerated_chain(seed, n_items, grid_size, m):
    try:
        doc = random_instance_doc(np.random.default_rng(seed), n_items, grid_size=grid_size)
        spec = load_spec(doc)
    except SpecError:
        assume(False)
    bundles = spec.nonzero_bundles()
    chains = [list(c) for c in iter_chains(bundles)]
    psi = _priced_potentials(spec, bundles)
    value, path = chain_dp(psi, bundles)
    best = max(chain_dp(psi, chain, fixed=True)[0] for chain in chains)
    assert value == pytest.approx(best, rel=1e-13, abs=1e-13)
    assert chain_dp(psi, [b for b, _k in path], fixed=True)[0] == pytest.approx(value, rel=1e-13)

    inst = DiscretizedInstance.from_spec(spec, m)
    profit, chain = best_nested_discrete(inst)
    assert profit == max(discrete_chain_profit(inst, c) for c in chains)
    assert discrete_chain_profit(inst, chain) == profit


def test_count_turns():
    q = np.linspace(0, 1, 101)
    assert count_descents_to_ascents(q * (1 - q)) == 0
    assert count_descents_to_ascents(np.sin(q * 4 * np.pi)) == 2
    assert count_descents_to_ascents(np.ones(50)) == 0
    rng = np.random.default_rng(7)
    for _ in range(20):
        y = np.round(rng.normal(size=int(rng.integers(0, 40))), 1)
        assert count_descents_to_ascents(y, noise=0.05) == turns_by_loop(y, 0.05)
        assert count_descents_to_ascents(y) == turns_by_loop(y)
        with np.errstate(invalid="ignore"):
            for bad in (np.nan, np.inf, -np.inf):
                z = np.where(rng.random(y.size) < 0.2, bad, y)
                assert count_descents_to_ascents(z) == turns_by_loop(z)
                assert count_descents_to_ascents(z, noise=0.05) == turns_by_loop(z, 0.05)
