"""Shared numeric primitives: scanned maximization, root polishing, peak counting."""

import numpy as np
import pytest

from bundleopt.numerics import (
    MultiplePeaksWarning,
    bracketed_max,
    count_descents_to_ascents,
    golden_max,
    rising_root,
)


def test_golden_max_quadratic():
    assert golden_max(lambda x: -(x - 0.3) ** 2, 0.0, 1.0, tol=1e-12) == pytest.approx(
        0.3, abs=1e-8
    )


def test_bracketed_max_without_slope():
    x = bracketed_max(lambda q: q * (1 - q), 0.0, 1.0)
    assert x == pytest.approx(0.5, abs=1e-8)


def test_bracketed_max_with_slope_polish():
    x = bracketed_max(
        lambda q: q * (1 - q) ** 0.5,
        0.0,
        1.0,
        slope=lambda q: (1 - q) ** 0.5 - 0.5 * q / max(1 - q, 1e-300) ** 0.5,
    )
    assert x == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_bracketed_max_boundary():
    assert bracketed_max(lambda q: q, 0.0, 1.0) == pytest.approx(1.0, abs=1e-8)
    assert bracketed_max(lambda q: -q, 0.0, 1.0) == pytest.approx(0.0, abs=1e-8)


def test_bracketed_max_warns_on_plateau():
    with pytest.warns(MultiplePeaksWarning):
        x = bracketed_max(np.sin, 0.0, 6.0 * np.pi, coarse=601)
    # two full humps tie at +1: the smaller argument wins
    assert x == pytest.approx(np.pi / 2, abs=0.05)


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


def _turns_by_loop(y, noise):
    steps = [int(np.sign(d)) for d in np.diff(y) if abs(d) > noise]
    return sum(1 for a, b in zip(steps, steps[1:]) if a == -1 and b == 1)


def test_count_turns():
    q = np.linspace(0, 1, 101)
    assert count_descents_to_ascents(q * (1 - q)) == 0
    assert count_descents_to_ascents(np.sin(q * 4 * np.pi)) == 2
    assert count_descents_to_ascents(np.ones(50)) == 0
    rng = np.random.default_rng(7)
    for _ in range(20):
        y = np.round(rng.normal(size=int(rng.integers(0, 40))), 1)
        assert count_descents_to_ascents(y, noise=0.05) == _turns_by_loop(y, 0.05)
