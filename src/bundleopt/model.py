"""Problem definition: bundles, valuations, costs, type distribution, validation.

A problem instance is a set of n items (n <= 16), a monomial-sum value
expression per bundle, a production cost per bundle, and a type distribution
on an interval.  Bundles are bitmasks over item indices; item j in the JSON
schema (1-based) is bit j-1.  Bundles without an explicit value expression
are treated as identically zero and ignored by the downstream analysis.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .numerics import count_descents_to_ascents

DEFAULT_GRID_SIZE = 4097
STRICT_TOL = 1e-10  # slack for strictness checks on the validation grid
TOP_SLACK = 1e-9  # slack for the efficiency-at-top comparison


class SpecError(ValueError):
    """Problem file rejected: schema violation or failed model assumption."""


class HazardClampWarning(UserWarning):
    """Non-finite (1-F)/f values were clamped to the nearest interior value."""


# ---------------------------------------------------------------------------
# bundles as bitmasks


def full_mask(n_items: int) -> int:
    return (1 << n_items) - 1


def mask_from_items(items: Iterable[int], n_items: int) -> int:
    """Bitmask for a collection of 1-based item indices."""
    mask = 0
    for j in items:
        if not 1 <= j <= n_items:
            raise SpecError(f"item {j} out of range 1..{n_items}")
        if mask & (1 << (j - 1)):
            raise SpecError(f"item {j} listed twice in bundle")
        mask |= 1 << (j - 1)
    return mask


def items_from_mask(mask: int) -> tuple[int, ...]:
    """1-based item indices contained in a bundle mask, ascending."""
    mask = int(mask)
    return tuple(j + 1 for j in range(mask.bit_length()) if mask & (1 << j))


def is_subset(b1: int, b2: int) -> bool:
    return b1 & ~b2 == 0


def format_bundle(mask: int) -> str:
    if mask == 0:
        return "{}"
    return "{" + ",".join(str(j) for j in items_from_mask(mask)) + "}"


# ---------------------------------------------------------------------------
# value expressions


@dataclass(frozen=True)
class MonomialSum:
    """Sum of coef * t**exp terms plus a constant; exponents must be >= 0."""

    terms: tuple[tuple[float, float], ...]
    const: float = 0.0

    def __post_init__(self):
        for coef, exp in self.terms:
            if exp < 0:
                raise SpecError(f"negative exponent {exp} in value expression")

    def __call__(self, t):
        t_arr = np.asarray(t, dtype=float)
        out = np.full(t_arr.shape, self.const, dtype=float)
        for coef, exp in self.terms:
            out = out + coef * np.power(t_arr, exp)
        return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out

    def slope(self, t):
        """Analytic derivative in t.  Infinite at t=0 for exponents in (0,1)."""
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.zeros(t_arr.shape, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            for coef, exp in self.terms:
                if exp == 0.0:
                    continue
                out = out + coef * exp * np.power(t_arr, exp - 1.0)
        nan = np.isnan(out) & (t_arr == 0.0)
        if np.any(nan):
            # opposite-sign singular terms cancel to nan at zero; the most
            # singular exponent dominates the true limit
            frac = sorted((e, c) for c, e in self.terms if 0.0 < e < 1.0 and c != 0.0)
            lead = sum(c for e, c in frac if e == frac[0][0])
            out[nan] = np.inf * np.sign(lead) if lead != 0.0 else 0.0
        if np.isscalar(t) or np.asarray(t).ndim == 0:
            return float(out[0])
        return out

    def is_zero(self) -> bool:
        return self.const == 0.0 and all(c == 0.0 for c, _ in self.terms)

    def has_fractional_exponent(self) -> bool:
        return any(e != int(e) for _, e in self.terms)

    def to_dict(self) -> dict:
        return {
            "terms": [{"coef": c, "exp": e} for c, e in self.terms],
            "const": self.const,
        }


ZERO_VALUE = MonomialSum(terms=(), const=0.0)


# ---------------------------------------------------------------------------
# type distributions


@dataclass(frozen=True)
class TypeDistribution:
    """Type distribution on [lo, hi]: uniform or a monotone quantile table.

    Quantile tables map probability knots u (0 -> 1, strictly increasing) to
    type knots t (strictly increasing) with linear interpolation; (1-F)/f is
    evaluated as (1-u) * Q'(u) with Q' by centered finite differences of the
    quantile function.
    """

    kind: str  # "uniform" | "quantile_table"
    lo: float
    hi: float
    u_knots: Optional[np.ndarray] = None
    t_knots: Optional[np.ndarray] = None

    @staticmethod
    def uniform(lo: float, hi: float) -> "TypeDistribution":
        if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
            raise SpecError(f"uniform support [{lo}, {hi}] is not a proper interval")
        return TypeDistribution(kind="uniform", lo=float(lo), hi=float(hi))

    @staticmethod
    def quantile_table(u: Sequence[float], t: Sequence[float]) -> "TypeDistribution":
        u_arr = np.asarray(u, dtype=float)
        t_arr = np.asarray(t, dtype=float)
        if u_arr.ndim != 1 or u_arr.shape != t_arr.shape or u_arr.size < 2:
            raise SpecError("quantile table needs matching 1-d u and t arrays")
        if abs(u_arr[0]) > 1e-12 or abs(u_arr[-1] - 1.0) > 1e-12:
            raise SpecError("quantile table u knots must run from 0 to 1")
        if np.any(np.diff(u_arr) <= 0) or np.any(np.diff(t_arr) <= 0):
            raise SpecError("quantile table knots must be strictly increasing")
        u_arr[0], u_arr[-1] = 0.0, 1.0
        return TypeDistribution(
            kind="quantile_table",
            lo=float(t_arr[0]),
            hi=float(t_arr[-1]),
            u_knots=u_arr,
            t_knots=t_arr,
        )

    def cdf(self, t):
        t_arr = np.asarray(t, dtype=float)
        if self.kind == "uniform":
            out = np.clip((t_arr - self.lo) / (self.hi - self.lo), 0.0, 1.0)
        else:
            out = np.interp(t_arr, self.t_knots, self.u_knots)
        return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out

    def quantile(self, u):
        u_arr = np.asarray(u, dtype=float)
        if self.kind == "uniform":
            out = self.lo + np.clip(u_arr, 0.0, 1.0) * (self.hi - self.lo)
        else:
            out = np.interp(u_arr, self.u_knots, self.t_knots)
        return float(out) if np.isscalar(u) or u_arr.ndim == 0 else out

    def pdf(self, t):
        t_arr = np.asarray(t, dtype=float)
        if self.kind == "uniform":
            out = np.full(t_arr.shape, 1.0 / (self.hi - self.lo))
        else:
            out = 1.0 / self._quantile_slope(self.cdf(t_arr))
        return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out

    def _quantile_slope(self, u, delta: float = 1e-6):
        u_arr = np.atleast_1d(np.asarray(u, dtype=float))
        up = np.minimum(u_arr + delta, 1.0)
        dn = np.maximum(u_arr - delta, 0.0)
        return (self.quantile(up) - self.quantile(dn)) / (up - dn)

    def inv_hazard(self, t):
        """(1 - F(t)) / f(t); non-finite values clamped to the nearest interior one."""
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        if self.kind == "uniform":
            out = self.hi - np.clip(t_arr, self.lo, self.hi)
        else:
            u = np.clip(self.cdf(t_arr), 0.0, 1.0)
            out = (1.0 - u) * self._quantile_slope(u)
        bad = ~np.isfinite(out)
        if np.any(bad):
            warnings.warn(
                "clamping non-finite (1-F)/f values near the support boundary",
                HazardClampWarning,
                stacklevel=2,
            )
            good = np.flatnonzero(~bad)
            if good.size == 0:
                raise SpecError("(1-F)/f is non-finite everywhere on the grid")
            idx = np.searchsorted(good, np.flatnonzero(bad))
            idx = np.clip(idx, 0, good.size - 1)
            out[bad] = out[good[idx]]
        return float(out[0]) if np.isscalar(t) or np.asarray(t).ndim == 0 else out

    def to_dict(self) -> dict:
        if self.kind == "uniform":
            return {"kind": "uniform", "lo": self.lo, "hi": self.hi}
        return {
            "kind": "quantile_table",
            "u": list(self.u_knots),
            "t": list(self.t_knots),
        }


# ---------------------------------------------------------------------------
# problem spec


@dataclass(frozen=True)
class ProblemSpec:
    """Validated problem instance; immutable, safe to share across workers."""

    n_items: int
    values: dict  # mask -> MonomialSum (only explicitly specified bundles)
    costs: dict  # mask -> float
    dist: TypeDistribution
    grid_size: int = DEFAULT_GRID_SIZE
    t_grid: np.ndarray = field(init=False, repr=False, compare=False)
    q_grid: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(
            self, "t_grid", np.linspace(self.dist.lo, self.dist.hi, self.grid_size)
        )
        object.__setattr__(self, "q_grid", np.linspace(0.0, 1.0, self.grid_size))

    @property
    def grand_bundle(self) -> int:
        return full_mask(self.n_items)

    def value_expr(self, b: int) -> MonomialSum:
        return self.values.get(b, ZERO_VALUE)

    def value(self, b: int, t):
        return self.value_expr(b)(t)

    def value_slope(self, b: int, t):
        return self.value_expr(b).slope(t)

    def cost(self, b: int) -> float:
        return self.costs.get(b, 0.0)

    def nonzero_bundles(self) -> tuple[int, ...]:
        """Bundles with a non-trivial value expression, ascending by mask."""
        return tuple(sorted(b for b, v in self.values.items() if b != 0 and not v.is_zero()))

    def zero_costs(self) -> bool:
        return all(c == 0.0 for c in self.costs.values())

    def document(self) -> dict:
        """Normalized JSON document equivalent to this spec."""
        return {
            "n_items": self.n_items,
            "distribution": self.dist.to_dict(),
            "values": {
                json.dumps(list(items_from_mask(b))): expr.to_dict()
                for b, expr in sorted(self.values.items())
            },
            "costs": {
                json.dumps(list(items_from_mask(b))): c
                for b, c in sorted(self.costs.items())
            },
            "grid_size": self.grid_size,
        }

    def content_hash(self) -> str:
        blob = json.dumps(self.document(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


# ---------------------------------------------------------------------------
# loading


def _parse_bundle_key(key: str, n_items: int) -> int:
    try:
        items = json.loads(key)
    except json.JSONDecodeError as exc:
        raise SpecError(f"bundle key {key!r} is not a JSON item list") from exc
    if not isinstance(items, list) or not all(isinstance(j, int) for j in items):
        raise SpecError(f"bundle key {key!r} must be a list of item indices")
    if items != sorted(items):
        raise SpecError(f"bundle key {key!r} must list items in ascending order")
    return mask_from_items(items, n_items)


def _parse_expression(obj, label: str) -> MonomialSum:
    """Value expression {"terms": [{"coef", "exp"}, ...], "const"} of ``label``."""
    if not isinstance(obj, dict):
        raise SpecError(f"value for {label} must be an object")
    terms = []
    for term in obj.get("terms", []):
        try:
            terms.append((float(term["coef"]), float(term["exp"])))
        except (KeyError, TypeError, ValueError) as exc:
            raise SpecError(f"malformed term {term!r} for {label}") from exc
    return MonomialSum(terms=tuple(terms), const=float(obj.get("const", 0.0)))


def _parse_distribution(obj) -> TypeDistribution:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise SpecError("distribution must be an object with a 'kind' field")
    if obj["kind"] == "uniform":
        return TypeDistribution.uniform(float(obj["lo"]), float(obj["hi"]))
    if obj["kind"] == "quantile_table":
        return TypeDistribution.quantile_table(obj["u"], obj["t"])
    raise SpecError(f"unknown distribution kind {obj['kind']!r}")


def load_spec(source: Union[str, dict], grid_size: Optional[int] = None) -> ProblemSpec:
    """Load and validate a problem file (path or already-parsed dict).

    Rejects the instance with SpecError when any load-time assumption fails:
    malformed schema, nonzero value for the empty bundle, negative costs,
    values non-monotone in set inclusion or decreasing in type, or a grand
    bundle that is not efficient for the highest type.
    """
    if isinstance(source, dict):
        doc = source
    else:
        with open(source, "r", encoding="utf-8") as fh:
            doc = json.load(fh)

    try:
        n_items = int(doc["n_items"])
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecError("problem file must declare integer n_items") from exc
    if not 1 <= n_items <= 16:
        raise SpecError(f"n_items={n_items} outside supported range 1..16")

    dist = _parse_distribution(doc.get("distribution"))

    values: dict[int, MonomialSum] = {}
    for key, obj in (doc.get("values") or {}).items():
        mask = _parse_bundle_key(key, n_items)
        expr = _parse_expression(obj, f"bundle {key}")
        if mask == 0 and not expr.is_zero():
            raise SpecError("the empty bundle must have identically zero value")
        if mask != 0:
            values[mask] = expr

    costs: dict[int, float] = {}
    for key, c in (doc.get("costs") or {}).items():
        mask = _parse_bundle_key(key, n_items)
        c = float(c)
        if c < 0:
            raise SpecError(f"negative cost {c} for bundle {format_bundle(mask)}")
        if mask == 0 and c != 0.0:
            raise SpecError("the empty bundle must have zero cost")
        if mask != 0:
            costs[mask] = c

    gs = int(grid_size or doc.get("grid_size") or DEFAULT_GRID_SIZE)
    if gs < 33:
        raise SpecError(f"grid_size={gs} too small for reliable validation")

    if dist.lo < 0 and any(v.has_fractional_exponent() for v in values.values()):
        raise SpecError("fractional exponents require a nonnegative type support")

    spec = ProblemSpec(n_items=n_items, values=values, costs=costs, dist=dist, grid_size=gs)
    _check_load_time(spec)
    report = validate_assumptions(spec)
    if report.hard_failures:
        raise SpecError("; ".join(report.hard_failures))
    return spec


def _check_load_time(spec: ProblemSpec) -> None:
    t = spec.t_grid
    bundles = spec.nonzero_bundles()

    # values may dip negative (e.g. net values of damaged goods); such types
    # simply never buy, so only monotonicity-where-positive is enforced
    for b in bundles:
        v = spec.value(b, t)
        if not np.all(np.isfinite(v)):
            raise SpecError(f"value of {format_bundle(b)} is non-finite on the grid")
        pos = v[:-1] > STRICT_TOL
        drop = np.flatnonzero(pos & (np.diff(v) < -STRICT_TOL))
        if drop.size:
            raise SpecError(
                f"value of {format_bundle(b)} decreases in t at t={t[drop[0]]:.6g} "
                "where it is positive"
            )

    # monotone in set inclusion; pairs with an omitted (zero) superset are the
    # ignore convention and are skipped
    for b2 in bundles:
        v2 = spec.value(b2, t)
        for b1 in bundles:
            if b1 == b2 or not is_subset(b1, b2):
                continue
            v1 = spec.value(b1, t)
            bad = np.flatnonzero(v1 > v2 + STRICT_TOL)
            if bad.size:
                raise SpecError(
                    f"monotonicity violation: value of {format_bundle(b1)} exceeds "
                    f"value of {format_bundle(b2)} at t={t[bad[0]]:.6g}"
                )

    t_top = spec.dist.hi
    grand = spec.grand_bundle
    top_surplus = spec.value(grand, t_top) - spec.cost(grand)
    if grand not in spec.values or spec.value_expr(grand).is_zero():
        raise SpecError("the grand bundle must carry a nonzero value expression")
    if top_surplus < -TOP_SLACK:
        raise SpecError(
            "efficiency-at-top failure: the grand bundle has negative surplus "
            f"{top_surplus:.6g} at the top type"
        )
    for b in bundles:
        surplus = spec.value(b, t_top) - spec.cost(b)
        if surplus > top_surplus + TOP_SLACK:
            raise SpecError(
                f"efficiency-at-top failure: bundle {format_bundle(b)} has surplus "
                f"{surplus:.6g} > {top_surplus:.6g} of the grand bundle at the top type"
            )


# ---------------------------------------------------------------------------
# assumption validation


@dataclass
class ValidationReport:
    """Outcome of the grid checks on quasi-concavity and incremental values."""

    hard_failures: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    checked_bundles: int = 0
    checked_pairs: int = 0

    @property
    def ok(self) -> bool:
        return not self.hard_failures

    @property
    def clean(self) -> bool:
        return not self.hard_failures and not self.warnings


def _profit_on_grid(spec: ProblemSpec, b: int) -> np.ndarray:
    t = spec.dist.quantile(1.0 - spec.q_grid)
    return (spec.value(b, t) - spec.cost(b)) * spec.q_grid


def validate_assumptions(spec: ProblemSpec) -> ValidationReport:
    """Grid checks: monotone incremental values (hard), single-peaked profit
    and incremental profit curves (warnings only, so near-degenerate cases
    remain explorable)."""
    report = ValidationReport()
    bundles = spec.nonzero_bundles()
    t = spec.t_grid

    profits = {}
    d_star_idx = {}
    for b in bundles:
        pi = _profit_on_grid(spec, b)
        profits[b] = pi
        d_star_idx[b] = int(np.argmax(pi))
        report.checked_bundles += 1
        if count_descents_to_ascents(pi) > 0:
            report.warnings.append(
                f"profit curve of {format_bundle(b)} has multiple peaks on [0,1]"
            )

    for b2 in bundles:
        v2 = spec.value(b2, t)
        for b1 in bundles:
            if b1 == b2 or not is_subset(b1, b2):
                continue
            report.checked_pairs += 1
            inc = v2 - spec.value(b1, t)
            pos = inc[:-1] > STRICT_TOL
            d_inc = np.diff(inc)
            bad = np.flatnonzero(pos & (d_inc < -STRICT_TOL))
            if bad.size:
                report.hard_failures.append(
                    f"incremental value {format_bundle(b1)} -> {format_bundle(b2)} "
                    f"decreases at t={t[bad[0]]:.6g} where it is positive"
                )
            elif np.any(pos & (np.abs(d_inc) <= STRICT_TOL)):
                report.warnings.append(
                    f"incremental value {format_bundle(b1)} -> {format_bundle(b2)} "
                    "is locally flat where positive"
                )
            k = min(d_star_idx[b1], d_star_idx[b2])
            if k >= 2:
                inc_profit = profits[b2][: k + 1] - profits[b1][: k + 1]
                if count_descents_to_ascents(inc_profit) > 0:
                    report.warnings.append(
                        f"incremental profit {format_bundle(b1)} -> {format_bundle(b2)} "
                        "has multiple peaks before both sales volumes"
                    )
    return report
