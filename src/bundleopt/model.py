"""Problem definition: bundles, valuations, costs, type distribution, validation.

A problem instance is a set of n items, a monomial-sum value expression per
bundle, a production cost per bundle, and a type distribution on an
interval.  Bundles are bitmasks over item indices; item j in the JSON schema
(1-based) is bit j-1.  Bundles without an explicit value expression are
treated as identically zero and ignored by the downstream analysis.  Each
spec evaluates a bundle's curves on its grids once, into read-only tables
whose size is bounded before the first is built; n <= 16 bounds the LP
oracle, which evaluates all 2^n masks.  ``check_spec`` is the one gate of a
spec, whether ``load_spec`` parsed it or a program built it directly.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import numbers
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .numerics import any_true, count_descents_to_ascents, rising_root

DEFAULT_GRID_SIZE = 4097
MIN_GRID_SIZE = 33  # fewest grid points the validation checks are reliable on
STRICT_TOL = 1e-10  # slack for strictness checks on the validation grid
TOP_SLACK = 1e-9  # slack for the efficiency-at-top comparison
# Size limits: every bundle of 9 items at the default grid.  On a 2-vCPU
# host that spec loads, profiles and finds its best nested menu in about
# 0.75 s and 210 MB peak; one more item takes about 1.6 s and 340 MB.
MAX_BUNDLES = 511
MAX_SUBSET_PAIRS = 18_660  # 3^9 - 2^10 + 1 proper-subset pairs
MAX_TABLE_BYTES = 5 * MAX_BUNDLES * DEFAULT_GRID_SIZE * 8  # five float64 tables


class SpecError(ValueError):
    """Problem file rejected: schema violation or failed model assumption."""


class HazardClampWarning(UserWarning):
    """Non-finite (1-F)/f values were clamped to the nearest interior value."""


def _number_or_array(out, t):
    """``out`` as a Python float when ``t`` is one number, else as an array of t's
    shape.  A point runs the ufunc loops of a grid on the float itself, so it
    agrees bit for bit with the grid entry at it."""
    if isinstance(t, float) or np.ndim(t) == 0:
        return float(out)
    return out if isinstance(out, np.ndarray) else np.full(np.shape(t), out)


def _clip(x, lo, hi):
    """``np.minimum(hi, np.maximum(lo, x))``, on a float by comparisons with the same
    answers: NaN passes, and x wins a tie, so -0.0 stays -0.0 against 0.0."""
    if isinstance(x, float):
        return lo if lo > x else (hi if hi < x else x)
    return np.minimum(hi, np.maximum(lo, x))


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


def subset_pairs(bundles: Sequence[int]) -> list[tuple[int, int]]:
    """(b1, b2) of ``bundles`` with b1 a proper subset of b2, superset-major and
    subsets in the order of ``bundles``.  Each superset walks its submasks, or
    scans ``bundles`` when they are fewer."""
    rank = {b: k for k, b in enumerate(bundles)}
    pairs = []
    for b2 in bundles:
        if 1 << bin(b2).count("1") > len(rank):
            pairs += [(b1, b2) for b1 in bundles if b1 != b2 and b1 & ~b2 == 0]
            continue
        subs, s = [], b2
        while s:  # every proper submask of b2, descending to 0
            s = (s - 1) & b2
            if s in rank:
                subs.append(rank[s])
        subs.sort()
        pairs += [(bundles[k], b2) for k in subs]
    return pairs


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

    def __call__(self, t, powers: Optional["Powers"] = None):
        """The value at t; ``powers``, when given, is the memo bound to the grid t."""
        out = self.const
        for coef, exp in self.terms:
            out = out + coef * (np.power(t, exp) if powers is None else powers[exp])
        return _number_or_array(out, t)

    def slope(self, t, powers: Optional["Powers"] = None):
        """Analytic derivative in t, with its limit at t=0 (``_slope_at_zero``); a
        power can be non-finite only where t <= 0 meets a fractional exponent."""
        if isinstance(t, float) and t > 0.0:
            return float(self._slope_terms(t, powers))
        quiet = any_true(t <= 0.0) and self.has_fractional_exponent()
        with np.errstate(divide="ignore", invalid="ignore") if quiet else contextlib.nullcontext():
            out = self._slope_terms(t, powers)
        nan = quiet and np.isnan(out) & (t == 0.0)
        if any_true(nan):
            out = np.where(nan, self._slope_at_zero(), out)
        return _number_or_array(out, t)

    def _slope_terms(self, t, powers):
        out = 0.0
        for coef, exp in self.terms:
            if exp != 0.0:
                power = np.power(t, exp - 1.0) if powers is None else powers[exp - 1.0]
                out = out + coef * exp * power
        return out

    def _slope_at_zero(self) -> float:
        """The slope's limit as t -> 0+: the sign of the most singular exponent in
        (0, 1) whose coefficients do not cancel, times inf; the finite slopes' sum
        when all of them cancel.  Terms with a zero coefficient have no say."""
        lead: dict[float, float] = {}
        for e, c in sorted((e, c) for c, e in self.terms if 0.0 < e < 1.0 and c != 0.0):
            lead[e] = lead.get(e, 0.0) + c
        for total in lead.values():
            if total != 0.0:
                return math.copysign(math.inf, total)
        return float(sum(c for c, e in self.terms if e == 1.0))

    def __sub__(self, other: "MonomialSum") -> "MonomialSum":
        """This expression minus ``other``, term for term."""
        negated = tuple((-c, e) for c, e in other.terms)
        return MonomialSum(self.terms + negated, self.const - other.const)

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


class Powers(dict):
    """``grid ** exp`` by exponent, each raised once: the memo of the one grid array
    it is made for, which lives while one table is built."""

    def __init__(self, grid: np.ndarray):
        super().__init__()
        self.grid = grid

    def __missing__(self, exp):
        self[exp] = power = np.power(self.grid, exp)
        return power


# ---------------------------------------------------------------------------
# type distributions


@dataclass(frozen=True)
class TypeDistribution:
    """Type distribution on [lo, hi]: uniform or a monotone quantile table.

    Quantile tables map probability knots u (0 -> 1, strictly increasing) to
    type knots t (strictly increasing) with linear interpolation.  (1-F)/f =
    (1-u) * Q'(u) reads the exact ``quantile_slope`` Q', the reciprocal density.
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
        if self.kind == "uniform":
            out = _clip((t - self.lo) / (self.hi - self.lo), 0.0, 1.0)
        else:
            out = np.interp(t, self.t_knots, self.u_knots)
        return _number_or_array(out, t)

    def quantile(self, u):
        if self.kind == "uniform":
            out = self.lo + _clip(u, 0.0, 1.0) * (self.hi - self.lo)
        else:
            out = np.interp(u, self.u_knots, self.t_knots)
        return _number_or_array(out, u)

    def quantile_slope(self, u):
        """Q'(u): hi - lo if uniform, else the slope of the table segment holding u;
        at a knot the one above it (the right derivative, so the density is
        right-continuous in t), the last one at u >= 1 and the first at u <= 0."""
        if self.kind == "uniform":
            out = self.hi - self.lo
        else:
            k = np.clip(np.searchsorted(self.u_knots, u, side="right") - 1, 0, self.u_knots.size - 2)
            out = (np.diff(self.t_knots) / np.diff(self.u_knots))[k]
        return _number_or_array(out, u)

    def inv_hazard(self, t):
        """(1 - F(t)) / f(t); non-finite values clamped to the nearest interior one."""
        if self.kind == "uniform":
            out = self.hi - _clip(t, self.lo, self.hi)
        else:
            u = self.cdf(t)  # np.interp keeps it in [0, 1]
            out = (1.0 - u) * self.quantile_slope(u)
        if isinstance(out, float) and math.isfinite(out):
            return float(out)
        bad = ~np.isfinite(out)
        if any_true(bad):
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
        return _number_or_array(out, t)

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
    """Problem instance, validated by ``check_spec``; immutable, safe to share across workers."""

    n_items: int
    values: dict  # mask -> MonomialSum (only explicitly specified bundles)
    costs: dict  # mask -> float
    dist: TypeDistribution
    grid_size: int = DEFAULT_GRID_SIZE

    # built on first read, once ``_table_bundles`` has bounded the tables on them
    @cached_property
    def t_grid(self) -> np.ndarray:
        self._table_bundles
        return np.linspace(self.dist.lo, self.dist.hi, self.grid_size)

    @cached_property
    def q_grid(self) -> np.ndarray:
        self._table_bundles
        return np.linspace(0.0, 1.0, self.grid_size)

    @property
    def grand_bundle(self) -> int:
        return full_mask(self.n_items)

    def value_expr(self, b: int) -> MonomialSum:
        return self.values.get(b, ZERO_VALUE)

    def value(self, b: int, t, powers: Optional["Powers"] = None):
        return self.value_expr(b)(t, powers)

    def cost(self, b: int) -> float:
        return self.costs.get(b, 0.0)

    def price_slope(self, b: int, q):
        """dP/dq of the inverse demand at the quantity or quantities q: P(q) =
        v_b(Q(1-q)), so -v_b'(t) Q'(1-q) at t = Q(1-q), the left derivative in q at
        a quantile-table knot (``quantile_slope``); equal to ``slope_rows``."""
        u = 1.0 - q
        return -self.value_expr(b).slope(self.dist.quantile(u)) * self.dist.quantile_slope(u)

    def virtual_surplus(self, b: int, t, powers: Optional["Powers"] = None, inv_hazard=None):
        """v(b,t) - C(b) - (1-F(t))/f(t) * v_t(b,t).

        The marginal profit of selling bundle b alone at the quantity whose
        marginal consumer has type t.  May be -inf at the bottom of the support
        when the value has a fractional-exponent term there.  A table passes
        the memo of its grid t and (1-F)/f there, which it computes once.
        """
        expr = self.value_expr(b)
        if inv_hazard is None:
            inv_hazard = self.dist.inv_hazard(t)
        return expr(t, powers) - self.cost(b) - inv_hazard * expr.slope(t, powers)

    def potential(self, b: int, t):
        """Psi_b(t) = (v(b, t) - C(b)) * (1 - F(t)), the profit of selling b alone to
        the types above t; -dPsi_b/dt = f * virtual surplus (Myerson 1981)."""
        return (self.value(b, t) - self.cost(b)) * (1.0 - self.dist.cdf(t))

    def nonzero_bundles(self) -> tuple[int, ...]:
        """Bundles with a non-trivial value expression, ascending by mask."""
        return tuple(sorted(b for b, v in self.values.items() if b != 0 and not v.is_zero()))

    # grid tables, one read-only row per nonzero bundle, built on first read;
    # each raises every distinct exponent on its grid once, through a Powers memo
    @cached_property
    def value_rows(self) -> "GridRows":
        """v(b, t) on ``t_grid``."""
        powers = Powers(self.t_grid)
        return self._table(lambda b: self.value(b, powers.grid, powers))

    @cached_property
    def price_types(self) -> np.ndarray:
        """The marginal type Q(1-q) at each quantity of ``q_grid``."""
        return self.dist.quantile(1.0 - self.q_grid)

    @cached_property
    def price_rows(self) -> "GridRows":
        """Inverse demand v(b, Q(1-q)) on ``q_grid``, read by elasticities and ``analyze``."""
        powers = Powers(self.price_types)
        return self._table(lambda b: self.value(b, powers.grid, powers))

    @cached_property
    def potential_rows(self) -> "GridRows":
        """``potential`` on ``t_grid``, from the value rows and one row of 1 - F."""
        survive = 1.0 - self.dist.cdf(self.t_grid)
        return self._table(lambda b: (self.value_rows[b] - self.cost(b)) * survive)

    @cached_property
    def surplus_rows(self) -> "GridRows":
        """Virtual surplus on ``t_grid``."""
        powers = Powers(self.t_grid)
        inv_hazard = self.dist.inv_hazard(powers.grid)
        return self._table(lambda b: self.virtual_surplus(b, powers.grid, powers, inv_hazard))

    @cached_property
    def slope_rows(self) -> "GridRows":
        """``price_slope`` on ``q_grid``: a fifth table, built only by elasticities,
        from the powers e - 1 of ``price_types`` and one Q'(1-q) row."""
        powers = Powers(self.price_types)
        dq = self.dist.quantile_slope(1.0 - self.q_grid)
        return self._table(lambda b: -self.value_expr(b).slope(powers.grid, powers) * dq)

    @cached_property
    def _table_bundles(self) -> tuple[int, ...]:
        """Bundles with a table row; once per spec, before any grid exists, a SpecError
        states their count, proper-subset pairs (a sum over subsets of the 2^n masks)
        and table size if one exceeds its limit."""
        bundles = list(self.nonzero_bundles())
        below = np.zeros(1 << self.n_items, dtype=np.int64)
        below[bundles] = 1
        for i in range(self.n_items):
            halves = below.reshape(-1, 2, 1 << i)
            halves[:, 1, :] += halves[:, 0, :]
        pairs = int(below[bundles].sum()) - len(bundles)
        table_bytes = 5 * len(bundles) * self.grid_size * 8
        if len(bundles) > MAX_BUNDLES or pairs > MAX_SUBSET_PAIRS or table_bytes > MAX_TABLE_BYTES:
            raise SpecError(
                f"spec too large: {len(bundles)} bundles (limit {MAX_BUNDLES}), "
                f"{pairs} subset pairs (limit {MAX_SUBSET_PAIRS}), "
                f"{table_bytes / 1e6:.2f} MB of grid tables (limit {MAX_TABLE_BYTES / 1e6:.2f} MB)"
            )
        return tuple(bundles)

    def _table(self, curve) -> "GridRows":
        rows = GridRows((b, curve(b)) for b in self._table_bundles)
        for row in rows.values():
            row.setflags(write=False)
        return rows

    @cached_property
    def validation(self) -> "ValidationReport":
        """``validate_assumptions`` of this spec, run on the first read."""
        return validate_assumptions(self)

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


class GridRows(dict):
    """Grid rows by bundle mask; a bundle without a value expression has none."""

    def __missing__(self, b):
        raise ValueError(f"bundle {format_bundle(b)} has no value expression")


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
    const = _number(obj.get("const", 0.0), f"const of {label}")
    return MonomialSum(terms=tuple(terms), const=const)


def _field(obj: dict, key: str, label: str):
    """``obj[key]``, or a SpecError naming the key missing from ``label``."""
    if key not in obj:
        raise SpecError(f"{label} is missing the {key!r} field")
    return obj[key]


def read_document(source: Union[str, dict]) -> dict:
    """The JSON object in the file ``source`` names, or ``source`` if already parsed."""
    if isinstance(source, dict):
        return source
    with open(source, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SpecError(f"problem file is not valid JSON: {exc}") from exc
    return _object(doc, "problem file")


# typed fields: a SpecError naming ``label`` when the JSON value has another type
def _object(x, label: str) -> dict:
    if not isinstance(x, dict):
        raise SpecError(f"{label} must be an object, not {type(x).__name__}")
    return x


def _is_number(x) -> bool:
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _number(x, label: str) -> float:
    if not _is_number(x):
        raise SpecError(f"{label} must be a number, not {x!r}")
    return float(x)


def _numbers(x, label: str) -> list[float]:
    if not isinstance(x, (list, tuple)):
        raise SpecError(f"{label} must be a list of numbers, not {type(x).__name__}")
    return [_number(v, f"entry {k} of {label}") for k, v in enumerate(x)]


def _integer(x, label: str) -> int:
    if not isinstance(x, numbers.Integral) or isinstance(x, bool):
        raise SpecError(f"{label} must be an integer, not {x!r}")
    return int(x)


def _parse_distribution(obj) -> TypeDistribution:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise SpecError("distribution must be an object with a 'kind' field")
    if obj["kind"] == "uniform":
        lo, hi = (
            _number(_field(obj, k, "uniform distribution"), f"{k!r} of the uniform distribution")
            for k in ("lo", "hi")
        )
        return TypeDistribution.uniform(lo, hi)
    if obj["kind"] == "quantile_table":
        label = "quantile_table distribution"
        u, t = (_numbers(_field(obj, k, label), f"{k!r} of the {label}") for k in ("u", "t"))
        return TypeDistribution.quantile_table(u, t)
    raise SpecError(f"unknown distribution kind {obj['kind']!r}")


def load_spec(source: Union[str, dict], grid_size: Optional[int] = None) -> ProblemSpec:
    """Parse a problem file (path or already-parsed dict) and ``check_spec`` it.

    ``grid_size`` overrides the file's, and the default applies when neither
    is given.  A bad n_items is refused before any bundle key is parsed.
    """
    doc = read_document(source)
    try:
        n_items = int(doc["n_items"])
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecError("problem file must declare integer n_items") from exc
    _check_n_items(n_items)

    dist = _parse_distribution(doc.get("distribution"))

    values: dict[int, MonomialSum] = {}
    for key, obj in _object(doc.get("values") or {}, "'values'").items():
        mask = _parse_bundle_key(key, n_items)
        expr = _parse_expression(obj, f"bundle {key}")
        if mask == 0 and not expr.is_zero():
            raise SpecError("the empty bundle must have identically zero value")
        if mask != 0:
            values[mask] = expr

    costs: dict[int, float] = {}
    for key, c in _object(doc.get("costs") or {}, "'costs'").items():
        mask = _parse_bundle_key(key, n_items)
        c = _number(c, f"cost of bundle {key}")
        if mask == 0 and c != 0.0:
            raise SpecError("the empty bundle must have zero cost")
        if mask != 0:
            costs[mask] = c

    gs = doc.get("grid_size") if grid_size is None else grid_size
    gs = DEFAULT_GRID_SIZE if gs is None else _integer(gs, "'grid_size'")
    return check_spec(ProblemSpec(n_items, values, costs, dist, gs))


def _check_n_items(n_items: int) -> None:
    if not 1 <= n_items <= 16:
        raise SpecError(f"n_items={n_items} outside supported range 1..16")


def check_grid_size(grid_size: int) -> int:
    if grid_size < MIN_GRID_SIZE:
        raise SpecError(f"grid_size={grid_size} too small for reliable validation")
    return grid_size


def check_spec(spec: ProblemSpec) -> ProblemSpec:
    """``spec`` once its load-time assumptions hold, else a SpecError: n_items
    in 1..16, nonnegative costs, ``MIN_GRID_SIZE`` grid points, fractional
    exponents on a nonnegative support only, values finite, nondecreasing in t
    where positive and monotone in set inclusion on the whole support (``_dip``
    between grid points), an efficient grand bundle at the top type, and no
    hard failure of ``validate_assumptions`` (its warnings wait for the first
    read of ``spec.validation``), refused in that order.

    ``_one_signed``'s coefficient table decides what needs no grid scan: a
    nondecreasing value skips its scan, and nondecreasing increments are
    checked at t = lo alone and cannot fail the "decreases where positive"
    check.  Mixed and nonincreasing rows are scanned on the grid."""
    _check_n_items(spec.n_items)
    for b, c in spec.costs.items():
        if c < 0:
            raise SpecError(f"negative cost {c} for bundle {format_bundle(b)}")
    check_grid_size(spec.grid_size)
    if spec.dist.lo < 0 and any(v.has_fractional_exponent() for v in spec.values.values()):
        raise SpecError("fractional exponents require a nonnegative type support")

    # values may dip negative (damaged goods): such types never buy, so only
    # monotonicity where positive; the first table read bounds the spec's size
    bundles, rows = spec.nonzero_bundles(), spec.value_rows
    pairs = subset_pairs(bundles)
    sub, sup = _pair_rows(bundles, pairs)
    bundle_up, pair_up, pair_monotone = _one_signed(spec, bundles, sub, sup)
    for b, up in zip(bundles, bundle_up):
        v = rows[b]
        if not np.isfinite(v).all():
            raise SpecError(f"value of {format_bundle(b)} is non-finite on the grid")
        if up:
            continue
        dv = v[1:] - v[:-1]
        if dv.min() < -STRICT_TOL and (drop := (dv < -STRICT_TOL) & (v[:-1] > STRICT_TOL)).any():
            raise SpecError(
                f"value of {format_bundle(b)} decreases in t at "
                f"t={spec.t_grid[drop.argmax()]:.6g} where it is positive"
            )

    # monotone in set inclusion; pairs with an omitted (zero) superset are the
    # ignore convention and are skipped.  A nondecreasing increment is least at
    # t = lo, so one vector of the value rows there passes all of them but
    # those below -STRICT_TOL at t = lo, which the grid scan refuses there.
    at_lo = np.array([rows[b][0] for b in bundles])
    scan = ~pair_up | (at_lo[sup] - at_lo[sub] < -STRICT_TOL)
    failures = []
    for k in np.flatnonzero(scan):
        b1, b2 = pairs[k]
        inc = rows[b2] - rows[b1]
        at = spec.t_grid[np.argmax(inc < -STRICT_TOL)] if inc.min() < -STRICT_TOL else (
            None if pair_monotone[k] else _dip(spec, b1, b2))
        if at is not None:
            raise SpecError(
                f"monotonicity violation: value of {format_bundle(b1)} exceeds "
                f"value of {format_bundle(b2)} at t={at:.6g}"
            )
        failures.append(_increment(spec, b1, b2, inc))

    t_top, grand = spec.dist.hi, spec.grand_bundle
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
    if any(failures):
        raise SpecError("; ".join(filter(None, failures)))
    return spec


def _pair_rows(bundles, pairs) -> np.ndarray:
    """The rows in the ascending ``bundles`` of each pair's subset and superset."""
    flat = np.fromiter(chain.from_iterable(pairs), np.int64, 2 * len(pairs))
    return np.searchsorted(bundles, flat.reshape(-1, 2)).T


def _one_signed(spec: ProblemSpec, bundles, sub, sup):
    """Which bundle values and which pair increments v_sup - v_sub are monotone
    on the support, by one coefficient-by-exponent table: a row is
    nondecreasing when every non-constant coefficient is >= 0 and
    nonincreasing when every one is <= 0, as t^e is on t >= 0 (so no row is
    monotone by its table when lo < 0).  A nondecreasing row is least at t =
    lo, so no grid scan of it can fail; a monotone one is least at a grid end,
    so the grid decides it without ``_dip``.  The signs are those of the
    rounded coefficient sums.  Returns (bundle nondecreasing, pair
    nondecreasing, pair monotone) as boolean arrays."""
    if spec.dist.lo < 0.0:
        none = np.zeros(len(sub), dtype=bool)
        return np.zeros(len(bundles), dtype=bool), none, none
    exprs = [spec.value_expr(b).terms for b in bundles]
    cols = {e: j for j, e in enumerate({e for terms in exprs for _c, e in terms} - {0.0})}
    table = [[0.0] * len(cols) for _ in bundles]
    for row, terms in zip(table, exprs):
        for c, e in terms:
            if e != 0.0:
                row[cols[e]] += c
    table = np.array(table).reshape(len(bundles), len(cols))
    inc = table[sup] - table[sub]
    up = (inc >= 0.0).all(axis=1)
    return (table >= 0.0).all(axis=1), up, up | (inc <= 0.0).all(axis=1)


def _dip(spec: ProblemSpec, b1: int, b2: int) -> Optional[float]:
    """Where v_b2 - v_b1 first falls below -STRICT_TOL between grid points, or
    None.  Each cell where the slope of the difference expression (its
    ``_slope_at_zero`` resolves inf - inf at t = 0) rises from < 0 to >= 0 holds
    a minimum, polished by ``rising_root``.  Two slope sign changes inside one
    cell can still hide a dip, the limit ``switch_points`` has with slivers."""
    inc = spec.value_expr(b2) - spec.value_expr(b1)
    t, slope = spec.t_grid, inc.slope(spec.t_grid)
    for k in np.flatnonzero((slope[:-1] < 0.0) & (slope[1:] >= 0.0)):
        root = rising_root(inc.slope, float(t[k]), float(t[k + 1]))
        if root is not None and inc(root) < -STRICT_TOL:
            return root
    return None


# ---------------------------------------------------------------------------
# assumption validation


@dataclass
class ValidationReport:
    """Outcome of the grid checks on quasi-concavity and incremental values."""

    hard_failures: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    checked_pairs: int = 0

    @property
    def ok(self) -> bool:
        return not self.hard_failures

    @property
    def clean(self) -> bool:
        return not self.hard_failures and not self.warnings


def validate_assumptions(spec: ProblemSpec) -> ValidationReport:
    """Grid checks: monotone incremental values (hard), single-peaked profit
    and incremental profit curves (warnings only, so near-degenerate cases
    remain explorable), on the potential rows; a pair's incremental profit is
    read above both grid peaks, each the largest type among tied maxima."""
    report = ValidationReport()
    bundles = spec.nonzero_bundles()

    profits = spec.potential_rows
    from_top = {b: int(profits[b][::-1].argmax()) for b in bundles}  # grid steps down to the peak
    for b in bundles:
        if count_descents_to_ascents(profits[b]) > 0:
            report.warnings.append(
                f"profit curve of {format_bundle(b)} has multiple peaks on [0,1]"
            )

    pairs = subset_pairs(bundles)
    sub, sup = _pair_rows(bundles, pairs)
    for (b1, b2), up in zip(pairs, _one_signed(spec, bundles, sub, sup)[1].tolist()):
        report.checked_pairs += 1
        inc = spec.value_rows[b2] - spec.value_rows[b1]
        failure = None if up else _increment(spec, b1, b2, inc)
        if failure:
            report.hard_failures.append(failure)
        elif ((inc[:-1] > STRICT_TOL) & (np.abs(inc[1:] - inc[:-1]) <= STRICT_TOL)).any():
            report.warnings.append(
                f"incremental value {format_bundle(b1)} -> {format_bundle(b2)} "
                "is locally flat where positive"
            )
        k = min(from_top[b1], from_top[b2])
        if k >= 2:
            inc_profit = profits[b2][-k - 1:] - profits[b1][-k - 1:]
            if count_descents_to_ascents(inc_profit) > 0:
                report.warnings.append(
                    f"incremental profit {format_bundle(b1)} -> {format_bundle(b2)} "
                    "has multiple peaks before both sales volumes"
                )
    return report


def _increment(spec: ProblemSpec, b1: int, b2: int, inc: np.ndarray) -> Optional[str]:
    """The hard failure of b1 -> b2's grid increment ``inc``, a decrease where
    positive, or None."""
    step = inc[1:] - inc[:-1]
    if step.min() < -STRICT_TOL and (fall := (step < -STRICT_TOL) & (inc[:-1] > STRICT_TOL)).any():
        return (f"incremental value {format_bundle(b1)} -> {format_bundle(b2)} "
                f"decreases at t={spec.t_grid[fall.argmax()]:.6g} where it is positive")
    return None
