"""Answer checks for every op: invariants on any seed, references on one.

An op's *answer* is the part of its output a user acts on (menus, profits,
verdicts), read back from the files and text the command produced.  The
invariant checks hold for every seed; the reference check compares answers
on ``REFERENCE_SEED`` with ``reference/<workload>.json``, recorded at the
commit that introduced the benchmark, within the program's own tolerances.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

from inputs import CONFIRMED_BETAS, SUBOPTIMAL_BETAS

REFERENCE_SEED = 0
BOUND_TOL = 1e-6  # |menu profit - relaxed bound| for a VALID certificate
REVENUE_EQ_TOL = 1e-5  # simulated vs virtual-surplus profit on the 4097 grid
LP_TOL = 1e-5  # compare()'s strict noise floor on LP objectives
TRANSITION_TOL = 1e-4  # refine_menu_transition's bisection width
DEFAULT_TOL = 1e-6
# certificate reasons that void a certificate without the solver being wrong
ADVISORY_REASONS = ("validation warnings present", "multi-peaked incremental profit")


class Result:
    """What one op produced: exit code, captured stdout, output directory,
    for in-process calls the returned value, and the traceback if it raised."""

    def __init__(self, code, stdout, out_dir: Path, value=None, error=None):
        self.code = code
        self.stdout = stdout
        self.out_dir = out_dir
        self.value = value
        self.error = error

    def json(self, name):
        path = self.out_dir / name
        return json.loads(path.read_text(encoding="utf-8")) if path.is_file() else None

    def csv_rows(self, name):
        path = self.out_dir / name
        if not path.is_file():
            return None
        lines = [ln for ln in path.read_text(encoding="utf-8").splitlines() if not ln.startswith("#")]
        return list(csv.DictReader(lines))


def _bundle_set(text: str) -> frozenset:
    inner = text.strip()[1:-1]
    return frozenset(int(x) for x in inner.split(",") if x)


def _is_chain(menu) -> bool:
    sets = [_bundle_set(b) for b in menu]
    return all(a < b for a, b in zip(sets[:-1], sets[1:]))


# ---------------------------------------------------------------------------
# answers


def answer(op, res: Result):
    """The user-facing answer of one op, as plain JSON data."""
    if op.kind == "solve":
        sol = res.json("solution.json")
        if sol is None:
            return {"code": res.code, "solution": None}
        keep = ("menu", "expected_profit", "relaxed_bound", "certificate", "envelope_profit")
        return {"code": res.code, "solution": {k: sol[k] for k in keep}}
    if op.kind == "verify":
        v = res.json("verify.json") or {}
        keep = ("verdict", "lp_objective", "menu", "menu_profit_continuum",
                "matched_menu_profit", "nesting_condition")
        return {"code": res.code, **{k: v.get(k) for k in keep}}
    if op.kind == "sweep":
        s = res.json("sweep.json") or {}
        keep = ("rotated_item", "premises_ok", "tier_up_ok", "tier_down_ok", "size_quasiconvex")
        rows = res.csv_rows("sweep.csv") or []
        return {"code": res.code, **{k: s.get(k) for k in keep}, "menus": [r["menu"] for r in rows]}
    if op.kind == "regions":
        return [
            {"s_start": r["s_start"], "s_end": r["s_end"], "menu": list(r["menu"]),
             "transition": r.get("transition")}
            for r in res.value
        ]
    if op.kind == "quality":
        rows = res.csv_rows("quality.csv") or []
        return {
            "code": res.code,
            "menu": [float(r["x"]) for r in rows if r["in_menu"] == "True"],
            "d_star": [float(r["d_star"]) for r in rows],
        }
    if op.kind == "screening":
        s = res.json("screening.json") or {}
        keep = ("status", "optimal", "d_star_qualities", "d_star_actions")
        return {"code": res.code, **{k: s.get(k) for k in keep}}
    raise ValueError(op.kind)


# ---------------------------------------------------------------------------
# invariants


def invariants(op, res: Result) -> list[str]:
    """Reasons this op's output is wrong; empty when it passes."""
    return CHECKS[op.kind](op, res)


def _check_solve(op, res):
    if res.code not in (0, 3):
        return [f"solve exited {res.code}: {res.stdout.strip()[-200:]}"]
    if op.meta.get("family") and res.code != 0:
        return [f"gamma={op.meta['gamma']} family at beta={op.meta['beta']} exited {res.code}"]
    sol = res.json("solution.json")
    if sol is None:
        if res.code == 3 and '"error": "nesting"' in res.stdout:
            return []
        return ["no solution.json and no nesting error"]
    errors = []
    cert = sol["certificate"]
    gap = abs(sol["expected_profit"] - sol["relaxed_bound"])
    if res.code == 0:
        if cert != "VALID":
            errors.append(f"exit 0 with certificate {cert!r}")
        if gap > BOUND_TOL:
            errors.append(f"|profit - bound| = {gap:.3g} > {BOUND_TOL}")
        if sol["revenue_equivalence_gap"] > REVENUE_EQ_TOL:
            errors.append(f"revenue-equivalence gap {sol['revenue_equivalence_gap']:.3g}")
    else:
        reasons = cert.removeprefix("INVALID: ").split("; ")
        if cert == "VALID" or not all(r in ADVISORY_REASONS for r in reasons):
            errors.append(f"certificate on a clean run: {cert!r} (|profit - bound| = {gap:.3g})")
    return errors


def _check_verify(op, res):
    if res.code != 0:
        return [f"verify exited {res.code}: {res.stdout.strip()[-200:]}"]
    v = res.json("verify.json")
    if v is None:
        return ["no verify.json"]
    errors = []
    verdict = v["verdict"]
    if verdict not in ("CONFIRMED", "NESTED_SUBOPTIMAL"):
        errors.append(f"verdict {verdict} (gap {v['gap']:.3g})")
    if not _is_chain(v["menu"]):
        errors.append(f"benchmark menu {v['menu']} is not a chain")
    if op.meta.get("gamma") == 4.5 and op.meta["m"] == 201:
        beta = op.meta["beta"]
        if beta in SUBOPTIMAL_BETAS and (verdict != "NESTED_SUBOPTIMAL" or v["raw_gap"] <= 5 / 201):
            errors.append(f"gamma=4.5 beta={beta}: {verdict}, raw gap {v['raw_gap']:.4f}")
        if beta in CONFIRMED_BETAS and verdict != "CONFIRMED":
            errors.append(f"gamma=4.5 beta={beta}: {verdict}, want CONFIRMED")
    return errors


def _check_sweep(op, res):
    if res.code != 0:
        return [f"sweep exited {res.code}"]
    s = res.json("sweep.json")
    rows = res.csv_rows("sweep.csv")
    if s is None or rows is None:
        return ["missing sweep artifacts"]
    errors = []
    if len(rows) != op.meta["points"]:
        errors.append(f"{len(rows)} sweep rows for {op.meta['points']} points")
    statics = (s["tier_up_ok"], s["tier_down_ok"], s["size_quasiconvex"])
    if s["premises_ok"] and statics != (True, True, True):
        errors.append(f"premises hold but statics are {statics}")
    return errors


def _check_regions(op, res):
    regions, betas = res.value, op.meta["betas"]
    if not regions:
        return ["no regions"]
    errors = []
    if regions[0]["s_start"] != betas[0] or regions[-1]["s_end"] != betas[-1]:
        errors.append("regions do not span the beta grid")
    for a, b in zip(regions[:-1], regions[1:]):
        t = a.get("transition")
        if a["menu"] == b["menu"]:
            errors.append(f"equal menus on both sides of {a['s_end']}")
        if t is None or not a["s_end"] <= t <= b["s_start"]:
            errors.append(f"transition {t} outside [{a['s_end']}, {b['s_start']}]")
    return errors


def _check_quality(op, res):
    if res.code != 0:
        return [f"quality exited {res.code}"]
    rows = res.csv_rows("quality.csv")
    if not rows:
        return ["no quality.csv"]
    in_menu = [r["in_menu"] == "True" for r in rows]
    d_star = [float(r["d_star"]) for r in rows]
    d_hat = [max(d_star[k:]) for k in range(len(d_star))]
    by_sales = [dh - d <= 1e-7 for d, dh in zip(d_star, d_hat)]
    by_costs = [float(r["c_avg"]) - float(r["c_check"]) <= 1e-9 for r in rows]
    errors = []
    if in_menu != by_sales:
        errors.append(f"menu {in_menu} is not the sales-envelope touch set {by_sales}")
    if in_menu != by_costs:
        errors.append(f"menu {in_menu} is not the cost-envelope touch set {by_costs}")
    if "cost-envelope route agrees" not in res.stdout:
        errors.append("cost-envelope route did not run")
    return errors


def _check_screening(op, res):
    if res.code != 0:
        return [f"screening exited {res.code}"]
    s = res.json("screening.json")
    if s is None:
        return ["no screening.json"]
    want = op.meta["exponent"] > 1.0
    if s["status"] != "ok" or s["optimal"] is not want:
        return [f"exponent {op.meta['exponent']}: status {s['status']}, optimal {s['optimal']}"]
    return []


CHECKS = {
    "solve": _check_solve,
    "verify": _check_verify,
    "sweep": _check_sweep,
    "regions": _check_regions,
    "quality": _check_quality,
    "screening": _check_screening,
}


# ---------------------------------------------------------------------------
# reference answers

TOLERANCES = {
    "lp_objective": LP_TOL,
    "matched_menu_profit": LP_TOL,
    "transition": TRANSITION_TOL,
}


def differences(got, want, tol=DEFAULT_TOL, path="") -> list[str]:
    """Where two answers differ beyond tolerance (numbers) or at all (rest)."""
    if isinstance(want, dict) and isinstance(got, dict):
        out = []
        for key in sorted(set(want) | set(got)):
            sub = TOLERANCES.get(key, tol)
            out += differences(got.get(key), want.get(key), sub, f"{path}.{key}")
        return out
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        out = []
        for i, (g, w) in enumerate(zip(got, want)):
            out += differences(g, w, tol, f"{path}[{i}]")
        return out
    numbers = (int, float)
    if (isinstance(want, numbers) and isinstance(got, numbers)
            and not isinstance(want, bool) and not isinstance(got, bool)):
        if math.isnan(want) and math.isnan(got):
            return []
        if abs(got - want) <= tol * max(1.0, abs(want)):
            return []
    elif got == want:
        return []
    return [f"{path}: {got!r} != reference {want!r}"]


def load_reference(directory: Path, workload: str):
    path = directory / f"{workload}.json"
    return json.loads(path.read_text(encoding="utf-8")) if path.is_file() else None
