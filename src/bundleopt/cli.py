"""Command-line front end: analyze, solve, verify, sweep, quality, screening, reproduce.

All outputs are deterministic for a fixed problem file and grid: CSV/JSON/DOT
files carry a provenance line with the problem hash and grid size, and no
stage of the pipeline uses randomness.  ``main`` creates the ``--out``
directory and maps library errors to exit codes; ``verify`` and
``reproduce`` reach their verdicts through the one pipeline ``_verdict``.
Library warnings pass through to stderr unfiltered.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import applications as apps
from .demand import compute_profiles, elasticity_grid
from .dominance import build_dominance, check_union_elasticity, to_dot
from .menu import MonotonicityError, NestingError, best_nested_menu, simulate_menu, solve_nested_menu
from .model import DEFAULT_GRID_SIZE, ProblemSpec, SpecError, format_bundle, items_from_mask
from .model import load_spec, read_document
from .oracle import DiscretizedInstance, compare, dump_lp_text, solve_lp

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CERTIFICATE = 3
EXIT_INTERNAL = 4
MAX_BETA_POINTS = 10_001  # --beta-range points; a 1e-4 step across [0, 1]


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _provenance(spec: ProblemSpec) -> str:
    return f"spec_sha256={spec.content_hash()} grid_size={spec.grid_size}"


def _csv_text(provenance: str, header, columns) -> str:
    """CSV text of equal-length columns under a provenance comment and a header.

    A float64 array column is written with ``%.12g`` from one ``tolist()``, any
    other column through ``_fmt``; each row is one ``%`` on the field template.
    """
    fields, cols = [], []
    for col in columns:
        if isinstance(col, np.ndarray) and col.dtype == np.float64:
            fields.append("%.12g")
            cols.append(col.tolist())
        else:
            fields.append("%s")
            cols.append(list(map(_fmt, col)))
    template = ",".join(fields)
    lines = [f"# {provenance}", ",".join(header)]
    lines.extend(template % row for row in zip(*cols))
    return "\n".join(lines) + "\n"


def _write_csv(path: Path, provenance: str, header, columns) -> None:
    path.write_text(_csv_text(provenance, header, columns), encoding="utf-8")


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _bundle_slug(mask: int) -> str:
    return "-".join(map(str, items_from_mask(mask))) if mask else "none"


def _verdict(spec: ProblemSpec, instance: DiscretizedInstance):
    """The paper's claim checked on one spec: the nested menu against the LP optimum.

    The benchmark is the constructed minimal menu, or the best nested menu
    when the spec is not nested or its envelope is not monotone.  Returns
    (profiles, relation, (profit, bundles, prices) of the benchmark, LP
    solution, verdict).  The caller builds ``instance`` first, so a refused
    LP size costs no menu work.
    """
    profiles = compute_profiles(spec)
    relation = build_dominance(spec, profiles)
    try:
        menu = solve_nested_menu(spec, relation)
        benchmark = menu.expected_profit, menu.bundles, list(menu.prices)
    except (NestingError, MonotonicityError):
        sol, chain = best_nested_menu(spec)
        benchmark = sol.expected_profit, chain, sorted({p for p in sol.payments if p > 0})
    lp = solve_lp(instance)
    return profiles, relation, benchmark, lp, compare(instance, benchmark[0], lp)


_LP_FIELDS = ("rounds", "rows", "ic_violation", "stationarity", "duality_gap")


def _lp_record(lp) -> dict:
    """Row-generation size and certificate residuals of an oracle solution."""
    return {f"lp_{name}": getattr(lp, name) for name in _LP_FIELDS}


def _fail(kind: str, detail: str, code: int) -> int:
    print(json.dumps({"error": kind, "detail": detail}, sort_keys=True))
    return code


# ---------------------------------------------------------------------------
# subcommands


def cmd_analyze(args) -> int:
    spec = load_spec(args.spec, grid_size=args.grid)
    out = args.out
    prov = _provenance(spec)

    profiles = compute_profiles(spec)
    summary_rows = []
    for b in sorted(profiles):
        p, price = profiles[b], spec.price_rows[b]
        eta = elasticity_grid(spec, b, cost_adjusted=False)
        eta_t = elasticity_grid(spec, b, cost_adjusted=True)
        text = _csv_text(
            prov, ["q", "price", "profit", "eta", "eta_cost_adjusted"],
            [spec.q_grid, price, (price - spec.cost(b)) * spec.q_grid, eta, eta_t],
        )
        summary = (f"# summary d_star={_fmt(p.d_star)} t_star={_fmt(p.t_star)} "
                   f"peak_profit={_fmt(p.peak_profit)}\n")
        (out / f"demand_{_bundle_slug(b)}.csv").write_text(text + summary, encoding="utf-8")
        summary_rows.append(
            (format_bundle(b), p.d_star, p.t_star, p.peak_profit, p.corner)
        )
    _write_csv(
        out / "summary.csv",
        prov,
        ["bundle", "d_star", "t_star", "peak_profit", "corner"],
        zip(*summary_rows),
    )

    relation = build_dominance(spec, profiles)
    union = check_union_elasticity(spec, profiles)
    if args.hasse:
        (out / "dominance.dot").write_text(to_dot(relation), encoding="utf-8")
    _write_json(
        out / "dominance.json",
        {
            "provenance": prov,
            "undominated": [format_bundle(b) for b in relation.undominated],
            "nested": relation.nested,
            "best_selling": format_bundle(relation.best_selling),
            "sales_order": [format_bundle(b) for b in relation.sales_order],
            "d_star": {format_bundle(b): d for b, d in relation.d_star.items()},
            "union_elasticity_holds": union.holds,
            "union_elasticity_cost_adjusted": union.cost_adjusted,
        },
    )
    print(f"analyzed {len(profiles)} bundles; nested={relation.nested}; "
          f"union_elasticity={union.holds}; outputs in {out}")
    return EXIT_OK


def cmd_solve(args) -> int:
    spec = load_spec(args.spec, grid_size=args.grid)
    out = args.out
    prov = _provenance(spec)

    profiles = compute_profiles(spec)
    relation = build_dominance(spec, profiles)
    menu = solve_nested_menu(spec, relation)  # NestingError exits 3 in main
    envelope = simulate_menu(spec, menu.bundles, menu.prices)

    print(f"{'bundle':<12}{'quantity':>12}{'cutoff':>12}{'price':>12}{'upgrade':>12}")
    for row in menu.as_rows():
        print(
            f"{row['bundle']:<12}{row['quantity']:>12.6f}{row['cutoff_type']:>12.6f}"
            f"{row['price']:>12.6f}{row['upgrade_price']:>12.6f}"
        )
    print(f"expected profit  {menu.expected_profit:.9f}")
    print(f"relaxed bound    {menu.bound:.9f}")
    print(f"envelope profit  {envelope.expected_profit:.9f}")
    print(f"certificate      {menu.certificate}")

    _write_json(
        out / "solution.json",
        {
            "provenance": prov,
            "menu": menu.as_rows(),
            "expected_profit": menu.expected_profit,
            "relaxed_bound": menu.bound,
            "certificate": menu.certificate,
            "envelope_profit": envelope.expected_profit,
            "revenue_equivalence_gap": abs(
                envelope.expected_profit - envelope.virtual_profit
            ),
        },
    )
    if args.csv:
        labels = {b: format_bundle(b) for b in (0, *menu.bundles)}
        _write_csv(
            out / "allocation.csv",
            prov,
            ["t", "bundle", "payment", "utility"],
            [
                envelope.types,
                [labels[b] for b in envelope.allocation.tolist()],
                envelope.payments,
                envelope.utilities,
            ],
        )
        bundles = sorted(profiles)
        _write_csv(
            out / "virtual_surplus.csv",
            prov,
            ["t"] + [format_bundle(b) for b in bundles],
            [spec.t_grid, *(spec.surplus_rows[b] for b in bundles)],
        )
    if menu.certificate != "VALID":
        return EXIT_CERTIFICATE
    return EXIT_OK


def cmd_verify(args) -> int:
    spec = load_spec(args.spec, grid_size=args.grid)
    out = args.out
    prov = _provenance(spec)

    instance = DiscretizedInstance.from_spec(spec, args.types)  # refuses a too-large m first
    if args.dump_lp:  # the full LP, refused by its size before any menu work
        (out / "instance.lp").write_text(dump_lp_text(instance), encoding="utf-8")
    _profiles, relation, (menu_profit, bundles, _prices), lp, verdict = _verdict(spec, instance)
    menu_desc = [format_bundle(b) for b in bundles]

    print(f"lp objective        {lp.objective:.9f}  (m={args.types})")
    print(f"nested benchmark    {menu_profit:.9f}  menu={menu_desc}")
    print(f"matched-m gap       {verdict.gap:.3e}")
    print(f"verdict             {verdict.verdict}")
    if verdict.verdict == "NESTED_SUBOPTIMAL":
        print(f"lp uses lotteries   {verdict.lp_stochastic}")

    _write_json(
        out / "verify.json",
        {
            "provenance": prov,
            "m": args.types,
            "lp_objective": lp.objective,
            "menu_profit_continuum": menu_profit,
            "menu": menu_desc,
            "matched_menu_profit": verdict.matched_menu_profit,
            "gap": verdict.gap,
            "raw_gap": verdict.raw_gap,
            "tolerance": verdict.tolerance,
            "verdict": verdict.verdict,
            "lp_stochastic": verdict.lp_stochastic,
            "nesting_condition": relation.nested,
            **_lp_record(lp),
        },
    )
    return EXIT_OK


def _beta_values(spec_range: str):
    try:
        lo, hi, step = (float(x) for x in spec_range.split(":"))
    except ValueError:
        raise SpecError(f"--beta-range {spec_range!r} is not lo:hi:step") from None
    if not (math.isfinite(lo) and math.isfinite(hi) and 0 < step < math.inf and hi >= lo):
        raise SpecError(f"--beta-range {spec_range!r} needs finite lo <= hi and step > 0")
    span = (hi - lo) / step
    if span >= MAX_BETA_POINTS - 0.5:  # refused before any list is built
        raise SpecError(f"--beta-range {spec_range!r}: {span + 1:.4g} points > {MAX_BETA_POINTS}")
    return [round(lo + k * step, 10) for k in range(round(span) + 1)]


def cmd_sweep(args) -> int:
    betas = _beta_values(args.beta_range)
    family = lambda b: apps.two_item_power_family(b, args.gamma, grid_size=args.grid)
    sweep = apps.rotation_sweep(family, betas)
    out = args.out
    prov = f"family=two_item_power gamma={_fmt(args.gamma)} grid_size={args.grid}"

    pts = sweep.points
    _write_csv(
        out / "sweep.csv",
        prov,
        ["s", "menu", "tier_item1", "tier_item2", "menu_size",
         "d_star_1", "d_star_2", "d_star_12", "union_elastic", "nested"],
        [
            [p.s for p in pts],
            ["|".join(format_bundle(b) for b in p.menu) for p in pts],
            [p.tiers[0] for p in pts],
            [p.tiers[1] for p in pts],
            [p.size for p in pts],
            *([p.d_star.get(b, float("nan")) for p in pts] for b in (0b01, 0b10, 0b11)),
            [p.union_ok for p in pts],
            [p.nested for p in pts],
        ],
    )
    _write_json(
        out / "sweep.json",
        {
            "provenance": prov,
            "rotated_item": sweep.rotated_item,
            "premises_ok": sweep.premises_ok,
            "premise_failures": sweep.premise_failures,
            "tier_up_ok": sweep.tier_up_ok,
            "tier_down_ok": sweep.tier_down_ok,
            "size_quasiconvex": sweep.size_quasiconvex,
        },
    )
    print(f"swept {len(betas)} points; rotated_item={sweep.rotated_item} "
          f"premises_ok={sweep.premises_ok} tier_up={sweep.tier_up_ok} "
          f"tier_down={sweep.tier_down_ok} size_quasiconvex={sweep.size_quasiconvex}")
    return EXIT_OK


def cmd_quality(args) -> int:
    problem = apps.QualityProblem.from_document(read_document(args.spec))

    sales = apps.quality_menu_from_sales(problem)
    cost_route = None
    if problem.multiplicative and problem.regular:
        cost_route = apps.quality_menu_from_costs(problem)

    n = len(problem.qualities)
    nan = [float("nan")] * n
    _write_csv(
        args.out / "quality.csv",
        f"qualities={n} grid_size={problem.grid_size}",
        ["x", "d_star", "d_hat", "c_avg", "c_check", "in_menu"],
        [
            problem.qualities,
            sales.d_star,
            sales.d_hat,
            cost_route.c_avg if cost_route else nan,
            cost_route.c_check if cost_route else nan,
            [k in sales.menu for k in range(n)],
        ],
    )
    menu_x = [problem.qualities[k] for k in sales.menu]
    print(f"optimal quality menu: {menu_x} (indices {list(sales.menu)})")
    if cost_route:
        print(f"cost-envelope route agrees; identity gap {cost_route.identity_gap:.2e}")
    return EXIT_OK


def cmd_screening(args) -> int:
    problem = apps.ScreeningProblem.from_document(read_document(args.spec))
    report = apps.screening_optimal(problem)

    print(f"{'action':>8}{'opt-out volume':>18}")
    for j, d in enumerate(report.d_star_actions):
        print(f"{j:>8}{d:>18.6f}")
    print(f"{'quality':>8}{'sales volume':>18}")
    for i, d in enumerate(report.d_star_qualities):
        print(f"{i:>8}{d:>18.6f}")
    print(f"status: {report.status}")
    for msg in report.messages:
        print(f"  note: {msg}")
    if report.optimal is not None:
        print(f"costly screening optimal: {report.optimal}")

    if args.verify_lp and report.status in ("ok", "trivially_optimal"):
        spec, info = apps.embed_screening(problem)
        lp = solve_lp(DiscretizedInstance.from_spec(spec, args.types))
        usage = lp.uses_bundles(info["costly_masks"])
        print(f"lp cross-check (m={args.types}): objective={lp.objective:.6f} "
              f"costly usage mass={usage:.4f}")
    _write_json(
        args.out / "screening.json",
        {
            "status": report.status,
            "optimal": report.optimal,
            "d_star_qualities": list(report.d_star_qualities),
            "d_star_actions": list(report.d_star_actions),
            "x_star": report.x_star,
            "y_star": report.y_star,
            "messages": report.messages,
        },
    )
    return EXIT_OK


def cmd_reproduce(args) -> int:
    out = args.out
    betas = _beta_values(args.beta_range)
    verdict_rows = []
    for gamma in (0.5, 4.5):
        rows = []
        for beta in betas:
            spec = apps.two_item_power_family(beta, gamma, grid_size=args.grid)
            instance = DiscretizedInstance.from_spec(spec, args.types)
            profiles, relation, (menu_profit, bundles, prices), lp, verdict = _verdict(
                spec, instance
            )
            rows.append(
                (
                    beta,
                    profiles[0b01].d_star,
                    profiles[0b10].d_star,
                    profiles[0b11].d_star,
                    relation.nested,
                    "|".join(format_bundle(b) for b in bundles),
                    "|".join(_fmt(p) for p in prices),
                    menu_profit,
                    lp.objective,
                    verdict.verdict,
                )
            )
            verdict_rows.append((gamma, beta, verdict.verdict, verdict.gap, *_lp_record(lp).values()))
        _write_csv(
            out / f"reproduce_gamma_{_fmt(gamma).replace('.', '_')}.csv",
            f"family=two_item_power gamma={_fmt(gamma)} grid_size={args.grid} m={args.types}",
            ["beta", "d_star_1", "d_star_2", "d_star_12", "nested",
             "menu", "prices", "menu_profit", "lp_objective", "verdict"],
            zip(*rows),
        )

    family = lambda b: apps.two_item_power_family(b, 0.5, grid_size=args.grid)
    regions = apps.menu_regions(family, betas)
    region_rows = [
        (
            r["s_start"],
            r["s_end"],
            "|".join(format_bundle(b) for b in r["menu"]),
            r.get("transition", float("nan")),
        )
        for r in regions
    ]
    _write_csv(
        out / "regions_gamma_0_5.csv",
        f"family=two_item_power gamma=0.5 grid_size={args.grid}",
        ["beta_start", "beta_end", "menu", "transition_refined"],
        zip(*region_rows),
    )
    _write_csv(
        out / "verdicts.csv",
        f"family=two_item_power grid_size={args.grid} m={args.types}",
        ["gamma", "beta", "verdict", "matched_gap", *(f"lp_{n}" for n in _LP_FIELDS)],
        zip(*verdict_rows),
    )
    print(f"reproduction artifacts written to {out}")
    for r in regions:
        menu = "|".join(format_bundle(b) for b in r["menu"])
        tail = f" transition near {r['transition']:.4f}" if "transition" in r else ""
        print(f"  gamma=0.5 beta in [{r['s_start']:g}, {r['s_end']:g}]: menu {menu}{tail}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


@functools.cache  # one parser per process: parse_args leaves it as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bundleopt",
        description="Optimal bundle menus for one-dimensional consumer types",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, spec_required=True, grid=True):
        if spec_required:
            p.add_argument("--spec", required=True, help="problem JSON file")
        if grid:
            # a built-in family has no problem file to carry a grid size
            default = None if spec_required else DEFAULT_GRID_SIZE
            p.add_argument("--grid", type=int, default=default, help="type-grid size override")
        p.add_argument("--out", default="out", help="output directory")

    p = sub.add_parser("analyze", help="demand curves, elasticities, dominance")
    common(p)
    p.add_argument("--hasse", action="store_true", help="emit the dominance DOT digraph")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("solve", help="minimal optimal nested menu with certificate")
    common(p)
    p.add_argument("--csv", action="store_true", help="dump allocation and surplus curves")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="LP oracle cross-check")
    common(p)
    p.add_argument("--types", type=int, default=201, help="LP type-grid size")
    p.add_argument("--dump-lp", action="store_true", help="write the instance in LP format")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="rotation comparative statics on the built-in family")
    common(p, spec_required=False)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--beta-range", default="0.1:2.0:0.1", help="lo:hi:step")
    p.set_defaults(func=cmd_sweep)

    # quality and screening documents carry the only grid size they run on
    p = sub.add_parser("quality", help="quality-menu envelopes")
    common(p, grid=False)
    p.set_defaults(func=cmd_quality)

    p = sub.add_parser("screening", help="costly-screening criterion")
    common(p, grid=False)
    p.add_argument("--types", type=int, default=201, help="LP type-grid size")
    p.add_argument("--verify-lp", action="store_true", help="cross-check via the embedded LP")
    p.set_defaults(func=cmd_screening)

    p = sub.add_parser("reproduce", help="full two-family benchmark sweep with verdicts")
    common(p, spec_required=False)
    p.add_argument("--types", type=int, default=201, help="LP type-grid size")
    p.add_argument("--beta-range", default="0.1:2.0:0.1", help="lo:hi:step")
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    args.out = Path(args.out)
    args.out.mkdir(parents=True, exist_ok=True)
    try:
        return args.func(args)
    except SpecError as exc:
        return _fail("validation", str(exc), EXIT_VALIDATION)
    except NestingError as exc:
        return _fail("nesting", str(exc), EXIT_CERTIFICATE)
    except MonotonicityError as exc:
        return _fail("monotonicity", str(exc), EXIT_CERTIFICATE)
    except RuntimeError as exc:
        return _fail("internal", str(exc), EXIT_INTERNAL)


if __name__ == "__main__":
    sys.exit(main())
