"""Command-line front end: analyze, solve, verify, sweep, quality, screening, reproduce.

All outputs are deterministic for a fixed problem file and grid: CSV/JSON/DOT
files carry a provenance line with the problem hash and grid size, and no
stage of the pipeline uses randomness.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from pathlib import Path

from . import applications as apps
from .demand import compute_profiles, elasticity_grid
from .dominance import build_dominance, check_union_elasticity, to_dot
from .menu import (
    MonotonicityError,
    MultiPeakError,
    NestingError,
    best_nested_menu,
    envelope_allocation,
    solve_nested_menu,
)
from .model import ProblemSpec, SpecError, format_bundle, load_spec, read_document
from .oracle import DiscretizedInstance, compare, dump_lp_text, solve_lp

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CERTIFICATE = 3
EXIT_INTERNAL = 4


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _provenance(spec: ProblemSpec) -> str:
    return f"spec_sha256={spec.content_hash()} grid_size={spec.grid_size}"


def _write_csv(path: Path, provenance: str, header, rows) -> None:
    lines = [f"# {provenance}", ",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _bundle_slug(mask: int) -> str:
    return "-".join(str(j) for j in format_bundle(mask)[1:-1].split(",")) if mask else "none"


def _benchmark_menu(spec: ProblemSpec, profiles, relation):
    """(profit, bundles, prices) of the nested menu an LP verdict is measured against."""
    if relation.nested:
        menu = solve_nested_menu(spec, profiles, relation)
        return menu.expected_profit, menu.bundles, list(menu.prices)
    sol, chain = best_nested_menu(spec)
    return sol.expected_profit, chain, sorted({p for p in sol.payments if p > 0})


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
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    prov = _provenance(spec)
    formats = set(args.format.split(","))

    profiles = compute_profiles(spec)
    summary_rows = []
    for b in sorted(profiles):
        p = profiles[b]
        eta = elasticity_grid(spec, b, cost_adjusted=False)
        eta_t = elasticity_grid(spec, b, cost_adjusted=True)
        if "csv" in formats:
            path = out / f"demand_{_bundle_slug(b)}.csv"
            rows = zip(p.q_grid, p.price, p.profit, eta, eta_t)
            lines = [f"# {prov}", "q,price,profit,eta,eta_cost_adjusted"]
            lines.extend(",".join(_fmt(v) for v in row) for row in rows)
            lines.append(
                f"# summary d_star={_fmt(p.d_star)} t_star={_fmt(p.t_star)} "
                f"peak_profit={_fmt(p.peak_profit)}"
            )
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        summary_rows.append(
            (format_bundle(b), p.d_star, p.t_star, p.peak_profit, p.corner)
        )
    if "csv" in formats:
        _write_csv(
            out / "summary.csv",
            prov,
            ["bundle", "d_star", "t_star", "peak_profit", "corner"],
            summary_rows,
        )

    relation = build_dominance(spec, profiles)
    union = check_union_elasticity(spec, profiles)
    if args.hasse and "dot" in formats:
        (out / "dominance.dot").write_text(to_dot(relation), encoding="utf-8")
    if "json" in formats:
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
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    prov = _provenance(spec)

    profiles = compute_profiles(spec)
    relation = build_dominance(spec, profiles)
    if not relation.nested:
        return _fail(
            "nesting",
            "undominated bundles are not nested; run `verify` for the LP route",
            EXIT_CERTIFICATE,
        )
    menu = solve_nested_menu(spec, profiles, relation)
    envelope = envelope_allocation(spec, relation)

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
        _write_csv(
            out / "allocation.csv",
            prov,
            ["t", "bundle", "payment", "utility"],
            zip(
                envelope.types,
                (format_bundle(b) for b in envelope.allocation),
                envelope.payments,
                envelope.utilities,
            ),
        )
        bundles = sorted(profiles)
        cols = [spec.surplus_rows[b] for b in bundles]
        _write_csv(
            out / "virtual_surplus.csv",
            prov,
            ["t"] + [format_bundle(b) for b in bundles],
            zip(spec.t_grid, *cols),
        )
    if menu.certificate != "VALID":
        return EXIT_CERTIFICATE
    return EXIT_OK


def cmd_verify(args) -> int:
    spec = load_spec(args.spec, grid_size=args.grid)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    prov = _provenance(spec)

    instance = DiscretizedInstance.from_spec(spec, args.types)  # refuses a too-large LP first
    profiles = compute_profiles(spec)
    relation = build_dominance(spec, profiles)
    menu_profit, bundles, _prices = _benchmark_menu(spec, profiles, relation)
    menu_desc = [format_bundle(b) for b in bundles]

    lp = solve_lp(instance)
    verdict = compare(instance, menu_profit, lp)

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
    if args.dump_lp:
        (out / "instance.lp").write_text(dump_lp_text(instance), encoding="utf-8")
    return EXIT_OK


def _beta_values(spec_range: str):
    lo, hi, step = (float(x) for x in spec_range.split(":"))
    n = int(round((hi - lo) / step))
    return [round(lo + k * step, 10) for k in range(n + 1)]


def cmd_sweep(args) -> int:
    betas = _beta_values(args.beta_range)
    family = lambda b: apps.two_item_power_family(b, args.gamma, grid_size=args.grid)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sweep = apps.rotation_sweep(family, betas)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    prov = f"family=two_item_power gamma={_fmt(args.gamma)} grid_size={args.grid}"

    rows = []
    for p in sweep.points:
        rows.append(
            (
                p.s,
                "|".join(format_bundle(b) for b in p.menu),
                p.tiers[0],
                p.tiers[1],
                p.size,
                p.d_star.get(0b01, float("nan")),
                p.d_star.get(0b10, float("nan")),
                p.d_star.get(0b11, float("nan")),
                p.union_ok,
                p.nested,
            )
        )
    _write_csv(
        out / "sweep.csv",
        prov,
        ["s", "menu", "tier_item1", "tier_item2", "menu_size",
         "d_star_1", "d_star_2", "d_star_12", "union_elastic", "nested"],
        rows,
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
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    sales = apps.quality_menu_from_sales(problem)
    cost_route = None
    if problem.multiplicative and problem.regular:
        cost_route = apps.quality_menu_from_costs(problem)

    rows = []
    for k, x in enumerate(problem.qualities):
        rows.append(
            (
                x,
                sales.d_star[k],
                sales.d_hat[k],
                cost_route.c_avg[k] if cost_route else float("nan"),
                cost_route.c_check[k] if cost_route else float("nan"),
                k in sales.menu,
            )
        )
    _write_csv(
        out / "quality.csv",
        f"qualities={len(problem.qualities)} grid_size={problem.grid_size}",
        ["x", "d_star", "d_hat", "c_avg", "c_check", "in_menu"],
        rows,
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
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            spec, info = apps.embed_screening(problem)
        lp = solve_lp(DiscretizedInstance.from_spec(spec, args.types))
        usage = lp.uses_bundles(info["costly_masks"])
        print(f"lp cross-check (m={args.types}): objective={lp.objective:.6f} "
              f"costly usage mass={usage:.4f}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(
        out / "screening.json",
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
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    betas = _beta_values(args.beta_range)
    verdict_rows = []
    for gamma in (0.5, 4.5):
        rows = []
        for beta in betas:
            spec = apps.two_item_power_family(beta, gamma, grid_size=args.grid)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                instance = DiscretizedInstance.from_spec(spec, args.types)
                profiles = compute_profiles(spec)
                relation = build_dominance(spec, profiles)
                menu_profit, bundles, prices = _benchmark_menu(spec, profiles, relation)
                lp = solve_lp(instance)
                verdict = compare(instance, menu_profit, lp)
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
            rows,
        )

    family = lambda b: apps.two_item_power_family(b, 0.5, grid_size=args.grid)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
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
        region_rows,
    )
    _write_csv(
        out / "verdicts.csv",
        f"family=two_item_power grid_size={args.grid} m={args.types}",
        ["gamma", "beta", "verdict", "matched_gap", *(f"lp_{n}" for n in _LP_FIELDS)],
        verdict_rows,
    )
    print(f"reproduction artifacts written to {out}")
    for r in regions:
        menu = "|".join(format_bundle(b) for b in r["menu"])
        tail = f" transition near {r['transition']:.4f}" if "transition" in r else ""
        print(f"  gamma=0.5 beta in [{r['s_start']:g}, {r['s_end']:g}]: menu {menu}{tail}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bundleopt",
        description="Optimal bundle menus for one-dimensional consumer types",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, spec_required=True):
        if spec_required:
            p.add_argument("--spec", required=True, help="problem JSON file")
        p.add_argument("--grid", type=int, default=None, help="type-grid size override")
        p.add_argument("--out", default="out", help="output directory")

    p = sub.add_parser("analyze", help="demand curves, elasticities, dominance")
    common(p)
    p.add_argument("--hasse", action="store_true", help="emit the dominance DOT digraph")
    p.add_argument("--format", default="csv,json,dot", help="comma list of csv,json,dot")
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

    p = sub.add_parser("quality", help="quality-menu envelopes")
    common(p)
    p.set_defaults(func=cmd_quality)

    p = sub.add_parser("screening", help="costly-screening criterion")
    common(p)
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
    if getattr(args, "grid", None) is None and args.command in ("sweep", "reproduce"):
        args.grid = 4097  # built-in family has no problem file to carry a grid size
    try:
        return args.func(args)
    except SpecError as exc:
        return _fail("validation", str(exc), EXIT_VALIDATION)
    except NestingError as exc:
        return _fail("nesting", str(exc), EXIT_CERTIFICATE)
    except (MonotonicityError, MultiPeakError, RuntimeError) as exc:
        return _fail("internal", str(exc), EXIT_INTERNAL)


if __name__ == "__main__":
    sys.exit(main())
