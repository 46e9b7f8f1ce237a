"""Compare two sets of benchmark runs, workload by workload and metric by metric.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the saved stdout of runs (``collect.py`` writes them as
``<workload>.trace<0|1>.seed<n>.out``); the last line of each is the run's
JSON result.  For every workload and metric the tool prints each side's
median and quartiles and a verdict:

* ``improved``: the new median is better by more than the base runs' own
  interquartile distance, and the new run wins at least 9 of 10 seed-paired
  comparisons (ties count for neither side);
* ``worse``: the new median is worse than the base median by more than the
  metric's bound in BENCHMARK.json;
* ``unresolved``: either side's interquartile spread is wider than the
  bound, so a regression within the spread could not be seen, unless every
  new run reads better than every base run;
* ``unchanged``: none of the above.

Per-layer metrics have no bound; they get ``improved`` or ``-``.  An
improvement does not count when the new runs failed more ops.  The exit
status is 1 when any metric is ``worse`` or any run is incorrect.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"^(?P<workload>[\w.-]+)\.trace(?P<trace>[01])\.seed(?P<seed>-?\d+)\.out$")


def load_runs(directory: Path) -> dict:
    """{(workload, trace): {seed: result}} from a directory of saved runs."""
    runs = defaultdict(dict)
    for path in sorted(directory.iterdir()):
        match = NAME.match(path.name)
        if not match:
            continue
        lines = path.read_text(encoding="utf-8").strip().splitlines()
        try:
            result = json.loads(lines[-1]) if lines else None
        except json.JSONDecodeError:
            result = None
        key = (match["workload"], int(match["trace"]))
        runs[key][int(match["seed"])] = result
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def metric_specs() -> dict:
    """name -> (better, bound or None), from BENCHMARK.json."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    specs = {m["name"]: (m["better"], m["bound"]) for m in bench["end_to_end"]}
    specs.update({m["name"]: (m["better"], None) for m in bench["per_layer"]})
    return specs


def values_of(results: dict, name: str) -> dict:
    return {seed: r["metrics"][name]["value"] for seed, r in results.items()
            if r and name in r.get("metrics", {})}


def verdict(base: dict, new: dict, better: str, bound, more_failures: bool) -> str:
    b, n = list(base.values()), list(new.values())
    sign = 1.0 if better == "higher" else -1.0
    b_med, n_med = statistics.median(b), statistics.median(n)
    b_q1, _, b_q3 = quartiles(b)
    paired = [(base[s], new[s]) for s in base if s in new]
    wins = sum(1 for x, y in paired if sign * (y - x) > 0)
    if (not more_failures and paired and wins >= 0.9 * len(paired)
            and sign * (n_med - b_med) > b_q3 - b_q1):
        return "improved"
    if bound is None:
        return "-"
    if max(spread(b), spread(n)) > bound:
        all_better = all(sign * (y - x) > 0 for x in b for y in n)
        return "unchanged" if all_better else "unresolved"
    if sign * (b_med - n_med) > bound * abs(b_med):
        return "worse"
    return "unchanged"


def compare(base_dir: Path, new_dir: Path) -> int:
    specs = metric_specs()
    base_runs, new_runs = load_runs(base_dir), load_runs(new_dir)
    status = 0
    for key in sorted(set(base_runs) | set(new_runs)):
        base, new = base_runs.get(key, {}), new_runs.get(key, {})
        workload, trace = key
        print(f"\n== {workload} (trace {trace}): {len(base)} base runs, {len(new)} new runs")
        for side, runs in (("base", base), ("new", new)):
            bad = sorted(s for s, r in runs.items() if not r or not r.get("correct"))
            failed = sum(r["failed"] for r in runs.values() if r)
            attempted = sum(r["attempted"] for r in runs.values() if r)
            print(f"   {side}: {failed}/{attempted} ops failed; incorrect or missing seeds {bad}")
            if bad:
                status = 1
        if not base or not new:
            continue
        more_failures = (sum(r["failed"] for r in new.values() if r)
                         > sum(r["failed"] for r in base.values() if r))
        names = sorted({n for r in list(base.values()) + list(new.values()) if r
                        for n in r.get("metrics", {})})
        print(f"   {'metric':<44}{'base q1 / median / q3':>36}{'new q1 / median / q3':>36}  verdict")
        for name in names:
            b, n = values_of(base, name), values_of(new, name)
            if not b or not n:
                continue
            better, bound = specs.get(name, ("lower", None))
            v = verdict(b, n, better, bound, more_failures)
            bq, nq = quartiles(list(b.values())), quartiles(list(n.values()))
            fmt = lambda q: " / ".join(f"{x:.4g}" for x in q)  # noqa: E731
            print(f"   {name:<44}{fmt(bq):>36}{fmt(nq):>36}  {v}")
            if v == "worse":
                status = 1
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="compare two sets of benchmark runs")
    p.add_argument("base", type=Path)
    p.add_argument("new", type=Path)
    args = p.parse_args(argv)
    return compare(args.base, args.new)


if __name__ == "__main__":
    sys.exit(main())
