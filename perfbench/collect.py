"""Run the benchmark over several seeds and print each metric's spread.

    python3 perfbench/collect.py --out runs/base --workloads solve verify --seeds 1-10

Runs ``run.py`` once per workload and seed, one after another, saving each
run's stdout as ``<out>/<workload>.trace<t>.seed<n>.out`` (the layout
``compare.py`` reads), then prints per workload and metric the median, the
quartiles and the interquartile distance as a share of the median, next to
the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

import compare

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 300


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description="run the benchmark over seeds")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    p.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)

    for workload in args.workloads:
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            start = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
            wall = time.perf_counter() - start
            path = args.out / f"{workload}.trace{args.trace}.seed{seed}.out"
            path.write_text(proc.stdout + proc.stderr, encoding="utf-8")
            last = proc.stdout.strip().splitlines()[-1:] or ["(no output)"]
            print(f"{workload} seed {seed}: exit {proc.returncode} wall {wall:.1f} s {last[0][:120]}",
                  flush=True)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for (workload, trace), results in sorted(compare.load_runs(args.out).items()):
        if workload not in args.workloads or trace != args.trace:
            continue
        print(f"\n== {workload} (trace {trace}), {len(results)} runs")
        names = sorted({n for r in results.values() if r for n in r["metrics"]})
        for name in names:
            values = list(compare.values_of(results, name).values())
            q1, q2, q3 = compare.quartiles(values)
            bound = bounds.get(name)
            note = f"bound {bound}" if bound is not None else ""
            print(f"   {name:<44} median {q2:<12.5g} q1 {q1:<12.5g} q3 {q3:<12.5g} "
                  f"spread {compare.spread(values):.4f} {note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
