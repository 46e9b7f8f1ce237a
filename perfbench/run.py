"""bundleopt benchmark: one closed-loop client running user commands in-process.

    python3 perfbench/run.py --workload solve --seed 1 --seconds 24 --trace 0

Run from the root of a source checkout (the package is imported from
``src/``).  Each op is one CLI command called through ``bundleopt.cli.main``
with its output in a scratch directory and its stdout captured for the
checks; region refinement is called as ``applications.menu_regions``.  Ops
run one after another, in whole rounds, for about ``--seconds`` of wall
time; each answer is checked, and the last stdout line is the JSON result.

``--trace 0`` reports the end-to-end metrics; on the workloads in
``GAUGED_WORKLOADS`` op times are brought to a reference host speed by a
gauge timed around every op (``hostspeed.py``).  ``--trace 1`` runs every op
twice, untraced and traced in alternating order, and reports the per-layer
metrics of ``layers.py`` plus the tracing overhead from those pairs.
``--write-reference`` runs the pool of ``REFERENCE_SEED`` once and records
its answers in ``reference/<workload>.json``.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import os  # noqa: E402

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3  # this process plus fresh ones, for the median set-up time
CHILD_TIMEOUT_S = 120
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
# workloads whose op times are brought to the gauge's reference speed
# (hostspeed.py).  Most of their ops last two seconds or less, and readings
# taken just before and just after such an op tell the host speed it ran at.
# Three in four verify ops last about three seconds, over which the speed
# changes more than two readings at their ends show: scaling them widened the
# run-to-run spread, so verify reports its times as measured.
GAUGED_WORKLOADS = ("solve", "chain_search", "sweep")

try:  # glibc only; elsewhere peak memory may include earlier ops' fragments
    MALLOC_TRIM = ctypes.CDLL("libc.so.6").malloc_trim
    MALLOC_TRIM.argtypes = [ctypes.c_size_t]
    MALLOC_TRIM.restype = ctypes.c_int
except (OSError, AttributeError):
    MALLOC_TRIM = None

sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    p.add_argument("--seed", type=int, default=checks.REFERENCE_SEED)
    p.add_argument("--seconds", type=float, default=24.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-reference", action="store_true")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_program():
    src = ROOT / "src"
    if not (src / "bundleopt" / "cli.py").is_file():
        sys.exit(f"error: no bundleopt sources under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    from bundleopt import applications, cli

    return cli, applications


class Runner:
    """Executes ops in a scratch directory inside the checkout."""

    def __init__(self, cli, applications, work: Path):
        self.cli = cli
        self.applications = applications
        self.work = work
        self.digests = {}  # op key -> artifact digest of its first execution
        self.n_exec = 0

    def write_specs(self, ops):
        specs = self.work / "specs"
        specs.mkdir(parents=True, exist_ok=True)
        paths = {}
        for op in ops:
            if op.doc is not None:
                path = specs / f"{op.key()}.json"
                path.write_text(json.dumps(op.doc, indent=1), encoding="utf-8")
                paths[op.key()] = path
        return paths

    def execute(self, op, spec_path, tracer=None):
        """Run one op; returns (seconds, Result, warnings seen)."""
        self.n_exec += 1
        out = self.work / "out" / str(self.n_exec)
        argv = [a.replace("{spec}", str(spec_path)).replace("{out}", str(out)) for a in op.argv]
        captured = io.StringIO()
        with warnings.catch_warnings(record=True) as seen, contextlib.redirect_stdout(captured):
            warnings.simplefilter("always")
            with tracer if tracer is not None else contextlib.nullcontext():
                code, value, error = 0, None, None
                start = time.perf_counter()
                try:
                    if op.kind == "regions":
                        gamma = op.meta["gamma"]
                        apps = self.applications
                        value = apps.menu_regions(lambda b: apps.two_item_power_family(b, gamma),
                                                  op.meta["betas"])
                    else:
                        code = self.cli.main(argv)
                except Exception:  # an op that raises is a failed op, not a failed run
                    error = traceback.format_exc(limit=-3)
                elapsed = time.perf_counter() - start
        # free this op's garbage and hand freed heap pages back to the OS
        # before the next op, so peak memory is that of one command as a user
        # would run it, not of leftovers and fragments plus the next one
        gc.collect()
        if MALLOC_TRIM is not None:
            MALLOC_TRIM(0)
        return elapsed, checks.Result(code, captured.getvalue(), out, value, error), len(seen)

    def digest(self, op, res) -> str:
        h = hashlib.sha256()
        if res.value is not None:
            h.update(json.dumps(checks.answer(op, res), sort_keys=True).encode())
        if res.out_dir.is_dir():
            for path in sorted(res.out_dir.rglob("*")):
                if path.is_file():
                    h.update(path.relative_to(res.out_dir).as_posix().encode())
                    h.update(path.read_bytes())
        return h.hexdigest()[:16]

    def verify(self, op, res, reference) -> list[str]:
        """All answer checks for one execution, then drop its output."""
        if res.error is not None:
            shutil.rmtree(res.out_dir, ignore_errors=True)
            return ["raised " + res.error.strip().replace("\n", " | ")]
        try:
            errors = checks.invariants(op, res)
            digest = self.digest(op, res)
            first = self.digests.setdefault(op.key(), digest)
            if digest != first:
                errors.append(f"artifacts differ from an earlier run of the same input ({digest} vs {first})")
            if reference is not None:
                want = reference["answers"].get(op.label)
                if want is None:
                    errors.append("no reference answer for this op")
                else:
                    errors += checks.differences(checks.answer(op, res), want)[:3]
        except (OSError, KeyError, TypeError, ValueError) as exc:
            errors = [f"unreadable output: {type(exc).__name__}: {exc}"]
        finally:
            shutil.rmtree(res.out_dir, ignore_errors=True)
        return errors


def out_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file()) if path.is_dir() else 0


def tail(samples):
    """The tail percentile of op wall time, as (value, description).

    That is the highest percentile with TAIL_BEYOND samples beyond it, but
    never below the 90th: with fewer than 10 * TAIL_BEYOND samples the first
    would fall toward the median, so the 90th is reported and the
    description says how many samples lie beyond it.  The value is
    interpolated between the two samples around that rank (as
    ``statistics.quantiles(method="inclusive")`` does), so a run of few ops
    does not report one whole sample or the next on a small change in time.
    """
    s = sorted(samples)
    n = len(s)
    p = max(0.9, 1.0 - TAIL_BEYOND / n)
    pos = p * (n - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    value = s[lo] + (s[hi] - s[lo]) * (pos - lo)
    return value, f"p{100.0 * p:.1f} of n={n}, interpolated ({n * (1.0 - p):.1f} samples beyond it)"


def round_overshoots(elapsed, rounds_done, seconds) -> bool:
    """Whether one more round would end farther past ``seconds`` than the
    run now falls short of it, so runs end on the round boundary nearest
    to their time budget."""
    return elapsed + 0.5 * elapsed / rounds_done >= seconds


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def main(argv=None) -> int:
    args = parse_args(argv)
    cli, applications = import_program()
    work = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    runner = Runner(cli, applications, work)
    try:
        if args.write_reference:
            return write_reference(args, runner)
        return run(args, runner)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def write_reference(args, runner) -> int:
    if args.seed != checks.REFERENCE_SEED:
        sys.exit(f"error: references are recorded on seed {checks.REFERENCE_SEED}")
    rounds = inputs.build(args.workload, args.seed)
    ops = [op for ops in rounds for op in ops]
    paths = runner.write_specs(ops)
    answers, failures = {}, []
    for op in ops:
        _t, res, _w = runner.execute(op, paths.get(op.key()))
        if res.error is None:
            answers[op.label] = checks.answer(op, res)
        failures += [(op.label, e) for e in runner.verify(op, res, None)]
    for label, reason in failures:
        print(f"FAIL {label}: {reason}")
    if failures:
        return 1
    path = HERE / "reference" / f"{args.workload}.json"
    path.parent.mkdir(exist_ok=True)
    payload = {"workload": args.workload, "seed": args.seed,
               "input_hash": inputs.input_hash(rounds), "answers": answers}
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path.relative_to(ROOT)} ({len(answers)} answers)")
    return 0


def prepare(args, runner):
    """Set-up: generate inputs, write spec files, run the warm-up op."""
    rounds = inputs.build(args.workload, args.seed)
    warm = inputs.warmup_op(args.workload)
    paths = runner.write_specs([op for ops in rounds for op in ops] + [warm])
    _t, res, _w = runner.execute(warm, paths.get(warm.key()))
    errors = runner.verify(warm, res, None)
    return rounds, paths, warm, errors, time.perf_counter() - PROCESS_START


def setup_in_child(args):
    """(setup seconds, warm-up artifact digest) of a fresh process, or None."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    out = json.loads(lines[-1])
    return out["setup_s"], out["warmup_digest"]


def run(args, runner) -> int:
    rounds, paths, warm, errors, own_setup_s = prepare(args, runner)
    own_setup_s *= hostspeed.factor([hostspeed.reading() for _ in range(3)])
    failures = [("warmup", e) for e in errors]  # (label, reason)
    warm_digest = runner.digests.get(warm.key())
    if args.setup_only:
        print(json.dumps({"setup_s": own_setup_s, "warmup_digest": warm_digest}))
        return 0 if not failures else 1
    setup_samples = [own_setup_s]
    for _ in range(SETUP_REPEATS - 1):
        child = setup_in_child(args)
        if child is None:
            failures.append(("setup", "a set-up run in a fresh process failed"))
            continue
        setup_samples.append(child[0])
        if child[1] != warm_digest:
            failures.append(("warmup", "warm-up artifacts differ between processes"))

    reference = None
    if args.seed == checks.REFERENCE_SEED:
        reference = checks.load_reference(HERE / "reference", args.workload)
        if reference is None or reference["input_hash"] != inputs.input_hash(rounds):
            failures.append(("reference", "reference answers missing or recorded on other inputs"))
            reference = None

    # -- timed closed loop over whole rounds, ending at the boundary nearest --seconds
    times, traced_times, untraced_times = [], [], []  # times: as reported, untraced runs only
    bytes_written, warning_counts, op_lines = [], [], []
    tracer = layers.Tracer() if args.trace else None
    gauged = tracer is None and args.workload in GAUGED_WORKLOADS
    attempted = failed = 0
    loop_start = time.perf_counter()
    r = 0
    while r == 0 or not round_overshoots(time.perf_counter() - loop_start, r, args.seconds):
        for op in rounds[r % len(rounds)]:
            spec = paths.get(op.key())
            if tracer is None:
                modes = [None]
            else:
                tracer.op_id = attempted
                modes = [None, tracer] if r % 2 == 0 else [tracer, None]
            for mode in modes:
                before = hostspeed.reading() if gauged else None
                elapsed, res, n_warn = runner.execute(op, spec, mode)
                line = f"op {op.label} {'traced' if mode else 'untraced'} {elapsed:.4f} s exit {res.code}"
                if gauged:
                    after = hostspeed.reading()
                    times.append(elapsed * hostspeed.factor([before, after]))
                    line += f"; {times[-1]:.4f} s at reference speed (gauge {before:.5f}, {after:.5f} s)"
                elif tracer is None:
                    times.append(elapsed)
                if mode is not None:
                    bytes_written.append(out_bytes(res.out_dir))
                    warning_counts.append(n_warn)
                errors = runner.verify(op, res, reference)
                attempted += 1
                if errors:
                    failed += 1
                    failures += [(op.label, e) for e in errors]
                (traced_times if mode is not None else untraced_times).append(elapsed)
                op_lines.append(line)
        r += 1

    # -- report
    print(f"workload {args.workload} seed {args.seed} input_hash {inputs.input_hash(rounds)}; "
          f"{r} rounds of {len(rounds[0])} ops; one client, closed loop, "
          f"{'traced' if tracer else 'untraced'}")
    print(f"artifacts {hashlib.sha256(''.join(runner.digests.values()).encode()).hexdigest()[:16]}")
    print("\n".join(op_lines))
    for label, reason in failures:
        print(f"FAIL {label}: {reason}")
    print(f"fail_ratio {failed}/{attempted} = {failed / attempted:.4f}")
    if tracer is None:
        tail_value, tail_label = tail(times)
        metrics = {
            "ops_per_s": metric(len(times) / sum(times), "1/s"),
            "op_p50_s": metric(statistics.median(times), "s"),
            "op_tail_s": metric(tail_value, "s"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "setup_s": metric(statistics.median(setup_samples), "s"),
        }
        print(f"op_tail_s is the {tail_label}")
        if gauged:
            raw = untraced_times
            print(f"as measured, before scaling to the reference speed: ops_per_s "
                  f"{len(raw) / sum(raw):.4f} 1/s, op_p50_s {statistics.median(raw):.4f} s, "
                  f"op_tail_s {tail(raw)[0]:.4f} s")
        print(f"setup_s is the median of {[round(s, 3) for s in setup_samples]} s "
              "(process start to warm-up op done, in this and fresh processes)")
    else:
        n = len(traced_times)
        values = tracer.metrics(n)
        values["cli.bytes_written"] = statistics.fmean(bytes_written)
        values["cli.warnings"] = statistics.fmean(warning_counts)
        values["trace.ops_per_s"] = n / sum(traced_times)
        values["trace.untraced_ops_per_s"] = len(untraced_times) / sum(untraced_times)
        values["trace.overhead_share"] = sum(traced_times) / sum(untraced_times) - 1.0
        metrics = {name: metric(values[name], unit) for name, unit in layers.PER_LAYER}
        print(f"{len(tracer.spans)} spans over {n} traced ops; observers took {tracer.observe_s:.3f} s")
        spans_path = ROOT / ".perfbench" / f"spans-{args.workload}-{args.seed}.json"
        spans_path.write_text(json.dumps(tracer.spans), encoding="utf-8")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    result = {"correct": not failures, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
