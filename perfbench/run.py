#!/usr/bin/env python3
"""Benchmark runner: builds `perfbench`, runs one workload repeatedly in
fresh processes, measures each process from outside, checks every cell's
output digest and prints the medians.

    python3 perfbench/run.py --workload osu_colloc --seed 1 --seconds 30 --trace 0

Run from the repository root. The last line of standard output is one JSON
object with the keys `correct`, `attempted`, `failed` and `metrics`. With
`--trace 0` the metrics are the end-to-end ones of BENCHMARK.json; with
`--trace 1` they are its per-layer ones, and spans are written to
`.bench_out/`. `--bless` records this run's digests as the golden ones for
its seed. See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden.json"
SPANS_DIR = ROOT / ".bench_out"

# The partitioned engine is the only host parallelism; the task pool is
# off, so every cell runs serially on the main thread.
PINNED = {"HLWK_ENGINE_THREADS": "2", "HLWK_THREADS": "1"}
# Variables that change the measured program: the in-LWK bypass profile
# and anything that tunes glibc malloc (set-up time moves 150x with the
# mmap threshold).
CLEARED = ("HLWK_BYPASS",)

# Untraced processes per invocation at least; a traced invocation runs
# at least MIN_PAIRS (untraced, traced) pairs.
MIN_REPS = 3
MIN_PAIRS = 2
# Every invocation must end within 180 s; stop starting runs in time.
BUDGET_S = 165.0
CHILD_TIMEOUT_S = 150.0


def die(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def child_env():
    tuned = sorted(k for k in os.environ if k.startswith("MALLOC_"))
    if "malloc" in os.environ.get("GLIBC_TUNABLES", ""):
        tuned.append("GLIBC_TUNABLES")
    if tuned:
        die(f"refusing to run with allocator tuning set: {', '.join(tuned)}")
    env = {k: v for k, v in os.environ.items() if k not in CLEARED}
    env.update(PINNED)
    return env


def build(env):
    """Build the benchmark binary; returns its path."""
    if not (ROOT / "crates" / "cluster" / "Cargo.toml").is_file():
        die(f"no hlwk sources under {ROOT}; run from a full checkout")
    target = Path(env.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    env = dict(env, CARGO_TARGET_DIR=str(target))
    cmd = ["cargo", "build", "--release", "--quiet", "--manifest-path", str(HERE / "Cargo.toml")]
    t0 = time.monotonic()
    res = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if res.returncode != 0:
        die(f"build failed ({' '.join(cmd)})")
    print(f"build: {time.monotonic() - t0:.1f} s", file=sys.stderr)
    return target / "release" / "perfbench"


def run_child(binary, args, env):
    """Run one workload in a fresh process; returns its report plus the
    kernel's rusage for it, or None if the process failed."""
    t0 = time.monotonic()
    proc = subprocess.Popen([str(binary), *args], cwd=ROOT, env=env, stdout=subprocess.PIPE)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
    elapsed = time.monotonic() - t0
    if proc.returncode != 0:
        print(f"run.py: {' '.join(args)} exited with {proc.returncode}", file=sys.stderr)
        return None, elapsed
    rec = json.loads(out.decode().strip().splitlines()[-1])
    rec["cpu_s"] = usage.ru_utime + usage.ru_stime
    rec["sys_s"] = usage.ru_stime
    rec["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    print(f"  process: wall_s={rec['wall_s']:.4f} setup_s={rec['setup_s']:.4f} cpu_s={rec['cpu_s']:.4f} "
          f"sys_s={rec['sys_s']:.4f} peak_rss_mb={rec['peak_rss_mb']:.1f} trace={'--trace' in args}",
          file=sys.stderr)
    return rec, elapsed


def load_golden():
    return json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}


def count_failed(reports, expected):
    """Cells attempted and failed over `reports` (one per process; None
    for a process that failed, counted as one failed attempt). A cell
    fails if it reports `ok: false`, if its digest differs from
    `expected` (golden digests by cell id, when this seed has them), or
    if it differs from the same cell in the first report."""
    attempted = failed = 0
    first = {}
    for rep in reports:
        if rep is None:
            attempted += 1
            failed += 1
            continue
        for cell in rep["cells"]:
            attempted += 1
            ref = first.setdefault(cell["id"], cell["digest"])
            bad = not cell["ok"] or cell["digest"] != ref
            if expected is not None and expected.get(cell["id"]) != cell["digest"]:
                bad = True
            failed += bad
    return attempted, failed


def median(xs):
    return statistics.median(xs) if xs else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--bless", action="store_true", help="record this run's digests as golden")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        die(f"unknown workload {args.workload}; choose from {', '.join(names)}")
    if args.seed < 0:
        die("seed must be non-negative")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    start = time.monotonic()
    env = child_env()
    binary = build(env)
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    SPANS_DIR.mkdir(exist_ok=True)
    spans = SPANS_DIR / f"{args.workload}-seed{args.seed}.spans.json"

    plain, traced, reports = [], [], []
    t0 = time.monotonic()
    longest = 0.0
    while True:
        enough = len(traced) >= MIN_PAIRS if args.trace else len(reports) >= MIN_REPS
        if enough and time.monotonic() - t0 >= args.seconds:
            break
        if time.monotonic() - start + longest * (1 + args.trace) > BUDGET_S:
            break
        rec, took = run_child(binary, base, env)
        longest = max(longest, took)
        reports.append(rec)
        if rec is not None:
            plain.append(rec)
        if args.trace:
            rec, took = run_child(binary, base + ["--trace", "--spans", str(spans)], env)
            longest = max(longest, took)
            reports.append(rec)
            if rec is not None:
                traced.append(rec)

    expected = load_golden().get(args.workload, {}).get(str(args.seed))
    attempted, failed = count_failed(reports, expected)
    if args.bless and failed == 0 and plain:
        all_golden = load_golden()
        entry = all_golden.setdefault(args.workload, {})
        entry[str(args.seed)] = {c["id"]: c["digest"] for c in plain[0]["cells"]}
        GOLDEN.write_text(json.dumps(all_golden, indent=1, sort_keys=True) + "\n")

    values = {}
    if args.trace:
        for m in wanted:
            values[m["name"]] = median([r["layers"][m["name"]] for r in traced if m["name"] in r["layers"]])
        values["process.sys_s"] = median([r["sys_s"] for r in plain])
        values["trace.overhead_s"] = median([r["wall_s"] for r in traced]) - median([r["wall_s"] for r in plain])
    else:
        for m in wanted:
            values[m["name"]] = median([r[m["name"]] for r in plain])

    print(f"host: nproc={os.cpu_count()} " + " ".join(f"{k}={v}" for k, v in PINNED.items()))
    check = "golden digests" if expected is not None else "no golden digests for this seed; runs must agree"
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(plain)} untraced + {len(traced)} traced processes, {check}")
    print(f"cells: {attempted} attempted, {failed} failed")
    for m in wanted:
        print(f"  {m['name']:<36} {values[m['name']]:>16.6f} {m['unit']}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": failed == 0 and len(plain) > 0, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
