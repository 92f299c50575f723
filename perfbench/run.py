#!/usr/bin/env python3
"""End-to-end benchmark of the rcbroadcast simulator (see README.md).

One run of one workload:
    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
The last line of standard output is the result object
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

Repeat mode, to set and check the bounds of BENCHMARK.json:
    python3 perfbench/run.py --repeat 10 --workload <name> [--seed n] [--vary-seed]
Runs the workload N times and prints each metric's median, quartiles and
spread (interquartile range / median).  With a fixed seed it also asserts
that the simulated work (trials, events, slots, digests) is identical.

Quick mode, the benchmark's own test (well under a minute):
    python3 perfbench/run.py --quick
Runs every workload with small trial counts, traced and untraced, and
checks that every output check passes and that the printed metric names
and units are those of BENCHMARK.json.

The benchmark is built from the checkout's sources on first use, into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["broadcast_fleet", "mc_hopping", "duel_sweep", "duel_sharded"]
# A run must end within 180 s; the binary is stopped a little before that.
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_root():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return base if base.is_absolute() else ROOT / base


def build():
    """Configures (once) and builds the benchmark; returns the binary."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no simulator sources at {ROOT / 'src'}; "
             "run from a full checkout")
    bdir = build_root() / "perfbench"
    bdir.mkdir(parents=True, exist_ok=True)
    log_path = bdir / "build.log"
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(bdir), "-j", "4"])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                code = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                      cwd=ROOT).returncode
            except OSError as e:
                fail(f"cannot run {cmd[0]}: {e}")
            if code != 0:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed ({' '.join(cmd)}); see {log_path}")
    return bdir / "rcb_perfbench"


def run_binary(binary, workload, seed, seconds, trace, quick=False, echo=True):
    """Runs one workload; returns (exit code, stdout lines)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", str(build_root() / "work")]
    if quick:
        cmd.append("--quick")
    # The benchmark measures the build's default kernel dispatch.
    env = {k: v for k, v in os.environ.items() if k != "RCB_SIMD"}
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                              env=env, timeout=RUN_TIMEOUT_S,
                              stderr=None if echo else subprocess.PIPE)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if not echo and proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    return proc.returncode, lines


def parse_result(lines):
    """The result object and the work counters of one run."""
    result = json.loads(lines[-1]) if lines else None
    work = None
    for line in lines:
        if line.startswith("work "):
            work = json.loads(line[len("work "):])
    return result, work


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def repeat(args, spec):
    binary = build()
    seconds = args.seconds or spec["run_seconds"]
    trace = args.trace if args.trace is not None else 0
    results, works = [], []
    for i in range(args.repeat):
        seed = args.seed + (i if args.vary_seed else 0)
        code, lines = run_binary(binary, args.workload, seed, seconds, trace,
                                 echo=False)
        result, work = parse_result(lines)
        if code != 0 or not result or not result.get("correct"):
            print("\n".join(lines[-20:]))
            fail(f"run {i} (seed {seed}) failed with exit code {code}")
        results.append(result)
        works.append(work)
        print(f"run {i + 1}/{args.repeat} seed {seed}: " + ", ".join(
            f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()),
            flush=True)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    print(f"\n{args.workload}: {args.repeat} runs of {seconds} s, "
          f"trace {trace}")
    print(f"{'metric':40s} {'median':>14s} {'q1':>14s} {'q3':>14s} "
          f"{'spread':>8s} {'bound':>6s}")
    ok = True
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, q2, q3 = quartiles(values)
        spread = (q3 - q1) / q2 if q2 else 0.0
        bound = bounds.get(name)
        mark = ""
        if bound is not None and name != "setup_s" and spread > bound / 3:
            mark = "  > bound/3"
        print(f"{name:40s} {q2:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f} "
              f"{'' if bound is None else bound:>6}{mark}")
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"failed share: {sorted(shares)}")
    if len(shares) != 1:
        ok = False
        print("FAIL: the failed share differs between runs")
    if not args.vary_seed:
        if any(w != works[0] for w in works):
            ok = False
            print("FAIL: simulated work differs between runs of one seed")
            for w in works:
                print(f"  {w}")
        else:
            print(f"simulated work identical across runs: {works[0]}")
    return 0 if ok else 1


def quick(spec):
    binary = build()
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    ok = True
    for workload in WORKLOADS:
        if workload not in {w["name"] for w in spec["workloads"]}:
            ok = False
            print(f"FAIL {workload}: not a workload of BENCHMARK.json")
        for trace in (0, 1):
            code, lines = run_binary(binary, workload, 1, spec["run_seconds"],
                                     trace, quick=True, echo=False)
            result, _ = parse_result(lines)
            problems = [f"check {l[len('check FAIL '):]}" for l in lines
                        if l.startswith("check FAIL ")]
            if code != 0 or result is None:
                problems.append(f"exit code {code}")
            else:
                got = {k: m["unit"] for k, m in result["metrics"].items()}
                if got != expected[trace]:
                    problems.append(f"metrics {got} != BENCHMARK.json "
                                    f"{expected[trace]}")
                if not result["correct"]:
                    problems.append("correct is false")
                if result["attempted"] < 1:
                    problems.append("no trial attempted")
            passed = sum(l.startswith("check PASS ") for l in lines)
            status = "ok  " if not problems else "FAIL"
            print(f"{status} {workload} trace {trace}: {passed} checks passed"
                  + "".join(f"\n     {p}" for p in problems), flush=True)
            ok = ok and not problems
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=[0, 1])
    p.add_argument("--repeat", type=int, help="run the workload N times")
    p.add_argument("--vary-seed", action="store_true",
                   help="with --repeat: run i uses seed + i")
    p.add_argument("--quick", action="store_true",
                   help="run every workload small and check the output")
    args = p.parse_args()

    if args.quick:
        return quick(load_spec())
    if args.workload is None:
        p.error("--workload is required")
    if args.repeat:
        return repeat(args, load_spec())
    if args.seconds is None or args.trace is None:
        p.error("--seconds and --trace are required")
    binary = build()
    code, _ = run_binary(binary, args.workload, args.seed, args.seconds,
                         args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
