"""Steadiness check: run each workload with several seeds and print every
end-to-end metric's spread against the bound in BENCHMARK.json.

Usage:
    python3 perfbench/steady.py [--workloads a,b] [--runs 10] [--first-seed 1]
                                [--traced] [--record] [--smoke]

The spread is (Q3 - Q1) / median over the runs, with quartiles from
statistics.quantiles(values, n=4).  The check fails when any metric's
spread, setup_s's included, reaches its bound; a spread at or above a
third of the bound, the target the bounds were set for, is marked
"above target" but does not fail the check.

With --runs 1 it prints every end-to-end metric of every workload once,
and it fails as soon as a response is wrong; --smoke makes each run one
short pass.  --traced adds one traced run per workload and prints its
end-to-end numbers beside the untraced medians: the gap is the tracing
overhead.  --record writes the medians to perfbench/record.json
together with the workload definitions.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_run(workload, seed, seconds, trace, smoke=False):
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        + (["--smoke"] if smoke else []),
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("%s seed %d failed (%d):\n%s%s"
                         % (workload, seed, proc.returncode, proc.stdout, proc.stderr))
    result = json.loads(lines[-1])
    result["elapsed_s"] = time.perf_counter() - t0
    return result


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(wl.WORKLOADS))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--record", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    record = {"workloads": wl.describe(), "results": {},
              "host": "%s, %d CPUs, Python %s" % (platform.machine(), os.cpu_count(),
                                                  platform.python_version())}
    steady = True
    for workload in args.workloads.split(","):
        runs = [one_run(workload, args.first_seed + i, seconds, 0, args.smoke)
                for i in range(args.runs)]
        traced = one_run(workload, args.first_seed, seconds, 1, args.smoke) if args.traced else None
        failed = [r["failed"] for r in runs]
        elapsed = [r["elapsed_s"] for r in runs]
        print("%s: %d runs of %.1f-%.1f s, attempted %s, failed %s"
              % (workload, len(runs), min(elapsed), max(elapsed),
                 sorted({r["attempted"] for r in runs}), sorted(set(failed))))
        rows = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            if len(values) > 1:
                q1, med, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = med = q3 = values[0]
            spread = (q3 - q1) / med if med else float("inf")
            ok = spread < bound
            steady &= ok
            verdict = "WIDE" if not ok else "above target" if spread >= bound / 3 else "ok"
            line = "  %-16s %-5s median %12.4f  Q1 %12.4f  Q3 %12.4f  spread %6.3f  bound %.3f %s" % (
                name, runs[0]["metrics"][name]["unit"], med, q1, q3, spread, bound, verdict)
            if traced and name in ("ops_per_s", "latency_p50_ms", "latency_p90_ms"):
                tv = traced["metrics"]["trace." + name]["value"]
                line += "  traced %.4f (%+.1f%%)" % (tv, 100.0 * (tv - med) / med)
            print(line)
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                          "unit": runs[0]["metrics"][name]["unit"]}
        print("  %-16s %-5s median %12.4f" % (
            "failed_frac", "ratio", statistics.median(r["failed"] / r["attempted"] for r in runs)))
        if traced:
            print("  trace.overhead_frac (span cost estimate) %.4f"
                  % traced["metrics"]["trace.overhead_frac"]["value"])
        record["results"][workload] = {
            "runs": len(runs), "seeds": [args.first_seed, args.first_seed + len(runs) - 1],
            "failed": failed, "run_elapsed_s": [round(min(elapsed), 1), round(max(elapsed), 1)],
            "metrics": rows, "traced": traced["metrics"] if traced else None}
    if args.record:
        with open(os.path.join(HERE, "record.json"), "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
