"""The fibercurve benchmark: one run of one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload atlas-cold --seed 1 --seconds 25 --trace 0

Workloads: atlas-cold, neron-cold, cached-repeat, verify-sweep (see
workloads.py for what each sends and why).  The requests are served by
worker processes running perfbench/worker.py against src/fibercurve;
the client enforces the workload's deadline (replacing a worker that
misses it) and checks every response after each timed pass
(checker.py).

Times are CPU times (user + system) of the worker process that serves
the request, not wall-clock times: wall time also counts the time a
worker waits for a core while other processes run, which on a machine
of two or three cores shared with other work moves more from run to run
than the program does.  On an idle core the two agree.  A request's latency is its
CPU time, and the deadline is a CPU-time budget; ops_per_s divides the
operations by the time the closed loop would take with each worker on a
core of its own (`makespan`); setup_s is the CPU time a fresh worker
needs to import fibercurve and build the parser.

--seconds sets how many passes a run makes (workloads.passes_for).  The
last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 they
are the per-layer ones (tracer.py), and spans are written to
.perfbench/spans-<workload>-<seed>.jsonl.  --smoke shrinks every pass so
a workload runs in seconds.  Exit code 0 on a correct run, 1 when a
response is wrong, 2 on a usage error or when the program is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import select
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checker  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402

OUT_DIR = os.path.join(ROOT, ".perfbench")
SETUP_PROBES = 5  # fresh interpreters before each pass and after the last
READY_TIMEOUT_S = 60.0
# A worker stops itself when its CPU budget is spent; one that has not
# answered WALL_SLACK x deadline + GRACE_S wall seconds after the request
# was sent is killed, for a host that gives it a quarter of a core or less.
WALL_SLACK = 4.0
GRACE_S = 3.0

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "success_frac": "ratio",
    "peak_rss_mb": "MB",
}


class WorkerGone(Exception):
    pass


class Worker:
    """One worker process and its line-oriented pipe."""

    def __init__(self, trace: bool):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), ROOT, "1" if trace else "0"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT,
        )
        self.buf = b""
        self.span_cost_s = 0.0
        self.setup_cpu_s = 0.0

    def fileno(self):
        return self.proc.stdout.fileno()

    def ready(self):
        msg = self.recv(READY_TIMEOUT_S)
        if msg is None or not msg.get("ready"):
            raise WorkerGone("worker did not start")
        self.span_cost_s = msg["span_cost_s"]
        self.setup_cpu_s = msg["setup_cpu_s"]
        return self

    def send(self, msg: dict):
        self.proc.stdin.write((json.dumps(msg) + "\n").encode())
        self.proc.stdin.flush()

    def recv(self, timeout: float):
        """The next message, or None when `timeout` passes first."""
        end = time.perf_counter() + timeout
        while b"\n" not in self.buf:
            left = end - time.perf_counter()
            if left <= 0 or not select.select([self], [], [], left)[0]:
                return None
            chunk = os.read(self.fileno(), 1 << 20)
            if not chunk:
                raise WorkerGone("worker exited")
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return json.loads(line)

    def stop(self, kill=False):
        if self.proc.poll() is None:
            if kill:
                self.proc.kill()
            else:
                self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        for f in (self.proc.stdin, self.proc.stdout):
            if not f.closed:
                f.close()


def measure_setup(workers: int) -> list:
    """CPU seconds for fresh interpreters to import fibercurve and build
    the parser; with several workers, which start side by side, the
    slowest of them.

    The probes are spread over the run (see `run`), so that the median
    samples the whole run and not one moment of it.
    """
    times = []
    for _ in range(SETUP_PROBES):
        started = [Worker(False) for _ in range(workers)]
        try:
            for w in started:
                w.ready()
            times.append(max(w.setup_cpu_s for w in started))
        finally:
            for w in started:
                w.stop()
    return times


def message(req, deadline, extra_argv):
    if req[0] == "battery":
        return {"battery": req[2], "deadline": deadline}
    return {"argv": wl.request_argv(req) + extra_argv, "deadline": deadline}


def outcome(req, valid, resp, wall_s, wait_s, deadline):
    """A request's record; its latency is the CPU time it took, or the
    deadline when it missed it."""
    missed = resp is None or resp["status"] == "deadline"
    return {
        "req": req, "valid": valid,
        "status": "deadline" if missed else resp["status"],
        "rc": None if resp is None else resp["rc"],
        "out": "" if resp is None else resp["out"],
        "err": "" if resp is None else resp["err"],
        "latency_s": deadline if missed else resp["cpu_s"],
        "busy_s": wall_s if resp is None else resp["busy_s"],
        "wait_s": wait_s,
        "spans": [] if resp is None else resp["spans"],
    }


def run_pass(reqs, workers, deadline, trace, live, extra_argv=()):
    """Closed loop: each worker takes the next request when it answers.

    Returns (outcomes, wall seconds, span cost).  A worker that misses
    the deadline is replaced; the replacement's start-up counts in the
    wall time.
    """
    valid = [r[0] == "battery" or wl.valid(r) for r in reqs]
    pool = [Worker(trace) for _ in range(workers)]
    live.extend(pool)
    for w in pool:
        w.ready()
    wall_limit = WALL_SLACK * deadline + GRACE_S
    queue = list(range(len(reqs)))
    inflight = {}  # worker -> (index, dispatch time)
    results = [None] * len(reqs)
    t_start = time.perf_counter()

    def dispatch(w):
        if queue:
            i = queue.pop(0)
            w.send(message(reqs[i], deadline, list(extra_argv)))
            inflight[w] = (i, time.perf_counter())

    for w in pool:
        dispatch(w)
    while inflight:
        ready = [w for w in inflight if b"\n" in w.buf]
        if not ready:
            limit = min(t + wall_limit for _, t in inflight.values())
            ready = select.select(list(inflight), [], [],
                                  max(0.0, limit - time.perf_counter()))[0]
        if not ready:  # no answer in time: the overdue workers
            now = time.perf_counter()
            ready = [w for w, (_, t) in inflight.items() if now >= t + wall_limit]
        for w in ready:
            i, t_sent = inflight.pop(w)
            try:
                resp = w.recv(max(0.0, t_sent + wall_limit - time.perf_counter()))
            except WorkerGone:
                gone_s = time.perf_counter() - t_sent
                resp = {"status": "error", "rc": None, "out": "", "err": "worker exited",
                        "busy_s": gone_s, "cpu_s": gone_s, "spans": []}
            wall_s = time.perf_counter() - t_sent
            # with one worker the loop is closed; with several, the pass is
            # queued at once (as `verify --jobs N` does) and waits for a worker
            wait = t_sent - t_start if workers > 1 else 0.0
            results[i] = outcome(reqs[i], valid[i], resp, wall_s, wait, deadline)
            if results[i]["status"] == "deadline" or w.proc.poll() is not None:
                w.stop(kill=True)
                live.remove(w)
                w = Worker(trace)
                live.append(w)
                w.ready()
            dispatch(w)
    wall = time.perf_counter() - t_start
    for w in list(live):
        w.stop()
        live.remove(w)
    return results, wall, pool[0].span_cost_s


def makespan(ops, workers: int, restart_s: float) -> float:
    """Seconds the closed loop takes when each worker has a core of its
    own: every pass starts with fresh workers, its operations, in the
    order they were sent, each go to the worker free first and hold it
    for their latency, and a worker replaced after a deadline miss is
    busy `restart_s` longer."""
    total = 0.0
    for pass_no in sorted({op["pass"] for op in ops}):
        free = [0.0] * workers
        for op in ops:
            if op["pass"] == pass_no:
                k = free.index(min(free))
                free[k] += op["latency_s"] + (restart_s if op["status"] == "deadline" else 0.0)
        total += max(free)
    return total


def _beta_cf(a, b, x):
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 2000):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return h


def _beta_cdf(x, a, b):
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def quantile(xs, q):
    """Harrell-Davis estimate of the q-quantile.

    A weighted mean of all order statistics, weights from a Beta((n+1)q,
    (n+1)(1-q)) law; with few samples near the quantile it varies far
    less from run to run than the single order statistic does.
    """
    xs = sorted(xs)
    n = len(xs)
    if n == 1:
        return xs[0]
    a, b = q * (n + 1), (1 - q) * (n + 1)
    cdf = [_beta_cdf(i / n, a, b) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs))


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def judge(op, golden):
    """None when the operation succeeded, else why it failed."""
    if op["status"] == "deadline":
        return "deadline"
    if op["status"] == "error":
        return "unexpected exception: %s" % op["err"].strip().splitlines()[-1:]
    return checker.check(op["req"], op["valid"], op["rc"], op["out"], golden)


def run(workload, seed, seconds, trace, smoke, golden):
    """Measure `wl.passes_for(workload, seconds)` passes.

    The pass count depends on --seconds alone, never on the clock, so
    every run of a workload does the same work.  Each response is judged
    when its pass ends and its output dropped, so the client's own
    memory does not grow with the run.
    """
    workers = wl.VERIFY_WORKERS if workload == "verify-sweep" else 1
    deadline = wl.DEADLINE_S[workload]
    passes = 1 if smoke else wl.passes_for(workload, seconds)
    os.makedirs(OUT_DIR, exist_ok=True)
    setup, ops, wall, span_cost = [], [], 0.0, 0.0
    live = []
    os.environ.pop("FIBERCURVE_CACHE", None)
    try:
        for pass_no in range(passes):
            setup += measure_setup(workers)
            reqs = wl.build_pass(workload, seed, pass_no, smoke)
            extra_argv, cache_dir = [], None
            if workload == "cached-repeat":
                cache_dir = os.path.join(OUT_DIR, "cache-%d-%d" % (os.getpid(), pass_no))
                shutil.rmtree(cache_dir, ignore_errors=True)
                extra_argv = ["--cache", cache_dir]
            try:
                results, w, span_cost = run_pass(reqs, workers, deadline, trace, live,
                                                 extra_argv)
            finally:
                if cache_dir:
                    shutil.rmtree(cache_dir, ignore_errors=True)
            for op in results:
                op["pass"] = pass_no
                op["failure"] = judge(op, golden)
                del op["out"], op["err"]
            ops += results
            wall += w
        setup += measure_setup(workers)
    finally:
        for w in live:
            w.stop(kill=True)
    return setup, ops, wall, passes, span_cost


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="one short pass")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "fibercurve", "cli.py")):
        print("error: no fibercurve sources under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    try:
        setup, ops, wall, passes, span_cost = run(
            args.workload, args.seed, args.seconds, args.trace == 1, args.smoke,
            checker.load_golden())
    except WorkerGone as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2

    failures = [op for op in ops if op["failure"]]
    wrong = [(wl.request_key(op["req"]), op["failure"])
             for op in failures if op["failure"] != "deadline"]
    failed = len(failures)

    lat = [op["latency_s"] * 1000.0 for op in ops]
    workers = wl.VERIFY_WORKERS if args.workload == "verify-sweep" else 1
    e2e = {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(ops) / makespan(ops, workers, statistics.median(setup)),
        "latency_p50_ms": quantile(lat, 0.5),
        "latency_p90_ms": quantile(lat, 0.9),
        "success_frac": 1.0 - failed / len(ops),
        "peak_rss_mb": peak_rss_mb(),
    }
    samples = {"setup_s": len(setup), "ops_per_s": len(ops), "latency_p50_ms": len(lat),
               "latency_p90_ms": len(lat), "success_frac": len(ops), "peak_rss_mb": 1}
    misses = {wl.request_key(op["req"]) for op in failures if op["failure"] == "deadline"}
    expected = set(wl.EXPECTED_MISSES.get(args.workload, ()))
    print("workload %s seed %d: %d passes, %d ops in %.2f s wall, %d failed (%d deadline misses)"
          % (args.workload, args.seed, passes, len(ops), wall, failed,
             sum(op["failure"] == "deadline" for op in failures)))
    if misses:
        print("deadline misses: %s" % ", ".join(sorted(misses)))
    if misses ^ expected and not args.smoke:
        print("misses the seed did not have: %s; seed misses that now finish: %s"
              % (sorted(misses - expected), sorted(expected - misses)))
    for key, reason in wrong[:20]:
        print("WRONG %s: %s" % (key, reason))
    label = "traced " if args.trace else ""
    for name, unit in END_TO_END.items():
        print("  %s%-16s %14.4f %-5s (n=%d)" % (label, name, e2e[name], unit, samples[name]))
    print("  %s%-16s %14.4f %-5s (n=%d)" % (label, "failed_frac", failed / len(ops), "ratio",
                                            len(ops)))

    if args.trace:
        layer = tracer.layer_metrics(
            ops, passes, wall, workers, span_cost)
        layer["trace.ops_per_s"] = e2e["ops_per_s"]
        layer["trace.latency_p50_ms"] = e2e["latency_p50_ms"]
        layer["trace.latency_p90_ms"] = e2e["latency_p90_ms"]
        path = os.path.join(OUT_DIR, "spans-%s-%d.jsonl" % (args.workload, args.seed))
        with open(path, "w", encoding="utf-8") as fh:
            for op_id, op in enumerate(ops):
                for s in op["spans"]:
                    fh.write(json.dumps({"op": op_id, "name": s[0], "start": s[1],
                                         "end": s[2], "parent": s[3], "failed": s[4]}) + "\n")
        for name, unit in tracer.PER_LAYER.items():
            print("  %-28s %14.6f %s" % (name, layer[name], unit))
        metrics = {n: {"value": layer[n], "unit": u} for n, u in tracer.PER_LAYER.items()}
    else:
        metrics = {n: {"value": e2e[n], "unit": u} for n, u in END_TO_END.items()}
    print(json.dumps({"correct": not wrong, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
