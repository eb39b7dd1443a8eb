"""Benchmark worker: serves requests to fibercurve over stdin/stdout.

Usage: python3 perfbench/worker.py ROOT TRACE

ROOT is the checkout holding src/fibercurve; TRACE is 0 or 1.  The
worker imports fibercurve, builds the CLI parser, prints one "ready"
line and then answers one JSON request per line:

    {"argv": [...], "deadline": s}    -> cli.main(argv), stdout captured
    {"battery": p, "deadline": s}     -> cli.checks_for_prime(p)

Each answer carries the status (ok, deadline, error), the exit code, the
captured output, the busy (wall) time, the CPU time and, when tracing,
the spans.  The deadline is a budget of CPU time (user + system) of this
process, so a host that gives the worker less of a core does not turn a
finishing request into a miss.  A request still running when its budget
is spent is interrupted by a profiling-timer signal and reported as a
miss; the client then replaces the worker.

The "ready" line carries the CPU time the process used to start, import
fibercurve and build the parser (`setup_cpu_s`).
"""

import contextlib
import io
import json
import os
import resource
import signal
import sys
import time
import traceback


class DeadlineExceeded(BaseException):
    """Raised when the request's CPU budget is spent; a BaseException so
    no handler in the program that catches Exception can swallow it."""


def _on_budget_spent(signum, frame):
    raise DeadlineExceeded()


def cpu_time() -> float:
    """User + system CPU seconds of this process.  getrusage, not
    time.process_time(): while the profiling timer is armed, the process
    CPU clock is only sampled at scheduler ticks."""
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def serve(root: str, trace: bool) -> None:
    proto = sys.stdout
    sys.path.insert(0, os.path.join(root, "src"))
    from fibercurve import cli

    cli.build_parser()
    setup_cpu = cpu_time()
    rec = None
    span_cost = 0.0
    if trace:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracer

        rec = tracer.install()
        span_cost = rec.calibrate()
    signal.signal(signal.SIGPROF, _on_budget_spent)
    proto.write(json.dumps({"ready": True, "setup_cpu_s": setup_cpu,
                            "span_cost_s": span_cost}) + "\n")
    proto.flush()
    for line in sys.stdin:
        msg = json.loads(line)
        out, err = io.StringIO(), io.StringIO()
        status, rc = "ok", 0
        t0 = time.perf_counter()
        c0 = cpu_time()
        try:
            signal.setitimer(signal.ITIMER_PROF, msg["deadline"])
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if "battery" in msg:
                    results = cli.checks_for_prime(msg["battery"])
                    out.write(json.dumps(results, sort_keys=True))
                else:
                    try:
                        rc = cli.main(msg["argv"])
                    except SystemExit as exc:  # argparse usage errors
                        rc = exc.code if isinstance(exc.code, int) else 2
        except DeadlineExceeded:
            status = "deadline"
        except Exception:  # a crash on one request is reported, not fatal
            status = "error"
            err.write(traceback.format_exc())
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
        busy = time.perf_counter() - t0
        cpu = cpu_time() - c0
        proto.write(json.dumps({
            "status": status, "rc": rc, "out": out.getvalue(), "err": err.getvalue()[-2000:],
            "busy_s": busy, "cpu_s": cpu, "spans": rec.take() if rec else [],
        }) + "\n")
        proto.flush()


if __name__ == "__main__":
    serve(sys.argv[1], sys.argv[2] == "1")
