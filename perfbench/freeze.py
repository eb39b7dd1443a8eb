"""Freeze golden digests of the program's output for every benchmark key.

Usage: python3 perfbench/freeze.py

Runs every key of every workload once (two workers, generous deadlines)
and writes perfbench/golden.json: key -> sha256 of the output.  Keys
that do not finish within the deadline get no digest; the checker then
relies on its oracles alone.  Run it only on a commit whose output is
known to be right: the digests define "correct" for later commits.
"""

import json
import sys

import checker
import run
import workloads as wl

FREEZE_DEADLINE_S = 30.0


def main() -> int:
    reqs = wl.atlas_keys() + wl.neron_keys() + [("battery", "", p) for p in wl.verify_primes()]
    results, wall, _ = run.run_pass(reqs, 2, FREEZE_DEADLINE_S, False, [])
    golden, bad = {}, 0
    for op in results:
        key = wl.request_key(op["req"])
        if op["status"] != "ok":
            print("no digest for %s (%s)" % (key, op["status"]))
            continue
        reason = checker.check(op["req"], True, op["rc"], op["out"], {})
        if reason:
            bad += 1
            print("oracle disagrees on %s: %s" % (key, reason))
            continue
        golden[key] = checker.digest(op["out"])
    with open(checker.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("%d digests in %.1f s, %d oracle disagreements" % (len(golden), wall, bad))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
