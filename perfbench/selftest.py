"""Self-tests of the benchmark, in seconds, through its smoke mode.

Run with `python3 perfbench/selftest.py` or `python3 -m pytest perfbench/selftest.py`.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checker  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402
from run import END_TO_END, makespan  # noqa: E402


def bench(*args, cwd=ROOT):
    script = os.path.join(cwd, "perfbench", "run.py")
    return subprocess.run([sys.executable, script, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def smoke(workload, trace=0):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    return result


def test_every_workload_smoke_untraced():
    for workload in wl.WORKLOADS:
        result = smoke(workload)
        assert set(result["metrics"]) == set(END_TO_END)
        assert all(m["value"] > 0 for m in result["metrics"].values()), result
        # the smoke neron pass holds s@11, which the seed never finishes
        assert (result["failed"] >= 1) == (workload == "neron-cold"), result


def test_traced_run_reports_every_layer():
    results = {}
    for workload in ("atlas-cold", "cached-repeat", "neron-cold"):
        result = smoke(workload, trace=1)
        assert set(result["metrics"]) == set(tracer.PER_LAYER)
        results[workload] = {n: m["value"] for n, m in result["metrics"].items()}
    assert results["neron-cold"]["neron.deadline_misses"] >= 1
    assert results["neron-cold"]["neron.snf_s"] > 0
    assert results["cached-repeat"]["cli.cache_hit_ratio"] > 0.5
    # without --cache a lookup is a bypass, not a miss
    assert results["atlas-cold"]["cli.cache_read_ms"] == 0
    assert results["atlas-cold"]["projline.group_build_s"] > 0


def test_generator_is_seeded_and_respects_gates():
    for workload in wl.WORKLOADS:
        a = wl.build_pass(workload, 7, 0)
        assert a == wl.build_pass(workload, 7, 0)
        b = wl.build_pass(workload, 8, 0)
        assert a != b
        if workload != "cached-repeat":  # there the seed also picks the hot keys
            assert sorted(r for r in a if wl.valid(r)) == sorted(r for r in b if wl.valid(r)), \
                "the valid requests of a pass are a fixed set"
    reqs = wl.build_pass("atlas-cold", 1, 0)
    invalid = [r for r in reqs if not wl.valid(r)]
    assert len(invalid) == len(reqs) // wl.INVALID_EVERY
    assert len(set(reqs) - set(invalid)) == len(reqs) - len(invalid), "distinct keys"


def test_expected_misses_are_in_the_inputs():
    for workload, misses in wl.EXPECTED_MISSES.items():
        keys = {wl.request_key(r) for r in wl.build_pass(workload, 1, 0)}
        assert set(misses) <= keys, sorted(set(misses) - keys)


def test_benchmark_json_matches_the_metrics_reported():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == list(END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(tracer.PER_LAYER)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == wl.WHY


def test_checker_catches_wrong_answers():
    golden = checker.load_golden()
    req = ("neron", "ns+", 29)
    good = {"family": "ns+", "p": 29, "invariants": [8, 56], "order": 448,
            "group": "Z/8 x Z/56", "verdict": "match"}
    assert checker.component_group_order("ns+", 29) == 448
    assert checker.check(req, True, 0, json.dumps(good), {}) is None
    bad = dict(good, invariants=[4, 112], order=448)
    assert "prediction" in checker.check(req, True, 0, json.dumps(bad), {})
    assert "golden" in checker.check(req, True, 0, json.dumps(good), golden)
    assert checker.check(("orbits", "a5", 23), False, 0, "{}", golden)


def test_makespan_schedules_each_operation_on_the_first_free_worker():
    def op(latency, pass_no=0, status="ok"):
        return {"latency_s": latency, "pass": pass_no, "status": status}

    ops = [op(3.0), op(1.0), op(1.0), op(1.0)]
    assert makespan(ops, 1, 0.5) == 6.0
    assert makespan(ops, 2, 0.5) == 3.0  # 3 | 1 + 1 + 1
    # a replaced worker is held for the restart; passes add up
    assert makespan([op(1.0, status="deadline"), op(1.0), op(2.0, 1)], 1, 0.5) == 4.5


def test_fails_without_the_program():
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
        proc = bench("--workload", "atlas-cold", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout


if __name__ == "__main__":
    for name, fn in sorted(globals().items()):
        if name.startswith("test_"):
            fn()
            print("ok", name)
