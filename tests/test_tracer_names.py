"""The benchmark's tracer wraps fibercurve functions by name; a rename
would break it or silently blank a per-layer metric."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys

import fibercurve

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists_and_is_callable():
    traced = load_tracer().TRACED
    assert traced
    for layer, names in traced.items():
        module = importlib.import_module("fibercurve." + layer)
        for name in names:
            assert callable(getattr(module, name, None)), "%s.%s" % (layer, name)



# one cached request run twice under the installed tracer: a miss, then a hit
TRACED_CACHE_RUNS = """
import contextlib, importlib.util, io, json, sys
spec = importlib.util.spec_from_file_location("perfbench_tracer", %r)
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
from fibercurve import cli
rec = tracer.install()
argv = ["orbits", "--group", "a4", "--prime", "13", "--format", "json", "--cache", %r]
ops = []
for _ in range(2):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    ops.append({"req": argv, "status": "ok", "failure": code != 0,
                "spans": rec.take(), "busy_s": 0.0, "wait_s": 0.0})
json.dump({"metrics": tracer.layer_metrics(ops, 1, 1.0, 1, 0.0),
           "spans": [op["spans"] for op in ops]}, sys.stdout)
"""


def test_trace_tells_a_cache_hit_from_a_miss(tmp_path):
    script = TRACED_CACHE_RUNS % (os.path.abspath(TRACER), str(tmp_path))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(fibercurve.__file__)))
    env.pop("FIBERCURVE_CACHE", None)
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["metrics"]["cli.cache_hit_ratio"] == 0.5
    assert result["metrics"]["cli.failures"] == 0
    computes = []
    for spans in result["spans"]:
        (lookup,) = [i for i, s in enumerate(spans) if s[0] == "cli.cached_payload"]
        computes.append(sum(s[0] == "cli.compute" and s[3] == lookup for s in spans))
    assert computes == [1, 0]  # a cli.compute child on the miss only
