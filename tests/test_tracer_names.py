"""The benchmark's tracer wraps fibercurve functions by name; a rename
would break it or silently blank a per-layer metric."""

import importlib
import importlib.util
import os

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
