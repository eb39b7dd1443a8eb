"""Every function defined under src/fibercurve is reached by a small fixed
set of requests, or it is on an allow-list that may only shrink: a
function that nothing reaches either moves into the tests or gets a
named reason to stay.  Generated dataclass methods are not in the
source, and `__repr__`, `__eq__` and `__hash__` are exempt."""

import ast
import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys

from fibercurve import cli

# the package the requests run, so its file names are the code objects'
SRC = pathlib.Path(cli.__file__).parent

EXEMPT = {"__repr__", "__eq__", "__hash__"}

ALLOWED_UNREACHED = {
    # the supersingular searches that check the isogeny walk in the
    # tests, with their helpers; perfbench/tracer.py wraps the first two
    # by name, so they stay in src/ until the tracer stops patching
    "atlas.brute_supersingular_data",
    "atlas.hasse_supersingular_data",
    "atlas._brute_supersingular_js",
    "atlas._hasse_supersingular_js",
    "atlas._curve_with_j",
    "atlas._legendre_j",
    # the x0 image, which no subcommand accepts; the tracer wraps it
    "projline.borel",
    # error-only and degenerate-input paths
    "exceptional.VerificationError.__init__",
}

# each subcommand and family, json, text and dot, a cache miss and hit,
# the battery over the primes that also run the quotient-map draws,
# and the help text
REQUESTS = (
    [["fiber", "--family", family, "--prime", "241", "--format", fmt]
     for family in cli.FAMILIES for fmt in ("json", "text", "dot")]
    + [[command, "--family", family, "--prime", p, "--format", fmt]
       for command in ("drinfeld", "neron") for family in ("ns", "ns+", "s", "s+")
       for p, fmt in (("29", "json"), ("31", "text"))]
    + [[command, "--group", kind, "--prime", "241", "--format", fmt]
       for command in ("drinfeld", "orbits") for kind in ("a4", "s4", "a5")
       for fmt in ("json", "text")]
    + [["drinfeld", "--group", "a4", "--prime", "13", "--orbit-pair", "0,1"],
       ["verify", "--suite", "paper", "--primes", "5..32"],
       ["--help"]]
)


def defined_functions(source, module):
    """(first line, dotted name) of each function and method in a module's
    source; a decorated function's code starts at its first decorator."""
    found = []

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found.append((line, prefix + child.name))
                walk(child, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                walk(child, prefix + child.name + ".")
            else:
                walk(child, prefix)

    walk(ast.parse(source, module), module + ".")
    return found


def unreached_functions(cache_dir):
    """The dotted names, exemptions aside, of the functions under src/
    that no request calls."""
    seen = set()

    def hook(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    sys.setprofile(hook)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [cli.main(argv) for argv in REQUESTS]
            for _ in range(2):
                codes.append(cli.main(["orbits", "--group", "a4", "--prime", "13",
                                       "--cache", cache_dir]))
    finally:
        sys.setprofile(None)
    if codes != [0] * len(codes):
        raise SystemExit("a request failed: exit codes %s" % codes)
    reached = {(code.co_filename, code.co_firstlineno) for code in seen}
    return sorted(name for path in sorted(SRC.glob("*.py"))
                  for line, name in defined_functions(path.read_text(), path.stem)
                  if (str(path), line) not in reached
                  and name.rsplit(".", 1)[1] not in EXEMPT)


def test_every_function_under_src_is_reached_or_allowed(tmp_path):
    # a fresh interpreter: in this one, earlier tests have filled the
    # caches that would keep a function from being called
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    env.pop("FIBERCURVE_CACHE", None)
    proc = subprocess.run([sys.executable, __file__, str(tmp_path)], env=env,
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    unreached = set(json.loads(proc.stdout))
    assert unreached - ALLOWED_UNREACHED == set(), "reached by no request"
    assert ALLOWED_UNREACHED - unreached == set(), "reached or gone: drop from the list"


def test_the_walk_names_methods_nested_and_decorated_functions():
    source = ("import functools\n"
              "class A:\n"
              "    def f(self):\n"
              "        def g():\n"
              "            pass\n"
              "@functools.lru_cache(maxsize=None)\n"
              "def h():\n"
              "    pass\n")
    assert defined_functions(source, "m") == [(3, "m.A.f"), (4, "m.A.f.g"), (6, "m.h")]


if __name__ == "__main__":
    json.dump(unreached_functions(sys.argv[1]), sys.stdout)
