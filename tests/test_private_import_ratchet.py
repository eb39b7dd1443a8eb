"""A module under src/fibercurve uses another module's public names only:
it neither imports a `_`-prefixed name nor reads one off a sibling
module it imported, so a private helper can change inside its module
without breaking another.  The tests' oracles (tests/*_oracle.py) are
held to the same rule, so an oracle cannot share a helper with the code
it checks, but for an allow-list that may only shrink."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "fibercurve"
TESTS = pathlib.Path(__file__).resolve().parent

# the trace criteria that the exceptional solve and its scan oracle
# share by design
ALLOWED_IN_ORACLES = {"exceptional_oracle.py _trace_data"}


def private_imports(source: str, filename: str) -> list:
    tree = ast.parse(source, filename)
    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.level and not node.module or node.module == "fibercurve")
               for alias in node.names}
    found = [(node.lineno, alias.name) for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) for alias in node.names
             if alias.name.startswith("_")]
    found += [(node.lineno, "%s.%s" % (node.value.id, node.attr))
              for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules and node.attr.startswith("_")]
    return ["%s:%d %s" % (filename, line, name) for line, name in sorted(found)]


def test_no_module_imports_a_private_name_of_another():
    found = [hit for path in sorted(SRC.glob("*.py"))
             for hit in private_imports(path.read_text(), path.name)]
    assert found == []


def test_no_oracle_imports_a_private_name_but_the_allowed():
    found = {"%s %s" % (path.name, hit.split()[1]) for path in sorted(TESTS.glob("*_oracle.py"))
             for hit in private_imports(path.read_text(), path.name)}
    assert found - ALLOWED_IN_ORACLES == set(), "an oracle reads a private name"
    assert ALLOWED_IN_ORACLES - found == set(), "no longer read: drop from the list"


def test_the_ratchet_sees_both_forms():
    # the ratchet would pass vacuously if it missed either spelling
    source = ("from .ffield import FqElement, _poly_mul\n"
              "from . import ffield\n"
              "ffield._poly_mul((1,), (1,), 5)\n")
    assert private_imports(source, "m.py") == ["m.py:1 _poly_mul", "m.py:3 ffield._poly_mul"]
    source = ("from fibercurve.neron import GraphError, _abs_det\n"
              "from fibercurve import neron\n"
              "neron._divisibility_chain([2, 3])\n")
    assert private_imports(source, "m_oracle.py") == [
        "m_oracle.py:1 _abs_det", "m_oracle.py:3 neron._divisibility_chain"]
