"""A module under src/fibercurve uses another module's public names only:
it neither imports a `_`-prefixed name nor reads one off a sibling
module it imported, so a private helper can change inside its module
without breaking another."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "fibercurve"


def private_imports(source: str, filename: str) -> list:
    tree = ast.parse(source, filename)
    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level and not node.module
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


def test_the_ratchet_sees_both_forms():
    # the ratchet would pass vacuously if it missed either spelling
    source = ("from .ffield import FqElement, _poly_mul\n"
              "from . import ffield\n"
              "ffield._poly_mul((1,), (1,), 5)\n")
    assert private_imports(source, "m.py") == ["m.py:1 _poly_mul", "m.py:3 ffield._poly_mul"]
