"""A paper cross-check must survive python -O, so it raises
InconsistencyError instead of asserting; so does every internal
invariant under src/, and no assert may come back."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "fibercurve"

MAX_ASSERTS = 0


def test_assert_count_does_not_grow():
    found = [
        "%s:%d" % (path.name, node.lineno)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert len(found) <= MAX_ASSERTS, found
