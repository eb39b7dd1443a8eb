"""ffield owns the packed element format: the 64-bit slot layout, the
folded reduction rows and the packed Frobenius columns.  Any other
module reads the field through its elements, `FqElement.frobenius` and
`GF.frobenius_columns`, and may not name the packed attributes."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "fibercurve"

PACKED = {"_pack", "_unpack_product", "_low_mask", "_rows", "_frob_cols"}


def test_only_ffield_names_the_packed_format():
    found = [
        "%s:%d %s" % (path.name, node.lineno, name)
        for path in sorted(SRC.glob("*.py")) if path.name != "ffield.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        for name in [getattr(node, "attr", None) or getattr(node, "id", None)]
        if name in PACKED
    ]
    assert found == []


def test_ffield_still_defines_the_packed_format():
    # the ratchet would pass vacuously if the names moved or changed
    tree = ast.parse((SRC / "ffield.py").read_text())
    named = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert PACKED <= named
