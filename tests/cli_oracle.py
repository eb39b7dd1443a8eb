"""The argparse parser the command line used before its option table,
the tests' oracle for `cli.parse_args`.

`build_parser().parse_args(argv)` gives the namespace whose `vars()`
the table's parse must equal on every request both accept, and it
exits with code 2 wherever the table's parse raises `UsageError`.
Unlike the table, argparse also accepts unambiguous prefixes of an
option (`--fam` for `--family`).
"""

from __future__ import annotations

import argparse

from fibercurve.atlas import CARTAN_FAMILIES
from fibercurve.cli import FAMILIES
from fibercurve.exceptional import KINDS as EXCEPTIONAL_KINDS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fibercurve",
        description="special fibers of prime-level modular curves: "
        "components, equations, dual graphs, component groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fiber = sub.add_parser("fiber", help="special-fiber atlas for a family")
    fiber.add_argument("--family", required=True, choices=FAMILIES)
    fiber.add_argument("--prime", required=True, type=int)
    fiber.add_argument("--format", default="text", choices=("json", "dot", "text"))
    fiber.add_argument("--cache", default=None)

    dr = sub.add_parser("drinfeld", help="horizontal-component equations")
    sel = dr.add_mutually_exclusive_group(required=True)
    sel.add_argument("--family", choices=CARTAN_FAMILIES)
    sel.add_argument("--group", choices=EXCEPTIONAL_KINDS)
    dr.add_argument("--prime", required=True, type=int)
    dr.add_argument("--orbit-pair", default=None,
                    help="R1,R2 orbit representatives (integers or inf), with --group")
    dr.add_argument("--format", default="text", choices=("json", "text"))
    dr.add_argument("--cache", default=None)

    orb = sub.add_parser("orbits", help="orbit table of an exceptional group")
    orb.add_argument("--group", required=True, choices=EXCEPTIONAL_KINDS)
    orb.add_argument("--prime", required=True, type=int)
    orb.add_argument("--format", default="text", choices=("json", "text"))
    orb.add_argument("--cache", default=None)

    ner = sub.add_parser("neron", help="Neron component group of a fiber graph")
    ner.add_argument("--family", required=True, choices=("ns+", "s+", "ns", "s"))
    ner.add_argument("--prime", required=True, type=int)
    ner.add_argument("--format", default="text", choices=("json", "text"))
    ner.add_argument("--cache", default=None)

    ver = sub.add_parser("verify", help="run the verification battery")
    ver.add_argument("--suite", required=True, choices=("paper",))
    ver.add_argument("--primes", required=True, help="half-open range LO..HI")
    ver.add_argument("--jobs", type=int, default=1)

    return parser
