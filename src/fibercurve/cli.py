"""Command-line front end.

Subcommands: fiber, drinfeld, orbits, neron, verify.  Results are
computed into JSON-serializable payloads, optionally cached one file per
(subcommand, family, prime) with a schema version and a fingerprint of
the arguments and of the package's source, and rendered as json, dot or
text.  Exit codes: 0 success, 1 verification failure, 2 usage error,
3 a failed internal cross-check (two independent computations of the
same quantity disagree; one `error:` line on stderr names the check),
4 any other ValueError raised below the command line, such as a
FieldError, GraphError or GroupError (one `error:` line).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import tempfile

from . import atlas, drinfeld, neron
from .exceptional import (
    KINDS as EXCEPTIONAL_KINDS,
    CongruenceError,
    UsageError,
    VerificationError,
    check_congruence,
    orbit_table,
)
from .ffield import MAX_CHAR, InconsistencyError, is_prime
from .projline import point_str

SCHEMA_VERSION = 1
FAMILIES = atlas.CARTAN_FAMILIES + EXCEPTIONAL_KINDS

SS_ORACLE_MAX_P = 100
MAXIMALITY_PRIMES = (5, 7, 11, 13)
# prime -> (kind, the worked equation of its horizontal component)
WORKED_EQUATIONS = {
    13: ("a4", "u^7 = t^5 (t-1)^5"),
    73: ("s4", "u^37 = t^19 (t-14)^25 (t-48)^28 (t-58)"),
    103: ("a4", "u^52 = t^35 (t-3) (t-10) (t-22) (t-39) (t-64) (t-89) (t-100) (t-102)"),
    421: ("a5", "u^211 = t (t-23)^106 (t-47) (t-144)^141 (t-161) (t-228) (t-292) "
                "(t-317)^169"),
}
QUOTIENT_MAP_SAMPLES = 8


def _require_prime(p: int) -> int:
    if not is_prime(p) or p <= 3:
        raise UsageError("%d is not a prime > 3" % p)
    if p >= MAX_CHAR:
        raise UsageError("p = %d is not below the accepted bound 2^20 = %d" % (p, MAX_CHAR))
    return p


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------


PACKAGE_DIR = os.path.dirname(os.path.abspath(__file__))


@functools.lru_cache(maxsize=None)
def source_digest() -> str:
    """sha256 over the package's source files, once per process."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(PACKAGE_DIR)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE_DIR, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def _fingerprint(args: dict) -> str:
    """Digest of the request and the code, so entries of other code miss."""
    blob = json.dumps([source_digest(), args], sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _cache_path(cache_dir, subcommand, selector, p):
    name = "%s_%s_%d.json" % (subcommand, selector.replace("+", "plus"), p)
    return os.path.join(cache_dir, name)


def cached_payload(cache_dir, subcommand, selector, p, args, compute):
    """Fetch or compute a payload; stale schema or fingerprint recomputes.
    A cache that cannot be written gets one `warning:` line on stderr."""
    if cache_dir is None:
        return compute()
    path = _cache_path(cache_dir, subcommand, selector, p)
    fp = _fingerprint(args)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            entry = json.load(fh)
        if entry.get("schema_version") == SCHEMA_VERSION and entry.get("fingerprint") == fp:
            return entry["payload"]
    except (OSError, ValueError):
        pass
    payload = compute()
    try:
        os.makedirs(cache_dir, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(
                    {"schema_version": SCHEMA_VERSION, "fingerprint": fp, "payload": payload},
                    fh,
                    sort_keys=True,
                )
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    except OSError as exc:
        # the answer is computed; an unusable cache only costs the next run
        print("warning: the cache entry was not written: %s" % exc, file=sys.stderr)
    return payload


# ---------------------------------------------------------------------------
# payload builders
# ---------------------------------------------------------------------------


def fiber_payload(family: str, p: int) -> dict:
    graph = atlas.special_fiber(family, p)
    payload = graph.to_json_dict()
    payload["notes"] = graph.notes
    payload["widths"] = graph.widths()
    return payload


def fiber_text(payload: dict) -> str:
    lines = []
    p = payload["p"]
    lines.append("special fiber: family %s, p = %d" % (payload["family"], p))
    lines.append("supersingular points: s = %d" % payload["s"])
    for v in payload["vertical"]:
        genus = "?" if v["genus"] is None else str(v["genus"])
        lines.append(
            "vertical %s x%d: genus %s (%s)"
            % (v["label"], v["count"], genus, v["genus_provenance"])
        )
    for h in payload["horizontal"]:
        eq = h["equation"] or "(not synthesized)"
        e = "e=%s" % h["e"] if h["e"] else "generic"
        lines.append("horizontal %s: genus %s (%s)" % (eq, h["genus"], e))
    if payload["toric_rank"] is None:
        lines.append("edges: incidence not fully specified; toric rank not emitted")
    else:
        for edge in payload["edges"]:
            lines.append(
                "edge %s -- %s width %d" % (edge["from"], edge["to"], edge["width"])
            )
        family = payload["family"]
        rule, _ = atlas.TORIC_RANK_RULES[family, p % 12]
        lines.append(
            "toric rank (family %s, p = %d mod 12: %s) = %d"
            % (family, p % 12, rule, payload["toric_rank"])
        )
    lines.append("total genus = %d" % payload["total_genus"])
    for note in payload.get("notes", []):
        lines.append("note: %s" % note)
    return "\n".join(lines)


def fiber_dot(family: str, p: int) -> str:
    return atlas.special_fiber(family, p).to_dot()


def drinfeld_payload(family, group, p, orbit_pair) -> dict:
    if group is not None:
        table = orbit_table(group, p)
        if orbit_pair is not None:
            o1 = table.orbit_of(_parse_point(p, orbit_pair[0]))
            o2 = table.orbit_of(_parse_point(p, orbit_pair[1]))
        else:
            o1 = o2 = None
        curve = drinfeld.exceptional_drinfeld(table, o1, o2)
        return {
            "group": group,
            "p": p,
            "N": curve.n,
            "factors": [[c, m] for c, m in curve.factors],
            "equation": curve.text(),
            "genus": curve.genus(),
            "orbit_count": table.total,
        }
    equations = []
    ss = atlas.supersingular_data(p)
    for e in sorted(set(ss.e_values())):
        curve = drinfeld.cartan_drinfeld(family, p, e)
        equations.append(
            {"e": e, "equation": curve.text(), "genus": curve.genus()}
        )
    return {"family": family, "p": p, "equations": equations}


def _parse_point(p, token):
    """A point of P^1(F_p) named on the command line: inf, oo or
    infinity for p, else an integer reduced mod p."""
    if token in ("inf", "oo", "infinity"):
        return p
    try:
        return int(token) % p
    except ValueError:
        raise UsageError("--orbit-pair representative %r is not an integer or inf"
                         % token) from None


def drinfeld_text(payload: dict) -> str:
    if "group" in payload:
        return payload["equation"]
    return "\n".join(
        "e=%d: %s (genus %d)" % (eq["e"], eq["equation"], eq["genus"])
        for eq in payload["equations"]
    )


def orbits_payload(group: str, p: int) -> dict:
    table = orbit_table(group, p)
    return {
        "group": group,
        "p": p,
        "N_p": table.total,
        "orbits": [
            {
                "representative": point_str(p, o.representative),
                "size": len(o),
                "isotropy": o.isotropy_order,
                "points": [point_str(p, x) for x in o.points],
            }
            for o in table.orbits
        ],
        "exceptional": table.flags(),
    }


def orbits_text(payload: dict) -> str:
    lines = [
        "orbits of P^1(F_%d) under %s: N_p = %d"
        % (payload["p"], payload["group"], payload["N_p"])
    ]
    for o in payload["orbits"]:
        lines.append(
            "size %2d isotropy %d: {%s}" % (o["size"], o["isotropy"], ", ".join(o["points"]))
        )
    flags = ", ".join(
        "%s: %s" % (k, "yes" if v else "no")
        for k, v in sorted(payload["exceptional"].items())
    )
    lines.append("exceptional orbits: " + flags)
    return "\n".join(lines)


def neron_payload(family: str, p: int) -> dict:
    fiber = atlas.special_fiber(family, p)
    # the ns+ prediction computes the component group it checks
    check = neron.component_group_prediction(fiber) if family == "ns+" else None
    invariants = check.invariants if check is not None else neron.component_group(fiber)
    payload = {
        "family": family,
        "p": p,
        "invariants": sorted(invariants.factors),
        "order": invariants.order(),
        "group": invariants.describe(),
    }
    if check is not None:
        payload["verdict"] = check.verdict
    return payload


def neron_text(payload: dict) -> str:
    line = "component group (%s, p = %d): %s, order %d" % (
        payload["family"],
        payload["p"],
        payload["group"],
        payload["order"],
    )
    if "verdict" in payload:
        line += " [%s]" % payload["verdict"]
    return line


# ---------------------------------------------------------------------------
# the verification battery
# ---------------------------------------------------------------------------


def checks_for_prime(p: int) -> list:
    """All applicable checks at one prime: (name, ok, detail) triples."""
    out = []

    def record(name, ok, detail=""):
        out.append((name, p, bool(ok), detail))

    # each kind's orbit table, or the error of its failed check
    tables = {}
    for kind in EXCEPTIONAL_KINDS:
        try:
            check_congruence(kind, p)
        except CongruenceError:
            continue
        try:
            tables[kind] = orbit_table(kind, p)
            record("orbit-table-%s" % kind, True)
        except VerificationError as exc:
            tables[kind] = exc
            record("orbit-table-%s" % kind, False, str(exc))

    # each family's fiber and genus, built once at this prime by its
    # report and read by the toric-rank rows and the ns+ prediction too
    reports = {family: atlas.consistency_report(family, p)
               for family in atlas.CARTAN_FAMILIES}
    for family, report in reports.items():
        record("toric-rank-%s" % family,
               report.toric_rank == atlas.toric_rank_closed_form(family, p))
    for family, report in reports.items():
        record("consistency-%s" % family, report.ok)

    if p < SS_ORACLE_MAX_P:
        record("supersingular-oracle",
               atlas.supersingular_data(p) == atlas.isogeny_supersingular_data(p))

    if p in MAXIMALITY_PRIMES:
        count = drinfeld.count_points_fp2(p, drinfeld.admissible_twist(p))
        genus = p * (p - 1) // 2
        record(
            "maximality-count",
            count == p ** 3 + 1 == 1 + p * p + 2 * p * genus,
            "count=%d" % count,
        )

    if p in WORKED_EQUATIONS:
        kind, expect = WORKED_EQUATIONS[p]
        table = tables[kind]
        if isinstance(table, VerificationError):
            record("worked-equation-%s" % kind, False, str(table))
        else:
            text = drinfeld.exceptional_drinfeld(table).text()
            record("worked-equation-%s" % kind, text == expect, text)

    if p <= drinfeld.SAMPLE_MAX_P:
        checks = drinfeld.verify_quotient_maps(p, QUOTIENT_MAP_SAMPLES)
        for family, chk in checks.items():
            record("quotient-maps-%s" % family, chk.passed)

    chk = neron.component_group_prediction(reports["ns+"].graph)
    accepted = ("match", "vacuous-trivial") if p % 4 == 1 else ("trivial",)
    record("neron-prediction", chk.verdict in accepted, chk.verdict)

    return out


def run_verify(lo: int, hi: int, jobs: int) -> int:
    primes = [_require_prime(p) for p in range(max(lo, 5), hi) if is_prime(p)]
    results = []
    # the pool starts all its workers at once, so never ask for more than
    # there are primes or cores
    workers = min(jobs, len(primes), os.cpu_count() or 1)
    if workers > 1:
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            for chunk in pool.map(checks_for_prime, primes):
                results.extend(chunk)
    else:
        for p in primes:
            results.extend(checks_for_prime(p))
    results.sort(key=lambda r: (r[0], r[1]))
    by_check = {}
    failures = []
    for name, p, ok, detail in results:
        passed, total = by_check.get(name, (0, 0))
        by_check[name] = (passed + ok, total + 1)
        if not ok:
            failures.append((name, p, detail))
    width = max((len(name) for name in by_check), default=10)
    print("verification matrix, primes in [%d, %d)" % (lo, hi))
    for name in sorted(by_check):
        passed, total = by_check[name]
        status = "ok  " if passed == total else "FAIL"
        print("  %-*s %s %d/%d" % (width, name, status, passed, total))
    for name, p, detail in failures:
        print("  FAILURE %s at p=%d %s" % (name, p, detail))
    print("checks: %d, failures: %d" % (len(results), len(failures)))
    return 0 if not failures else 1


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
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
    sel.add_argument("--family", choices=atlas.CARTAN_FAMILIES)
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


def _emit_json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(sys, "set_int_max_str_digits"):
        # s and s+ group orders pass Python's 4300-digit limit from p = 6287
        sys.set_int_max_str_digits(0)
    cache_dir = getattr(args, "cache", None) or os.environ.get("FIBERCURVE_CACHE")
    try:
        if args.command == "fiber":
            p = _require_prime(args.prime)
            if args.format == "dot":
                print(fiber_dot(args.family, p))
                return 0
            payload = cached_payload(
                cache_dir, "fiber", args.family, p,
                {"family": args.family, "p": p}, lambda: fiber_payload(args.family, p),
            )
            print(_emit_json(payload) if args.format == "json" else fiber_text(payload))
            return 0
        if args.command == "drinfeld":
            p = _require_prime(args.prime)
            if args.orbit_pair is not None and args.group is None:
                raise UsageError("--orbit-pair applies to --group only")
            pair = tuple(args.orbit_pair.split(",")) if args.orbit_pair else None
            if pair is not None and len(pair) != 2:
                raise UsageError("--orbit-pair expects two representatives R1,R2")
            selector = args.group or args.family
            key = {"family": args.family, "group": args.group, "p": p,
                   "orbit_pair": list(pair) if pair else None}
            payload = cached_payload(
                cache_dir, "drinfeld", selector, p, key,
                lambda: drinfeld_payload(args.family, args.group, p, pair),
            )
            print(_emit_json(payload) if args.format == "json" else drinfeld_text(payload))
            return 0
        if args.command == "orbits":
            p = _require_prime(args.prime)
            payload = cached_payload(
                cache_dir, "orbits", args.group, p,
                {"group": args.group, "p": p}, lambda: orbits_payload(args.group, p),
            )
            print(_emit_json(payload) if args.format == "json" else orbits_text(payload))
            return 0
        if args.command == "neron":
            p = _require_prime(args.prime)
            payload = cached_payload(
                cache_dir, "neron", args.family, p,
                {"family": args.family, "p": p}, lambda: neron_payload(args.family, p),
            )
            print(_emit_json(payload) if args.format == "json" else neron_text(payload))
            return 0
        if args.command == "verify":
            lo, sep, hi = args.primes.partition("..")
            if not sep:
                raise UsageError("--primes expects a half-open range LO..HI")
            try:
                lo, hi = int(lo), int(hi)
            except ValueError:
                raise UsageError("--primes bounds must be integers")
            return run_verify(lo, hi, max(args.jobs, 1))
        raise UsageError("unknown command %r" % args.command)
    except UsageError as exc:  # CongruenceError included
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except InconsistencyError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
