"""Command-line front end.

Subcommands: fiber, drinfeld, orbits, neron, verify (`USAGE`).  Each
request is parsed against one option table (`build_parser`): options
spelled in full, `--opt VALUE` or `--opt=VALUE`, the last of a repeated
option counting; `-h` or `--help` prints `USAGE`.  Results are
computed into JSON-serializable payloads and rendered as json, dot or
text.  A cache stores the printed json or text output one file per
request, behind a header of the schema, the package's source digest, the
arguments and the output's length, so a hit is one read, a prefix
compare and a decode, and computes and renders nothing.  Exit codes:
0 success, 1 verification failure, 2 usage error (a parser error, a
prime that is out of bounds, not prime or incongruent, a verify range
without a prime > 3; one `error:` line),
3 a failed internal cross-check (two independent computations of the
same quantity disagree; one `error:` line on stderr names the check),
4 any other ValueError raised below the command line, such as a
FieldError, GraphError or GroupError (one `error:` line).
"""

from __future__ import annotations

import functools
import os
import sys
import tempfile
from json.encoder import encode_basestring_ascii

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

SCHEMA_VERSION = 3
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
    # the bound first: testing a huge p for primality costs time that
    # grows with its size
    if p >= MAX_CHAR:
        raise UsageError("p = %d is not below the accepted bound 2^20 = %d" % (p, MAX_CHAR))
    if not is_prime(p) or p <= 3:
        raise UsageError("%d is not a prime > 3" % p)
    return p


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------


PACKAGE_DIR = os.path.dirname(os.path.abspath(__file__))


@functools.lru_cache(maxsize=None)
def source_digest() -> str:
    """sha256 over the package's source files, once per process."""
    import hashlib  # here, so a run without a cache never loads it
    h = hashlib.sha256()
    for name in sorted(os.listdir(PACKAGE_DIR)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE_DIR, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def _cache_path(cache_dir, subcommand, selector, p, key):
    """One file per request: the name carries a digest of the arguments'
    text `key`, not of the source, so a newer version of the code
    overwrites it."""
    import hashlib
    digest = hashlib.sha256(key).hexdigest()[:12]
    name = "%s_%s_%d_%s" % (subcommand, selector.replace("+", "plus"), p, digest)
    return os.path.join(cache_dir, name)


def cached_payload(cache_dir, subcommand, selector, p, args, compute):
    """Fetch or compute a request's printed output.  An entry is the
    lines `fibercurve SCHEMA_VERSION <source digest>`, the arguments and
    the output's byte length, then the output's UTF-8 bytes.  A hit
    starts with this request's first two lines, and the bytes after its
    third are as many as it says and decode; any other entry (other
    code, other arguments under a colliding name, another schema, a
    truncated or undecodable body) is recomputed and overwritten.  A
    cache that cannot be written gets one `warning:` line on stderr."""
    if cache_dir is None:
        return compute()
    # a repr of str, int and None holds no newline
    key = repr(sorted(args.items())).encode()
    path = _cache_path(cache_dir, subcommand, selector, p, key)
    header = b"fibercurve %d %s\n%s\n" % (SCHEMA_VERSION, source_digest().encode(), key)
    try:
        with open(path, "rb", buffering=0) as fh:
            entry = fh.read()
        if entry.startswith(header):
            length, _, body = entry[len(header):].partition(b"\n")
            if length == b"%d" % len(body):
                return body.decode()
    except (OSError, ValueError):
        pass
    output = compute()
    body = output.encode()
    try:
        os.makedirs(cache_dir, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(header + b"%d\n" % len(body))
                fh.write(body)  # not joined: an output can be tens of MB
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    except OSError as exc:
        # the answer is computed; an unusable cache only costs the next run
        print("warning: the cache entry was not written: %s" % exc, file=sys.stderr)
    return output


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
    """`orbit_pair` is None or two points of P^1(F_p), `_parse_point`'s."""
    if group is not None:
        table = orbit_table(group, p)
        if orbit_pair is not None:
            o1, o2 = (table.orbit_of(x) for x in orbit_pair)
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
            "orbit_count": len(table.orbits),
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
    return _parse_int("--orbit-pair", token, "an integer or inf") % p


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
        "N_p": len(table.orbits),
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
    # HI bounds every number of the half-open range, so a range past the
    # bound is rejected before any number in it is tested
    if hi > MAX_CHAR:
        raise UsageError("--primes HI = %d is above the accepted bound 2^20 = %d"
                         % (hi, MAX_CHAR))
    primes = [p for p in range(max(lo, 5), hi) if is_prime(p)]
    if not primes:
        # a battery of no check would read as a pass
        raise UsageError("--primes %d..%d holds no prime > 3" % (lo, hi))
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


# the README's CLI block; -h and --help print it
USAGE = """\
fibercurve fiber    --family {ns|ns+|s|s+|a4|s4|a5} --prime P [--format json|dot|text] [--cache DIR]
fibercurve drinfeld --family {ns|ns+|s|s+} --prime P [--format json|text] [--cache DIR]
fibercurve drinfeld --group {a4|s4|a5} --prime P [--orbit-pair R1,R2] [--format json|text] [--cache DIR]
fibercurve orbits   --group {a4|s4|a5} --prime P [--format json|text] [--cache DIR]
fibercurve neron    --family {ns+|s+|ns|s} --prime P [--format json|text] [--cache DIR]
fibercurve verify   --suite paper --primes LO..HI [--jobs N]
"""


@functools.lru_cache(maxsize=None)
def build_parser() -> dict:
    """The option table, built once per process: subcommand -> {option:
    its choices, or the type of its value, int or str}."""
    request = {"--prime": int, "--format": ("json", "text"), "--cache": str}
    return {
        "fiber": {"--family": FAMILIES, **request, "--format": ("json", "dot", "text")},
        "drinfeld": {"--family": atlas.CARTAN_FAMILIES, "--group": EXCEPTIONAL_KINDS,
                     **request, "--orbit-pair": str},
        "orbits": {"--group": EXCEPTIONAL_KINDS, **request},
        "neron": {"--family": ("ns+", "s+", "ns", "s"), **request},
        "verify": {"--suite": ("paper",), "--primes": str, "--jobs": int},
    }


# drinfeld needs exactly one of --family and --group besides
REQUIRED = {
    "fiber": ("--family", "--prime"),
    "drinfeld": ("--prime",),
    "orbits": ("--group", "--prime"),
    "neron": ("--family", "--prime"),
    "verify": ("--suite", "--primes"),
}
DEFAULTS = {"--format": "text", "--jobs": 1}


def _parse_int(option, value, expected="an integer"):
    try:
        return int(value)
    except ValueError:
        pass
    digits = value.strip()
    if digits[1:] and digits[0] in "+-":
        digits = digits[1:]
    if digits.isdecimal():
        # int() refuses a number past Python's int-string limit; its
        # digits are not echoed
        raise UsageError("%s has more than %d digits" % (option, sys.get_int_max_str_digits()))
    raise UsageError("%s expects %s, not %r" % (option, expected, value))


def parse_args(argv) -> dict:
    """The request that argv names: the subcommand under "command" and
    each of its options under its name without the dashes, dashes inside
    it read as underscores, an option not given at its default (None
    unless DEFAULTS names one).  An option is spelled in full, as
    `--opt VALUE` or `--opt=VALUE`, and the last of a repeated option
    counts.  Anything else raises UsageError."""
    table = build_parser()
    if not argv or argv[0] not in table:
        raise UsageError("expected a subcommand, one of %s%s"
                         % (", ".join(table), ", not %r" % argv[0] if argv else ""))
    command, options, given = argv[0], table[argv[0]], {}
    i = 1
    while i < len(argv):
        option, eq, value = argv[i].partition("=")
        kind = options.get(option)
        if kind is None:
            raise UsageError("%s: unrecognized argument %r" % (command, argv[i]))
        if not eq:
            i += 1
            if i == len(argv):
                raise UsageError("%s expects a value" % option)
            value = argv[i]
        i += 1
        if kind is int:
            value = _parse_int(option, value)
        elif kind is not str and value not in kind:
            raise UsageError("%s: invalid choice %r (choose from %s)"
                             % (option, value, ", ".join(kind)))
        given[option] = value
    missing = [option for option in REQUIRED[command] if option not in given]
    if missing:
        raise UsageError("%s needs %s" % (command, " and ".join(missing)))
    if command == "drinfeld" and ("--family" in given) == ("--group" in given):
        raise UsageError("drinfeld needs exactly one of --family and --group")
    args = {"command": command}
    for option in options:
        args[option[2:].replace("-", "_")] = given.get(option, DEFAULTS.get(option))
    return args


def _unlimited_digits(work):
    """work(), with Python's int-string limit lifted while it runs: s and
    s+ group orders pass its 4300 digits from p = 6287."""
    if not hasattr(sys, "set_int_max_str_digits"):
        return work()
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return work()
    finally:
        sys.set_int_max_str_digits(limit)


def _emit_json(payload) -> str:
    """The bytes of json.dumps(payload, indent=2, sort_keys=True), in one
    pass: an indent sends json.dumps to its pure-Python encoder."""
    parts = []
    _write_json(payload, "\n", parts.append)
    return "".join(parts)


def _write_json(value, newline, out):
    # json's own spellings: ASCII-escaped strings, int.__repr__ for ints
    if isinstance(value, str):
        out(encode_basestring_ascii(value))
    elif value is None:
        out("null")
    elif value is True or value is False:
        out("true" if value else "false")
    elif isinstance(value, int):
        out(int.__repr__(value))
    elif isinstance(value, dict) and value:
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(value):
            out(sep + encode_basestring_ascii(key) + ": ")
            _write_json(value[key], inner, out)
            sep = "," + inner
        out(newline + "}")
    elif isinstance(value, (list, tuple)) and value:
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            out(sep)
            _write_json(item, inner, out)
            sep = "," + inner
        out(newline + "]")
    elif isinstance(value, (dict, list, tuple)):
        out("{}" if isinstance(value, dict) else "[]")
    else:
        raise TypeError("Object of type %s is not JSON serializable" % type(value).__name__)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if "-h" in argv or "--help" in argv:
        print(USAGE, end="")
        return 0
    try:
        args = parse_args(argv)
        command = args["command"]
        if command == "verify":
            lo, sep, hi = args["primes"].partition("..")
            if not sep:
                raise UsageError("--primes expects a half-open range LO..HI")
            try:
                lo, hi = int(lo), int(hi)
            except ValueError:
                raise UsageError("--primes bounds must be integers")
            return _unlimited_digits(lambda: run_verify(lo, hi, max(args["jobs"], 1)))
        p = _require_prime(args["prime"])
        family, group = args.get("family"), args.get("group")
        if command == "fiber":
            if args["format"] == "dot":
                print(fiber_dot(family, p))
                return 0
            build, text = (lambda: fiber_payload(family, p)), fiber_text
        elif command == "drinfeld":
            orbit_pair = args["orbit_pair"]
            if orbit_pair is not None and group is None:
                raise UsageError("--orbit-pair applies to --group only")
            pair = None
            if orbit_pair is not None:
                tokens = orbit_pair.split(",")
                if len(tokens) != 2:
                    raise UsageError("--orbit-pair expects two representatives R1,R2")
                # parsed here, under the int-string limit, as --prime is
                pair = tuple(_parse_point(p, token) for token in tokens)
            build = lambda: drinfeld_payload(family, group, p, pair)  # noqa: E731
            text = drinfeld_text
        elif command == "orbits":
            build, text = (lambda: orbits_payload(group, p)), orbits_text
        else:
            build, text = (lambda: neron_payload(family, p)), neron_text
        render = _emit_json if args["format"] == "json" else text
        cache_dir = args["cache"] or os.environ.get("FIBERCURVE_CACHE")
        # an entry holds printed output, so its key is every argument but
        # the cache directory, --format included
        print(_unlimited_digits(lambda: cached_payload(
            cache_dir, command, group or family, p, {**args, "cache": None},
            lambda: render(build()))))
        return 0
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
