"""Seeded request generator for the fibercurve benchmark.

Each workload is a closed loop over *passes*.  A pass is a fixed unit of
work: the same multiset of requests for every seed, so two seeds cost
the same and the run-to-run spread reflects the program, not the draw.
The seed decides the order of a pass (and, for `cached-repeat`, which
keys are popular).  A run measures a fixed number of whole passes, set
by `--seconds` (see `passes_for`); every pass starts in a fresh worker
process, so in-process memo tables never carry over from one pass to
the next.

atlas-cold and verify-sweep send their keys in ascending prime order,
and the seed permutes them within consecutive groups.  The largest
requests leave a large heap behind in the worker, and where they fall
can change the cost of the requests after them, so a fully shuffled
pass could make the cost of a pass depend on where the seed put them;
a sweep in ascending primes is also how a client filling an atlas
sends its requests.  An atlas-cold pass is ATLAS_SWEEPS such sweeps,
interleaved (sweep j takes every ATLAS_SWEEPS-th key of the sorted
space from the j-th on), so its many small requests are spread over
the pass instead of bunched at its start.  neron-cold keeps a small heap (under
50 MB), so the seed shuffles its whole pass, for the same reason.

The key spaces are chosen from the input properties the program's cost
depends on: the prime (the Cartan genus oracle is O(p^2)), the family
(the congruence gates of s4/a5, the Smith-normal-form blow-ups of the
split families) and, for the cache, how often keys repeat.

No traffic data exists for this program.  Every value below that the
workload definition does not fix (target primes, Zipf skew, invalid
share, requests per pass, deadlines, shuffle groups, pass lengths) is an
unverified assumption; `ASSUMPTIONS` gives the reason for each, and
record.json carries it beside the numbers.
"""

from __future__ import annotations

import random

from checker import orbit_count

CARTAN = ("ns", "ns+", "s", "s+")
GROUPS = ("a4", "s4", "a5")
FAMILIES = CARTAN + GROUPS

# log-spaced prime targets up to ~1000 (see ASSUMPTIONS)
ATLAS_TARGETS = (5, 7, 11, 17, 23, 31, 47, 67, 97, 139, 211, 449, 997)
# the paper's worked equations, checked byte for byte by the oracle
WORKED_EQUATIONS = {13: "a4", 73: "s4", 103: "a4", 421: "a5"}

INVALID_EVERY = 32  # one request in 32 is invalid and must exit with code 2
ZIPF_SKEW = 1.1
CACHED_REQUESTS = 5000  # requests per cached-repeat pass, before invalid ones

# the battery over 5..149: every oracle of the battery runs in this range
# (consistency below 200, supersingular oracles below 100, brute force
# below 40) and it holds the seed's blow-ups at 101 and 137
VERIFY_RANGE = (5, 150)
VERIFY_WORKERS = 2
# the seed permutes requests within consecutive groups of this many,
# in ascending prime order
SHUFFLE_GROUP = {"atlas-cold": 3, "verify-sweep": 4}
# an atlas-cold pass is this many interleaved ascending sweeps
ATLAS_SWEEPS = 4

# neron-cold: every prime of each range, plus the seed's known blow-ups
# outside them.  Every request in the ranges either finishes in under
# 0.6 s or never finishes (ns+ at 101 and 137, s at 11, s+ at 29); ns+
# between 170 and 257 is left out because ns+ at 193 and 197 take ~1 s,
# too close to the deadline to count the same way on every run.
NERON_RANGES = {"ns": (5, 200), "ns+": (5, 170), "s": (5, 20), "s+": (5, 40)}
# blow-ups outside the ranges; see ASSUMPTIONS for those left out
NERON_HANGS = {"ns+": (257,), "s": (41,)}

DEADLINE_S = {
    "atlas-cold": 60.0,
    "neron-cold": 1.5,
    "cached-repeat": 60.0,
    "verify-sweep": 8.0,
}

# Requests the seed never finishes (Smith normal form entries grow to
# millions of bits).  A fix shows up as a drop in these counts.
EXPECTED_MISSES = {
    "neron-cold": ["neron ns+ 101", "neron ns+ 137", "neron ns+ 257", "neron s 11",
                   "neron s 41", "neron s+ 29"],
    "verify-sweep": ["battery 101", "battery 137"],
}

# one line each, as BENCHMARK.json records them
WHY = {
    "atlas-cold": (
        "distinct fiber/drinfeld/orbits requests, all 7 families, p up to "
        "~1000, no cache: the compute layers (projline genus oracle, "
        "exceptional, drinfeld) do all the work"
    ),
    "neron-cold": (
        "distinct neron requests over ns, ns+, s, s+ with a 1.5 s deadline, "
        "seed's SNF blow-ups included: isolates the component-group layer"
    ),
    "cached-repeat": (
        "Zipf-skewed repeats over atlas-cold's key space through a fresh "
        "--cache dir: cache reads and atomic writes beside compute"
    ),
    "verify-sweep": (
        "paper battery over primes 5..149 on 2 worker processes, 8 s per-prime "
        "deadline: ffield, supersingular oracles, consistency, parallel "
        "efficiency"
    ),
}

WORKLOADS = tuple(WHY)

# A run of --seconds S makes round(S / PASS_S) passes, at least one, so
# the work of a run depends on --seconds alone.  At the benchmark's 30 s
# that is two passes of atlas-cold and neron-cold and one of the others.
PASS_S = {
    "atlas-cold": 15.0,
    "neron-cold": 15.0,
    "cached-repeat": 30.0,
    "verify-sweep": 30.0,
}

# Why each value the workload definition leaves open was chosen.  None
# of them comes from measured traffic: there is none to measure.
ASSUMPTIONS = {
    "ATLAS_TARGETS": "prime targets 5..997, log-spaced: the compute layers scale "
                     "with p (O(p^2) for the nonsplit genus oracle), so each octave "
                     "of p up to the ~1000 of the definition is represented; below "
                     "211 every half octave, so that most requests are small ones",
    "ZIPF_SKEW": "1.1, a moderately heavy skew chosen without data; with it "
                 "every key of the space is requested at least four times a pass",
    "popularity_order": "smaller primes are more popular; the seed orders keys of "
                        "one prime.  Taken so that the expensive keys sit in the "
                        "tail, each computed once per pass and then read",
    "CACHED_REQUESTS": "5000 per pass, so that cache reads take about a third "
                       "of a pass on the seed and the rest is first-touch compute",
    "INVALID_EVERY": "one request in 32 is invalid: a small fixed share, as the "
                     "definition asks, with at least a few per pass",
    "DEADLINE_S": "budgets of CPU time: neron-cold 1.5 s, over twice its slowest "
                  "finishing request (0.6 s); verify-sweep 8 s, over twice its "
                  "slowest finishing battery (3.8 s at p = 37); 60 s elsewhere, "
                  "where nothing hangs",
    "VERIFY_RANGE": "5..149: every oracle of the battery runs below 150 and it "
                    "holds the blow-ups at 101 and 137; the definition names no range",
    "SHUFFLE_GROUP": "atlas-cold and verify-sweep requests go in ascending prime "
                     "order, as a client filling an atlas sends them, permuted "
                     "within groups of 3 and 4: where the largest requests fall "
                     "can change the cost of the ones after them, so a full "
                     "shuffle could let the seed change the cost of a pass",
    "ATLAS_SWEEPS": "an atlas-cold pass is 4 interleaved ascending sweeps, as a "
                    "client refining an atlas in rounds would send them; its small "
                    "requests are then spread over the run.  Over five pairs of "
                    "runs alternated with one ascending sweep, this cut the spread "
                    "of latency_p50_ms from 0.20 to 0.06 and of ops_per_s from 0.11 "
                    "to 0.08",
    "neron_order": "neron-cold, whose heap stays small, is fully shuffled: over "
                   "five seeds that cut the spread of its latency_p50_ms from 0.21 "
                   "to 0.11 against ascending order",
    "PASS_S": "two passes per run of atlas-cold and neron-cold, one of the "
              "others: with one pass their latency spreads came near the 0.25 "
              "bound, and runs of 15-45 s let the four workloads fit the time "
              "the benchmark has for 22 runs of each",
    "NERON_HANGS": "of the seed's known neron blow-ups outside the ranges, only "
                   "ns+ at 257 and s at 41 are sent; ns+ at 173, 269 and 401 "
                   "and, of the primes measured, s at 23..37 and 43..53 and s+ "
                   "at 41 and 47..59 are left out, since each costs the 1.5 s "
                   "deadline twice a run and the four workloads must fit the "
                   "time for 22 runs of each",
}


def passes_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / PASS_S[workload]))


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def valid(req) -> bool:
    """The program's gates, restated: p a prime > 3, the s4/a5
    congruences, and at least two orbits for an exceptional equation."""
    cmd, kind, p = req
    if not is_prime(p) or p <= 3:
        return False
    if kind == "s4" and p % 8 not in (1, 7):
        return False
    if kind == "a5" and p % 5 not in (1, 4):
        return False
    if cmd == "drinfeld" and kind in GROUPS:
        return orbit_count(kind, p)[0] >= 2
    return True


def ladder(cmd: str, kind: str, targets) -> list:
    """For each target, the nearest unused valid prime (ties go down)."""
    out = []
    for t in targets:
        best = None
        for d in range(0, 200):
            for p in (t - d, t + d):
                if p not in out and valid((cmd, kind, p)):
                    best = p
                    break
            if best is not None:
                break
        out.append(best)
    return out


# A request is a tuple (command, selector, p); `command` is one of
# fiber | drinfeld | orbits | neron | battery.  `selector` is a family or
# group name, or "" for the battery.


def request_argv(req) -> list:
    cmd, sel, p = req
    if cmd == "battery":
        raise ValueError("the battery is not a CLI request")
    flag = "--group" if (cmd == "orbits" or (cmd == "drinfeld" and sel in GROUPS)) else "--family"
    return [cmd, flag, sel, "--prime", str(p), "--format", "json"]


def request_key(req) -> str:
    cmd, sel, p = req
    return ("%s %s %d" % (cmd, sel, p)) if sel else ("%s %d" % (cmd, p))


def atlas_keys(targets=ATLAS_TARGETS, worked=True) -> list:
    keys = []
    for fam in FAMILIES:
        keys += [("fiber", fam, p) for p in ladder("fiber", fam, targets)]
        keys += [("drinfeld", fam, p) for p in ladder("drinfeld", fam, targets)]
    for g in GROUPS:
        keys += [("orbits", g, p) for p in ladder("orbits", g, targets)]
    if worked:
        for p, g in sorted(WORKED_EQUATIONS.items()):
            if ("drinfeld", g, p) not in keys:
                keys.append(("drinfeld", g, p))
    return keys


def neron_keys(ranges=NERON_RANGES, hangs=NERON_HANGS) -> list:
    keys = []
    for fam, (lo, hi) in ranges.items():
        keys += [("neron", fam, p) for p in range(lo, hi) if is_prime(p)]
    for fam, primes in hangs.items():
        keys += [("neron", fam, p) for p in primes]
    return keys


def verify_primes(lo_hi=VERIFY_RANGE) -> list:
    return [p for p in range(max(lo_hi[0], 5), lo_hi[1]) if is_prime(p)]


def invalid_request(rng: random.Random, commands) -> tuple:
    """A request the congruence or primality gates must reject (exit 2)."""
    cmd = rng.choice(commands)
    if cmd == "neron":
        return ("neron", rng.choice(CARTAN), rng.choice((1, 9, 91, 221, 323)))
    if cmd == "orbits":
        return ("orbits", "a5", rng.choice([p for p in range(7, 500) if is_prime(p) and p % 5 in (2, 3)]))
    if cmd == "fiber":
        return ("fiber", "s4", rng.choice([p for p in range(5, 500) if is_prime(p) and p % 8 in (3, 5)]))
    return ("drinfeld", rng.choice(CARTAN), rng.choice((25, 49, 77, 143, 1001)))


def with_invalid(seq, rng, commands) -> list:
    out = []
    for i, req in enumerate(seq, start=1):
        out.append(req)
        if i % (INVALID_EVERY - 1) == 0:
            out.append(invalid_request(rng, commands))
    return out


def zipf_multiset(keys, rng, total=CACHED_REQUESTS, skew=ZIPF_SKEW) -> list:
    """Deterministic Zipf counts over a popularity order.

    Smaller primes are more popular (the seed breaks ties between keys
    of one prime), and the key of rank r appears max(1, round(c / r^skew))
    times, with c chosen so the counts sum to about `total`.  Every key
    appears at least once, so each pass computes every key exactly once;
    the hot keys all have small payloads, so which of them the seed makes
    hottest hardly changes the cost of a pass.
    """
    ranked = sorted(keys, key=lambda k: (k[2], rng.random()))
    weights = [1.0 / (r ** skew) for r in range(1, len(ranked) + 1)]
    c = total / sum(weights)
    out = []
    for key, w in zip(ranked, weights):
        out += [key] * max(1, round(c * w))
    return out


def ascending_shuffle(reqs, rng, group: int) -> list:
    """Requests by ascending prime, permuted within groups of `group`."""
    reqs = sorted(reqs, key=lambda r: (r[2], r[0], r[1]))
    out = []
    for i in range(0, len(reqs), group):
        chunk = reqs[i:i + group]
        rng.shuffle(chunk)
        out += chunk
    return out


def build_pass(workload: str, seed: int, pass_no: int, smoke: bool = False) -> list:
    """The request list of one pass; the same (seed, pass_no) gives the same list."""
    rng = random.Random("%s/%d/%d" % (workload, seed, pass_no))
    if workload == "atlas-cold":
        keys = atlas_keys(ATLAS_TARGETS[:3], worked=False) if smoke else atlas_keys()
        keys = sorted(keys, key=lambda r: (r[2], r[0], r[1]))
        group = SHUFFLE_GROUP[workload]
        keys = [k for j in range(ATLAS_SWEEPS)
                for k in ascending_shuffle(keys[j::ATLAS_SWEEPS], rng, group)]
        return with_invalid(keys, rng, ("fiber", "drinfeld", "orbits"))
    if workload == "neron-cold":
        if smoke:
            keys = neron_keys({"ns": (5, 24), "ns+": (5, 24), "s": (11, 12)}, {})
        else:
            keys = neron_keys()
        rng.shuffle(keys)
        return with_invalid(keys, rng, ("neron",))
    if workload == "cached-repeat":
        if smoke:
            space = atlas_keys(ATLAS_TARGETS[:2], worked=False)
            seq = zipf_multiset(space, rng, total=120)
        else:
            seq = zipf_multiset(atlas_keys(), rng)
        rng.shuffle(seq)
        return with_invalid(seq, rng, ("fiber", "drinfeld", "orbits"))
    if workload == "verify-sweep":
        primes = verify_primes((5, 14) if smoke else VERIFY_RANGE)
        return ascending_shuffle([("battery", "", p) for p in primes], rng,
                                 SHUFFLE_GROUP[workload])
    raise ValueError("unknown workload %r" % workload)


def describe() -> dict:
    """The record of every workload's inputs, for record.json."""
    atlas = atlas_keys()
    described = {
        "atlas-cold": {
            "why": WHY["atlas-cold"],
            "loop": "closed, 1 client",
            "key_space": "fiber json x 7 families, drinfeld x 7, orbits x 3 groups; "
                         "for each, the valid prime nearest to each target, plus the "
                         "worked equations",
            "prime_targets": list(ATLAS_TARGETS),
            "prime_range": [min(k[2] for k in atlas), max(k[2] for k in atlas)],
            "keys_per_pass": len(atlas),
            "order": "%d interleaved sweeps (every %dth key by ascending prime), "
                     "each in ascending primes with a seeded shuffle within groups "
                     "of %d" % (ATLAS_SWEEPS, ATLAS_SWEEPS, SHUFFLE_GROUP["atlas-cold"]),
            "invalid_share": 1 / INVALID_EVERY,
            "deadline_s": DEADLINE_S["atlas-cold"],
            "cache": None,
        },
        "neron-cold": {
            "why": WHY["neron-cold"],
            "loop": "closed, 1 client",
            "key_space": "every prime of each family's range, plus the blow-ups "
                         "outside them",
            "prime_ranges": {k: list(v) for k, v in NERON_RANGES.items()},
            "blow_ups_outside_ranges": {k: list(v) for k, v in NERON_HANGS.items()},
            "keys_per_pass": len(neron_keys()),
            "order": "seeded shuffle",
            "invalid_share": 1 / INVALID_EVERY,
            "deadline_s": DEADLINE_S["neron-cold"],
            "expected_misses": EXPECTED_MISSES["neron-cold"],
        },
        "cached-repeat": {
            "why": WHY["cached-repeat"],
            "loop": "closed, 1 client, --cache in a fresh directory per pass",
            "key_space": "atlas-cold's key space",
            "keys": len(atlas),
            "zipf_skew": ZIPF_SKEW,
            "popularity": "smaller primes more popular, seeded order within a prime; "
                          "every key at least once",
            "requests_per_pass": CACHED_REQUESTS,
            "order": "seeded shuffle",
            "invalid_share": 1 / INVALID_EVERY,
            "deadline_s": DEADLINE_S["cached-repeat"],
        },
        "verify-sweep": {
            "why": WHY["verify-sweep"],
            "loop": "closed, %d worker processes fed from one queue" % VERIFY_WORKERS,
            "prime_range": list(VERIFY_RANGE),
            "primes_per_pass": len(verify_primes()),
            "order": "ascending primes, seeded shuffle within groups of %d"
                     % SHUFFLE_GROUP["verify-sweep"],
            "invalid_share": 0,
            "deadline_s": DEADLINE_S["verify-sweep"],
            "expected_misses": EXPECTED_MISSES["verify-sweep"],
        },
    }
    for workload, entry in described.items():
        entry["pass_s"] = PASS_S[workload]
    described["unverified_assumptions"] = ASSUMPTIONS
    return described
