"""Response checker: independent oracles plus golden digests.

The oracles restate the paper's closed forms here, apart from the
program, so a shared bug cannot hide: supersingular counts and the 0/1728
flags, toric ranks, orbit counts N_p, the worked equations, the ns+
component-group prediction, and the component-group order as a weighted
matrix-tree count on the small unsubdivided dual graph.  Every response
is also compared with a digest frozen from the seed's byte-reproducible
output (golden.json); requests the seed never finishes have no digest
and are checked by the oracles alone.
"""

from __future__ import annotations

import hashlib
import json
import os
from fractions import Fraction

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

GROUP_ORDER = {"a4": 12, "s4": 24, "a5": 60}

# N_p and the exceptional orbits present, by congruence class
ORBIT_TABLES = {
    "a4": (12, {1: (23, ("O2", "O3,1", "O3,2")), 5: (7, ("O2",)),
                7: (17, ("O3,1", "O3,2")), 11: (1, ())}),
    "s4": (24, {1: (47, ("O2", "O3", "O4")), 5: (19, ("O4",)), 7: (17, ("O3",)),
                11: (13, ("O2",)), 13: (35, ("O3", "O4")), 17: (31, ("O2", "O4")),
                19: (5, ("O2", "O3")), 23: (1, ())}),
    "a5": (60, {1: (119, ("O2", "O3", "O5")), 11: (49, ("O5",)), 19: (41, ("O3",)),
                29: (31, ("O2",)), 31: (89, ("O3", "O5")), 41: (79, ("O2", "O5")),
                49: (71, ("O2", "O3")), 59: (1, ())}),
}
ORBIT_NAMES = {"a4": ("O2", "O3,1", "O3,2"), "s4": ("O2", "O3", "O4"), "a5": ("O2", "O3", "O5")}

WORKED = {
    ("a4", 13): "u^7 = t^5 (t-1)^5",
    ("s4", 73): "u^37 = t^19 (t-14)^25 (t-48)^28 (t-58)",
    ("a4", 103): "u^52 = t^35 (t-3) (t-10) (t-22) (t-39) (t-64) (t-89) (t-100) (t-102)",
    ("a5", 421): "u^211 = t (t-23)^106 (t-47) (t-144)^141 (t-161) (t-228) (t-292) (t-317)^169",
}


class Mismatch(Exception):
    pass


def expect(cond, what):
    if not cond:
        raise Mismatch(what)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_golden() -> dict:
    with open(GOLDEN_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def genus_x0(p: int) -> int:
    return {1: (p - 13) // 12, 5: (p - 5) // 12, 7: (p - 7) // 12}.get(p % 12, (p + 1) // 12)


def e_values(p: int) -> list:
    """Automorphism order per supersingular j: s = g(X_0(p)) + 1 points,
    j = 1728 supersingular iff p = 3 mod 4, j = 0 iff p = 2 mod 3."""
    s = genus_x0(p) + 1
    f1728, f0 = p % 4 == 3, p % 3 == 2
    return [1] * (s - f1728 - f0) + [2] * f1728 + [3] * f0


def toric_rank(family: str, p: int) -> int:
    s = genus_x0(p) + 1
    if family == "ns":
        return s - 1
    if family == "s":
        return 3 * (s - 1)
    if family == "ns+":
        return {1: (p - 13) // 12, 5: (p - 5) // 12}.get(p % 12, 0)
    return {1: (p - 13) // 6, 5: (p - 5) // 6, 7: (p - 7) // 12, 11: (p + 1) // 12}[p % 12]


def orbit_count(group: str, p: int):
    modulus, table = ORBIT_TABLES[group]
    shift, present = table[p % modulus]
    return (p + shift) // modulus, present


def dual_graph(family: str, p: int):
    """Vertices and width-labelled edges of a Cartan family's fiber."""
    c4 = family in ("ns+", "s+") and p % 4 == 1
    igusa = {"ns": ["Ig1", "Igd"], "s": ["Ig1", "Igd"]}.get(
        family, ["IgA", "IgB"] if c4 else ["Ig"])
    rational = {"s": ["R1", "R2"], "s+": ["R"]}.get(family, [])
    factor = 4 if c4 else 2
    vertices = igusa + rational
    edges = []
    for i, e in enumerate(e_values(p)):
        d = "D%d" % i
        vertices.append(d)
        edges += [(d, v, factor * e) for v in igusa]
        edges += [(d, v, (p - 1) * e) for v in rational]
    return vertices, edges


def component_group_order(family: str, p: int) -> int:
    """Spanning trees of the subdivided graph, from the small graph.

    A tree of the subdivision omits exactly one unit edge on each path
    it does not use, so the count is (prod w) * det of the reduced
    Laplacian with conductance 1/w per edge (weighted matrix-tree).
    """
    vertices, edges = dual_graph(family, p)
    index = {v: i for i, v in enumerate(vertices)}
    n = len(vertices) - 1
    lap = [[Fraction(0)] * n for _ in range(n)]
    weight = 1
    for a, b, w in edges:
        weight *= w
        c = Fraction(1, w)
        for i, j in ((index[a], index[b]), (index[b], index[a])):
            if i < n:
                lap[i][i] += c
                if j < n:
                    lap[i][j] -= c
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if lap[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            lap[col], lap[pivot] = lap[pivot], lap[col]
            det = -det
        det *= lap[col][col]
        for r in range(col + 1, n):
            f = lap[r][col] / lap[col][col]
            if f:
                for k in range(col, n):
                    lap[r][k] -= f * lap[col][k]
    value = det * weight
    expect(value.denominator == 1, "matrix-tree count is not an integer")
    return abs(int(value))


def nsplus_prediction(p: int) -> list:
    """(Z/8n) x (Z/8)^(s-2), n = numerator((p-1)/12), for p = 1 mod 4, s >= 2."""
    s = genus_x0(p) + 1
    if p % 4 != 1 or s <= 1:
        return []
    return [8] * (s - 2) + [8 * Fraction(p - 1, 12).numerator]


# ---------------------------------------------------------------------------
# per-command oracles
# ---------------------------------------------------------------------------


def _check_fiber(fam, p, out):
    ev = e_values(p)
    expect(out["family"] == fam and out["p"] == p, "wrong key echoed")
    expect(out["s"] == len(ev), "supersingular count s")
    if fam in GROUP_ORDER:
        expect(out["toric_rank"] is None and out["edges"] == [], "exceptional incidence emitted")
        return
    expect(sorted(h["e"] for h in out["horizontal"]) == sorted(ev), "0/1728 flags (e values)")
    expect(out["toric_rank"] == toric_rank(fam, p), "toric rank")
    _, edges = dual_graph(fam, p)
    expect(sorted(e["width"] for e in out["edges"]) == sorted(w for _, _, w in edges),
           "crossing widths")


def _check_drinfeld(sel, p, out):
    if sel in GROUP_ORDER:
        n_p, _ = orbit_count(sel, p)
        expect(out["orbit_count"] == n_p, "orbit count N_p")
        expect(out["N"] == (p + 1) // 2 and out["equation"].startswith("u^%d = " % out["N"]),
               "cover degree (p+1)/2")
        if (sel, p) in WORKED:
            expect(out["equation"] == WORKED[(sel, p)], "worked equation")
        return
    expect([q["e"] for q in out["equations"]] == sorted(set(e_values(p))), "e values")


def _check_orbits(g, p, out):
    n_p, present = orbit_count(g, p)
    expect(out["N_p"] == n_p == len(out["orbits"]), "orbit count N_p")
    expect(sum(o["size"] for o in out["orbits"]) == p + 1, "orbits cover P^1")
    expect(all(o["size"] * o["isotropy"] == GROUP_ORDER[g] for o in out["orbits"]),
           "orbit-stabilizer")
    expect(out["exceptional"] == {name: name in present for name in ORBIT_NAMES[g]},
           "exceptional orbit pattern")


def _check_neron(fam, p, out):
    inv = out["invariants"]
    expect(all(d >= 2 for d in inv) and all(b % a == 0 for a, b in zip(inv, inv[1:])),
           "invariant factors chain")
    order = 1
    for d in inv:
        order *= d
    expect(out["order"] == order == component_group_order(fam, p), "component-group order")
    if fam == "ns+":
        expect(inv == nsplus_prediction(p), "ns+ prediction")


ORACLES = {"fiber": _check_fiber, "drinfeld": _check_drinfeld,
           "orbits": _check_orbits, "neron": _check_neron}


def check(req, valid: bool, rc: int, out: str, golden: dict):
    """None when the response is right, else a one-line reason."""
    cmd, sel, p = req
    try:
        if not valid:
            expect(rc == 2 and out == "", "invalid request not rejected with exit code 2")
            return None
        if cmd == "battery":
            results = json.loads(out)
            expect(all(r[2] for r in results), "battery check failed: %s"
                   % [r[0] for r in results if not r[2]])
        else:
            expect(rc == 0, "exit code %d" % rc)
            ORACLES[cmd](sel, p, json.loads(out))
        key = ("%s %s %d" % req) if sel else ("%s %d" % (cmd, p))
        if key in golden:
            expect(digest(out) == golden[key], "output differs from the golden digest")
    except Mismatch as exc:
        return str(exc)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return "malformed response: %r" % (exc,)
    return None
